#!/usr/bin/env bash
# Checks that the paper binaries still print the committed results:
#
#   bash tests/repro.sh quick   # fig1, fig3, fig4, `table1 --scale 1000`,
#                               # `ablations --trials 10` and `table3 --quick` (seconds)
#   bash tests/repro.sh full    # `table3 --trials 10` against table3_output.txt (minutes)
#
# Every output must match its golden byte for byte, apart from table3's
# `(computed in …)` wall-clock line. Table 1's token counts and the
# ablations' DAPT perplexities come from the trained BPE tokenizer and
# n-gram model, so those two goldens pin the training path's bits.
# Table 3 must also keep the paper's shape: in every group Artisan
# succeeds more often than each baseline, GPT-4 and Llama2 never
# succeed, and at the paper's budgets the speedup range lies inside the
# paper's 20.4–50.1x.
#
# The goldens were made on x86_64 Debian 12 (glibc 2.36) with rustc
# 1.95.0. `exp` and `ln` come from the platform libm, so another libm
# may move last bits, and through the optimizers' trajectories whole
# rows. A change that moves results on purpose regenerates the goldens,
# table3_output.txt and EXPERIMENTS.md together.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
mode=${1:-}
case $mode in
    quick | full) ;;
    *)
        echo "usage: bash tests/repro.sh quick|full" >&2
        exit 2
        ;;
esac

golden=tests/golden
bin=target/release
cargo build --release --quiet -p artisan-bench \
    --bin table3 --bin fig1 --bin fig3 --bin fig4 --bin table1 --bin ablations 1>&2
out=$(mktemp -d target/repro.XXXXXX)
trap 'rm -rf "$out"' EXIT

# Prints a table3 output without its wall-clock line.
strip_clock() {
    grep -v '^(computed in ' "$1"
}

# check_shape FILE [MIN MAX]: the Table 3 shape, and with MIN and MAX
# the speedup range.
check_shape() {
    awk -v lo="${2:-}" -v hi="${3:-}" '
        $2 ~ /^G-[0-9]+$/ && $3 ~ /^[0-9]+\/[0-9]+$/ {
            split($3, s, "/")
            succ[$1, $2] = s[1] + 0
            groups[$2] = 1
            rows++
        }
        /accelerates the design process by/ {
            for (i = 1; i < NF; i++) if ($i == "by") { x_lo = $(i + 1); x_hi = $(i + 3) }
            sub(/x$/, "", x_lo)
            sub(/x$/, "", x_hi)
        }
        END {
            bad = 0
            if (rows != 25) { print "expected 25 method rows, found " rows; bad = 1 }
            split("BOBO RLBO GPT-4 Llama2", baselines, " ")
            for (g in groups) {
                a = succ["Artisan", g]
                for (b in baselines) {
                    m = baselines[b]
                    if (!((m, g) in succ)) { print "no " m " row for " g; bad = 1; continue }
                    if (succ[m, g] >= a) {
                        printf "%s %s: %d successes, not below Artisan'"'"'s %d\n", m, g, succ[m, g], a
                        bad = 1
                    }
                    if ((m == "GPT-4" || m == "Llama2") && succ[m, g] != 0) {
                        printf "%s %s: %d successes, expected 0\n", m, g, succ[m, g]
                        bad = 1
                    }
                }
            }
            if (lo != "") {
                if (x_lo == "") { print "no speedup line"; bad = 1 }
                else if (x_lo + 0 < lo + 0 || x_hi + 0 > hi + 0) {
                    printf "speedup %sx to %sx leaves the paper'"'"'s %sx to %sx\n", x_lo, x_hi, lo, hi
                    bad = 1
                }
            }
            exit bad
        }' "$1"
}

fail=0
if [ "$mode" = quick ]; then
    for fig in fig1 fig3 fig4; do
        "$bin/$fig" > "$out/$fig.txt"
        diff -u "$golden/$fig.txt" "$out/$fig.txt" || fail=1
    done
    "$bin/table1" --scale 1000 > "$out/table1.txt"
    diff -u "$golden/table1.txt" "$out/table1.txt" || fail=1
    "$bin/ablations" --trials 10 > "$out/ablations.txt"
    diff -u "$golden/ablations.txt" "$out/ablations.txt" || fail=1
    "$bin/table3" --quick > "$out/table3_quick.txt"
    strip_clock "$out/table3_quick.txt" | diff -u "$golden/table3_quick.txt" - || fail=1
    check_shape "$out/table3_quick.txt" || fail=1
else
    "$bin/table3" --trials 10 > "$out/table3.txt"
    diff -u <(strip_clock table3_output.txt) <(strip_clock "$out/table3.txt") || fail=1
    check_shape "$out/table3.txt" 20.4 50.1 || fail=1
    grep '^(computed in ' "$out/table3.txt" >&2
fi
if [ "$fail" -ne 0 ]; then
    echo "repro $mode: the paper outputs moved (see above)" >&2
    exit 1
fi
echo "repro $mode: OK"
