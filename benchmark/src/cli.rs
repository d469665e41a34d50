//! The command line shared by both binaries.
//!
//! ```text
//! artisan-benchmark       --workload <name|all> [--seed N] [--seconds S] [--trace 0]
//! artisan-benchmark-trace --workload <name|all> [--seed N] [--seconds S] [--trace 1]
//! artisan-benchmark compare <parent.jsonl> <change.jsonl>
//! ```

use crate::{compare, Outcome, RunConfig, Workload, DEFAULT_SECONDS, DEFAULT_SEED};
use std::process::{Command, ExitCode};

/// Parsed run arguments.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
}

fn parse(args: &[String], traced: bool) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
    };
    let mut saw_workload = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                saw_workload = true;
                parsed.workload = match value.as_str() {
                    "all" => None,
                    name => Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?),
                };
            }
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds {value}: expected a positive number"))?;
            }
            "--trace" => {
                let expected = if traced { "1" } else { "0" };
                if value != expected {
                    let other = if traced {
                        "artisan-benchmark"
                    } else {
                        "artisan-benchmark-trace"
                    };
                    return Err(format!("--trace {value} is served by {other}"));
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !saw_workload {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

/// Names of set `ARTISAN_*` environment variables: library knobs that
/// would silently change what the benchmark measures.
fn artisan_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ARTISAN_"))
        .collect()
}

fn print(out: &Outcome) {
    for note in &out.notes {
        println!("# {note}");
    }
    for problem in &out.problems {
        eprintln!("{}: check failed: {problem}", out.workload.name());
    }
    if let Some(digest) = out.digest {
        println!("# output digest {digest:016x}");
    }
    for m in &out.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.json_line());
}

/// Runs each workload of `all` in its own process, so peak memory is
/// per workload. Waits for every child.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut child_args = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().cloned().unwrap_or_default();
            child_args.push(flag.clone());
            child_args.push(if flag == "--workload" {
                w.name().to_string()
            } else {
                value
            });
        }
        println!("## workload {}", w.name());
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("workload {} exited with {status}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("workload {} did not start: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Entry point of `artisan-benchmark` (`traced = false`) and
/// `artisan-benchmark-trace` (`traced = true`). Exits 0 when every
/// output check passed, 1 when one failed, 2 on bad usage.
pub fn main(traced: bool) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return ExitCode::from(compare::main(&args[1..]));
    }
    let set = artisan_env();
    if !set.is_empty() {
        eprintln!(
            "refusing to run with {} set: unset every ARTISAN_* variable",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let parsed = match parse(&args, traced) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: --workload <table3|sessions|eval|serve|all> [--seed N] [--seconds S] [--trace {}]",
                u8::from(traced)
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = parsed.workload else {
        return run_all(&args);
    };
    let cfg = RunConfig::standard(workload, parsed.seed, parsed.seconds);
    let mut out = if traced {
        workload.trace(&cfg)
    } else {
        workload.run(&cfg)
    };
    out.check_finite();
    print(&out);
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_run_command_line() {
        let a = parse(
            &args("--workload serve --seed 7 --seconds 20 --trace 0"),
            false,
        );
        assert_eq!(
            a,
            Ok(Args {
                workload: Some(Workload::Serve),
                seed: 7,
                seconds: 20.0
            })
        );
        assert!(parse(&args("--workload serve --trace 1"), false).is_err());
        assert!(parse(&args("--workload serve --trace 1"), true).is_ok());
        assert_eq!(
            parse(&args("--workload all"), false).map(|a| a.workload),
            Ok(None)
        );
        assert!(parse(&args("--workload nope"), false).is_err());
        assert!(parse(&args("--seed 1"), false).is_err());
        assert!(parse(&args("--workload eval --seconds -1"), false).is_err());
        assert!(parse(&args("--workload eval --seed"), false).is_err());
    }
}
