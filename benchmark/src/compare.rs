//! `compare`: verdicts for a change against its parent.
//!
//! Input is two JSON-lines files of untraced runs, one result object
//! per line with an added `"workload"` key, in the order the runs were
//! made (alternating parent and change). For each end-to-end metric of
//! the repository's `BENCHMARK.json` and each workload the rule is:
//!
//! - **improved**: at least [`MIN_PAIRS`] pairs, the change wins at
//!   least 9 of 10 of them (ties count for neither side), and the
//!   medians differ by more than the parent's interquartile range;
//! - **regressed**: the change's median is worse than the parent's by
//!   more than the metric's bound;
//! - **unresolved**: the parent's own spread exceeds the bound, unless
//!   every change run reads better than every parent run;
//! - **unchanged**: otherwise.

use crate::stats::{iqr, median};
use artisan_serve::json::Json;

/// Pairs needed before a gain can be claimed.
pub const MIN_PAIRS: usize = 10;

/// One end-to-end metric's comparison rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether smaller values are better.
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// Reads the `end_to_end` rules of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Describes the first malformed entry.
pub fn load_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json)?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let lower_is_better = match e.get("better").and_then(Json::as_str) {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = e
                .get("bound")
                .and_then(Json::as_f64)
                .filter(|b| b.is_finite() && *b >= 0.0)
                .ok_or(format!("{name}: missing or invalid bound"))?;
            Ok(Bound {
                name: name.to_string(),
                lower_is_better,
                bound,
            })
        })
        .collect()
}

/// One run read from a JSON-lines file.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The workload it ran.
    pub workload: String,
    /// Metric name → value.
    pub metrics: Vec<(String, f64)>,
}

/// Parses one run per non-empty line.
///
/// # Errors
///
/// Names the first line that is not a run object.
pub fn parse_runs(text: &str) -> Result<Vec<Run>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(n, line)| {
            let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let workload = doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or(format!("line {}: no workload", n + 1))?;
            let Some(Json::Obj(pairs)) = doc.get("metrics") else {
                return Err(format!("line {}: no metrics object", n + 1));
            };
            let metrics = pairs
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect();
            Ok(Run {
                workload: workload.to_string(),
                metrics,
            })
        })
        .collect()
}

/// The outcome for one (metric, workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain under the pairs rule.
    Improved,
    /// Within the bound and the spread.
    Unchanged,
    /// Worse than the bound allows.
    Regressed,
    /// The parent's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The numbers behind a verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    /// The verdict.
    pub verdict: Verdict,
    /// Parent median.
    pub parent: f64,
    /// Change median.
    pub change: f64,
    /// Share by which the change's median is worse (negative: better).
    pub worse_by: f64,
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
}

/// Applies the rule to one metric's runs, in file order.
pub fn judge(parent: &[f64], change: &[f64], rule: &Bound) -> Judgement {
    let better = |a: f64, b: f64| if rule.lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let (mp, mc) = (median(parent), median(change));
    let signed = if rule.lower_is_better {
        mc - mp
    } else {
        mp - mc
    };
    let worse_by = if mp == 0.0 { 0.0 } else { signed / mp.abs() };
    let spread = if mp == 0.0 {
        0.0
    } else {
        iqr(parent) / mp.abs()
    };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && worse_by < 0.0
        && (mc - mp).abs() > iqr(parent)
    {
        Verdict::Improved
    } else if worse_by > rule.bound {
        Verdict::Regressed
    } else if spread > rule.bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Judgement {
        verdict,
        parent: mp,
        change: mc,
        worse_by,
        wins,
        pairs,
    }
}

/// Every (metric, workload) judgement, workloads in first-seen order.
pub fn compare(
    parent: &[Run],
    change: &[Run],
    rules: &[Bound],
) -> Vec<(String, String, Judgement)> {
    let mut workloads: Vec<&str> = Vec::new();
    for run in parent.iter().chain(change) {
        if !workloads.contains(&run.workload.as_str()) {
            workloads.push(&run.workload);
        }
    }
    let values = |runs: &[Run], workload: &str, metric: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
            .collect()
    };
    let mut out = Vec::new();
    for workload in workloads {
        for rule in rules {
            let p = values(parent, workload, &rule.name);
            let c = values(change, workload, &rule.name);
            if p.is_empty() || c.is_empty() {
                continue;
            }
            out.push((workload.to_string(), rule.name.clone(), judge(&p, &c, rule)));
        }
    }
    out
}

/// The repository's `BENCHMARK.json`, next to this package.
const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// `compare <parent.jsonl> <change.jsonl>`: prints one verdict row per
/// (metric, workload), with the bounds of the repository's
/// `BENCHMARK.json`. Returns the process exit code: 0, or 1 when
/// anything regressed, 2 on bad input.
pub fn main(args: &[String]) -> u8 {
    let [parent, change] = args else {
        eprintln!("usage: compare <parent.jsonl> <change.jsonl>");
        return 2;
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let loaded = load_bounds(BENCHMARK_JSON).and_then(|rules| {
        let p = parse_runs(&read(parent)?)?;
        let c = parse_runs(&read(change)?)?;
        Ok((rules, p, c))
    });
    let (rules, p, c) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let rows = compare(&p, &c, &rules);
    println!(
        "{:<10} {:<12} {:>14} {:>14} {:>9} {:>7} {:>6}  verdict",
        "workload", "metric", "parent", "change", "worse_by", "wins", "bound"
    );
    let bound_of = |name: &str| {
        rules
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.bound)
    };
    for (workload, metric, j) in &rows {
        println!(
            "{workload:<10} {metric:<12} {:>14.6} {:>14.6} {:>8.2}% {:>3}/{:<3} {:>5.0}%  {}",
            j.parent,
            j.change,
            j.worse_by * 100.0,
            j.wins,
            j.pairs,
            bound_of(metric) * 100.0,
            j.verdict.label()
        );
        if j.pairs < MIN_PAIRS {
            println!(
                "  ({} pairs: fewer than {MIN_PAIRS}, no gain can be claimed)",
                j.pairs
            );
        }
    }
    u8::from(rows.iter().any(|(_, _, j)| j.verdict == Verdict::Regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower: bool, bound: f64) -> Bound {
        Bound {
            name: "m".to_string(),
            lower_is_better: lower,
            bound,
        }
    }

    #[test]
    fn bound_arithmetic_on_lower_and_higher_metrics() {
        let parent = [100.0; 10];
        // 9% slower with a 10% bound: within the bound.
        let j = judge(&parent, &[109.0; 10], &rule(true, 0.10));
        assert!((j.worse_by - 0.09).abs() < 1e-12);
        assert_eq!(j.verdict, Verdict::Unchanged);
        // 11% slower: regressed.
        assert_eq!(
            judge(&parent, &[111.0; 10], &rule(true, 0.10)).verdict,
            Verdict::Regressed
        );
        // Throughput 11% lower on a higher-is-better metric: regressed.
        let j = judge(&parent, &[89.0; 10], &rule(false, 0.10));
        assert!((j.worse_by - 0.11).abs() < 1e-12);
        assert_eq!(j.verdict, Verdict::Regressed);
        // 11% higher throughput, every pair won, beyond the zero IQR.
        assert_eq!(
            judge(&parent, &[111.0; 10], &rule(false, 0.10)).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn a_gain_needs_ten_pairs_and_nine_wins() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
        assert_eq!(
            judge(&parent, &faster, &rule(true, 0.1)).verdict,
            Verdict::Improved
        );
        // Nine pairs are not enough to claim a gain.
        assert_eq!(
            judge(&parent[..9], &faster[..9], &rule(true, 0.1)).verdict,
            Verdict::Unchanged
        );
        // Two lost pairs of ten: 8/10 < 9/10.
        let mut mixed = faster.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        let j = judge(&parent, &mixed, &rule(true, 0.5));
        assert_eq!(j.wins, 8);
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_gain_must_exceed_the_parent_spread() {
        // Parent IQR = 5.5 (quantiles of 100..=109); a 5-point median
        // shift that wins every pair is still inside the spread.
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let change: Vec<f64> = parent.iter().map(|p| p - 5.0).collect();
        let j = judge(&parent, &change, &rule(true, 0.1));
        assert_eq!(j.wins, 10);
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_wide_parent_spread_is_unresolved() {
        let parent = [
            50.0, 100.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 100.0,
        ];
        let change = [101.0; 10];
        assert_eq!(
            judge(&parent, &change, &rule(true, 0.1)).verdict,
            Verdict::Unresolved
        );
        // Unless every change run beats every parent run.
        let change = [10.0; 10];
        assert_eq!(
            judge(&parent, &change, &rule(true, 0.1)).verdict,
            Verdict::Improved
        );
        assert_eq!(
            judge(&parent[..5], &change[..5], &rule(true, 0.1)).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn the_repository_bounds_parse() {
        let rules = load_bounds(BENCHMARK_JSON).expect("BENCHMARK.json is valid");
        assert!(rules.iter().any(|r| r.name == "setup_s"));
        assert_eq!(main(&["only-one.jsonl".to_string()]), 2);
    }

    #[test]
    fn reads_bounds_and_runs() {
        let rules = load_bounds(
            r#"{"end_to_end": [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .expect("valid");
        assert_eq!(
            rules,
            [Bound {
                name: "p50_ms".into(),
                lower_is_better: true,
                bound: 0.1
            }]
        );
        let runs = parse_runs(
            "{\"workload\":\"table3\",\"correct\": true, \"metrics\": {\"p50_ms\": {\"value\": 2.5, \"unit\": \"ms\"}}}\n\n",
        )
        .expect("valid");
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].metrics, [("p50_ms".to_string(), 2.5)]);
        let rows = compare(&runs, &runs, &rules);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].2.verdict, Verdict::Unchanged);
        assert!(
            load_bounds(r#"{"end_to_end": [{"name": "x", "better": "up", "bound": 1}]}"#).is_err()
        );
    }
}
