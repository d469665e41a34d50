//! Tiny-size calls of every workload through the library API, plus the
//! check that `BENCHMARK.json` lists exactly the metrics the binaries
//! print.

use artisan_benchmark::trace::PER_LAYER;
use artisan_benchmark::{Outcome, RunConfig, Workload, END_TO_END};
use artisan_core::ArtisanOptions;
use artisan_serve::json::Json;
use std::path::PathBuf;

/// A run small enough for a debug build: one set-up of the untrained
/// framework and a 50 ms measured phase. Every loop still runs at least
/// one op, and the traced table3, sessions and eval runs always cover
/// their digest prefix (serve's needs a 2.5 s fixed-rate phase).
fn tiny(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.05,
        setups: 1,
        artisan: ArtisanOptions::fast(),
        scratch: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("test-scratch"),
        pinned: None,
    }
}

fn names(out: &Outcome) -> Vec<(&str, &str)> {
    out.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

fn check_untraced(workload: Workload) {
    let out = workload.run(&tiny(11));
    assert!(out.correct(), "{}: {:?}", workload.name(), out.problems);
    assert!(out.attempted >= 1);
    assert_eq!(out.failed, 0);
    assert_eq!(names(&out), END_TO_END);
    for m in &out.metrics {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{} = {}",
            m.name,
            m.value
        );
    }
}

fn check_traced(workload: Workload) {
    let out = workload.trace(&tiny(12));
    assert!(out.correct(), "{}: {:?}", workload.name(), out.problems);
    if workload != Workload::Serve {
        assert!(out.digest.is_some(), "{}: no digest", workload.name());
    }
    assert_eq!(names(&out), PER_LAYER);
    let value = |name: &str| {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    assert!(value("trace.wall_s") > 0.0);
    assert!((value("trace.attributed_share") - 1.0).abs() <= 0.05);
    assert!(value("sim.analyze_us") > 0.0, "{}", workload.name());
}

#[test]
fn table3_runs_at_tiny_size() {
    check_untraced(Workload::Table3);
    check_traced(Workload::Table3);
}

#[test]
fn sessions_run_at_tiny_size() {
    check_untraced(Workload::Sessions);
    check_traced(Workload::Sessions);
}

#[test]
fn eval_runs_at_tiny_size() {
    check_untraced(Workload::Eval);
    check_traced(Workload::Eval);
}

#[test]
fn serve_runs_at_tiny_size() {
    check_untraced(Workload::Serve);
    check_traced(Workload::Serve);
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to benchmark/");
    let doc = Json::parse(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or_default();
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), owned(&END_TO_END));
    assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(artisan_benchmark::DEFAULT_SECONDS)
    );
}
