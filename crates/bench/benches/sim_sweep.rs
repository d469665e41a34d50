//! The simulation engine's kernels: cached G/C-split assembly,
//! workspace-reusing solves, the sequential AC sweep, the AC
//! measurement's points one at a time vs in lanes, the batched
//! candidate fan-out vs the serial analysis loop, and the
//! content-addressed cache (miss vs hit).

use artisan_bench::MeasureCase;
use artisan_circuit::sample::{sample_topology, SampleRanges};
use artisan_circuit::units::Watts;
use artisan_circuit::Topology;
use artisan_math::{Complex64, ThreadPool};
use artisan_sim::ac::{sweep, SweepConfig, SweepGrid};
use artisan_sim::corners::{evaluate_corner, CornerPoint};
use artisan_sim::mna::MnaSystem;
use artisan_sim::{CachedSim, SimBackend, SimCache, Simulator};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::PI;
use std::hint::black_box;
use std::sync::Arc;

fn nmc_system() -> (MnaSystem, Vec<f64>) {
    let netlist = Topology::nmc_example().elaborate().expect("valid");
    let sys = MnaSystem::new(&netlist).expect("builds");
    let freqs = SweepConfig::default().frequencies().expect("grid");
    (sys, freqs)
}

/// Pure assembly: Y(s) + rhs(s) over the whole default grid, one fused
/// scale-add per point.
fn bench_assembly(c: &mut Criterion) {
    let (sys, freqs) = nmc_system();
    c.bench_function("assemble/cached_gc_split", |b| {
        b.iter(|| {
            for &f in &freqs {
                black_box(
                    sys.assemble(Complex64::jomega(2.0 * PI * f))
                        .expect("assembles"),
                );
            }
        })
    });
}

/// Full per-point solves over the grid through one reused workspace.
fn bench_solve(c: &mut Criterion) {
    let (sys, freqs) = nmc_system();
    c.bench_function("sweep_solve/cached_workspace", |b| {
        b.iter(|| {
            let mut ws = sys.workspace();
            for &f in &freqs {
                black_box(
                    sys.transfer_with(Complex64::jomega(2.0 * PI * f), &mut ws)
                        .expect("solves"),
                );
            }
        })
    });
}

/// The whole sweep: solves plus phase unwrap, one sequential loop.
fn bench_sweep(c: &mut Criterion) {
    let (sys, _) = nmc_system();
    let cfg = SweepConfig::default();
    c.bench_function("ac_sweep", |b| {
        b.iter(|| black_box(sweep(&sys, &cfg).expect("sweeps")))
    });
}

/// The points an AC measurement reads, on the NMC example and a fixed
/// dim-8 sampled candidate: solved one at a time (the scalar LU), in
/// blocks of `LANES` (the lane LU, as `ac::measure` solves them), and
/// a whole corner measurement through `evaluate_corner`.
fn bench_measure(c: &mut Criterion) {
    let grid = SweepGrid::new(&SweepConfig::default());
    let mut group = c.benchmark_group("measure");
    group.sample_size(101);
    for case in MeasureCase::pair().expect("measure cases") {
        let mut ws = case.sys.workspace();
        group.bench_function(&format!("{}/pointwise_solves", case.name), |b| {
            b.iter(|| {
                case.solve_pointwise(&mut ws, |_, h| {
                    black_box(h.expect("solves"));
                })
            })
        });
        let mut block_ws = case.sys.block_workspace();
        group.bench_function(&format!("{}/block_solves", case.name), |b| {
            b.iter(|| {
                case.solve_blocks(&mut block_ws, |_, h| {
                    black_box(h.expect("solves"));
                })
            })
        });
        group.bench_function(&format!("{}/evaluate_corner", case.name), |b| {
            b.iter(|| {
                black_box(
                    evaluate_corner(
                        &grid,
                        &case.netlist,
                        10e-12,
                        Watts(1e-4),
                        CornerPoint::default(),
                    )
                    .expect("measures"),
                )
            })
        });
    }
    group.finish();
}

/// The candidate batch (sibling-scoring / optimizer-DoE shape): the
/// serial analysis loop vs `analyze_batch` at pinned worker counts.
fn bench_batch_workers(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut topos = vec![Topology::nmc_example(), Topology::dfc_example()];
    topos.extend((0..6).map(|_| sample_topology(&mut rng, &SampleRanges::default(), 10e-12)));
    c.bench_function("analyze_batch/serial_loop", |b| {
        b.iter(|| {
            let mut sim = Simulator::new();
            for t in &topos {
                black_box(sim.analyze_topology(t).ok());
            }
        })
    });
    for workers in [1usize, 2, 4] {
        let pool = ThreadPool::with_workers(workers);
        c.bench_function(&format!("analyze_batch/workers_{workers}"), |b| {
            b.iter(|| {
                let mut sim = Simulator::new();
                black_box(sim.analyze_batch_with_pool(&topos, &pool));
            })
        });
    }
}

/// The content-addressed cache: a full analysis (miss) vs a memoized
/// hand-back (hit) of the identical topology.
fn bench_sim_cache(c: &mut Criterion) {
    let topo = Topology::nmc_example();
    c.bench_function("sim_cache/miss_full_analysis", |b| {
        b.iter(|| {
            let mut sim = CachedSim::new(Simulator::new(), SimCache::shared(16));
            black_box(sim.analyze_topology(&topo).expect("analyzes"));
        })
    });
    let cache = SimCache::shared(16);
    let mut warm = CachedSim::new(Simulator::new(), Arc::clone(&cache));
    warm.analyze_topology(&topo).expect("warms the cache");
    c.bench_function("sim_cache/hit_memoized", |b| {
        b.iter(|| {
            black_box(warm.analyze_topology(&topo).expect("hits"));
        })
    });
    assert!(cache.stats().hits > 0, "hit leg never hit the cache");
}

/// The persistent snapshot: serializing a populated cache to the
/// snapshot byte format and restoring it, as the warm-start path does
/// once per process.
fn bench_snapshot(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let cache = SimCache::shared(256);
    let mut sim = CachedSim::new(Simulator::new(), Arc::clone(&cache));
    let mut filled = 0usize;
    while filled < 32 {
        let topo = sample_topology(&mut rng, &SampleRanges::default(), 10e-12);
        if sim.analyze_topology(&topo).is_ok() {
            filled += 1;
        }
    }
    let entries = cache.len();
    assert!(entries > 0, "snapshot bench cache stayed empty");
    c.bench_function("snapshot/save_bytes", |b| {
        b.iter(|| black_box(cache.snapshot_bytes(0)))
    });
    let bytes = cache.snapshot_bytes(0);
    c.bench_function("snapshot/load_bytes", |b| {
        b.iter(|| {
            let (loaded, outcome) = SimCache::from_snapshot_bytes(&bytes, 256, 0);
            assert!(outcome.warning.is_none());
            black_box(loaded);
        })
    });
}

criterion_group!(
    benches,
    bench_assembly,
    bench_solve,
    bench_sweep,
    bench_measure,
    bench_batch_workers,
    bench_sim_cache,
    bench_snapshot
);
criterion_main!(benches);
