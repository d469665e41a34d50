//! Property-based tests for the simulator: physical invariants that must
//! hold over the whole sampled design space.

use artisan_circuit::sample::{mutate_netlist, sample_topology, SampleRanges};
use artisan_circuit::{Element, Netlist, Node, Topology};
use artisan_math::{CMatrix, Complex64, MathError, ThreadPool};
use artisan_sim::ac::{sweep, unity_crossing, SweepConfig};
use artisan_sim::mna::MnaSystem;
use artisan_sim::poles::{pole_zero, PoleZeroConfig};
use artisan_sim::{CachedSim, ScreenedSim, SimBackend, SimCache, SimError, Simulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A netlist from the broken neighbourhood of the design space: a legal
/// base (the paper's NMC example or a sampled topology) put through
/// 1–3 random structural/value mutations.
fn broken_neighbourhood(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = if rng.gen_bool(0.5) {
        Topology::nmc_example()
    } else {
        sample_topology(&mut rng, &SampleRanges::default(), 10e-12)
    };
    let netlist = base.elaborate().expect("legal base elaborates");
    mutate_netlist(&mut rng, &netlist)
}

/// The per-point element walk that the cached G/C split replaced, kept
/// as a test oracle: rebuilds the node index from the netlist and
/// stamps `Y(s) = G + sC` element by element with source elimination
/// (ground rows and columns vanish, the input column feeds the
/// right-hand side for unit drive, the input row is dropped).
fn assemble_by_element_walk(netlist: &Netlist, s: Complex64) -> (CMatrix, Vec<Complex64>) {
    let index: HashMap<Node, usize> = netlist
        .unknown_nodes()
        .into_iter()
        .enumerate()
        .map(|(k, n)| (n, k))
        .collect();
    let mut y = CMatrix::zeros(index.len(), index.len());
    let mut rhs = vec![Complex64::ZERO; index.len()];
    let mut stamp = |r: Node, c: Node, v: Complex64| {
        let Some(&ri) = index.get(&r) else { return };
        match (c, index.get(&c)) {
            (Node::Input, _) => rhs[ri] -= v,
            (_, Some(&ci)) => y.stamp(ri, ci, v),
            _ => {}
        }
    };
    for e in netlist.elements() {
        match e {
            Element::Resistor { a, b, ohms, .. } => {
                let v = Complex64::from_real(1.0 / ohms.value());
                for (r, c, v) in [(*a, *a, v), (*a, *b, -v), (*b, *b, v), (*b, *a, -v)] {
                    stamp(r, c, v);
                }
            }
            Element::Capacitor { a, b, farads, .. } => {
                let v = s * Complex64::from_real(farads.value());
                for (r, c, v) in [(*a, *a, v), (*a, *b, -v), (*b, *b, v), (*b, *a, -v)] {
                    stamp(r, c, v);
                }
            }
            Element::Vccs {
                out_p,
                out_n,
                ctrl_p,
                ctrl_n,
                gm,
                ..
            } => {
                // I = gm·(v(cp) − v(cn)) leaves out_p, enters out_n.
                let v = Complex64::from_real(gm.value());
                for (r, c, v) in [
                    (*out_p, *ctrl_p, v),
                    (*out_p, *ctrl_n, -v),
                    (*out_n, *ctrl_p, -v),
                    (*out_n, *ctrl_n, v),
                ] {
                    stamp(r, c, v);
                }
            }
        }
    }
    (y, rhs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Passive RC networks are unconditionally stable: every pole of a
    /// random resistor/capacitor ladder lies in the closed left
    /// half-plane.
    #[test]
    fn passive_networks_are_stable(seed in 0u64..2000) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Build a random RC ladder: in -R- x0 -R- x1 … -R- out, with a
        // random shunt R or C at every internal node.
        let stages = rng.gen_range(2..5);
        let mut text = String::from("* rc ladder\n");
        let mut prev = "in".to_string();
        for k in 0..stages {
            let node = if k == stages - 1 { "out".to_string() } else { format!("x{k}") };
            let r = rng.gen_range(1e2..1e6);
            text.push_str(&format!("R{k} {prev} {node} {r}\n"));
            let c = rng.gen_range(1e-13..1e-9);
            text.push_str(&format!("C{k} {node} 0 {c:e}\n"));
            prev = node;
        }
        text.push_str("Rload out 0 1meg\n.end\n");
        let netlist = Netlist::parse(&text).expect("generated netlist parses");
        let sys = MnaSystem::new(&netlist).expect("builds");
        let pz = pole_zero(&sys, &netlist, &PoleZeroConfig::default()).expect("extracts");
        prop_assert!(pz.is_stable(), "unstable passive network: {:?}", pz.poles);
        // And the DC transfer of a resistive ladder is in (0, 1].
        let h0 = sys.transfer(Complex64::ZERO).expect("solves");
        prop_assert!(h0.re > 0.0 && h0.re <= 1.0 + 1e-9, "{h0}");
    }

    /// The MNA solution satisfies its own system: ‖Y·v − i‖ is tiny at a
    /// random frequency for random sampled topologies.
    #[test]
    fn mna_solution_satisfies_kcl(seed in 0u64..2000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = sample_topology(&mut rng, &SampleRanges::default(), 10e-12);
        let netlist = topo.elaborate().expect("valid");
        let sys = MnaSystem::new(&netlist).expect("builds");
        let f = 10f64.powf(rng.gen_range(0.0..8.0));
        let s = Complex64::jomega(2.0 * std::f64::consts::PI * f);
        if let Ok(v) = sys.solve(s) {
            let (y, rhs) = sys.assemble(s).expect("assemble");
            let yv = y.mul_vec(&v).expect("dims");
            let res: f64 = yv.iter().zip(&rhs)
                .map(|(a, b)| (*a - *b).abs_sq()).sum::<f64>().sqrt();
            let scale: f64 = rhs.iter().map(|b| b.abs_sq()).sum::<f64>().sqrt().max(1e-12);
            prop_assert!(res / scale < 1e-7, "residual {res}");
        }
    }

    /// H(−jω) is the conjugate of H(jω) — real networks have Hermitian
    /// transfer functions.
    #[test]
    fn transfer_is_hermitian(seed in 0u64..2000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = sample_topology(&mut rng, &SampleRanges::default(), 10e-12);
        let netlist = topo.elaborate().expect("valid");
        let sys = MnaSystem::new(&netlist).expect("builds");
        let w = 10f64.powf(rng.gen_range(2.0..8.0));
        if let (Ok(hp), Ok(hm)) = (
            sys.transfer(Complex64::jomega(w)),
            sys.transfer(Complex64::jomega(-w)),
        ) {
            prop_assert!((hp - hm.conj()).abs() <= 1e-9 * hp.abs().max(1e-9));
        }
    }

    /// The cached G/C-split assembly agrees with the legacy per-point
    /// element walk to floating-point round-off, at DC and at a random
    /// frequency, on a random sampled topology and on the paper's NMC
    /// example (the fixed case).
    #[test]
    fn cached_assembly_matches_legacy_on_random_netlists(seed in 0u64..2000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sampled = sample_topology(&mut rng, &SampleRanges::default(), 10e-12)
            .elaborate()
            .expect("valid");
        let nmc = Topology::nmc_example().elaborate().expect("valid");
        let f = 10f64.powf(rng.gen_range(0.0..9.0));
        for netlist in [&sampled, &nmc] {
            let sys = MnaSystem::new(netlist).expect("builds");
            for f in [0.0, f] {
                let s = Complex64::jomega(2.0 * std::f64::consts::PI * f);
                let (y_new, rhs_new) = sys.assemble(s).expect("cached assembles");
                let (y_old, rhs_old) = assemble_by_element_walk(netlist, s);
                let y_scale = y_old.frobenius_norm().max(1e-30);
                for r in 0..y_old.rows() {
                    for c in 0..y_old.cols() {
                        let (a, b) = (y_new[(r, c)], y_old[(r, c)]);
                        prop_assert!((a - b).abs() <= 1e-12 * y_scale, "{a} vs {b} at f = {f}");
                    }
                }
                let r_scale: f64 = rhs_old.iter().map(|v| v.abs()).fold(1e-30, f64::max);
                for (a, b) in rhs_new.iter().zip(&rhs_old) {
                    prop_assert!((*a - *b).abs() <= 1e-12 * r_scale, "{a} vs {b} at f = {f}");
                }
            }
        }
    }

    /// A `CachedSim` wrapper is report-transparent on random sampled
    /// topologies: cold (miss) and warm (hit) results are identical to
    /// the bare simulator's, on both the topology and the netlist path,
    /// and a warm analysis bills the cache account instead of a
    /// simulation.
    #[test]
    fn cached_reports_are_identical_to_bare_simulator(seed in 0u64..2000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = sample_topology(&mut rng, &SampleRanges::default(), 10e-12);
        let shape = |r: &artisan_sim::Result<artisan_sim::AnalysisReport>| match r {
            Ok(rep) => format!("{:?} stable={}", rep.performance, rep.stable),
            Err(e) => format!("err {e}"),
        };
        let mut bare = Simulator::new();
        let expected = bare.analyze_topology(&topo);
        let mut cached = CachedSim::new(Simulator::new(), SimCache::shared(64));
        let cold = cached.analyze_topology(&topo);
        let warm = cached.analyze_topology(&topo);
        prop_assert_eq!(shape(&cold), shape(&expected));
        prop_assert_eq!(shape(&warm), shape(&expected));
        let cacheable = matches!(&expected, Ok(r) if r.performance.is_finite());
        if cacheable {
            prop_assert_eq!(cached.ledger().cache_hits(), 1);
            prop_assert_eq!(cached.ledger().simulations(), 1);
        } else {
            prop_assert_eq!(
                cached.ledger().cache_hits(), 0,
                "only finite Ok reports may be cached"
            );
        }
        // The netlist path keys separately but must be just as
        // transparent.
        if let Ok(netlist) = topo.elaborate() {
            let expected_net = shape(&SimBackend::analyze_netlist(&mut bare, &netlist));
            let cold_net = shape(&SimBackend::analyze_netlist(&mut cached, &netlist));
            let warm_net = shape(&SimBackend::analyze_netlist(&mut cached, &netlist));
            prop_assert_eq!(&cold_net, &expected_net);
            prop_assert_eq!(&warm_net, &expected_net);
        }
    }

    /// `analyze_batch` equals the hand-written serial loop on random
    /// sampled topologies for every worker count, including counts
    /// above the batch size: the same bits in every f64 field, the same
    /// errors, the same billed simulations.
    #[test]
    fn batch_equals_serial_for_any_worker_count(seed in 0u64..2000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..5);
        let topos: Vec<Topology> = (0..n)
            .map(|_| sample_topology(&mut rng, &SampleRanges::default(), 10e-12))
            .collect();
        let mut serial_sim = Simulator::new();
        let serial: Vec<_> = topos
            .iter()
            .map(|t| serial_sim.analyze_topology(t))
            .collect();
        for workers in [1usize, 2, n + 1, n + 7] {
            let mut sim = Simulator::new();
            let batch = sim.analyze_batch_with_pool(&topos, &ThreadPool::with_workers(workers));
            prop_assert_eq!(batch.len(), n);
            for (k, (got, want)) in batch.iter().zip(&serial).enumerate() {
                match (got, want) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(
                        report_bits(a), report_bits(b), "candidate {} workers {}", k, workers
                    ),
                    (Err(a), Err(b)) => prop_assert_eq!(
                        format!("{a}"), format!("{b}"), "candidate {} workers {}", k, workers
                    ),
                    (a, b) => prop_assert!(
                        false, "candidate {} workers {}: batch {:?} vs serial {:?}",
                        k, workers, a.is_ok(), b.is_ok()
                    ),
                }
            }
            prop_assert_eq!(sim.ledger().simulations(), n as u64);
            prop_assert_eq!(sim.ledger().batched_solves(), n as u64);
        }
    }

    /// One analysis path: wherever an analysis succeeds, its GBW and
    /// phase margin are [`unity_crossing`] over the full sweep, bit for
    /// bit. The analysis stops at the end of the sweep block holding
    /// the first point below unity, so a full sweep may fail where the
    /// analysis succeeded — but only at a frequency above the reported
    /// GBW. The same holds for a corner of the candidate, measured by
    /// `evaluate_corner` and swept from the scaled netlist, and where
    /// the corner fails, the sweep fails at the same frequency or finds
    /// no crossing either. Candidates are sampled with 10 pF and 1 nF
    /// loads or taken from the broken neighbourhood.
    #[test]
    fn analysis_reads_the_first_crossing_of_the_full_sweep(seed in 0u64..4000) {
        use artisan_circuit::units::Watts;
        use artisan_sim::ac::SweepGrid;
        use artisan_sim::corners::{evaluate_corner, CornerGrid};
        let mut rng = StdRng::seed_from_u64(seed);
        let netlist = match seed % 3 {
            0 => sample_topology(&mut rng, &SampleRanges::default(), 10e-12)
                .elaborate()
                .expect("valid"),
            1 => sample_topology(&mut rng, &SampleRanges::default(), 1e-9)
                .elaborate()
                .expect("valid"),
            _ => broken_neighbourhood(seed),
        };
        let config = SweepConfig::default();
        let reads_the_full_sweep = |netlist: &Netlist, gbw: f64, pm: f64| {
            let sys = MnaSystem::new(netlist).expect("a measured netlist builds");
            match sweep(&sys, &config) {
                Ok(points) => {
                    let (f_u, phase) = unity_crossing(&points)
                        .unwrap_or_else(|| panic!("the measurement found a crossing the sweep lacks"));
                    prop_assert_eq!(gbw.to_bits(), f_u.to_bits());
                    prop_assert_eq!(pm.to_bits(), (180.0 + phase).to_bits());
                }
                Err(SimError::IllConditioned { frequency }) => prop_assert!(
                    frequency > gbw,
                    "sweep failed at {} Hz, below the measured GBW {} Hz", frequency, gbw
                ),
                Err(e) => prop_assert!(false, "unexpected sweep failure: {}", e),
            }
        };
        if let Ok(report) = Simulator::new().analyze_netlist(&netlist) {
            let p = &report.performance;
            reads_the_full_sweep(&netlist, p.gbw.value(), p.pm.value());
        }
        let corners: Vec<_> = CornerGrid::default()
            .corners()
            .into_iter()
            .filter(|c| !c.is_nominal())
            .collect();
        let corner = corners[rng.gen_range(0..corners.len())];
        let grid = SweepGrid::new(&config);
        let scaled = corner.apply(&netlist);
        match evaluate_corner(&grid, &netlist, 10e-12, Watts(1e-4), corner) {
            Ok(p) => reads_the_full_sweep(&scaled, p.gbw.value(), p.pm.value()),
            Err(SimError::IllConditioned { frequency }) => {
                let sys = MnaSystem::new(&scaled).expect("a measured netlist builds");
                let swept = sweep(&sys, &config);
                prop_assert!(
                    matches!(swept, Err(SimError::IllConditioned { frequency: f }) if f.to_bits() == frequency.to_bits()),
                    "corner {:?} failed at {} Hz; the sweep gave {:?}", corner, frequency, swept.map(|p| p.len())
                );
            }
            Err(SimError::NoUnityCrossing) => {
                let sys = MnaSystem::new(&scaled).expect("a measured netlist builds");
                if let Ok(points) = sweep(&sys, &config) {
                    prop_assert!(unity_crossing(&points).is_none(), "corner {:?}", corner);
                }
            }
            Err(_) => {}
        }
    }

    /// Fingerprint byte serialization round-trips exactly for random
    /// netlists under random salts — the snapshot key encoding loses
    /// nothing.
    #[test]
    fn fingerprint_bytes_roundtrip(seed in 0u64..2000, salt in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = sample_topology(&mut rng, &SampleRanges::default(), 10e-12);
        if let Some(fp) = artisan_sim::NetlistFingerprint::of_topology(&topo) {
            let salted = fp.with_salt(salt);
            for key in [fp, salted] {
                let back = artisan_sim::NetlistFingerprint::from_bytes(key.to_bytes());
                prop_assert_eq!(back, key);
                prop_assert_eq!(back.lanes(), key.lanes());
            }
        }
        if let Ok(netlist) = topo.elaborate() {
            let fp = artisan_sim::NetlistFingerprint::of_netlist(&netlist);
            prop_assert_eq!(
                artisan_sim::NetlistFingerprint::from_bytes(fp.to_bytes()),
                fp
            );
        }
    }

    /// Snapshot bytes are a pure function of cache *contents*: caches
    /// filled with the same entries in different orders (hash-map
    /// iteration order, shard history) serialize byte-identically, and
    /// save → load → save is a byte-level fixed point.
    #[test]
    fn snapshot_bytes_are_insertion_order_independent(
        seed in 0u64..500,
        salt in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..6);
        let mut entries = Vec::new();
        let mut sim = Simulator::new();
        for _ in 0..n {
            let topo = sample_topology(&mut rng, &SampleRanges::default(), 10e-12);
            let (Some(fp), Ok(report)) = (
                artisan_sim::NetlistFingerprint::of_topology(&topo),
                sim.analyze_topology(&topo),
            ) else {
                continue;
            };
            if report.performance.is_finite() {
                entries.push((fp, report));
            }
        }
        let forward = SimCache::new(256);
        for (fp, report) in &entries {
            forward.insert(*fp, report.clone());
        }
        let backward = SimCache::new(256);
        for (fp, report) in entries.iter().rev() {
            backward.insert(*fp, report.clone());
        }
        let bytes = forward.snapshot_bytes(salt);
        prop_assert_eq!(&bytes, &backward.snapshot_bytes(salt));
        // save → load → save byte identity.
        let (loaded, outcome) = SimCache::from_snapshot_bytes(&bytes, 256, salt);
        prop_assert!(outcome.warning.is_none(), "{:?}", outcome.warning);
        prop_assert_eq!(loaded.snapshot_bytes(salt), bytes);
        // And the loaded cache serves every entry bit-identically.
        for (fp, report) in &entries {
            prop_assert_eq!(loaded.get(*fp).as_ref(), Some(report));
        }
    }

    /// The simulator never reports success-grade metrics for an unstable
    /// network: either `stable` is false or every pole is in the LHP.
    #[test]
    fn stability_flag_is_consistent(seed in 0u64..2000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = sample_topology(&mut rng, &SampleRanges::default(), 10e-12);
        let mut sim = Simulator::new();
        match sim.analyze_topology(&topo) {
            Ok(report) => {
                prop_assert_eq!(report.stable, report.pole_zero.is_stable());
            }
            Err(SimError::NoUnityCrossing)
            | Err(SimError::IllConditioned { .. })
            | Err(SimError::Math(_))
            | Err(SimError::BadNetlist(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }
}

// Case count for the screening-soundness block follows the
// `PROPTEST_CASES` environment default (256), so the CI chaos matrix
// can raise it without a code change.
proptest! {
    /// Screening soundness, forward direction: a netlist the
    /// errors-only linter passes never hits an exactly singular LU —
    /// the static gate admits nothing the factorization chokes on.
    /// Exercised over the broken neighbourhood, where clean and doomed
    /// candidates mix.
    #[test]
    fn lint_clean_netlists_never_hit_singular_lu(seed in 0u64..4000) {
        let netlist = broken_neighbourhood(seed);
        let gate = artisan_lint::Linter::errors_only().lint(&netlist);
        // Structural construction failures in MnaSystem::new (no `out`
        // node, empty netlist) are the lint's ERC00x territory and
        // never reach LU; only factorization is under test here.
        if let (false, Ok(sys)) = (gate.has_errors(), MnaSystem::new(&netlist)) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let f_random = 10f64.powf(rng.gen_range(0.0..9.0));
            for f in [0.0, 1.0, f_random] {
                let s = Complex64::jomega(2.0 * std::f64::consts::PI * f);
                if let Err(e) = sys.solve(s) {
                    prop_assert!(
                        !matches!(e, SimError::Math(MathError::Singular(_))),
                        "lint-clean netlist hit singular LU at f = {f}: {e}\n{}",
                        netlist.to_text()
                    );
                }
            }
        }
    }

    /// Screening soundness, reverse direction: every `ERC100`
    /// singularity prediction is real. The bare simulator rejects the
    /// netlist, and — non-circularly — the flagged island's rows sum to
    /// a (numerically) zero row of `G + sC` at every tested frequency:
    /// the indicator vector is a left null vector, so exact-arithmetic
    /// LU must fail.
    #[test]
    fn singularity_predictions_are_real(seed in 0u64..4000) {
        let netlist = broken_neighbourhood(seed);
        let report = artisan_lint::Linter::default().lint(&netlist);
        let islands: Vec<Vec<artisan_circuit::Node>> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code() == "ERC100")
            .filter_map(|d| match &d.span {
                artisan_lint::Span::Nodes(ns) => Some(ns.clone()),
                _ => None,
            })
            .collect();
        if !islands.is_empty() {
            prop_assert!(
                Simulator::new().analyze_netlist(&netlist).is_err(),
                "ERC100 fired but the bare simulator accepted:\n{}",
                netlist.to_text()
            );
        }
        let sys = match MnaSystem::new(&netlist) {
            Ok(sys) if !islands.is_empty() => sys,
            _ => return,
        };
        let unknowns = netlist.unknown_nodes();
        for island in &islands {
            let rows: Vec<usize> = island
                .iter()
                .map(|n| {
                    unknowns
                        .iter()
                        .position(|u| u == n)
                        .expect("island node is an unknown")
                })
                .collect();
            for f in [0.0, 1.0, 1e6] {
                let s = Complex64::jomega(2.0 * std::f64::consts::PI * f);
                let (y, _) = sys.assemble(s).expect("assembles");
                let scale = rows
                    .iter()
                    .flat_map(|&r| (0..sys.dim()).map(move |c| (r, c)))
                    .map(|(r, c)| y[(r, c)].abs())
                    .fold(1e-300, f64::max);
                for c in 0..sys.dim() {
                    let sum = rows
                        .iter()
                        .fold(Complex64::ZERO, |acc, &r| acc + y[(r, c)]);
                    prop_assert!(
                        sum.abs() <= 1e-9 * scale,
                        "island rows do not cancel in column {c} at f = {f}: |{sum:?}| vs scale {scale}\n{}",
                        netlist.to_text()
                    );
                }
            }
        }
    }

    /// The partial-pivot LU is backward stable over the broken
    /// neighbourhood: wherever it solves, the normwise backward error
    /// ‖Y·x − b‖ / (‖b‖ + ‖Y‖·‖x‖) stays tiny, ill-scaled mutants
    /// included.
    #[test]
    fn dense_solutions_are_backward_stable_on_broken_neighbourhood(seed in 0u64..4000) {
        let netlist = broken_neighbourhood(seed);
        let Ok(sys) = MnaSystem::new(&netlist) else { return; };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ba5e);
        let f_random = 10f64.powf(rng.gen_range(0.0..9.0));
        let mut ws = sys.workspace();
        for f in [0.0, 1.0, f_random] {
            let s = Complex64::jomega(2.0 * std::f64::consts::PI * f);
            let Ok(x) = sys.solve_with(s, &mut ws) else { continue; };
            let x = x.to_vec();
            let (y, rhs) = sys.assemble(s).expect("assembles");
            let yx = y.mul_vec(&x).expect("dims");
            let res: f64 = yx.iter().zip(&rhs)
                .map(|(a, b)| (*a - *b).abs_sq()).sum::<f64>().sqrt();
            let bnorm: f64 = rhs.iter().map(|b| b.abs_sq()).sum::<f64>().sqrt();
            let xnorm: f64 = x.iter().map(|v| v.abs_sq()).sum::<f64>().sqrt();
            let scale = (bnorm + y.frobenius_norm() * xnorm).max(1e-12);
            prop_assert!(
                res / scale < 1e-7,
                "backward error {} at f = {f}\n{}",
                res / scale,
                netlist.to_text()
            );
        }
    }

    /// The screening wrapper is decision-equivalent to the bare
    /// simulator over the broken neighbourhood: identical reports,
    /// identical errors — only the bill differs, and only on rejects.
    #[test]
    fn screened_backend_is_decision_equivalent_to_bare(seed in 0u64..4000) {
        let netlist = broken_neighbourhood(seed);
        let mut bare = Simulator::new();
        let expected = SimBackend::analyze_netlist(&mut bare, &netlist);
        let mut screened = ScreenedSim::new(Simulator::new());
        let got = screened.analyze_netlist(&netlist);
        prop_assert_eq!(&got, &expected, "netlist:\n{}", netlist.to_text());
        if screened.screened_out() == 1 {
            // A reject is billed as one screen and zero simulations,
            // while the bare simulator paid for a full run before its
            // own gate rejected.
            prop_assert!(matches!(got, Err(SimError::BadNetlist(_))));
            prop_assert_eq!(screened.ledger().simulations(), 0);
            prop_assert_eq!(screened.ledger().screen_rejects(), 1);
            prop_assert_eq!(bare.ledger().simulations(), 1);
        } else {
            prop_assert_eq!(
                screened.ledger().simulations(),
                bare.ledger().simulations()
            );
            prop_assert_eq!(screened.ledger().screen_rejects(), 0);
        }
    }
}

/// Every f64 an [`artisan_sim::AnalysisReport`] carries, as raw bit
/// patterns (plus the stability flag), *excluding* the corner verdict —
/// the bit-identity properties compare nominal analysis results
/// exactly, with no tolerance to hide a drifted code path.
fn report_bits(r: &artisan_sim::AnalysisReport) -> Vec<u64> {
    let mut v = vec![
        r.performance.gain.value().to_bits(),
        r.performance.gbw.value().to_bits(),
        r.performance.pm.value().to_bits(),
        r.performance.power.value().to_bits(),
        r.performance.fom.to_bits(),
        u64::from(r.stable),
    ];
    for z in r.pole_zero.poles.iter().chain(&r.pole_zero.zeros) {
        v.push(z.re.to_bits());
        v.push(z.im.to_bits());
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A nominal-only corner grid is observationally inert: the wrapped
    /// report reproduces the bare simulator's bit-for-bit (every f64
    /// compared by bit pattern), and the attached verdict's worst case
    /// *is* the nominal performance.
    #[test]
    fn nominal_corner_grid_reproduces_plain_report_bitwise(seed in 0u64..2000) {
        use artisan_sim::{CornerGrid, CornerSim};
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = sample_topology(&mut rng, &SampleRanges::default(), 10e-12);
        let mut bare = Simulator::new();
        let want = bare.analyze_topology(&topo);
        let mut cornered = CornerSim::new(Simulator::new(), CornerGrid::nominal());
        let got = cornered.analyze_topology(&topo);
        match (&got, &want) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(report_bits(a), report_bits(b));
                let wc = a.worst_case.unwrap_or_else(|| panic!("no verdict attached"));
                prop_assert_eq!(wc.corners, 1);
                if b.performance.is_finite() {
                    prop_assert_eq!(wc.failing, 0);
                    let w = wc.worst.unwrap_or_else(|| panic!("finite nominal lost its worst case"));
                    for (x, y) in [
                        (w.performance.gain.value(), b.performance.gain.value()),
                        (w.performance.gbw.value(), b.performance.gbw.value()),
                        (w.performance.pm.value(), b.performance.pm.value()),
                        (w.performance.power.value(), b.performance.power.value()),
                        (w.performance.fom, b.performance.fom),
                    ] {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                } else {
                    prop_assert_eq!(wc.failing, 1);
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(format!("{a}"), format!("{b}")),
            (a, b) => prop_assert!(
                false, "cornered {:?} vs bare {:?}", a.is_ok(), b.is_ok()
            ),
        }
    }
}

/// Deterministic spot-check kept outside proptest: the paper's example
/// circuit is analyzed identically every time (regression guard for the
/// whole stack).
#[test]
fn nmc_example_metrics_are_reproducible() {
    let mut sim = Simulator::new();
    let a = sim.analyze_topology(&Topology::nmc_example()).expect("ok");
    let b = sim.analyze_topology(&Topology::nmc_example()).expect("ok");
    assert_eq!(a.performance, b.performance);
    assert_eq!(a.pole_zero, b.pole_zero);
}
