//! Load generator for the design server — the benchmark behind
//! `BENCH_serve.json`.
//!
//! ```text
//! serve_load [--tenants N] [--waves W] [--shared S] [--private P]
//!            [--out PATH] [--quick] [--no-assert]
//!            [--addr HOST:PORT] [--drain]
//! ```
//!
//! The workload models a fleet of optimizer/agent tenants sharing one
//! simulation backend. Each wave, every tenant submits one
//! candidate-evaluation session: an `AnalyzeBatch` over the wave's
//! *shared* candidate set (the cross-tenant overlap a popular spec
//! produces — identical sweeps arriving from different tenants) plus a
//! few tenant-*private* candidates. Tenants run on persistent
//! connections and start each wave together, which is exactly the
//! concurrency the batching engine coalesces. Each tenant also runs one
//! full `Design` session per leg, so the supervised-session path is
//! exercised and compared.
//!
//! Default mode is the self-contained A/B comparison: an in-process
//! batching server, and an unbatched baseline in which each tenant
//! thread answers its own requests on one private `Simulator` (no TCP),
//! run the same workload. The legs alternate in five pairs. Each leg
//! runs fresh waves, continuing the wave index so that every wave is
//! cold work, until it has run `--waves` waves and lasted at least
//! 0.5 s; the baseline leg runs at least the waves its batched leg ran.
//! The binary then asserts the acceptance criteria on the pair with the
//! median ratio of evaluation sessions per second: ≥ 2× for the batched
//! server; bit-identical reply payloads between the legs of every pair
//! (both analysis results and design reports); and explicit `busy`
//! backpressure (not latency collapse) at saturation.
//!
//! With `--addr` it instead drives an already-running daemon (the CI
//! smoke path), records latency/throughput/stats, and with `--drain`
//! finishes by requesting a graceful drain.

use artisan_bench::arg_or;
use artisan_circuit::sample::{sample_topology, SampleRanges};
use artisan_circuit::Topology;
use artisan_resilience::Supervisor;
use artisan_serve::json::{obj, Json};
use artisan_serve::{Client, Request, Response, Server, ServerConfig, WireStats, WorkItem};
use artisan_sim::{Simulator, Spec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The evaluation waves a leg runs: from wave `first` on, at least
/// `min_waves` of them, and more until they have lasted `min_wall`.
#[derive(Debug, Clone, Copy)]
struct Waves {
    first: usize,
    min_waves: usize,
    min_wall: Duration,
}

struct RunOutcome {
    /// How many evaluation waves the leg ran.
    waves: usize,
    eval_latencies_ms: Vec<f64>,
    /// `(tenant, wave)` → reply payload, the identity evaluation
    /// sessions are compared under.
    eval_payloads: BTreeMap<(usize, usize), Vec<u8>>,
    eval_wall: Duration,
    /// `tenant` → design-session reply payload.
    design_payloads: BTreeMap<usize, Vec<u8>>,
    design_wall: Duration,
    /// The server's counters; all zero for the in-process baseline.
    stats: WireStats,
}

type Link = Box<dyn FnMut(&Request) -> io::Result<Vec<u8>>>;

/// A tenant thread's link, which returns the reply payload for a
/// request: to the server at `addr`, or for `None` to the unbatched
/// baseline, which answers on the tenant's private simulator.
fn connect(addr: Option<SocketAddr>) -> io::Result<Link> {
    let Some(addr) = addr else {
        let mut sim = Simulator::new();
        return Ok(Box::new(move |request| {
            Ok(solo_reply(&mut sim, request).encode())
        }));
    };
    let mut client = Client::connect(addr)?;
    Ok(Box::new(move |request| client.call_raw(request)))
}

/// What a server without cross-request batching answers: analyses in
/// item order, a design as a default supervised session.
fn solo_reply(sim: &mut Simulator, request: &Request) -> Response {
    match request {
        Request::AnalyzeBatch { items } => Response::Analysis {
            results: items
                .iter()
                .map(|item| match item {
                    WorkItem::Topo(t) => sim.analyze_topology(t),
                    WorkItem::Net(n) => sim.analyze_netlist(n),
                })
                .collect(),
        },
        Request::Design { seed, spec, .. } => Response::Report(Box::new(
            artisan_serve::WireReport::from(&Supervisor::default().run(spec, sim, *seed)),
        )),
        other => unreachable!("the baseline is never sent {other:?}"),
    }
}

/// The spec a given tenant designs for — varied so the workload is not
/// a single plan, deterministic so both servers see the same mix.
fn spec_for(tenant: usize) -> Spec {
    if tenant.is_multiple_of(2) {
        Spec::g1()
    } else {
        Spec::g2()
    }
}

/// The wave's shared candidate sweep: every tenant evaluates these same
/// topologies (same rng seed), so a batching server can compute each
/// once for the whole fleet.
fn shared_candidates(wave: usize, count: usize) -> Vec<Topology> {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ (wave as u64).wrapping_mul(7919));
    (0..count)
        .map(|_| sample_topology(&mut rng, &SampleRanges::default(), 10e-12))
        .collect()
}

/// A tenant's private candidates: unique work no amount of batching can
/// collapse, keeping the baseline honest.
fn private_candidates(wave: usize, tenant: usize, count: usize) -> Vec<Topology> {
    let mut rng = StdRng::seed_from_u64(
        0xBEEF ^ (wave as u64).wrapping_mul(104_729) ^ (tenant as u64).wrapping_mul(1_299_709),
    );
    (0..count)
        .map(|_| sample_topology(&mut rng, &SampleRanges::default(), 10e-12))
        .collect()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Drives the full workload against the server at `addr`, or the
/// unbatched baseline for `None`: a design session per tenant, then
/// barrier-synchronized evaluation waves on persistent connections, as
/// many as `waves` asks for.
fn drive(
    addr: Option<SocketAddr>,
    tenants: usize,
    waves: Waves,
    shared: usize,
    private: usize,
) -> Result<RunOutcome, String> {
    // Phase 1: one supervised design session per tenant, concurrently.
    let design_started = Instant::now();
    let mut design_payloads = BTreeMap::new();
    let mut workers = Vec::new();
    for tenant in 0..tenants {
        workers.push(std::thread::spawn(move || {
            let mut call = connect(addr).map_err(|e| format!("tenant {tenant} connect: {e}"))?;
            let request = Request::Design {
                tenant: format!("tenant-{tenant}"),
                seed: 1_000 + tenant as u64,
                spec: spec_for(tenant),
            };
            let payload = call(&request).map_err(|e| format!("tenant {tenant} design: {e}"))?;
            Ok::<_, String>((tenant, payload))
        }));
    }
    for worker in workers {
        let (tenant, payload) = worker
            .join()
            .map_err(|_| "design worker panicked".to_string())??;
        design_payloads.insert(tenant, payload);
    }
    let design_wall = design_started.elapsed();

    // Phase 2: the evaluation waves — the traffic the batching engine
    // exists for. Persistent connections; a barrier lines every wave
    // up so the fleet's concurrency is real, not accept-loop jitter.
    // Once every tenant has its reply, the barrier's leader decides
    // whether the leg goes on, and a second barrier publishes that.
    let barrier = Arc::new(Barrier::new(tenants));
    let stop = Arc::new(AtomicBool::new(false));
    let eval_started = Instant::now();
    let mut workers = Vec::new();
    for tenant in 0..tenants {
        let barrier = Arc::clone(&barrier);
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            let mut call = connect(addr).map_err(|e| format!("tenant {tenant} connect: {e}"))?;
            let mut out = Vec::new();
            for wave in waves.first.. {
                let mut items: Vec<WorkItem> = shared_candidates(wave, shared)
                    .into_iter()
                    .map(WorkItem::Topo)
                    .collect();
                items.extend(
                    private_candidates(wave, tenant, private)
                        .into_iter()
                        .map(WorkItem::Topo),
                );
                barrier.wait();
                let t0 = Instant::now();
                let payload = call(&Request::AnalyzeBatch { items })
                    .map_err(|e| format!("tenant {tenant} wave {wave}: {e}"))?;
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                out.push((wave, ms, payload));
                if barrier.wait().is_leader() {
                    let done =
                        out.len() >= waves.min_waves && eval_started.elapsed() >= waves.min_wall;
                    stop.store(done, Ordering::Relaxed);
                }
                barrier.wait();
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            Ok::<_, String>((tenant, out))
        }));
    }
    let mut eval_latencies_ms = Vec::new();
    let mut eval_payloads = BTreeMap::new();
    let mut waves_run = 0;
    for worker in workers {
        let (tenant, sessions) = worker
            .join()
            .map_err(|_| "eval worker panicked".to_string())??;
        waves_run = sessions.len();
        for (wave, ms, payload) in sessions {
            eval_latencies_ms.push(ms);
            eval_payloads.insert((tenant, wave), payload);
        }
    }
    let eval_wall = eval_started.elapsed();

    let stats = match addr {
        None => WireStats::default(),
        Some(addr) => match Client::connect(addr).and_then(|mut c| c.call(&Request::Stats)) {
            Ok(Response::Stats(stats)) => stats,
            Ok(_) => return Err("stats request answered with wrong kind".to_string()),
            Err(e) => return Err(format!("stats request: {e}")),
        },
    };
    Ok(RunOutcome {
        waves: waves_run,
        eval_latencies_ms,
        eval_payloads,
        eval_wall,
        design_payloads,
        design_wall,
        stats,
    })
}

fn drain(addr: SocketAddr) -> Result<WireStats, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("drain connect: {e}"))?;
    match client.call(&Request::Drain) {
        Ok(Response::Draining(stats)) => Ok(stats),
        Ok(_) => Err("drain answered with wrong kind".to_string()),
        Err(e) => Err(format!("drain request: {e}")),
    }
}

fn stats_json(stats: &WireStats) -> Json {
    obj(vec![
        ("sessions", Json::Num(stats.sessions as f64)),
        ("busy_rejects", Json::Num(stats.busy_rejects as f64)),
        ("batches", Json::Num(stats.batches as f64)),
        ("jobs", Json::Num(stats.jobs as f64)),
        ("unique_computed", Json::Num(stats.unique_computed as f64)),
        ("dedup_shared", Json::Num(stats.dedup_shared as f64)),
        ("cache_served", Json::Num(stats.cache_served as f64)),
        ("cache_hits", Json::Num(stats.cache_hits as f64)),
        ("cache_misses", Json::Num(stats.cache_misses as f64)),
        (
            "batch_occupancy",
            Json::Arr(
                stats
                    .occupancy
                    .iter()
                    .map(|(occ, n)| Json::Arr(vec![Json::Num(*occ as f64), Json::Num(*n as f64)]))
                    .collect(),
            ),
        ),
    ])
}

impl RunOutcome {
    /// Evaluation sessions per second of the leg's evaluation waves.
    fn eval_rate(&self, tenants: usize) -> f64 {
        (tenants * self.waves) as f64 / self.eval_wall.as_secs_f64().max(1e-9)
    }

    /// Whether every reply of this leg is byte-identical to `other`'s
    /// reply to the same request: the design reports, and each
    /// evaluation session this leg ran.
    fn replies_match(&self, other: &RunOutcome) -> bool {
        self.design_payloads == other.design_payloads
            && self
                .eval_payloads
                .iter()
                .all(|(session, payload)| other.eval_payloads.get(session) == Some(payload))
    }
}

fn leg_json(outcome: &RunOutcome, tenants: usize) -> Json {
    let eval_sessions = tenants * outcome.waves;
    let design_sessions = tenants;
    let mut sorted = outcome.eval_latencies_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let wall_s = outcome.eval_wall.as_secs_f64();
    obj(vec![
        ("sessions", Json::Num(eval_sessions as f64)),
        ("wall_s", Json::Num(wall_s)),
        (
            "throughput_sps",
            Json::Num(if wall_s > 0.0 {
                eval_sessions as f64 / wall_s
            } else {
                0.0
            }),
        ),
        ("p50_ms", Json::Num(percentile(&sorted, 0.50))),
        ("p99_ms", Json::Num(percentile(&sorted, 0.99))),
        ("design_sessions", Json::Num(design_sessions as f64)),
        (
            "design_wall_s",
            Json::Num(outcome.design_wall.as_secs_f64()),
        ),
        ("stats", stats_json(&outcome.stats)),
    ])
}

/// The saturation probe: a deliberately tiny server (2 in-flight
/// slots) is offered many concurrent sessions; healthy behaviour is
/// explicit, *fast* `busy` replies for the overflow. The sessions ask
/// for a spec no candidate meets, so each runs the agent's whole
/// iteration budget and holds its slot while the others arrive; a
/// one-simulation session such as G-1 finishes in well under a
/// millisecond, and a burst of them can pass through two slots one
/// after another without ever overflowing them.
fn saturation_probe(tenants: usize) -> Result<Json, String> {
    let config = ServerConfig {
        max_inflight: 2,
        tenant_max_inflight: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(config).map_err(|e| format!("saturation bind: {e}"))?;
    let addr = server.addr();
    let unattainable = Spec::new(200.0, 1e12, 89.0, 1e-9, 10e-12);
    let offered = (tenants * 2).max(8);
    let mut workers = Vec::new();
    for k in 0..offered {
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let request = Request::Design {
                tenant: format!("sat-{k}"),
                seed: 9_000 + k as u64,
                spec: unattainable,
            };
            let t0 = Instant::now();
            let response = client.call(&request).map_err(|e| format!("call: {e}"))?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            Ok::<_, String>((response, ms))
        }));
    }
    let mut busy = 0usize;
    let mut accepted = 0usize;
    let mut busy_ms = Vec::new();
    for worker in workers {
        let (response, ms) = worker.join().map_err(|_| "worker panicked".to_string())??;
        match response {
            Response::Busy { .. } => {
                busy += 1;
                busy_ms.push(ms);
            }
            Response::Report(_) => accepted += 1,
            other => return Err(format!("unexpected saturation reply: {other:?}")),
        }
    }
    busy_ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Ok(obj(vec![
        ("offered", Json::Num(offered as f64)),
        ("accepted", Json::Num(accepted as f64)),
        ("busy", Json::Num(busy as f64)),
        ("busy_p99_ms", Json::Num(percentile(&busy_ms, 0.99))),
    ]))
}

fn run() -> Result<(), String> {
    let quick = flag("--quick");
    let tenants: usize = arg_or("--tenants", 4);
    let waves: usize = arg_or("--waves", if quick { 3 } else { 4 });
    let shared: usize = arg_or("--shared", if quick { 48 } else { 64 });
    let private: usize = arg_or("--private", if quick { 2 } else { 4 });
    let out_path: String = arg_or("--out", "BENCH_serve.json".to_string());
    let no_assert = flag("--no-assert");

    let mut top = vec![
        ("schema", Json::Str("artisan-serve-bench/1".to_string())),
        ("quick", Json::Bool(quick)),
        (
            "workload",
            obj(vec![
                ("tenants", Json::Num(tenants as f64)),
                ("waves", Json::Num(waves as f64)),
                ("shared_candidates", Json::Num(shared as f64)),
                ("private_candidates", Json::Num(private as f64)),
                ("design_sessions", Json::Num(tenants as f64)),
            ]),
        ),
    ];

    let addr_arg: String = arg_or("--addr", String::new());
    if !addr_arg.is_empty() {
        // External-daemon mode: measure the running server as-is.
        let addr: SocketAddr = addr_arg
            .parse()
            .map_err(|e| format!("bad --addr {addr_arg:?}: {e}"))?;
        let waves = Waves {
            first: 0,
            min_waves: waves,
            min_wall: Duration::ZERO,
        };
        let outcome = drive(Some(addr), tenants, waves, shared, private)?;
        top.push(("target", leg_json(&outcome, tenants)));
        if flag("--drain") {
            let final_stats = drain(addr)?;
            top.push(("drained", stats_json(&final_stats)));
        }
        eprintln!(
            "target: {} evaluation sessions in {:.2}s ({:.1}/s)",
            tenants * outcome.waves,
            outcome.eval_wall.as_secs_f64(),
            outcome.eval_rate(tenants)
        );
        write_bench(
            &out_path,
            Json::Obj(top.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
        )?;
        return Ok(());
    }

    // A/B comparison mode. The batched leg runs a default, hermetic
    // server: a journal dir or cache snapshot would let it fast-forward
    // work the baseline performs, voiding the comparison.

    // The batching win is deterministic (the same jobs dedup the same
    // way every run — the stats pin that), but wall-clock on a shared
    // box is not: CPU steal can swing either leg by ±50%. So each leg
    // runs for at least MIN_LEG, the legs alternate in PAIRS pairs, and
    // the verdict reads the pair with the median ratio, the rule
    // `bench_report` times its ratio rows by. Bit-identity must hold in
    // every pair.
    const PAIRS: usize = 5;
    const MIN_LEG: Duration = Duration::from_millis(500);
    let mut pairs: Vec<(RunOutcome, RunOutcome, f64)> = Vec::with_capacity(PAIRS);
    let mut bit_identical = true;
    let mut next_wave = 0;
    for pair in 1..=PAIRS {
        eprintln!(
            "serve_load: pair {pair}: batched leg ({tenants} tenants × {} candidates per wave, from wave {next_wave})",
            shared + private
        );
        let batched = {
            let server =
                Server::start(ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
            let waves = Waves {
                first: next_wave,
                min_waves: waves,
                min_wall: MIN_LEG,
            };
            let outcome = drive(Some(server.addr()), tenants, waves, shared, private)?;
            drain(server.addr())?;
            outcome
        };
        eprintln!("serve_load: pair {pair}: in-process unbatched baseline leg");
        let waves = Waves {
            first: next_wave,
            min_waves: batched.waves,
            min_wall: MIN_LEG,
        };
        let baseline = drive(None, tenants, waves, shared, private)?;
        next_wave += batched.waves.max(baseline.waves);
        if !batched.replies_match(&baseline) {
            if !no_assert {
                return Err(format!(
                    "pair {pair}: reports differ between the batched and unbatched legs"
                ));
            }
            bit_identical = false;
        }
        let ratio = batched.eval_rate(tenants) / baseline.eval_rate(tenants);
        eprintln!(
            "serve_load: pair {pair}: batched {} waves in {:.3}s vs unbatched {} in {:.3}s — speedup {ratio:.2}×",
            batched.waves,
            batched.eval_wall.as_secs_f64(),
            baseline.waves,
            baseline.eval_wall.as_secs_f64()
        );
        pairs.push((batched, baseline, ratio));
    }
    let pair_ratios: Vec<Json> = pairs.iter().map(|&(_, _, r)| Json::Num(r)).collect();
    pairs.sort_by(|a, b| a.2.total_cmp(&b.2));
    let (batched, baseline, speedup) = pairs.swap_remove(PAIRS / 2);
    eprintln!("serve_load: median-pair speedup {speedup:.2}×, bit_identical={bit_identical}");

    let saturation = saturation_probe(tenants)?;
    top.push(("batched", leg_json(&batched, tenants)));
    top.push(("no_batch", leg_json(&baseline, tenants)));
    top.push(("speedup", Json::Num(speedup)));
    top.push(("pair_speedups", Json::Arr(pair_ratios)));
    top.push(("bit_identical", Json::Bool(bit_identical)));
    top.push(("saturation", saturation.clone()));
    write_bench(
        &out_path,
        Json::Obj(top.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
    )?;

    if !no_assert {
        if !bit_identical {
            return Err("reports differ between the batched and unbatched legs".to_string());
        }
        if speedup < 2.0 {
            return Err(format!(
                "batched throughput only {speedup:.2}× the unbatched baseline (need ≥ 2×)"
            ));
        }
        let busy = saturation.get("busy").and_then(Json::as_f64).unwrap_or(0.0);
        if busy < 1.0 {
            return Err("saturation probe observed no busy backpressure".to_string());
        }
        let busy_p99 = saturation
            .get("busy_p99_ms")
            .and_then(Json::as_f64)
            .unwrap_or(f64::INFINITY);
        if busy_p99 > 1000.0 {
            return Err(format!(
                "busy replies took {busy_p99:.0}ms p99 — backpressure should be immediate"
            ));
        }
    }
    Ok(())
}

fn write_bench(path: &str, value: Json) -> Result<(), String> {
    let mut file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    file.write_all(value.encode().as_bytes())
        .map_err(|e| format!("write {path}: {e}"))?;
    file.write_all(b"\n")
        .map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("serve_load: wrote {path}");
    Ok(())
}

fn main() {
    if let Err(message) = run() {
        eprintln!("serve_load: FAILED: {message}");
        std::process::exit(1);
    }
}
