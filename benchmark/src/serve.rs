//! `serve`: an in-process design server under open-loop load.
//!
//! Independent users send requests on a schedule (an open loop) over
//! [`CONNECTIONS`] persistent loopback connections: 80% are
//! `AnalyzeBatch` requests of 8 candidates from a 256-topology popular
//! pool plus 8 fresh ones, 20% are `Design` sessions. Latency is timed
//! from each request's due time, so a stall also charges the requests
//! queued behind it. Fresh candidates overflow the server's 4096-entry
//! cache, so eviction runs while the popular pool stays hot. The wire
//! codec, batching engine and admission path do the work that the
//! other workloads bypass.
//!
//! An untraced run measures a fixed-rate phase at [`RATE`], a light
//! load, so its latencies measure the request path rather than
//! queueing, and then a closed-loop phase that keeps both connections
//! busy (capacity). The traced run adds a rate ladder that finds the
//! highest rate meeting the latency limit without a growing backlog.

use crate::calib::Calibration;
use crate::stats::{median, sorted, Latencies};
use crate::trace::{replay_stages, LayerReport};
use crate::{
    alloc, calibration_notes, derive_seed, end_to_end, latency_notes, peak_rss_mb, timed_setups,
    Digest, Outcome, RunConfig, Workload,
};
use artisan_circuit::sample::{sample_topology, SampleRanges};
use artisan_circuit::Topology;
use artisan_resilience::Supervisor;
use artisan_serve::{Client, Request, Response, Server, ServerConfig, WireStats, WorkItem};
use artisan_sim::wire::fnv1a64;
use artisan_sim::{Simulator, Spec};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Offered rate of the fixed-rate phase, requests per second: about a
/// sixteenth of the closed-loop capacity on a 2-vCPU machine. In
/// interleaved runs the p95's spread grew with the rate (43%, 55% and
/// 183% at 20, 50 and 100 req/s while the machine's neighbours were
/// busy); the capacity phase and the ladder measure the loaded regime.
pub const RATE: f64 = 20.0;
/// Load-generator connections (one thread each).
pub const CONNECTIONS: usize = 2;
/// Topologies in the popular pool.
pub const POOL_SIZE: usize = 256;
/// Popular candidates per `AnalyzeBatch`.
pub const POPULAR: usize = 8;
/// Fresh candidates per `AnalyzeBatch`.
pub const FRESH: usize = 8;
/// Share of requests that are `Design` sessions.
pub const DESIGN_SHARE: f64 = 0.2;
/// Fixed-phase requests folded into the output digest.
pub const PIN_REQUESTS: usize = 200;
/// Every this many fixed-phase requests, the reply is checked against
/// an in-process recomputation.
pub const CHECK_EVERY: usize = 25;
/// Percentile `tail_ms` reports.
pub const TAIL: f64 = 95.0;
/// Offered rates of the traced ladder.
pub const LADDER: [f64; 7] = [150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0];
/// A ladder step passes when its p95 latency is at most this.
pub const LADDER_P95_LIMIT_MS: f64 = 20.0;
/// A backlog grows when the last quarter of a step's requests is sent
/// this much later (median) than the first quarter.
pub const LATENESS_GROWTH_MS: f64 = 5.0;
/// A request sent more than this after its due time counts as late.
pub const LATE_MS: f64 = 1.0;

/// Slices of each untraced phase, with a calibration burst after each.
pub const SLICES: usize = 5;
/// Phase lengths as shares of `--seconds`.
const FIXED_SHARE: f64 = 0.7;
const CAPACITY_SHARE: f64 = 0.25;
const TRACE_FIXED_SHARE: f64 = 0.5;
const LADDER_STEP_SHARE: f64 = 0.1;
/// Request-index offsets, so every phase draws its own inputs.
const CAPACITY_OFFSET: usize = 1 << 40;
const LADDER_OFFSET: usize = 1 << 41;
/// Load capacitance of generated candidates.
const CL: f64 = 10e-12;

/// The popular candidate pool of a run.
pub fn popular_pool(seed: u64) -> Vec<Topology> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, u64::MAX));
    (0..POOL_SIZE)
        .map(|_| sample_topology(&mut rng, &SampleRanges::default(), CL))
        .collect()
}

/// Request `i` of a run: a function of the seed and the index only.
pub fn request(seed: u64, i: usize, pool: &[Topology]) -> Request {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, i as u64));
    if rng.gen_bool(DESIGN_SHARE) {
        let (_, spec) = Spec::table2()[i % 5];
        return Request::Design {
            tenant: format!("tenant-{}", i % 4),
            seed: rng.next_u64(),
            spec,
        };
    }
    let mut items = Vec::with_capacity(POPULAR + FRESH);
    for _ in 0..POPULAR {
        items.push(WorkItem::Topo(pool[rng.gen_range(0..pool.len())].clone()));
    }
    for _ in 0..FRESH {
        items.push(WorkItem::Topo(sample_topology(
            &mut rng,
            &SampleRanges::default(),
            CL,
        )));
    }
    Request::AnalyzeBatch { items }
}

/// Seconds after the phase start at which request `i` is due.
pub fn due_at(i: usize, rate: f64) -> f64 {
    i as f64 / rate
}

/// When one open-loop request was due, sent and answered, in seconds
/// from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Scheduled send time.
    pub due: f64,
    /// Actual send time.
    pub sent: f64,
    /// Reply received.
    pub done: f64,
}

impl Timing {
    /// Latency counted from the due time, so generator stalls count.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent the request.
    pub fn lateness_ms(&self) -> f64 {
        ((self.sent - self.due) * 1e3).max(0.0)
    }
}

/// Whether the generator fell further behind during a step: the median
/// lateness of the last quarter of requests (in index order) exceeds
/// that of the first quarter by more than [`LATENESS_GROWTH_MS`].
pub fn lateness_grows(timings: &[Timing]) -> bool {
    let q = timings.len() / 4;
    if q == 0 {
        return false;
    }
    let late = |part: &[Timing]| median(&part.iter().map(Timing::lateness_ms).collect::<Vec<_>>());
    late(&timings[timings.len() - q..]) > late(&timings[..q]) + LATENESS_GROWTH_MS
}

/// The highest rate of a ladder run in order and stopped at the first
/// failing step; 0 when the first step fails.
pub fn ladder_max(steps: &[(f64, bool)]) -> f64 {
    steps
        .iter()
        .take_while(|(_, pass)| *pass)
        .last()
        .map_or(0.0, |(rate, _)| *rate)
}

/// One answered request.
struct Reply {
    timing: Timing,
    ok: bool,
    hash: u64,
    payload: Option<Vec<u8>>,
}

/// Whether a reply has the kind its request asks for (an `analysis`
/// for a batch, a `report` for a design); `busy` and `error` fail.
fn kind_ok(request: &Request, payload: &[u8]) -> bool {
    match request {
        Request::AnalyzeBatch { .. } => payload.starts_with(br#"{"r":"analysis""#),
        Request::Design { .. } => payload.starts_with(br#"{"r":"report""#),
        _ => false,
    }
}

/// A running server with the generator's connections. Clients drop
/// first, so handler threads see EOF before the server shuts down.
struct Running {
    clients: Vec<Client>,
    server: Server,
}

/// Starts a server, connects the generator and warms the popular pool.
/// Returns the server with the start and warm times.
fn start(pool: &[Topology]) -> io::Result<(Running, f64, f64)> {
    let t = Instant::now();
    let server = Server::start(ServerConfig::default())?;
    let clients = (0..CONNECTIONS)
        .map(|_| Client::connect(server.addr()))
        .collect::<io::Result<Vec<_>>>()?;
    let start_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut running = Running { clients, server };
    for chunk in pool.chunks(POPULAR + FRESH) {
        let items = chunk.iter().cloned().map(WorkItem::Topo).collect();
        match running.clients[0].call(&Request::AnalyzeBatch { items })? {
            Response::Analysis { .. } => {}
            other => {
                return Err(io::Error::other(format!(
                    "warm-up answered {other:?} (server {})",
                    running.server.addr()
                )))
            }
        }
    }
    Ok((running, start_s, t.elapsed().as_secs_f64()))
}

fn stats(client: &mut Client) -> io::Result<WireStats> {
    match client.call(&Request::Stats)? {
        Response::Stats(stats) => Ok(stats),
        other => Err(io::Error::other(format!("stats answered {other:?}"))),
    }
}

/// Sends requests `offset..offset + n` at `rate` over the clients, one
/// thread per client taking the next due request. Returns the instant
/// the timings count from and the replies in request order; payloads
/// are kept where `keep(offset + i)` holds.
fn open_loop(
    clients: &mut [Client],
    (seed, pool): (u64, &[Topology]),
    offset: usize,
    rate: f64,
    n: usize,
    keep: &(dyn Fn(usize) -> bool + Sync),
) -> (Instant, Vec<Reply>) {
    // Relaxed: the counter only hands out indices; no data rides on it.
    let next = &AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut replies: Vec<Option<Reply>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        let req = request(seed, offset + i, pool);
                        let due = due_at(i, rate);
                        let wait = (start + Duration::from_secs_f64(due))
                            .saturating_duration_since(Instant::now());
                        std::thread::sleep(wait);
                        let sent = start.elapsed().as_secs_f64();
                        let result = client.call_raw(&req);
                        let done = start.elapsed().as_secs_f64();
                        let (ok, hash, payload) = match result {
                            Ok(p) => (
                                kind_ok(&req, &p),
                                fnv1a64(&p),
                                keep(offset + i).then_some(p),
                            ),
                            Err(_) => (false, 0, None),
                        };
                        let timing = Timing { due, sent, done };
                        mine.push((
                            i,
                            Reply {
                                timing,
                                ok,
                                hash,
                                payload,
                            },
                        ));
                    }
                })
            })
            .collect();
        for worker in workers {
            let mine = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, reply) in mine {
                replies[i] = Some(reply);
            }
        }
    });
    (start, replies.into_iter().flatten().collect())
}

/// Keeps every client busy back to back for `secs` (each sends at least
/// one request), sending capacity requests from index `first` on.
/// Returns requests answered correctly, requests failed, the next
/// unsent index and the phase's span.
fn closed_loop(
    clients: &mut [Client],
    (seed, pool): (u64, &[Topology]),
    first: usize,
    secs: f64,
) -> (u64, u64, usize, (Instant, Instant)) {
    let next = &AtomicUsize::new(first);
    let start = Instant::now();
    let (mut ok, mut failed) = (0, 0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let (mut ok, mut failed) = (0u64, 0u64);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let req = request(seed, i, pool);
                        match client.call_raw(&req) {
                            Ok(p) if kind_ok(&req, &p) => ok += 1,
                            _ => failed += 1,
                        }
                        if start.elapsed().as_secs_f64() >= secs {
                            return (ok, failed);
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            let (o, f) = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            ok += o;
            failed += f;
        }
    });
    (
        ok,
        failed,
        next.load(Ordering::Relaxed),
        (start, Instant::now()),
    )
}

/// Checks reply `i` against an in-process recomputation: a batch must
/// encode byte-identically to per-candidate `Simulator` analyses (what
/// a server without batching computes), a design must carry the report
/// of a solo supervised session.
fn check_reply(seed: u64, pool: &[Topology], i: usize, payload: &[u8]) -> Result<(), String> {
    match request(seed, i, pool) {
        Request::AnalyzeBatch { items } => {
            let mut sim = Simulator::new();
            let results = items
                .iter()
                .map(|item| match item {
                    WorkItem::Topo(t) => sim.analyze_topology(t),
                    WorkItem::Net(n) => sim.analyze_netlist(n),
                })
                .collect();
            if (Response::Analysis { results }).encode() != payload {
                return Err("analysis differs from the in-process simulator".to_string());
            }
            Ok(())
        }
        Request::Design { seed, spec, .. } => {
            let solo = Supervisor::default().run(&spec, &mut Simulator::new(), seed);
            let Ok(Response::Report(wire)) = Response::decode(payload) else {
                return Err("design reply is not a report".to_string());
            };
            let same = wire.success == solo.success
                && wire.degraded == solo.degraded
                && wire.attempts == solo.attempts as u64
                && wire.events_len == solo.events.len() as u64
                && wire.simulations == solo.simulations as u64
                && wire.llm_steps == solo.llm_steps as u64
                && wire.testbed_seconds.to_bits() == solo.testbed_seconds.to_bits()
                && wire.outcome.as_ref().map(|o| &o.report)
                    == solo.outcome.as_ref().map(|o| &o.report);
            if same {
                Ok(())
            } else {
                Err("design report differs from a solo supervised session".to_string())
            }
        }
        _ => Err("unexpected request kind".to_string()),
    }
}

/// Folds the fixed phase into `out`: failed replies, the prefix digest
/// and the sampled recomputation checks. Returns how many requests were
/// sent late.
fn account(out: &mut Outcome, replies: &[Reply], (seed, pool): (u64, &[Topology])) -> usize {
    let mut digest = Digest::default();
    for (i, reply) in replies.iter().enumerate() {
        out.attempted += 1;
        if !reply.ok {
            out.fail_op(format!("request {i} failed or was refused"));
        } else if let Some(payload) = &reply.payload {
            if let Err(e) = check_reply(seed, pool, i, payload) {
                out.fail_op(format!("request {i}: {e}"));
            }
        }
        if i < PIN_REQUESTS {
            digest.push_u64(reply.hash);
        }
    }
    out.digest = (replies.len() >= PIN_REQUESTS).then(|| digest.finish());
    let late = replies
        .iter()
        .filter(|r| r.timing.lateness_ms() > LATE_MS)
        .count();
    out.notes.push(format!(
        "fixed phase: {} requests at {RATE} req/s over {CONNECTIONS} connections, {late} sent >{LATE_MS}ms late",
        replies.len()
    ));
    late
}

/// Runs the workload without tracing: the fixed-rate phase, then the
/// capacity phase. Each is cut into [`SLICES`] slices with a
/// calibration burst between two slices, since the load leaves no gaps
/// for one between requests.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new(Workload::Serve);
    let pool = popular_pool(cfg.seed);
    let mut cal = Calibration::new();
    let (setup_s, started) = timed_setups(cfg.setups, &mut cal, || {
        start(&pool).map(|(running, _, _)| running)
    });
    let mut running = match started {
        Ok(running) => running,
        Err(e) => {
            out.problem(format!("server set-up failed: {e}"));
            return out;
        }
    };
    let inputs = (cfg.seed, pool.as_slice());
    let n = (RATE * cfg.seconds * FIXED_SHARE).round().max(1.0) as usize;
    let mut replies = Vec::with_capacity(n);
    let mut spans = Vec::with_capacity(n);
    for slice in 0..SLICES {
        let (from, to) = (n * slice / SLICES, n * (slice + 1) / SLICES);
        let (start, part) = open_loop(&mut running.clients, inputs, from, RATE, to - from, &|i| {
            i % CHECK_EVERY == 0
        });
        let at = |secs: f64| start + Duration::from_secs_f64(secs);
        spans.extend(part.iter().map(|r| (at(r.timing.due), at(r.timing.done))));
        replies.extend(part);
        cal.burst();
    }
    let (mut ok, mut failed, mut next) = (0, 0, CAPACITY_OFFSET);
    let mut capacity_spans = Vec::with_capacity(SLICES);
    for _ in 0..SLICES {
        let secs = cfg.seconds * CAPACITY_SHARE / SLICES as f64;
        let (o, f, after, span) = closed_loop(&mut running.clients, inputs, next, secs);
        (ok, failed, next) = (ok + o, failed + f, after);
        capacity_spans.push(span);
        cal.burst();
    }
    drop(running);

    account(&mut out, &replies, inputs);
    out.attempted += ok + failed;
    if failed > 0 {
        out.failed += failed;
        out.problem(format!("{failed} capacity-phase requests failed"));
    }
    let capacity_s: f64 = capacity_spans
        .iter()
        .map(|&(from, to)| cal.nominal_secs(from, to))
        .sum();
    out.notes.push(format!(
        "capacity phase: {ok} requests in {capacity_s:.3}s at nominal speed over {CONNECTIONS} connections"
    ));
    out.check_pinned(cfg);
    let lat = cal.latencies(&spans);
    latency_notes(&mut out, &lat, TAIL);
    calibration_notes(&mut out, &cal);
    // A request lasts a few milliseconds, and the median one misses the
    // bursts of stolen CPU time that the tail collects: taking the
    // stolen share off every request read the median up to two thirds
    // low while much of the CPU time was stolen.
    let mut scaled = Latencies::default();
    for &(from, to) in &spans {
        scaled.push_secs(cal.scaled_secs(from, to));
    }
    out.metrics = end_to_end(
        setup_s,
        ok as f64 / capacity_s,
        scaled.percentile_ms(50.0),
        lat.percentile_ms(TAIL),
        peak_rss_mb().unwrap_or(0.0),
    );
    out
}

/// Client- and server-side codec time and in-process compute time of
/// the sampled fixed-phase requests, in seconds per request.
struct Replay {
    codec_s: f64,
    compute_s: f64,
    fresh_s: f64,
    fresh: u64,
    captured: Vec<WorkItem>,
}

fn replay(seed: u64, pool: &[Topology], sampled: &[(usize, &[u8])]) -> Replay {
    let (mut codec, mut compute, mut fresh_s) = (0.0, 0.0, 0.0);
    let mut fresh = 0u64;
    let mut captured = Vec::new();
    for &(i, payload) in sampled {
        let req = request(seed, i, pool);
        let t = Instant::now();
        let bytes = req.encode();
        let decoded = Request::decode(&bytes);
        let response = Response::decode(payload);
        if let Ok(response) = &response {
            std::hint::black_box(response.encode());
        }
        codec += t.elapsed().as_secs_f64();
        std::hint::black_box(decoded.is_ok());
        match req {
            Request::AnalyzeBatch { items } => {
                let topos: Vec<Topology> = items[POPULAR..]
                    .iter()
                    .filter_map(|item| match item {
                        WorkItem::Topo(t) => Some(t.clone()),
                        WorkItem::Net(_) => None,
                    })
                    .collect();
                let t = Instant::now();
                std::hint::black_box(Simulator::new().analyze_batch(&topos));
                let secs = t.elapsed().as_secs_f64();
                compute += secs;
                fresh_s += secs;
                fresh += topos.len() as u64;
                captured.extend(topos.into_iter().map(WorkItem::Topo));
            }
            Request::Design { seed, spec, .. } => {
                let t = Instant::now();
                std::hint::black_box(Supervisor::default().run(&spec, &mut Simulator::new(), seed));
                compute += t.elapsed().as_secs_f64();
            }
            _ => {}
        }
    }
    let n = sampled.len().max(1) as f64;
    captured.truncate(crate::trace::CAPTURE_LIMIT);
    Replay {
        codec_s: codec / n,
        compute_s: compute / n,
        fresh_s,
        fresh,
        captured,
    }
}

/// Runs one ladder step; returns whether it passed.
fn ladder_step(
    out: &mut Outcome,
    clients: &mut [Client],
    inputs: (u64, &[Topology]),
    step: usize,
    rate: f64,
    secs: f64,
) -> bool {
    let n = (rate * secs).round().max(1.0) as usize;
    let offset = LADDER_OFFSET + step * (1 << 32);
    let (_, replies) = open_loop(clients, inputs, offset, rate, n, &|_| false);
    let latencies = sorted(
        &replies
            .iter()
            .map(|r| r.timing.latency_ms())
            .collect::<Vec<_>>(),
    );
    let p95 = crate::stats::percentile(&latencies, 95.0);
    let timings: Vec<Timing> = replies.iter().map(|r| r.timing).collect();
    let grows = lateness_grows(&timings);
    let failed = replies.iter().filter(|r| !r.ok).count() + (n - replies.len());
    let pass = p95 <= LADDER_P95_LIMIT_MS && !grows && failed == 0;
    out.notes.push(format!(
        "ladder {rate} req/s: p95 {p95:.3}ms, backlog {}, {failed} failed -> {}",
        if grows { "grows" } else { "steady" },
        if pass { "pass" } else { "fail" }
    ));
    pass
}

/// Runs the workload traced: one set-up, a shorter fixed-rate phase
/// bracketed by server stats, the rate ladder, then codec and compute
/// replays of the sampled requests to split latency into layers.
pub fn trace(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new(Workload::Serve);
    let pool = popular_pool(cfg.seed);
    let inputs = (cfg.seed, pool.as_slice());
    let (mut running, start_s, warm_s) = match start(&pool) {
        Ok(started) => started,
        Err(e) => {
            out.problem(format!("server set-up failed: {e}"));
            return out;
        }
    };
    let n = (RATE * cfg.seconds * TRACE_FIXED_SHARE).round().max(1.0) as usize;
    let before = stats(&mut running.clients[0]);
    let allocs_before = alloc::counts();
    let (_, replies) = open_loop(&mut running.clients, inputs, 0, RATE, n, &|i| {
        i % CHECK_EVERY == 0
    });
    let allocs = alloc::since(allocs_before);
    let after = stats(&mut running.clients[0]);
    let mut steps = Vec::new();
    for (k, rate) in LADDER.into_iter().enumerate() {
        let secs = cfg.seconds * LADDER_STEP_SHARE;
        let pass = ladder_step(&mut out, &mut running.clients, inputs, k, rate, secs);
        steps.push((rate, pass));
        if !pass {
            break;
        }
    }
    drop(running);

    let late = account(&mut out, &replies, inputs);
    let mut lat = Latencies::default();
    for reply in &replies {
        lat.push_ms(reply.timing.latency_ms());
    }
    out.check_pinned(cfg);
    let (before, after) = match (before, after) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => {
            out.problem(format!("stats request failed: {e}"));
            (WireStats::default(), WireStats::default())
        }
    };
    let sampled: Vec<(usize, &[u8])> = replies
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.payload.as_deref().map(|p| (i, p)))
        .collect();
    let replayed = replay(cfg.seed, &pool, &sampled);

    let mut report = LayerReport::default();
    report.ops = replies.len() as u64;
    report.wall_s = lat.total_secs();
    let requests = replies.len() as f64;
    report.row("serve.codec_share", replayed.codec_s * requests);
    report.row("serve.compute_share", replayed.compute_s * requests);
    report.row(
        "serve.overhead_share",
        lat.total_secs() - (replayed.codec_s + replayed.compute_s) * requests,
    );
    let delta = |f: fn(&WireStats) -> u64| f(&after).saturating_sub(f(&before)) as f64;
    let jobs = delta(|s| s.jobs).max(1.0);
    let (mut occupied, mut batches) = (0.0, 0.0);
    for &(occupancy, count) in &after.occupancy {
        let earlier = before
            .occupancy
            .iter()
            .find(|(o, _)| *o == occupancy)
            .map_or(0, |(_, c)| *c);
        let new = count.saturating_sub(earlier) as f64;
        occupied += occupancy as f64 * new;
        batches += new;
    }
    report.set("setup.warm_share", warm_s / (start_s + warm_s));
    report.set(
        "sim.analyze_us",
        replayed.fresh_s * 1e6 / replayed.fresh.max(1) as f64,
    );
    report.per_op("sim.analyses_per_op", delta(|s| s.unique_computed));
    report.per_op("serve.engine.batches_per_req", delta(|s| s.batches));
    report.set("serve.engine.mean_occupancy", occupied / batches.max(1.0));
    report.set("serve.engine.dedup_ratio", delta(|s| s.dedup_shared) / jobs);
    report.set(
        "serve.engine.cache_served_ratio",
        delta(|s| s.cache_served) / jobs,
    );
    let lookups = delta(|s| s.cache_hits) + delta(|s| s.cache_misses);
    report.set(
        "serve.cache.hit_ratio",
        delta(|s| s.cache_hits) / lookups.max(1.0),
    );
    report.set("serve.late_share", late as f64 / requests.max(1.0));
    report.set("serve.max_rps", ladder_max(&steps));
    report.set_allocs(allocs);
    report.set_stages(&replay_stages(
        &replayed.captured,
        Duration::from_millis(300),
    ));
    latency_notes(&mut out, &lat, TAIL);
    out.notes.push(format!(
        "mean latency {:.3}ms = codec {:.3}ms + compute {:.3}ms + queue/window/socket",
        lat.mean_ms(),
        replayed.codec_s * 1e3,
        replayed.compute_s * 1e3
    ));
    report.finish(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time() {
        // Due at 10 ms, sent 3 ms late, answered 5 ms after sending.
        let t = Timing {
            due: due_at(2, 200.0),
            sent: 0.013,
            done: 0.018,
        };
        assert_eq!(t.due, 0.01);
        assert!((t.latency_ms() - 8.0).abs() < 1e-9);
        assert!((t.lateness_ms() - 3.0).abs() < 1e-9);
        // Sent early (timer slop) is not negative lateness.
        let early = Timing {
            due: 0.01,
            sent: 0.0099,
            done: 0.011,
        };
        assert_eq!(early.lateness_ms(), 0.0);
    }

    #[test]
    fn a_backlog_grows_only_when_late_sends_accumulate() {
        let steady: Vec<Timing> = (0..100)
            .map(|i| {
                let due = due_at(i, 100.0);
                Timing {
                    due,
                    sent: due + 0.0005,
                    done: due + 0.004,
                }
            })
            .collect();
        assert!(!lateness_grows(&steady));
        // Each request is sent 1 ms later than the last: the generator
        // falls 100 ms behind over the step.
        let growing: Vec<Timing> = (0..100)
            .map(|i| {
                let due = due_at(i, 100.0);
                let sent = due + i as f64 * 0.001;
                Timing {
                    due,
                    sent,
                    done: sent + 0.004,
                }
            })
            .collect();
        assert!(lateness_grows(&growing));
        assert!(!lateness_grows(&growing[..3]));
    }

    #[test]
    fn ladder_stops_at_the_first_failing_step() {
        assert_eq!(
            ladder_max(&[(150.0, true), (200.0, true), (250.0, false), (300.0, true)]),
            200.0
        );
        assert_eq!(ladder_max(&[(150.0, false)]), 0.0);
        assert_eq!(ladder_max(&[(150.0, true), (200.0, true)]), 200.0);
        assert_eq!(ladder_max(&[]), 0.0);
    }

    #[test]
    fn requests_are_a_function_of_seed_and_index() {
        let pool = popular_pool(3);
        assert_eq!(request(3, 17, &pool), request(3, 17, &pool));
        assert_ne!(request(3, 17, &pool), request(4, 17, &pool));
        let designs = (0..500)
            .filter(|&i| matches!(request(3, i, &pool), Request::Design { .. }))
            .count();
        assert!((60..140).contains(&designs), "{designs} designs in 500");
    }
}
