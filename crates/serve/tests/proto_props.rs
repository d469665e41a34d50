//! Wire-protocol hardening suite.
//!
//! Three families of properties:
//!
//! 1. **Roundtrip** — every request/response variant (including every
//!    `SimError` shape and sampled random topologies) survives
//!    encode → frame → read → decode bit-exactly.
//! 2. **Torn reads** — a frame delivered one byte at a time (or in
//!    random small chunks) decodes identically; multiple frames on one
//!    stream stay delimited.
//! 3. **Hostile input** — corrupt magic/version/length/checksum and
//!    arbitrary payload bytes are rejected with errors, never panics,
//!    and a hostile length prefix cannot drive a large allocation
//!    (the reader streams through a bounded chunk).

use artisan_circuit::sample::{sample_topology, SampleRanges};
use artisan_circuit::Topology;
use artisan_math::MathError;
use artisan_serve::proto::{
    read_frame, write_frame, Request, Response, WireOutcome, WireReport, WireStats, WorkItem,
    FORMAT_VERSION, MAX_FRAME_BYTES, REMOTE_BUSY_MSG, TRANSPORT_FAILURE_MSG,
};
use artisan_sim::wire::fnv1a64;
use artisan_sim::{AnalysisReport, SimError, Simulator, Spec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::io::Read;
use std::sync::OnceLock;

/// A real analysis report to embed in responses.
fn sample_report() -> &'static AnalysisReport {
    static REPORT: OnceLock<AnalysisReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let mut sim = Simulator::new();
        #[allow(clippy::expect_used)]
        sim.analyze_topology(&Topology::nmc_example())
            .expect("NMC example analyzes")
    })
}

/// A `Read` that yields at most `chunk` bytes per call — the torn-read
/// adversary.
struct Trickle<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    #[allow(clippy::expect_used)]
    write_frame(&mut out, payload).expect("in-memory frame write");
    out
}

fn every_sim_error() -> Vec<SimError> {
    vec![
        SimError::IllConditioned { frequency: 1.25e6 },
        SimError::NoUnityCrossing,
        SimError::Unstable {
            worst_pole_re: 3.5e4,
        },
        SimError::InvalidSweep {
            f_start: 10.0,
            f_stop: 1.0,
        },
        SimError::Math(MathError::DimensionMismatch("3x3 vs 4".to_string())),
        SimError::Math(MathError::Singular(7)),
        SimError::Math(MathError::NotPositiveDefinite(2)),
        SimError::Math(MathError::NoConvergence {
            iterations: 50,
            residual: 1e-3,
        }),
        SimError::Math(MathError::DegenerateInput("no interpolation points")),
        SimError::Math(MathError::DegenerateInput(TRANSPORT_FAILURE_MSG)),
        SimError::Math(MathError::DegenerateInput(REMOTE_BUSY_MSG)),
        SimError::BadNetlist("netlist has no CL load element".into()),
        SimError::BadNetlist("line 1: unparsable \"garbage\"\n  with a second line".into()),
    ]
}

fn every_request(rng: &mut StdRng) -> Vec<Request> {
    let topo = sample_topology(rng, &SampleRanges::default(), 10e-12);
    #[allow(clippy::expect_used)]
    let netlist = Topology::nmc_example().elaborate().expect("NMC elaborates");
    vec![
        Request::Ping,
        Request::Design {
            tenant: "tenant-\"quoted\" — ünïcode".to_string(),
            seed: rng.next_u64(),
            spec: Spec::g3(),
        },
        Request::Analyze {
            item: WorkItem::Topo(topo.clone()),
        },
        Request::Analyze {
            item: WorkItem::Net(netlist.clone()),
        },
        Request::AnalyzeBatch {
            items: vec![
                WorkItem::Topo(Topology::nmc_example()),
                WorkItem::Net(netlist),
                WorkItem::Topo(topo),
            ],
        },
        Request::Stats,
        Request::Drain,
    ]
}

fn every_response() -> Vec<Response> {
    let report = sample_report().clone();
    let stats = WireStats {
        sessions: 12,
        busy_rejects: 3,
        batches: 40,
        jobs: 160,
        unique_computed: 50,
        dedup_shared: 70,
        cache_served: 40,
        occupancy: vec![(1, 4), (4, 30), (64, 2)],
        cache_hits: 99,
        cache_misses: 17,
        cache_entries: 82,
    };
    let wire_report = WireReport {
        success: true,
        degraded: false,
        attempts: 2,
        faults_observed: 1,
        events_len: 9,
        simulations: 17,
        llm_steps: 80,
        cache_hits: 0,
        coalesced_waits: 0,
        batched_solves: 0,
        testbed_seconds: 1234.5678,
        outcome: Some(WireOutcome {
            success: true,
            iterations: 3,
            report: Some(report.clone()),
            netlist_text: "* final\nR1 in out 1e3\nCL out 0 1e-11\n".to_string(),
        }),
    };
    let mut results: Vec<Result<AnalysisReport, SimError>> = vec![Ok(report)];
    results.extend(every_sim_error().into_iter().map(Err));
    vec![
        Response::Pong,
        Response::Busy {
            reason: "saturated".to_string(),
        },
        Response::Error {
            message: "bad frame\nwith newline".to_string(),
        },
        Response::Report(Box::new(wire_report.clone())),
        Response::Report(Box::new(WireReport {
            outcome: None,
            testbed_seconds: f64::NAN.copysign(-1.0),
            ..wire_report
        })),
        Response::Analysis { results },
        Response::Stats(stats.clone()),
        Response::Draining(stats),
    ]
}

/// `WireReport` carries NaN-able floats; compare bitwise.
fn responses_equal(a: &Response, b: &Response) -> bool {
    match (a, b) {
        (Response::Report(x), Response::Report(y)) => {
            let (mut x, mut y) = (x.clone(), y.clone());
            let (xb, yb) = (x.testbed_seconds.to_bits(), y.testbed_seconds.to_bits());
            x.testbed_seconds = 0.0;
            y.testbed_seconds = 0.0;
            xb == yb && x == y
        }
        _ => a == b,
    }
}

#[test]
fn all_request_variants_roundtrip() {
    let mut rng = StdRng::seed_from_u64(7);
    for request in every_request(&mut rng) {
        let framed = frame_bytes(&request.encode());
        let payload = read_frame(&mut framed.as_slice()).unwrap_or_else(|e| panic!("{e}"));
        let back = Request::decode(&payload).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(request, back);
    }
}

#[test]
fn all_response_variants_roundtrip() {
    for response in every_response() {
        let framed = frame_bytes(&response.encode());
        let payload = read_frame(&mut framed.as_slice()).unwrap_or_else(|e| panic!("{e}"));
        let back = Response::decode(&payload).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            responses_equal(&response, &back),
            "response changed across the wire:\n  sent {response:?}\n  got  {back:?}"
        );
    }
}

#[test]
fn torn_reads_resume_correctly() {
    let mut rng = StdRng::seed_from_u64(11);
    let requests = every_request(&mut rng);
    // Two frames back to back on one stream, delivered in 1..7-byte
    // slivers: both must decode and the stream must stay delimited.
    for chunk in 1..8 {
        let mut stream = Vec::new();
        for request in &requests {
            stream.extend_from_slice(&frame_bytes(&request.encode()));
        }
        let mut trickle = Trickle {
            data: &stream,
            pos: 0,
            chunk,
        };
        for request in &requests {
            let payload = read_frame(&mut trickle).unwrap_or_else(|e| panic!("{e}"));
            let back = Request::decode(&payload).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(request, &back);
        }
        assert_eq!(trickle.pos, stream.len());
    }
}

#[test]
fn corrupt_magic_version_length_checksum_rejected() {
    let payload = Request::Ping.encode();
    let good = frame_bytes(&payload);
    // The version-1 bytes: magic, version, payload length, payload,
    // FNV-1a 64 of the payload — every integer little-endian.
    let mut layout = b"ARTSNSV1".to_vec();
    layout.extend_from_slice(&1u32.to_le_bytes());
    layout.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    layout.extend_from_slice(&payload);
    layout.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    assert_eq!(good, layout);

    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xff;
    assert!(read_frame(&mut bad_magic.as_slice()).is_err());

    let mut bad_version = good.clone();
    bad_version[8] = (FORMAT_VERSION + 1) as u8;
    assert!(read_frame(&mut bad_version.as_slice()).is_err());

    // Length prefix far over the actual bytes: must fail with EOF, not
    // hang or allocate the claimed size.
    let mut hostile_len = good.clone();
    hostile_len[12..16].copy_from_slice(&(MAX_FRAME_BYTES - 1).to_le_bytes());
    assert!(read_frame(&mut hostile_len.as_slice()).is_err());

    // Length prefix over the cap: rejected before any payload read.
    let mut over_cap = good.clone();
    over_cap[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(read_frame(&mut over_cap.as_slice()).is_err());

    // Flip one payload byte: the checksum catches it.
    let mut flipped_payload = good.clone();
    flipped_payload[17] ^= 0x01;
    assert!(read_frame(&mut flipped_payload.as_slice()).is_err());

    // Flip one checksum byte.
    let mut flipped_sum = good.clone();
    let last = flipped_sum.len() - 1;
    flipped_sum[last] ^= 0x80;
    assert!(read_frame(&mut flipped_sum.as_slice()).is_err());

    // Truncations at every boundary.
    for cut in [0, 5, 15, 16, good.len() - 9, good.len() - 1] {
        assert!(
            read_frame(&mut good[..cut].as_ref()).is_err(),
            "truncation at {cut} accepted"
        );
    }

    // The original still parses (the mutations above cloned).
    assert!(read_frame(&mut good.as_slice()).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes into the decoders: errors allowed, panics not.
    #[test]
    fn hostile_payload_bytes_never_panic(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0..512);
        let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        let _ = Request::decode(&payload);
        let _ = Response::decode(&payload);
        let framed = frame_bytes(&payload);
        // A well-framed garbage payload still reads as a frame…
        let read = read_frame(&mut framed.as_slice()).unwrap_or_else(|e| panic!("{e}"));
        prop_assert_eq!(read, payload);
    }

    /// Arbitrary byte mutations of a valid frame: reads may fail but
    /// must never panic, and whatever payload survives must still
    /// decode without panicking.
    #[test]
    fn mutated_frames_never_panic(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
        let request = Request::Design {
            tenant: format!("t{seed}"),
            seed,
            spec: Spec::g1(),
        };
        let mut framed = frame_bytes(&request.encode());
        let flips = rng.gen_range(1..4);
        for _ in 0..flips {
            let at = rng.gen_range(0..framed.len());
            framed[at] ^= 1 << rng.gen_range(0..8);
        }
        if let Ok(payload) = read_frame(&mut framed.as_slice()) {
            // Survivable only if the flips cancelled out; decode must
            // still not panic.
            let _ = Request::decode(&payload);
        }
    }
}
