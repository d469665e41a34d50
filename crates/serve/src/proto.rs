//! The wire protocol: versioned, length-prefixed, checksummed JSON
//! frames, and codecs for every request/response the server speaks.
//!
//! ## Frame layout
//!
//! Every message is one artifact in the shared `artisan_sim::wire`
//! layout: header magic `b"ARTSNSV1"` and format version 1, then exactly
//! one frame whose payload is the UTF-8 JSON message (at most
//! [`MAX_FRAME_BYTES`]). The magic rejects foreign streams instantly,
//! the explicit version makes incompatible readers fail loudly, and the
//! frame checksum detects corruption before JSON parsing ever runs.
//! [`write_frame`] sends a message in one write. [`read_frame`] never
//! trusts the length prefix for allocation: the frame is read through a
//! fixed-size staging buffer, so a hostile 16 MiB claim costs the
//! attacker 16 MiB of actual sent bytes, not us 16 MiB of speculative
//! allocation.
//!
//! ## Value conventions
//!
//! Floats whose exact bits matter (spec limits, skeleton values,
//! report metrics, `testbed_seconds`) travel as 16-hex-digit bit
//! patterns ([`crate::json::bits_str`]); seeds and fingerprints as
//! 16-hex-digit integers. Analysis reports reuse the hardened binary
//! codec from `artisan_sim::wire` (hex-encoded), so the serve layer
//! inherits its bounds-checked decoding instead of reimplementing it.

use crate::json::{bits_of, bits_str, hex_of, hex_str, obj, Json};
use artisan_circuit::units::{Farads, Ohms, Siemens};
use artisan_circuit::{
    ConnectionParams, ConnectionType, Element, Netlist, Node, Placement, Position, Skeleton,
    StageParams, Topology,
};
use artisan_math::MathError;
use artisan_resilience::SessionReport;
use artisan_sim::wire as simwire;
use artisan_sim::{AnalysisReport, SimError, Spec};
use std::io::{self, Read, Write};

/// Frame magic: rejects non-protocol streams on the first 8 bytes.
pub const MAGIC: [u8; 8] = *b"ARTSNSV1";

/// Wire format version; bumped on any incompatible change.
pub const FORMAT_VERSION: u32 = 1;

/// Hard cap on a frame payload. Anything larger is a protocol error,
/// rejected before any of it is read.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Reads are staged through a buffer of this size, so the length
/// prefix never drives an allocation.
const READ_CHUNK: usize = 64 * 1024;

/// Message the client maps transport failures to (it must be a
/// `&'static str` because [`MathError::DegenerateInput`] carries one);
/// transient, so supervisors retry with backoff.
pub const TRANSPORT_FAILURE_MSG: &str = "remote backend transport failure";

/// Message the client maps server `busy` replies to — also transient,
/// so a supervised session backs off exactly like a flaky testbed.
pub const REMOTE_BUSY_MSG: &str = "remote backend busy";

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Writes one frame around `payload`, in a single write.
///
/// # Errors
///
/// Propagates transport errors; rejects payloads over
/// [`MAX_FRAME_BYTES`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES as usize {
        return Err(bad(format!(
            "frame payload of {} bytes over cap",
            payload.len()
        )));
    }
    w.write_all(&simwire::framed(&MAGIC, FORMAT_VERSION, payload))?;
    w.flush()
}

/// Reads one complete frame, validating magic, version, length cap,
/// and checksum. Returns the payload bytes.
///
/// # Errors
///
/// `UnexpectedEof` when the peer closes before a whole frame arrived;
/// `InvalidData` for any protocol violation.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    // The header and the frame's length prefix.
    let mut head = [0u8; simwire::HEADER_LEN + 4];
    r.read_exact(&mut head)?;
    let prefix = simwire::check_header(&head, &MAGIC, FORMAT_VERSION).map_err(bad)?;
    let len = simwire::payload_len(prefix)
        .filter(|&len| len <= MAX_FRAME_BYTES as usize)
        .ok_or_else(|| bad(format!("frame length over the {MAX_FRAME_BYTES}-byte cap")))?;
    // Stream the payload and checksum through a bounded chunk so the
    // declared length never pre-allocates more than READ_CHUNK ahead of
    // the bytes actually received.
    let frame_len = len + simwire::FRAME_OVERHEAD;
    let mut frame = Vec::with_capacity(frame_len.min(READ_CHUNK));
    frame.extend_from_slice(prefix);
    let mut chunk = [0u8; READ_CHUNK];
    while frame.len() < frame_len {
        let want = (frame_len - frame.len()).min(READ_CHUNK);
        let got = r.read(&mut chunk[..want])?;
        if got == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "frame truncated mid-payload",
            ));
        }
        frame.extend_from_slice(&chunk[..got]);
    }
    let (payload, _) = simwire::split_frame(&frame).map_err(bad)?;
    Ok(payload.to_vec())
}

/// One unit of remote simulation work.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkItem {
    /// A structured candidate (skeleton + placements).
    Topo(Topology),
    /// A flat netlist, sent as canonical text.
    Net(Netlist),
}

/// Everything a client can ask the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Run one full supervised design session.
    Design {
        /// Tenant identity for quota accounting.
        tenant: String,
        /// Session seed (drives the whole agent trajectory).
        seed: u64,
        /// The performance specification to design for.
        spec: Spec,
    },
    /// Analyze one candidate (the `RemoteSim` hot path).
    Analyze {
        /// The candidate.
        item: WorkItem,
    },
    /// Analyze a batch of candidates in input order.
    AnalyzeBatch {
        /// The candidates.
        items: Vec<WorkItem>,
    },
    /// Snapshot of server/engine/cache counters.
    Stats,
    /// Begin graceful drain: stop admitting, finish in-flight work,
    /// snapshot the cache, expire terminal journals, reply, shut down.
    Drain,
}

/// A design session's result, flattened to wire-stable fields.
#[derive(Debug, Clone, PartialEq)]
pub struct WireReport {
    /// Spec met within budget.
    pub success: bool,
    /// Success only after retries consumed budget headroom.
    pub degraded: bool,
    /// Attempts run.
    pub attempts: u64,
    /// Faults the backend surfaced.
    pub faults_observed: u64,
    /// Length of the session event log.
    pub events_len: u64,
    /// Simulations billed.
    pub simulations: u64,
    /// LLM steps billed.
    pub llm_steps: u64,
    /// Cache hits billed.
    pub cache_hits: u64,
    /// Coalesced waits billed.
    pub coalesced_waits: u64,
    /// Batched solves billed.
    pub batched_solves: u64,
    /// Modeled testbed seconds (bit-exact on the wire).
    pub testbed_seconds: f64,
    /// Final design outcome, when an attempt produced one.
    pub outcome: Option<WireOutcome>,
}

impl From<&SessionReport> for WireReport {
    fn from(report: &SessionReport) -> WireReport {
        WireReport {
            success: report.success,
            degraded: report.degraded,
            attempts: report.attempts as u64,
            faults_observed: report.faults_observed as u64,
            events_len: report.events.len() as u64,
            simulations: report.simulations as u64,
            llm_steps: report.llm_steps as u64,
            cache_hits: report.cache_hits as u64,
            coalesced_waits: report.coalesced_waits as u64,
            batched_solves: report.batched_solves as u64,
            testbed_seconds: report.testbed_seconds,
            outcome: report.outcome.as_ref().map(|o| WireOutcome {
                success: o.success,
                iterations: o.iterations as u64,
                report: o.report.clone(),
                netlist_text: o.netlist_text.clone(),
            }),
        }
    }
}

/// The design outcome subset that travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOutcome {
    /// Whether the final candidate met the spec.
    pub success: bool,
    /// Design-loop iterations consumed.
    pub iterations: u64,
    /// The final candidate's analysis report.
    pub report: Option<AnalysisReport>,
    /// The final candidate's netlist text.
    pub netlist_text: String,
}

/// Server-side counters returned by [`Request::Stats`] and
/// [`Request::Drain`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireStats {
    /// Design sessions completed.
    pub sessions: u64,
    /// Requests refused with `busy`.
    pub busy_rejects: u64,
    /// Batches the engine executed.
    pub batches: u64,
    /// Jobs that passed through the engine.
    pub jobs: u64,
    /// Jobs computed (unique after dedup + cache).
    pub unique_computed: u64,
    /// Jobs served by sharing an identical queued or computing job.
    pub dedup_shared: u64,
    /// Jobs served straight from the shared cache.
    pub cache_served: u64,
    /// Batch occupancy histogram: (occupancy, count), sorted.
    pub occupancy: Vec<(u64, u64)>,
    /// Shared cache hits.
    pub cache_hits: u64,
    /// Shared cache misses.
    pub cache_misses: u64,
    /// Shared cache entries resident.
    pub cache_entries: u64,
}

/// Everything the server can answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// Admission control refused the request; retry later.
    Busy {
        /// Which limit refused it (`draining`, `saturated`, …).
        reason: String,
    },
    /// The request was malformed or failed server-side.
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// A finished design session.
    Report(Box<WireReport>),
    /// Per-candidate analysis results, in request order.
    Analysis {
        /// One verdict per submitted item.
        results: Vec<Result<AnalysisReport, SimError>>,
    },
    /// Counter snapshot.
    Stats(WireStats),
    /// Drain finished; final counters.
    Draining(WireStats),
}

// ---------------------------------------------------------------------
// value codecs
// ---------------------------------------------------------------------

fn spec_to_json(spec: &Spec) -> Json {
    obj(vec![
        ("gain_min_db", bits_str(spec.gain_min_db)),
        ("gbw_min_hz", bits_str(spec.gbw_min_hz)),
        ("pm_min_deg", bits_str(spec.pm_min_deg)),
        ("power_max_w", bits_str(spec.power_max_w)),
        ("cl", bits_str(spec.cl.value())),
    ])
}

fn spec_of_json(v: &Json) -> Result<Spec, String> {
    Ok(Spec::new(
        bits_of(v.get("gain_min_db").ok_or("spec missing gain_min_db")?)?,
        bits_of(v.get("gbw_min_hz").ok_or("spec missing gbw_min_hz")?)?,
        bits_of(v.get("pm_min_deg").ok_or("spec missing pm_min_deg")?)?,
        bits_of(v.get("power_max_w").ok_or("spec missing power_max_w")?)?,
        bits_of(v.get("cl").ok_or("spec missing cl")?)?,
    ))
}

fn stage_to_json(stage: &StageParams) -> Json {
    Json::Arr(vec![
        bits_str(stage.gm.value()),
        bits_str(stage.ro.value()),
        bits_str(stage.cp.value()),
    ])
}

fn stage_of_json(v: &Json) -> Result<StageParams, String> {
    let items = v.as_arr().ok_or("stage is not an array")?;
    if items.len() != 3 {
        return Err(format!("stage has {} fields (expected 3)", items.len()));
    }
    Ok(StageParams::new(
        bits_of(&items[0])?,
        bits_of(&items[1])?,
        bits_of(&items[2])?,
    ))
}

fn topology_to_json(topo: &Topology) -> Json {
    let sk = &topo.skeleton;
    let placements = topo
        .placements()
        .iter()
        .map(|p| {
            let mut pairs = vec![
                ("pos", Json::Str(p.position.id().to_string())),
                ("conn", Json::Str(p.connection.code().to_string())),
            ];
            if let Some(r) = p.params.r {
                pairs.push(("r", bits_str(r.value())));
            }
            if let Some(c) = p.params.c {
                pairs.push(("c", bits_str(c.value())));
            }
            if let Some(gm) = p.params.gm {
                pairs.push(("gm", bits_str(gm.value())));
            }
            obj(pairs)
        })
        .collect();
    obj(vec![
        ("k", Json::Str("topo".to_string())),
        ("stage1", stage_to_json(&sk.stage1)),
        ("stage2", stage_to_json(&sk.stage2)),
        ("stage3", stage_to_json(&sk.stage3)),
        ("rl", bits_str(sk.rl.value())),
        ("cl", bits_str(sk.cl.value())),
        ("placements", Json::Arr(placements)),
    ])
}

fn topology_of_json(v: &Json) -> Result<Topology, String> {
    let skeleton = Skeleton::new(
        stage_of_json(v.get("stage1").ok_or("topology missing stage1")?)?,
        stage_of_json(v.get("stage2").ok_or("topology missing stage2")?)?,
        stage_of_json(v.get("stage3").ok_or("topology missing stage3")?)?,
        bits_of(v.get("rl").ok_or("topology missing rl")?)?,
        bits_of(v.get("cl").ok_or("topology missing cl")?)?,
    );
    let mut topo = Topology::new(skeleton);
    let placements = v
        .get("placements")
        .and_then(Json::as_arr)
        .ok_or("topology missing placements array")?;
    for p in placements {
        let pos = p
            .get("pos")
            .and_then(Json::as_str)
            .and_then(Position::from_id)
            .ok_or("placement has unknown position id")?;
        let conn = p
            .get("conn")
            .and_then(Json::as_str)
            .and_then(ConnectionType::from_code)
            .ok_or("placement has unknown connection code")?;
        let params = ConnectionParams {
            r: p.get("r").map(bits_of).transpose()?.map(Ohms),
            c: p.get("c").map(bits_of).transpose()?.map(Farads),
            gm: p.get("gm").map(bits_of).transpose()?.map(Siemens),
        };
        topo.place(Placement::new(pos, conn, params))
            .map_err(|e| format!("illegal placement: {e}"))?;
    }
    Ok(topo)
}

/// Netlists travel structurally — element kind, label, node names, and
/// the value as exact bits — never through `Netlist::to_text()`, whose
/// rounded significant digits would silently perturb values (and with
/// them cache fingerprints) across the wire.
fn element_to_json(e: &Element) -> Json {
    match e {
        Element::Resistor { label, a, b, ohms } => obj(vec![
            ("e", Json::Str("r".to_string())),
            ("l", Json::Str(label.clone())),
            ("a", Json::Str(a.name())),
            ("b", Json::Str(b.name())),
            ("v", bits_str(ohms.0)),
        ]),
        Element::Capacitor {
            label,
            a,
            b,
            farads,
        } => obj(vec![
            ("e", Json::Str("c".to_string())),
            ("l", Json::Str(label.clone())),
            ("a", Json::Str(a.name())),
            ("b", Json::Str(b.name())),
            ("v", bits_str(farads.0)),
        ]),
        Element::Vccs {
            label,
            out_p,
            out_n,
            ctrl_p,
            ctrl_n,
            gm,
        } => obj(vec![
            ("e", Json::Str("g".to_string())),
            ("l", Json::Str(label.clone())),
            ("op", Json::Str(out_p.name())),
            ("on", Json::Str(out_n.name())),
            ("cp", Json::Str(ctrl_p.name())),
            ("cn", Json::Str(ctrl_n.name())),
            ("v", bits_str(gm.0)),
        ]),
    }
}

fn need_node(v: &Json, key: &str) -> Result<Node, String> {
    let name = v
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("element missing node `{key}`"))?;
    Node::parse(name).ok_or_else(|| format!("unknown node name `{name}`"))
}

fn element_of_json(v: &Json) -> Result<Element, String> {
    let label = v
        .get("l")
        .and_then(Json::as_str)
        .ok_or("element missing label")?
        .to_string();
    let value = bits_of(v.get("v").ok_or("element missing value")?)?;
    match v.get("e").and_then(Json::as_str) {
        Some("r") => Ok(Element::Resistor {
            label,
            a: need_node(v, "a")?,
            b: need_node(v, "b")?,
            ohms: Ohms(value),
        }),
        Some("c") => Ok(Element::Capacitor {
            label,
            a: need_node(v, "a")?,
            b: need_node(v, "b")?,
            farads: Farads(value),
        }),
        Some("g") => Ok(Element::Vccs {
            label,
            out_p: need_node(v, "op")?,
            out_n: need_node(v, "on")?,
            ctrl_p: need_node(v, "cp")?,
            ctrl_n: need_node(v, "cn")?,
            gm: Siemens(value),
        }),
        _ => Err("element has unknown kind".to_string()),
    }
}

fn item_to_json(item: &WorkItem) -> Json {
    match item {
        WorkItem::Topo(t) => topology_to_json(t),
        WorkItem::Net(n) => obj(vec![
            ("k", Json::Str("net".to_string())),
            ("title", Json::Str(n.title().to_string())),
            (
                "els",
                Json::Arr(n.elements().iter().map(element_to_json).collect()),
            ),
        ]),
    }
}

fn item_of_json(v: &Json) -> Result<WorkItem, String> {
    match v.get("k").and_then(Json::as_str) {
        Some("topo") => topology_of_json(v).map(WorkItem::Topo),
        Some("net") => {
            let title = v
                .get("title")
                .and_then(Json::as_str)
                .ok_or("net item missing title")?;
            let els = v
                .get("els")
                .and_then(Json::as_arr)
                .ok_or("net item missing elements")?;
            let elements = els
                .iter()
                .map(element_of_json)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(WorkItem::Net(Netlist::new(title, elements)))
        }
        _ => Err("work item has unknown kind".to_string()),
    }
}

/// An analysis report travels as the hex-encoded `artisan_sim::wire`
/// binary form, so decode inherits its bounds checks. `worst_case` is
/// intentionally dropped, matching the wire codec's own contract.
fn report_to_json(report: &AnalysisReport) -> Json {
    let mut bytes = Vec::new();
    simwire::encode_report(&mut bytes, report);
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut hex = String::with_capacity(bytes.len() * 2);
    for b in &bytes {
        hex.push(char::from(DIGITS[usize::from(b >> 4)]));
        hex.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    Json::Str(hex)
}

fn report_of_json(v: &Json) -> Result<AnalysisReport, String> {
    let hex = v.as_str().ok_or("report is not a hex string")?;
    if hex.len() % 2 != 0 || hex.len() > 2 * MAX_FRAME_BYTES as usize {
        return Err("report hex has bad length".to_string());
    }
    let mut bytes = Vec::with_capacity(hex.len() / 2);
    let digits = hex.as_bytes();
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char)
            .to_digit(16)
            .ok_or("bad report hex digit")?;
        let lo = (pair[1] as char)
            .to_digit(16)
            .ok_or("bad report hex digit")?;
        bytes.push((hi * 16 + lo) as u8);
    }
    let mut reader = simwire::Reader::new(&bytes);
    let report = reader.report()?;
    if reader.remaining() != 0 {
        return Err("trailing bytes after report".to_string());
    }
    Ok(report)
}

fn math_error_to_json(err: &MathError) -> Json {
    match err {
        MathError::DimensionMismatch(s) => obj(vec![
            ("m", Json::Str("dim".to_string())),
            ("what", Json::Str(s.clone())),
        ]),
        MathError::Singular(k) => obj(vec![
            ("m", Json::Str("sing".to_string())),
            ("at", Json::Num(*k as f64)),
        ]),
        MathError::NotPositiveDefinite(k) => obj(vec![
            ("m", Json::Str("npd".to_string())),
            ("at", Json::Num(*k as f64)),
        ]),
        MathError::NoConvergence {
            iterations,
            residual,
        } => obj(vec![
            ("m", Json::Str("noconv".to_string())),
            ("it", Json::Num(*iterations as f64)),
            ("res", bits_str(*residual)),
        ]),
        MathError::DegenerateInput(msg) => obj(vec![
            ("m", Json::Str("degen".to_string())),
            ("what", Json::Str((*msg).to_string())),
        ]),
    }
}

/// `DegenerateInput` carries a `&'static str`, so decoding interns the
/// messages this workspace actually produces; anything else maps to a
/// documented generic static. Error *display* equality is preserved
/// for every error the serve path can emit.
fn intern_degenerate(msg: &str) -> &'static str {
    match msg {
        "no interpolation points" => "no interpolation points",
        "zero polynomial" => "zero polynomial",
        m if m == TRANSPORT_FAILURE_MSG => TRANSPORT_FAILURE_MSG,
        m if m == REMOTE_BUSY_MSG => REMOTE_BUSY_MSG,
        _ => "degenerate input",
    }
}

fn math_error_of_json(v: &Json) -> Result<MathError, String> {
    let need_at = |v: &Json| -> Result<usize, String> {
        v.get("at")
            .and_then(Json::as_u64)
            .map(|k| k as usize)
            .ok_or_else(|| "math error missing index".to_string())
    };
    match v.get("m").and_then(Json::as_str) {
        Some("dim") => Ok(MathError::DimensionMismatch(
            v.get("what")
                .and_then(Json::as_str)
                .ok_or("dim error missing what")?
                .to_string(),
        )),
        Some("sing") => Ok(MathError::Singular(need_at(v)?)),
        Some("npd") => Ok(MathError::NotPositiveDefinite(need_at(v)?)),
        Some("noconv") => Ok(MathError::NoConvergence {
            iterations: v
                .get("it")
                .and_then(Json::as_u64)
                .ok_or("noconv missing it")? as usize,
            residual: bits_of(v.get("res").ok_or("noconv missing res")?)?,
        }),
        Some("degen") => Ok(MathError::DegenerateInput(intern_degenerate(
            v.get("what")
                .and_then(Json::as_str)
                .ok_or("degen missing what")?,
        ))),
        _ => Err("math error has unknown kind".to_string()),
    }
}

/// `BadNetlist` diagnostics flatten to rendered text on the wire
/// (`BadNetlistReport::render`): the structured `Diagnostic` has no
/// public constructor, and clients only need the message.
fn sim_error_to_json(err: &SimError) -> Json {
    match err {
        SimError::IllConditioned { frequency } => obj(vec![
            ("e", Json::Str("ill".to_string())),
            ("f", bits_str(*frequency)),
        ]),
        SimError::NoUnityCrossing => obj(vec![("e", Json::Str("nuc".to_string()))]),
        SimError::Unstable { worst_pole_re } => obj(vec![
            ("e", Json::Str("unstable".to_string())),
            ("re", bits_str(*worst_pole_re)),
        ]),
        SimError::InvalidSweep { f_start, f_stop } => obj(vec![
            ("e", Json::Str("sweep".to_string())),
            ("f0", bits_str(*f_start)),
            ("f1", bits_str(*f_stop)),
        ]),
        SimError::Math(m) => obj(vec![
            ("e", Json::Str("math".to_string())),
            ("math", math_error_to_json(m)),
        ]),
        SimError::BadNetlist(report) => obj(vec![
            ("e", Json::Str("bad".to_string())),
            ("msg", Json::Str(report.render())),
        ]),
    }
}

fn sim_error_of_json(v: &Json) -> Result<SimError, String> {
    match v.get("e").and_then(Json::as_str) {
        Some("ill") => Ok(SimError::IllConditioned {
            frequency: bits_of(v.get("f").ok_or("ill missing f")?)?,
        }),
        Some("nuc") => Ok(SimError::NoUnityCrossing),
        Some("unstable") => Ok(SimError::Unstable {
            worst_pole_re: bits_of(v.get("re").ok_or("unstable missing re")?)?,
        }),
        Some("sweep") => Ok(SimError::InvalidSweep {
            f_start: bits_of(v.get("f0").ok_or("sweep missing f0")?)?,
            f_stop: bits_of(v.get("f1").ok_or("sweep missing f1")?)?,
        }),
        Some("math") => {
            math_error_of_json(v.get("math").ok_or("math missing payload")?).map(SimError::Math)
        }
        Some("bad") => Ok(SimError::BadNetlist(
            v.get("msg")
                .and_then(Json::as_str)
                .ok_or("bad missing msg")?
                .into(),
        )),
        _ => Err("sim error has unknown kind".to_string()),
    }
}

fn result_to_json(res: &Result<AnalysisReport, SimError>) -> Json {
    match res {
        Ok(report) => obj(vec![
            ("ok", Json::Bool(true)),
            ("report", report_to_json(report)),
        ]),
        Err(err) => obj(vec![
            ("ok", Json::Bool(false)),
            ("err", sim_error_to_json(err)),
        ]),
    }
}

fn result_of_json(v: &Json) -> Result<Result<AnalysisReport, SimError>, String> {
    match v.get("ok").and_then(Json::as_bool) {
        Some(true) => report_of_json(v.get("report").ok_or("ok result missing report")?).map(Ok),
        Some(false) => sim_error_of_json(v.get("err").ok_or("err result missing err")?).map(Err),
        None => Err("result missing ok flag".to_string()),
    }
}

fn wire_report_fields(r: &WireReport) -> Vec<(&'static str, Json)> {
    let mut pairs = vec![
        ("success", Json::Bool(r.success)),
        ("degraded", Json::Bool(r.degraded)),
        ("attempts", Json::Num(r.attempts as f64)),
        ("faults_observed", Json::Num(r.faults_observed as f64)),
        ("events_len", Json::Num(r.events_len as f64)),
        ("simulations", Json::Num(r.simulations as f64)),
        ("llm_steps", Json::Num(r.llm_steps as f64)),
        ("cache_hits", Json::Num(r.cache_hits as f64)),
        ("coalesced_waits", Json::Num(r.coalesced_waits as f64)),
        ("batched_solves", Json::Num(r.batched_solves as f64)),
        ("testbed_seconds", bits_str(r.testbed_seconds)),
    ];
    if let Some(outcome) = &r.outcome {
        let mut inner = vec![
            ("success", Json::Bool(outcome.success)),
            ("iterations", Json::Num(outcome.iterations as f64)),
            ("netlist_text", Json::Str(outcome.netlist_text.clone())),
        ];
        if let Some(report) = &outcome.report {
            inner.push(("report", report_to_json(report)));
        }
        pairs.push(("outcome", obj(inner)));
    }
    pairs
}

fn wire_report_json(r: &WireReport) -> Json {
    let mut pairs = vec![("r".to_string(), Json::Str("report".to_string()))];
    pairs.extend(
        wire_report_fields(r)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v)),
    );
    Json::Obj(pairs)
}

fn need_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing counter {key}"))
}

fn wire_report_of_json(v: &Json) -> Result<WireReport, String> {
    let need_bool = |key: &str| -> Result<bool, String> {
        v.get(key)
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("missing flag {key}"))
    };
    let outcome = match v.get("outcome") {
        None => None,
        Some(o) => Some(WireOutcome {
            success: o
                .get("success")
                .and_then(Json::as_bool)
                .ok_or("outcome missing success")?,
            iterations: need_u64(o, "iterations")?,
            report: o.get("report").map(report_of_json).transpose()?,
            netlist_text: o
                .get("netlist_text")
                .and_then(Json::as_str)
                .ok_or("outcome missing netlist_text")?
                .to_string(),
        }),
    };
    Ok(WireReport {
        success: need_bool("success")?,
        degraded: need_bool("degraded")?,
        attempts: need_u64(v, "attempts")?,
        faults_observed: need_u64(v, "faults_observed")?,
        events_len: need_u64(v, "events_len")?,
        simulations: need_u64(v, "simulations")?,
        llm_steps: need_u64(v, "llm_steps")?,
        cache_hits: need_u64(v, "cache_hits")?,
        coalesced_waits: need_u64(v, "coalesced_waits")?,
        batched_solves: need_u64(v, "batched_solves")?,
        testbed_seconds: bits_of(v.get("testbed_seconds").ok_or("missing testbed_seconds")?)?,
        outcome,
    })
}

fn stats_to_json(s: &WireStats) -> Json {
    obj(vec![
        ("sessions", Json::Num(s.sessions as f64)),
        ("busy_rejects", Json::Num(s.busy_rejects as f64)),
        ("batches", Json::Num(s.batches as f64)),
        ("jobs", Json::Num(s.jobs as f64)),
        ("unique_computed", Json::Num(s.unique_computed as f64)),
        ("dedup_shared", Json::Num(s.dedup_shared as f64)),
        ("cache_served", Json::Num(s.cache_served as f64)),
        (
            "occupancy",
            Json::Arr(
                s.occupancy
                    .iter()
                    .map(|(occ, n)| Json::Arr(vec![Json::Num(*occ as f64), Json::Num(*n as f64)]))
                    .collect(),
            ),
        ),
        ("cache_hits", Json::Num(s.cache_hits as f64)),
        ("cache_misses", Json::Num(s.cache_misses as f64)),
        ("cache_entries", Json::Num(s.cache_entries as f64)),
    ])
}

fn stats_of_json(v: &Json) -> Result<WireStats, String> {
    let occupancy = v
        .get("occupancy")
        .and_then(Json::as_arr)
        .ok_or("stats missing occupancy")?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().ok_or("occupancy row is not a pair")?;
            if pair.len() != 2 {
                return Err("occupancy row is not a pair".to_string());
            }
            Ok((
                pair[0].as_u64().ok_or("bad occupancy key")?,
                pair[1].as_u64().ok_or("bad occupancy count")?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(WireStats {
        sessions: need_u64(v, "sessions")?,
        busy_rejects: need_u64(v, "busy_rejects")?,
        batches: need_u64(v, "batches")?,
        jobs: need_u64(v, "jobs")?,
        unique_computed: need_u64(v, "unique_computed")?,
        dedup_shared: need_u64(v, "dedup_shared")?,
        cache_served: need_u64(v, "cache_served")?,
        occupancy,
        cache_hits: need_u64(v, "cache_hits")?,
        cache_misses: need_u64(v, "cache_misses")?,
        cache_entries: need_u64(v, "cache_entries")?,
    })
}

impl Request {
    /// Serializes to the JSON payload bytes of one frame.
    pub fn encode(&self) -> Vec<u8> {
        let value = match self {
            Request::Ping => obj(vec![("q", Json::Str("ping".to_string()))]),
            Request::Design { tenant, seed, spec } => obj(vec![
                ("q", Json::Str("design".to_string())),
                ("tenant", Json::Str(tenant.clone())),
                ("seed", hex_str(*seed)),
                ("spec", spec_to_json(spec)),
            ]),
            Request::Analyze { item } => obj(vec![
                ("q", Json::Str("analyze".to_string())),
                ("item", item_to_json(item)),
            ]),
            Request::AnalyzeBatch { items } => obj(vec![
                ("q", Json::Str("analyze_batch".to_string())),
                ("items", Json::Arr(items.iter().map(item_to_json).collect())),
            ]),
            Request::Stats => obj(vec![("q", Json::Str("stats".to_string()))]),
            Request::Drain => obj(vec![("q", Json::Str("drain".to_string()))]),
        };
        value.encode().into_bytes()
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// Describes the first structural problem found; never panics on
    /// hostile input.
    pub fn decode(payload: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "payload is not utf8".to_string())?;
        let v = Json::parse(text)?;
        match v.get("q").and_then(Json::as_str) {
            Some("ping") => Ok(Request::Ping),
            Some("design") => Ok(Request::Design {
                tenant: v
                    .get("tenant")
                    .and_then(Json::as_str)
                    .ok_or("design missing tenant")?
                    .to_string(),
                seed: hex_of(v.get("seed").ok_or("design missing seed")?)?,
                spec: spec_of_json(v.get("spec").ok_or("design missing spec")?)?,
            }),
            Some("analyze") => Ok(Request::Analyze {
                item: item_of_json(v.get("item").ok_or("analyze missing item")?)?,
            }),
            Some("analyze_batch") => Ok(Request::AnalyzeBatch {
                items: v
                    .get("items")
                    .and_then(Json::as_arr)
                    .ok_or("analyze_batch missing items")?
                    .iter()
                    .map(item_of_json)
                    .collect::<Result<Vec<_>, String>>()?,
            }),
            Some("stats") => Ok(Request::Stats),
            Some("drain") => Ok(Request::Drain),
            _ => Err("request has unknown kind".to_string()),
        }
    }
}

impl Response {
    /// Serializes to the JSON payload bytes of one frame.
    pub fn encode(&self) -> Vec<u8> {
        let value = match self {
            Response::Pong => obj(vec![("r", Json::Str("pong".to_string()))]),
            Response::Busy { reason } => obj(vec![
                ("r", Json::Str("busy".to_string())),
                ("reason", Json::Str(reason.clone())),
            ]),
            Response::Error { message } => obj(vec![
                ("r", Json::Str("error".to_string())),
                ("message", Json::Str(message.clone())),
            ]),
            Response::Report(report) => wire_report_json(report),
            Response::Analysis { results } => obj(vec![
                ("r", Json::Str("analysis".to_string())),
                (
                    "results",
                    Json::Arr(results.iter().map(result_to_json).collect()),
                ),
            ]),
            Response::Stats(stats) => obj(vec![
                ("r", Json::Str("stats".to_string())),
                ("stats", stats_to_json(stats)),
            ]),
            Response::Draining(stats) => obj(vec![
                ("r", Json::Str("draining".to_string())),
                ("stats", stats_to_json(stats)),
            ]),
        };
        value.encode().into_bytes()
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// Describes the first structural problem found; never panics on
    /// hostile input.
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "payload is not utf8".to_string())?;
        let v = Json::parse(text)?;
        match v.get("r").and_then(Json::as_str) {
            Some("pong") => Ok(Response::Pong),
            Some("busy") => Ok(Response::Busy {
                reason: v
                    .get("reason")
                    .and_then(Json::as_str)
                    .ok_or("busy missing reason")?
                    .to_string(),
            }),
            Some("error") => Ok(Response::Error {
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or("error missing message")?
                    .to_string(),
            }),
            Some("report") => wire_report_of_json(&v).map(|r| Response::Report(Box::new(r))),
            Some("analysis") => Ok(Response::Analysis {
                results: v
                    .get("results")
                    .and_then(Json::as_arr)
                    .ok_or("analysis missing results")?
                    .iter()
                    .map(result_of_json)
                    .collect::<Result<Vec<_>, String>>()?,
            }),
            Some("stats") => {
                stats_of_json(v.get("stats").ok_or("stats missing stats")?).map(Response::Stats)
            }
            Some("draining") => stats_of_json(v.get("stats").ok_or("draining missing stats")?)
                .map(Response::Draining),
            _ => Err("response has unknown kind".to_string()),
        }
    }
}
