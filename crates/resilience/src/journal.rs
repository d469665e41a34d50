//! Crash-safe session write-ahead journal: checkpoint/resume for
//! supervised design sessions.
//!
//! A supervised session burns tens of testbed-equivalent minutes per
//! attempt; a killed worker must never lose paid-for progress. This
//! module records each attempt boundary in an append-only, versioned,
//! checksummed journal file (the `artisan_sim::wire` layout the cache
//! snapshot and the serve protocol share), so a restarted process
//! fast-forwards past completed attempts and resumes billing exactly
//! where the crash left it.
//!
//! # File format (version 3)
//!
//! The shared `artisan_sim::wire` layout: header magic `b"ARTSNJL1"`
//! and format version 3, then one *identity* frame followed by one
//! frame per record, appended in session order. The identity payload
//! is
//!
//! | size | field |
//! |-----:|-------|
//! | 8    | plan fingerprint (`u64`) — see invalidation below |
//! | 8    | session seed (`u64`) |
//!
//! and each record payload is `[type u8][body…]`.
//!
//! Record type 1 is one [`AttemptRecord`] — the delta one attempt added
//! to the session (its events, whether it improved the best-so-far
//! outcome, the cumulative [`CostLedger`] snapshot, and the backend's
//! cumulative analysis-call count for deterministic fault-dice resume).
//! Record type 2 is the terminal verdict: the full final
//! [`SessionReport`]. A journal whose last record is terminal describes
//! a *finished* session; resuming it returns the recorded report
//! without running anything.
//!
//! # Invalidation rules — reject, never mis-resume
//!
//! A journal file is resumed **only** when the header's magic and
//! format version match, the identity frame is intact, **and** its plan
//! fingerprint and session seed equal the caller's. Anything else starts
//! the session fresh with a diagnostic warning — a journal written under
//! a different spec, retry policy, budget, cost model, agent
//! configuration, or fault plan must never splice foreign attempts into
//! this session, and a version-2 file from an older build starts fresh
//! with a warning naming its version. Record frames are checksummed
//! individually: a torn tail (the crash happened mid-append) is
//! truncated and the intact prefix resumes, while a checksum-valid
//! record that fails to decode rejects the whole file (that is
//! corruption FNV happened to miss, not a clean crash).
//!
//! # Atomicity
//!
//! Every append rewrites the full journal through
//! `artisan_sim::wire::write_atomic`, so a reader — or the next process
//! after a SIGKILL — only ever observes a complete previous generation
//! or a complete new one. The torn-tail truncation above is
//! belt-and-braces for filesystems that weaken the rename guarantee
//! under power loss.
//!
//! # Directory wiring
//!
//! Binaries read [`JOURNAL_DIR_ENV`] (`ARTISAN_JOURNAL_DIR`) once at
//! entry through [`journal_dir_from_env`] and pass the directory down;
//! batch runners keep one journal file per session under it, named
//! [`session_file_name`]`(plan_fingerprint, seed)` — deterministic, so
//! a restarted process reopens exactly the files its predecessor wrote.
//! [`scan_dir`] lists them with their resume state for recovery
//! reporting.

use crate::fault::FaultPlan;
use crate::supervisor::{SessionEvent, SessionReport, Supervisor};
use artisan_agents::tot::{TotNode, TotTrace};
use artisan_agents::{AgentConfig, Architecture, ChatTranscript, ChatTurn, DesignOutcome, Speaker};
use artisan_circuit::units::{Farads, Ohms, Siemens};
use artisan_circuit::{
    ConnectionParams, ConnectionType, Placement, Position, Skeleton, StageParams, Topology,
};
use artisan_sim::cost::CostLedger;
use artisan_sim::{wire, Spec};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Environment variable naming the directory that holds per-session
/// journal files.
pub const JOURNAL_DIR_ENV: &str = "ARTISAN_JOURNAL_DIR";

/// Leading magic of every journal file.
const MAGIC: &[u8; 8] = b"ARTSNJL1";

/// Current journal format version. Bump on any layout change: version
/// mismatches load fresh, never as garbage. Version 2 grew the ledger
/// wire layout by the corner-sims counter; version 3 moved the header
/// identity into the shared `wire` frame; version 4 dropped the ledger's
/// screen-rejects counter.
pub const FORMAT_VERSION: u32 = 4;

const RECORD_ATTEMPT: u8 = 1;
const RECORD_TERMINAL: u8 = 2;

/// The journal directory named by [`JOURNAL_DIR_ENV`], if set (and
/// non-empty). For binaries to call once at entry.
pub fn journal_dir_from_env() -> Option<PathBuf> {
    match std::env::var(JOURNAL_DIR_ENV) {
        Ok(dir) if !dir.trim().is_empty() => Some(PathBuf::from(dir)),
        _ => None,
    }
}

/// Deterministic per-session file name: the same `(plan fingerprint,
/// seed)` always maps to the same file, which is what lets a restarted
/// process find its predecessor's journals without any registry.
pub fn session_file_name(plan_fingerprint: u64, seed: u64) -> String {
    format!("session-{plan_fingerprint:016x}-{seed:016x}.wal")
}

/// FNV-64 salt of every [`AgentConfig`] knob that changes what a
/// session does (noise model, iteration budget, retry count,
/// architecture scoring). Folded into [`plan_fingerprint`] so a journal
/// from a differently-configured agent can never resume.
pub fn agent_config_salt(config: &AgentConfig) -> u64 {
    let mut bytes = Vec::with_capacity(64);
    wire::push_f64(&mut bytes, config.noise.sigma);
    wire::push_f64(&mut bytes, config.noise.blunder_rate);
    wire::push_f64(&mut bytes, config.noise.retrieval_temperature);
    wire::push_u64(&mut bytes, config.max_iterations as u64);
    wire::push_u64(&mut bytes, config.sim_retries as u64);
    wire::push_u8(&mut bytes, u8::from(config.score_architectures));
    wire::fnv1a64(&bytes)
}

/// FNV-64 fingerprint of everything that determines a supervised
/// session's behaviour besides its seed: the spec, the retry policy,
/// the budget, the cost model, and `extra_salt` (callers fold in the
/// [`agent_config_salt`] and, when fault-injecting, the
/// [`FaultPlan::fingerprint`]). Two sessions share a fingerprint only
/// when replaying one's journal under the other is sound.
pub fn plan_fingerprint(spec: &Spec, supervisor: &Supervisor, extra_salt: u64) -> u64 {
    let mut bytes = Vec::with_capacity(128);
    wire::push_f64(&mut bytes, spec.gain_min_db);
    wire::push_f64(&mut bytes, spec.gbw_min_hz);
    wire::push_f64(&mut bytes, spec.pm_min_deg);
    wire::push_f64(&mut bytes, spec.power_max_w);
    wire::push_f64(&mut bytes, spec.cl.value());
    wire::push_u64(&mut bytes, supervisor.retry.max_attempts as u64);
    wire::push_f64(&mut bytes, supervisor.retry.backoff_base_seconds);
    wire::push_f64(&mut bytes, supervisor.retry.backoff_factor);
    wire::push_u64(&mut bytes, supervisor.budget.max_simulations as u64);
    wire::push_u64(&mut bytes, supervisor.budget.max_llm_steps as u64);
    wire::push_f64(&mut bytes, supervisor.budget.max_testbed_seconds);
    wire::push_f64(&mut bytes, supervisor.cost_model.seconds_per_simulation);
    wire::push_f64(&mut bytes, supervisor.cost_model.seconds_per_llm_step);
    wire::push_f64(&mut bytes, supervisor.cost_model.seconds_per_optimizer_step);
    wire::push_f64(&mut bytes, supervisor.cost_model.seconds_per_cache_hit);
    wire::push_u64(&mut bytes, extra_salt);
    wire::fnv1a64(&bytes)
}

/// Convenience composition for fault-injected sessions: the plan
/// fingerprint with both the agent-config salt and the fault plan's own
/// fingerprint folded in.
pub fn faulted_plan_fingerprint(
    spec: &Spec,
    supervisor: &Supervisor,
    config: &AgentConfig,
    plan: Option<&FaultPlan>,
) -> u64 {
    let fault_salt = plan.map_or(0, FaultPlan::fingerprint);
    plan_fingerprint(
        spec,
        supervisor,
        agent_config_salt(config) ^ fault_salt.rotate_left(17),
    )
}

/// The delta one design attempt added to its session.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub attempt: usize,
    /// Whether this attempt's outcome passed independent validation
    /// (a validated attempt is the session's last).
    pub validated: bool,
    /// Events this attempt appended to the session log (attempt
    /// start/finish, fault notes, backoff).
    pub events: Vec<SessionEvent>,
    /// Present exactly when this attempt improved the best-so-far
    /// outcome: the spec-failure count and the outcome itself.
    pub best: Option<(usize, DesignOutcome)>,
    /// Cumulative ledger snapshot at the attempt boundary (after any
    /// backoff billing).
    pub ledger: CostLedger,
    /// Cumulative backend analysis calls at the attempt boundary, so a
    /// deterministic fault-injecting backend resumes on the same dice.
    pub backend_calls: u64,
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// An attempt boundary.
    Attempt(AttemptRecord),
    /// The session's terminal verdict — always the last record.
    Terminal(SessionReport),
}

/// Result of opening a journal. `warning` is `Some` exactly when a
/// present file was rejected or tail-truncated; a *missing* file is a
/// normal fresh session and carries no warning.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JournalLoad {
    /// Completed attempts restored for fast-forward.
    pub attempts_loaded: usize,
    /// Whether a terminal verdict was restored (the session is already
    /// finished; resuming returns it without running anything).
    pub terminal: bool,
    /// Diagnostic for a rejected or truncated file.
    pub warning: Option<String>,
}

/// One entry of a [`scan_dir`] recovery report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalScan {
    /// The journal file.
    pub path: PathBuf,
    /// Plan fingerprint from the header.
    pub plan_fingerprint: u64,
    /// Session seed from the header.
    pub seed: u64,
    /// How the file loaded under its own header identity.
    pub load: JournalLoad,
}

/// Result of one durable append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Bytes this append added to the journal (frame overhead
    /// included).
    pub record_bytes: usize,
    /// Total bytes written to disk by this append (the whole file is
    /// rewritten for atomicity; 0 for in-memory journals).
    pub bytes_written: usize,
}

/// An append-only, checksummed session journal.
///
/// Three flavours share the type: *detached* (no buffering at all — the
/// zero-cost default inside `Supervisor::run_with_agent`), *in-memory*
/// (buffers frames, never touches disk — tests and overhead
/// measurement), and *durable* (every append atomically rewrites the
/// backing file).
#[derive(Debug)]
pub struct SessionJournal {
    path: Option<PathBuf>,
    recording: bool,
    plan_fingerprint: u64,
    seed: u64,
    /// The full encoded file image (header + valid frames).
    bytes: Vec<u8>,
    records: Vec<JournalRecord>,
    appends: u64,
    bytes_written: u64,
    io_errors: Vec<String>,
}

impl SessionJournal {
    fn header_bytes(plan_fingerprint: u64, seed: u64) -> Vec<u8> {
        let mut identity = Vec::with_capacity(16);
        wire::push_u64(&mut identity, plan_fingerprint);
        wire::push_u64(&mut identity, seed);
        wire::framed(MAGIC, FORMAT_VERSION, &identity)
    }

    /// A journal that records nothing — the zero-overhead stand-in for
    /// unjournaled sessions.
    pub fn detached() -> Self {
        SessionJournal {
            path: None,
            recording: false,
            plan_fingerprint: 0,
            seed: 0,
            bytes: Vec::new(),
            records: Vec::new(),
            appends: 0,
            bytes_written: 0,
            io_errors: Vec::new(),
        }
    }

    /// A journal that buffers frames in memory and never touches disk.
    pub fn in_memory(plan_fingerprint: u64, seed: u64) -> Self {
        SessionJournal {
            path: None,
            recording: true,
            plan_fingerprint,
            seed,
            bytes: Self::header_bytes(plan_fingerprint, seed),
            records: Vec::new(),
            appends: 0,
            bytes_written: 0,
            io_errors: Vec::new(),
        }
    }

    /// Opens (or starts) the durable journal at `path` for the session
    /// identified by `(plan_fingerprint, seed)`.
    ///
    /// A missing file is a fresh session (no warning). A present file
    /// resumes only when its magic, version, identity frame,
    /// fingerprint, and seed all match — anything else starts fresh
    /// with a warning, and the first append overwrites the rejected
    /// file. A torn tail is truncated to the last intact frame.
    pub fn open(path: &Path, plan_fingerprint: u64, seed: u64) -> (SessionJournal, JournalLoad) {
        let mut journal = SessionJournal {
            path: Some(path.to_path_buf()),
            recording: true,
            plan_fingerprint,
            seed,
            bytes: Self::header_bytes(plan_fingerprint, seed),
            records: Vec::new(),
            appends: 0,
            bytes_written: 0,
            io_errors: Vec::new(),
        };
        let raw = match fs::read(path) {
            Ok(raw) => raw,
            Err(err) if err.kind() == io::ErrorKind::NotFound => {
                return (journal, JournalLoad::default());
            }
            Err(err) => {
                let load = JournalLoad {
                    warning: Some(format!(
                        "session journal unreadable ({}): {err}",
                        path.display()
                    )),
                    ..JournalLoad::default()
                };
                return (journal, load);
            }
        };
        let load = journal.restore(&raw, Some((plan_fingerprint, seed)));
        (journal, load)
    }

    /// Decodes `raw` into this journal. `expected`, when set, pins the
    /// header identity; `None` accepts whatever identity the header
    /// carries (the [`scan_dir`] peek path).
    fn restore(&mut self, raw: &[u8], expected: Option<(u64, u64)>) -> JournalLoad {
        let reject = |reason: String| JournalLoad {
            warning: Some(format!("session journal rejected: {reason}")),
            ..JournalLoad::default()
        };
        let (file_fp, file_seed, mut rest) = match split_identity(raw) {
            Ok(identity) => identity,
            Err(reason) => return reject(reason),
        };
        if let Some((fp, seed)) = expected {
            if file_fp != fp {
                return reject(format!(
                    "plan fingerprint {file_fp:#018x} != expected {fp:#018x} — written under a different plan"
                ));
            }
            if file_seed != seed {
                return reject(format!(
                    "session seed {file_seed} != expected {seed} — a different session's journal"
                ));
            }
        } else {
            self.plan_fingerprint = file_fp;
            self.seed = file_seed;
            self.bytes = Self::header_bytes(file_fp, file_seed);
        }

        // Frame scan: keep every intact, decodable record; truncate at
        // the first torn frame.
        let records_start = raw.len() - rest.len();
        let mut records = Vec::new();
        let mut truncated = None;
        while !rest.is_empty() {
            let (payload, next) = match wire::split_frame(rest) {
                Ok(frame) => frame,
                Err(reason) => {
                    truncated = Some(format!(
                        "torn tail truncated at byte {} ({} bytes dropped): {reason}",
                        raw.len() - rest.len(),
                        rest.len()
                    ));
                    break;
                }
            };
            match decode_record(payload) {
                Ok(record) => {
                    records.push(record);
                    rest = next;
                }
                // Checksum-valid but undecodable: not a torn append —
                // reject the whole file rather than resume over it.
                Err(reason) => return reject(format!("record {}: {reason}", records.len())),
            }
        }
        // Structural sanity: attempts numbered 1, 2, … with the
        // terminal verdict (if any) last. Anything else mis-resumes.
        let mut expected_attempt = 1usize;
        for (i, record) in records.iter().enumerate() {
            match record {
                JournalRecord::Attempt(rec) => {
                    if rec.attempt != expected_attempt {
                        return reject(format!(
                            "attempt record {} out of order (attempt {}, expected {})",
                            i, rec.attempt, expected_attempt
                        ));
                    }
                    expected_attempt += 1;
                }
                JournalRecord::Terminal(_) if i + 1 == records.len() => {}
                JournalRecord::Terminal(_) => {
                    return reject(format!("terminal record {i} is not last"));
                }
            }
        }
        self.bytes
            .extend_from_slice(&raw[records_start..raw.len() - rest.len()]);
        let attempts_loaded = records
            .iter()
            .filter(|r| matches!(r, JournalRecord::Attempt(_)))
            .count();
        let terminal = matches!(records.last(), Some(JournalRecord::Terminal(_)));
        self.records = records;
        JournalLoad {
            attempts_loaded,
            terminal,
            warning: truncated,
        }
    }

    /// Whether appends are recorded at all (false only for
    /// [`SessionJournal::detached`]).
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// The plan fingerprint this journal is bound to.
    pub fn plan_fingerprint(&self) -> u64 {
        self.plan_fingerprint
    }

    /// The session seed this journal is bound to.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The backing file, for durable journals.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Every restored or appended record, in session order.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// The attempt records, in attempt order.
    pub fn attempt_records(&self) -> impl Iterator<Item = &AttemptRecord> {
        self.records.iter().filter_map(|r| match r {
            JournalRecord::Attempt(rec) => Some(rec),
            JournalRecord::Terminal(_) => None,
        })
    }

    /// The terminal verdict, when the session already finished.
    pub fn terminal(&self) -> Option<&SessionReport> {
        match self.records.last() {
            Some(JournalRecord::Terminal(report)) => Some(report),
            _ => None,
        }
    }

    /// Durable appends performed so far.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Total bytes written to disk across all appends (each append
    /// rewrites the whole file).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Current encoded journal size (header + frames).
    pub fn encoded_len(&self) -> usize {
        if self.recording {
            self.bytes.len()
        } else {
            0
        }
    }

    /// I/O errors swallowed by [`SessionJournal::append_best_effort`],
    /// oldest first. A failed append never perturbs the session itself
    /// — the supervisor keeps running and the errors surface here.
    pub fn io_errors(&self) -> &[String] {
        &self.io_errors
    }

    /// Appends one record: frames it into the buffer and, for durable
    /// journals, atomically rewrites the backing file.
    ///
    /// # Errors
    ///
    /// Disk failures from the durable rewrite; the in-memory buffer is
    /// updated regardless, so a later append retries the full state.
    pub fn append(&mut self, record: JournalRecord) -> io::Result<AppendOutcome> {
        if !self.recording {
            return Ok(AppendOutcome {
                record_bytes: 0,
                bytes_written: 0,
            });
        }
        let mut payload = Vec::with_capacity(256);
        encode_record(&mut payload, &record);
        let before = self.bytes.len();
        wire::push_frame(&mut self.bytes, &payload);
        self.records.push(record);
        self.appends += 1;
        let record_bytes = self.bytes.len() - before;
        let mut outcome = AppendOutcome {
            record_bytes,
            bytes_written: 0,
        };
        if let Some(path) = &self.path {
            wire::write_atomic(path, &self.bytes)?;
            outcome.bytes_written = self.bytes.len();
            self.bytes_written += self.bytes.len() as u64;
        }
        Ok(outcome)
    }

    /// [`SessionJournal::append`] with disk errors recorded in
    /// [`SessionJournal::io_errors`] instead of propagated — journaling
    /// must never change what the session computes.
    pub fn append_best_effort(&mut self, record: JournalRecord) {
        if let Err(err) = self.append(record) {
            self.io_errors.push(err.to_string());
        }
    }
}

/// Checks the header and decodes the identity frame: the plan
/// fingerprint, the seed, and the record frames that follow.
fn split_identity(raw: &[u8]) -> Result<(u64, u64, &[u8]), String> {
    let frames = wire::check_header(raw, MAGIC, FORMAT_VERSION)?;
    let (payload, records) = wire::split_frame(frames).map_err(|e| format!("header {e}"))?;
    let mut reader = wire::Reader::new(payload);
    let (plan_fingerprint, seed) = (reader.u64()?, reader.u64()?);
    if reader.remaining() != 0 {
        return Err(format!(
            "{} trailing bytes in the header frame",
            reader.remaining()
        ));
    }
    Ok((plan_fingerprint, seed, records))
}

// ---------------------------------------------------------------------
// Record codecs. Everything below is a straight-line application of the
// shared `wire` helpers; decode errors are diagnostics, never panics.
// ---------------------------------------------------------------------

fn encode_record(out: &mut Vec<u8>, record: &JournalRecord) {
    match record {
        JournalRecord::Attempt(rec) => {
            wire::push_u8(out, RECORD_ATTEMPT);
            wire::push_u64(out, rec.attempt as u64);
            wire::push_u8(out, u8::from(rec.validated));
            wire::push_u32(out, rec.events.len() as u32);
            for event in &rec.events {
                encode_event(out, event);
            }
            match &rec.best {
                Some((fails, outcome)) => {
                    wire::push_u8(out, 1);
                    wire::push_u64(out, *fails as u64);
                    encode_outcome(out, outcome);
                }
                None => wire::push_u8(out, 0),
            }
            rec.ledger.encode_wire(out);
            wire::push_u64(out, rec.backend_calls);
        }
        JournalRecord::Terminal(report) => {
            wire::push_u8(out, RECORD_TERMINAL);
            encode_report(out, report);
        }
    }
}

fn decode_record(payload: &[u8]) -> Result<JournalRecord, String> {
    let mut reader = wire::Reader::new(payload);
    let record = match reader.u8()? {
        RECORD_ATTEMPT => {
            let attempt = reader.u64()? as usize;
            let validated = reader.bool()?;
            let event_count = reader.u32()? as usize;
            if event_count > reader.remaining() {
                return Err(format!("event count {event_count} exceeds payload"));
            }
            let mut events = Vec::with_capacity(event_count);
            for _ in 0..event_count {
                events.push(decode_event(&mut reader)?);
            }
            let best = match reader.bool()? {
                true => {
                    let fails = reader.u64()? as usize;
                    let outcome = decode_outcome(&mut reader)?;
                    Some((fails, outcome))
                }
                false => None,
            };
            let ledger = CostLedger::decode_wire(&mut reader)?;
            let backend_calls = reader.u64()?;
            JournalRecord::Attempt(AttemptRecord {
                attempt,
                validated,
                events,
                best,
                ledger,
                backend_calls,
            })
        }
        RECORD_TERMINAL => JournalRecord::Terminal(decode_report(&mut reader)?),
        other => return Err(format!("unknown record type {other}")),
    };
    if reader.remaining() != 0 {
        return Err(format!("{} trailing bytes in record", reader.remaining()));
    }
    Ok(record)
}

fn encode_event(out: &mut Vec<u8>, event: &SessionEvent) {
    match event {
        SessionEvent::AttemptStarted { attempt } => {
            wire::push_u8(out, 0);
            wire::push_u64(out, *attempt as u64);
        }
        SessionEvent::AttemptFinished { attempt, validated } => {
            wire::push_u8(out, 1);
            wire::push_u64(out, *attempt as u64);
            wire::push_u8(out, u8::from(*validated));
        }
        SessionEvent::FaultObserved { note } => {
            wire::push_u8(out, 2);
            wire::push_str(out, note);
        }
        SessionEvent::Backoff {
            after_attempt,
            seconds,
        } => {
            wire::push_u8(out, 3);
            wire::push_u64(out, *after_attempt as u64);
            wire::push_f64(out, *seconds);
        }
        SessionEvent::BudgetExhausted { reason } => {
            wire::push_u8(out, 4);
            wire::push_str(out, reason);
        }
    }
}

fn decode_event(reader: &mut wire::Reader<'_>) -> Result<SessionEvent, String> {
    Ok(match reader.u8()? {
        0 => SessionEvent::AttemptStarted {
            attempt: reader.u64()? as usize,
        },
        1 => SessionEvent::AttemptFinished {
            attempt: reader.u64()? as usize,
            validated: reader.bool()?,
        },
        2 => SessionEvent::FaultObserved {
            note: reader.str()?,
        },
        3 => SessionEvent::Backoff {
            after_attempt: reader.u64()? as usize,
            seconds: reader.f64()?,
        },
        4 => SessionEvent::BudgetExhausted {
            reason: reader.str()?,
        },
        other => return Err(format!("unknown event tag {other}")),
    })
}

fn encode_stage(out: &mut Vec<u8>, stage: &StageParams) {
    wire::push_f64(out, stage.gm.value());
    wire::push_f64(out, stage.ro.value());
    wire::push_f64(out, stage.cp.value());
}

fn decode_stage(reader: &mut wire::Reader<'_>) -> Result<StageParams, String> {
    Ok(StageParams {
        gm: Siemens(reader.f64()?),
        ro: Ohms(reader.f64()?),
        cp: Farads(reader.f64()?),
    })
}

fn push_opt_f64(out: &mut Vec<u8>, value: Option<f64>) {
    match value {
        Some(v) => {
            wire::push_u8(out, 1);
            wire::push_f64(out, v);
        }
        None => wire::push_u8(out, 0),
    }
}

fn read_opt_f64(reader: &mut wire::Reader<'_>) -> Result<Option<f64>, String> {
    Ok(match reader.bool()? {
        true => Some(reader.f64()?),
        false => None,
    })
}

fn encode_topology(out: &mut Vec<u8>, topo: &Topology) {
    encode_stage(out, &topo.skeleton.stage1);
    encode_stage(out, &topo.skeleton.stage2);
    encode_stage(out, &topo.skeleton.stage3);
    wire::push_f64(out, topo.skeleton.rl.value());
    wire::push_f64(out, topo.skeleton.cl.value());
    wire::push_u32(out, topo.placements().len() as u32);
    for placement in topo.placements() {
        // Indices into the canonical ALL orders — stable across
        // processes by construction.
        let position = Position::ALL
            .iter()
            .position(|p| *p == placement.position)
            .unwrap_or(0) as u8;
        let connection = ConnectionType::ALL
            .iter()
            .position(|c| *c == placement.connection)
            .unwrap_or(0) as u8;
        wire::push_u8(out, position);
        wire::push_u8(out, connection);
        push_opt_f64(out, placement.params.r.map(|v| v.value()));
        push_opt_f64(out, placement.params.c.map(|v| v.value()));
        push_opt_f64(out, placement.params.gm.map(|v| v.value()));
    }
}

fn decode_topology(reader: &mut wire::Reader<'_>) -> Result<Topology, String> {
    let stage1 = decode_stage(reader)?;
    let stage2 = decode_stage(reader)?;
    let stage3 = decode_stage(reader)?;
    let rl = reader.f64()?;
    let cl = reader.f64()?;
    let mut topo = Topology::new(Skeleton {
        stage1,
        stage2,
        stage3,
        rl: Ohms(rl),
        cl: Farads(cl),
    });
    let count = reader.u32()? as usize;
    if count > Position::ALL.len() {
        return Err(format!("placement count {count} exceeds the 7 positions"));
    }
    for _ in 0..count {
        let position = *Position::ALL
            .get(reader.u8()? as usize)
            .ok_or("invalid position index")?;
        let connection = *ConnectionType::ALL
            .get(reader.u8()? as usize)
            .ok_or("invalid connection index")?;
        let params = ConnectionParams {
            r: read_opt_f64(reader)?.map(Ohms),
            c: read_opt_f64(reader)?.map(Farads),
            gm: read_opt_f64(reader)?.map(Siemens),
        };
        topo.place(Placement::new(position, connection, params))
            .map_err(|e| format!("illegal journaled placement: {e}"))?;
    }
    Ok(topo)
}

fn encode_outcome(out: &mut Vec<u8>, outcome: &DesignOutcome) {
    wire::push_u8(out, u8::from(outcome.success));
    encode_topology(out, &outcome.topology);
    match &outcome.report {
        Some(report) => {
            wire::push_u8(out, 1);
            wire::encode_report(out, report);
        }
        None => wire::push_u8(out, 0),
    }
    wire::push_u32(out, outcome.transcript.turns().len() as u32);
    for turn in outcome.transcript.turns() {
        let speaker = match turn.speaker {
            Speaker::Prompter => 0u8,
            Speaker::ArtisanLlm => 1,
            Speaker::Tool => 2,
        };
        wire::push_u8(out, speaker);
        wire::push_u64(out, turn.index as u64);
        wire::push_str(out, &turn.text);
    }
    wire::push_u64(out, outcome.transcript.exchange_count() as u64);
    wire::push_u32(out, outcome.tot_trace.nodes().len() as u32);
    for node in outcome.tot_trace.nodes() {
        wire::push_str(out, &node.question);
        wire::push_u32(out, node.options.len() as u32);
        for option in &node.options {
            wire::push_str(out, option);
        }
        wire::push_str(out, &node.chosen);
        wire::push_str(out, &node.rationale);
    }
    wire::push_u64(out, outcome.iterations as u64);
    let architecture = Architecture::ALL
        .iter()
        .position(|a| *a == outcome.architecture)
        .unwrap_or(0) as u8;
    wire::push_u8(out, architecture);
    wire::push_str(out, &outcome.netlist_text);
}

fn decode_outcome(reader: &mut wire::Reader<'_>) -> Result<DesignOutcome, String> {
    let success = reader.bool()?;
    let topology = decode_topology(reader)?;
    let report = match reader.bool()? {
        true => Some(reader.report()?),
        false => None,
    };
    let turn_count = reader.u32()? as usize;
    if turn_count > reader.remaining() {
        return Err(format!("turn count {turn_count} exceeds payload"));
    }
    let mut turns = Vec::with_capacity(turn_count);
    for _ in 0..turn_count {
        let speaker = match reader.u8()? {
            0 => Speaker::Prompter,
            1 => Speaker::ArtisanLlm,
            2 => Speaker::Tool,
            other => return Err(format!("unknown speaker tag {other}")),
        };
        let index = reader.u64()? as usize;
        let text = reader.str()?;
        turns.push(ChatTurn {
            speaker,
            index,
            text,
        });
    }
    let next_index = reader.u64()? as usize;
    let transcript = ChatTranscript::from_parts(turns, next_index);
    let node_count = reader.u32()? as usize;
    if node_count > reader.remaining() {
        return Err(format!("tot node count {node_count} exceeds payload"));
    }
    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let question = reader.str()?;
        let option_count = reader.u32()? as usize;
        if option_count > reader.remaining() {
            return Err(format!("option count {option_count} exceeds payload"));
        }
        let mut options = Vec::with_capacity(option_count);
        for _ in 0..option_count {
            options.push(reader.str()?);
        }
        let chosen = reader.str()?;
        let rationale = reader.str()?;
        nodes.push(TotNode {
            question,
            options,
            chosen,
            rationale,
        });
    }
    let tot_trace = TotTrace::from_nodes(nodes);
    let iterations = reader.u64()? as usize;
    let architecture = *Architecture::ALL
        .get(reader.u8()? as usize)
        .ok_or("invalid architecture index")?;
    let netlist_text = reader.str()?;
    Ok(DesignOutcome {
        success,
        topology,
        report,
        transcript,
        tot_trace,
        iterations,
        architecture,
        netlist_text,
    })
}

fn encode_report(out: &mut Vec<u8>, report: &SessionReport) {
    wire::push_u8(out, u8::from(report.success));
    wire::push_u8(out, u8::from(report.degraded));
    wire::push_u64(out, report.attempts as u64);
    wire::push_u64(out, report.faults_observed as u64);
    wire::push_u32(out, report.events.len() as u32);
    for event in &report.events {
        encode_event(out, event);
    }
    match &report.outcome {
        Some(outcome) => {
            wire::push_u8(out, 1);
            encode_outcome(out, outcome);
        }
        None => wire::push_u8(out, 0),
    }
    wire::push_u64(out, report.simulations as u64);
    wire::push_u64(out, report.llm_steps as u64);
    wire::push_u64(out, report.cache_hits as u64);
    wire::push_u64(out, report.coalesced_waits as u64);
    wire::push_u64(out, report.batched_solves as u64);
    wire::push_f64(out, report.testbed_seconds);
}

fn decode_report(reader: &mut wire::Reader<'_>) -> Result<SessionReport, String> {
    let success = reader.bool()?;
    let degraded = reader.bool()?;
    let attempts = reader.u64()? as usize;
    let faults_observed = reader.u64()? as usize;
    let event_count = reader.u32()? as usize;
    if event_count > reader.remaining() {
        return Err(format!("event count {event_count} exceeds payload"));
    }
    let mut events = Vec::with_capacity(event_count);
    for _ in 0..event_count {
        events.push(decode_event(reader)?);
    }
    let outcome = match reader.bool()? {
        true => Some(decode_outcome(reader)?),
        false => None,
    };
    Ok(SessionReport {
        success,
        degraded,
        attempts,
        faults_observed,
        events,
        outcome,
        simulations: reader.u64()? as usize,
        llm_steps: reader.u64()? as usize,
        cache_hits: reader.u64()? as usize,
        coalesced_waits: reader.u64()? as usize,
        batched_solves: reader.u64()? as usize,
        testbed_seconds: reader.f64()?,
    })
}

/// Lists every `session-*.wal` file under `dir` with its header
/// identity and load state — the recovery report a restarting batch
/// runner prints before resuming. Files whose header cannot be trusted
/// appear with the rejection warning and zeroed identity.
///
/// # Errors
///
/// Propagates directory-read failures; individual unreadable files are
/// reported in their entry, not as an error.
pub fn scan_dir(dir: &Path) -> io::Result<Vec<JournalScan>> {
    let mut scans = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !(name.starts_with("session-") && name.ends_with(".wal")) {
            continue;
        }
        let path = entry.path();
        let mut journal = SessionJournal::detached();
        journal.recording = true;
        let load = match fs::read(&path) {
            Ok(raw) => journal.restore(&raw, None),
            Err(err) => JournalLoad {
                warning: Some(format!("unreadable: {err}")),
                ..JournalLoad::default()
            },
        };
        scans.push(JournalScan {
            path,
            plan_fingerprint: journal.plan_fingerprint,
            seed: journal.seed,
            load,
        });
    }
    scans.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(scans)
}

/// What the journal janitor did in one pass — see [`expire_terminal`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpireOutcome {
    /// Journal files examined.
    pub scanned: usize,
    /// Of those, journals whose last record is terminal.
    pub terminal: usize,
    /// Terminal journals removed (old enough).
    pub expired: usize,
    /// Journals that could not be aged or removed (I/O errors on the
    /// individual file; the pass continues past them).
    pub failed: usize,
}

/// The journal janitor: removes terminal `session-*.wal` files whose
/// modification time is at least `max_age` old.
///
/// Only *terminal* journals are candidates — a session that crashed
/// mid-attempt keeps its WAL indefinitely, because that file is the
/// resume point. Terminal journals are pure archive once their report
/// has shipped, so a serving deployment expires them by age (wired
/// into the server's graceful drain and `table3
/// --journal-expire-secs`). `Duration::ZERO` expires every terminal
/// journal immediately.
///
/// # Errors
///
/// Propagates directory-read failures; per-file failures are counted
/// in [`ExpireOutcome::failed`] instead.
pub fn expire_terminal(dir: &Path, max_age: std::time::Duration) -> io::Result<ExpireOutcome> {
    let mut outcome = ExpireOutcome::default();
    let now = std::time::SystemTime::now();
    for scan in scan_dir(dir)? {
        outcome.scanned += 1;
        if !scan.load.terminal {
            continue;
        }
        outcome.terminal += 1;
        let age = match fs::metadata(&scan.path).and_then(|m| m.modified()) {
            Ok(mtime) => now
                .duration_since(mtime)
                .unwrap_or(std::time::Duration::ZERO),
            Err(_) => {
                outcome.failed += 1;
                continue;
            }
        };
        if age < max_age {
            continue;
        }
        match fs::remove_file(&scan.path) {
            Ok(()) => outcome.expired += 1,
            Err(_) => outcome.failed += 1,
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultySim};
    use artisan_sim::Simulator;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static UNIQUE: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "artisan-journal-{tag}-{}-{}",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{e}"));
        dir
    }

    /// A finished faulty session's journal, for round-trip tests.
    fn journaled_session(dir: &Path) -> (SessionJournal, SessionReport) {
        let supervisor = Supervisor::default();
        let spec = Spec::g1();
        let seed = 5;
        let fp = plan_fingerprint(&spec, &supervisor, 0);
        let path = dir.join(session_file_name(fp, seed));
        let (mut journal, load) = SessionJournal::open(&path, fp, seed);
        assert_eq!(load, JournalLoad::default());
        let mut sim = FaultySim::new(Simulator::new(), FaultPlan::flaky(3, 0.3));
        let report = supervisor.run_journaled_default_agent(&spec, &mut sim, seed, &mut journal);
        (journal, report)
    }

    #[test]
    fn journal_round_trips_a_finished_session() {
        let dir = scratch_dir("roundtrip");
        let (journal, report) = journaled_session(&dir);
        assert!(journal.appends() >= 2, "attempt + terminal at minimum");
        assert!(journal.io_errors().is_empty(), "{:?}", journal.io_errors());
        let path = journal.path().map(Path::to_path_buf);
        let path = path.unwrap_or_else(|| panic!("durable journal has a path"));
        let (reloaded, load) = SessionJournal::open(&path, journal.plan_fingerprint(), 5);
        assert!(load.warning.is_none(), "{load:?}");
        assert!(load.terminal);
        assert_eq!(load.attempts_loaded, report.attempts);
        let stored = reloaded.terminal().unwrap_or_else(|| panic!("no terminal"));
        assert_eq!(stored.success, report.success);
        assert_eq!(stored.events, report.events);
        assert_eq!(stored.testbed_seconds, report.testbed_seconds);
        let original = report
            .outcome
            .as_ref()
            .unwrap_or_else(|| panic!("no outcome"));
        let restored = stored
            .outcome
            .as_ref()
            .unwrap_or_else(|| panic!("no stored outcome"));
        assert_eq!(restored.topology, original.topology);
        assert_eq!(restored.report, original.report);
        assert_eq!(restored.transcript, original.transcript);
        assert_eq!(restored.tot_trace, original.tot_trace);
        assert_eq!(restored.netlist_text, original.netlist_text);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_or_seed_mismatch_starts_fresh_with_warning() {
        let dir = scratch_dir("mismatch");
        let (journal, _) = journaled_session(&dir);
        let path = journal.path().map(Path::to_path_buf);
        let path = path.unwrap_or_else(|| panic!("durable journal has a path"));
        let fp = journal.plan_fingerprint();
        let (fresh, load) = SessionJournal::open(&path, fp ^ 1, 5);
        assert!(fresh.records().is_empty());
        let warning = load.warning.unwrap_or_else(|| panic!("no fp warning"));
        assert!(warning.contains("fingerprint"), "{warning}");
        let (fresh, load) = SessionJournal::open(&path, fp, 6);
        assert!(fresh.records().is_empty());
        let warning = load.warning.unwrap_or_else(|| panic!("no seed warning"));
        assert!(warning.contains("seed"), "{warning}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_to_the_intact_prefix() {
        let dir = scratch_dir("torn");
        let (journal, _) = journaled_session(&dir);
        let path = journal.path().map(Path::to_path_buf);
        let path = path.unwrap_or_else(|| panic!("durable journal has a path"));
        let bytes = fs::read(&path).unwrap_or_else(|e| panic!("{e}"));
        let total_records = journal.records().len();
        // Cut the file mid-way through the last frame: every record but
        // the last must survive, with a truncation warning.
        for cut in [bytes.len() - 1, bytes.len() - 9] {
            fs::write(&path, &bytes[..cut]).unwrap_or_else(|e| panic!("{e}"));
            let (reloaded, load) = SessionJournal::open(&path, journal.plan_fingerprint(), 5);
            assert_eq!(reloaded.records().len(), total_records - 1, "cut {cut}");
            let warning = load
                .warning
                .unwrap_or_else(|| panic!("cut {cut}: no warning"));
            assert!(warning.contains("torn tail"), "{warning}");
            assert!(!load.terminal, "the terminal record was the torn one");
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// Header plus the identity frame: everything before the first
    /// record.
    const HEADER_LEN: usize = wire::HEADER_LEN + wire::FRAME_OVERHEAD + 16;

    #[test]
    fn corrupt_header_or_flipped_bits_never_panic_or_resume() {
        let dir = scratch_dir("corrupt");
        let (journal, _) = journaled_session(&dir);
        let path = journal.path().map(Path::to_path_buf);
        let path = path.unwrap_or_else(|| panic!("durable journal has a path"));
        let bytes = fs::read(&path).unwrap_or_else(|e| panic!("{e}"));
        let fp = journal.plan_fingerprint();
        // Flip one bit in every header and identity-frame byte: always
        // a full rejection.
        for i in 0..HEADER_LEN {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            fs::write(&path, &corrupt).unwrap_or_else(|e| panic!("{e}"));
            let (reloaded, load) = SessionJournal::open(&path, fp, 5);
            assert!(reloaded.records().is_empty(), "header byte {i}");
            assert!(load.warning.is_some(), "header byte {i} must warn");
        }
        // Flip one bit in every 37th body byte (sampled for speed): the
        // record's frame checksum catches it — loads must never panic,
        // never load more records than the original, and always warn or
        // truncate.
        for i in (HEADER_LEN..bytes.len()).step_by(37) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            fs::write(&path, &corrupt).unwrap_or_else(|e| panic!("{e}"));
            let (reloaded, load) = SessionJournal::open(&path, fp, 5);
            assert!(
                reloaded.records().len() < journal.records().len(),
                "body byte {i} kept every record"
            );
            assert!(load.warning.is_some(), "body byte {i} must warn");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_version_is_rejected() {
        let dir = scratch_dir("version");
        let (journal, _) = journaled_session(&dir);
        let path = journal.path().map(Path::to_path_buf);
        let path = path.unwrap_or_else(|| panic!("durable journal has a path"));
        let mut bytes = fs::read(&path).unwrap_or_else(|e| panic!("{e}"));
        // The version sits outside every frame checksum, so only the
        // version check can reject this file.
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap_or_else(|e| panic!("{e}"));
        let (reloaded, load) = SessionJournal::open(&path, journal.plan_fingerprint(), 5);
        assert!(reloaded.records().is_empty());
        let warning = load.warning.unwrap_or_else(|| panic!("no warning"));
        assert!(warning.contains("version"), "{warning}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn older_journals_start_fresh_naming_their_version() {
        let dir = scratch_dir("old-versions");
        let path = dir.join(session_file_name(1, 2));
        // The version-2 header, byte by byte: magic, version, plan
        // fingerprint, seed, then FNV-1a of those 28 bytes.
        let mut v2 = b"ARTSNJL1".to_vec();
        wire::push_u32(&mut v2, 2);
        wire::push_u64(&mut v2, 1);
        wire::push_u64(&mut v2, 2);
        let checksum = wire::fnv1a64(&v2);
        wire::push_u64(&mut v2, checksum);
        // The version-3 header: the same identity in the shared frame,
        // ahead of ledgers that still carried the screen-rejects count.
        let mut identity = Vec::new();
        wire::push_u64(&mut identity, 1);
        wire::push_u64(&mut identity, 2);
        let v3 = wire::framed(MAGIC, 3, &identity);
        for (version, bytes) in [(2, v2), (3, v3)] {
            fs::write(&path, &bytes).unwrap_or_else(|e| panic!("{e}"));
            let (journal, load) = SessionJournal::open(&path, 1, 2);
            assert!(journal.records().is_empty(), "version {version}");
            let warning = load
                .warning
                .unwrap_or_else(|| panic!("version {version}: no warning"));
            assert!(warning.contains(&format!("version {version}")), "{warning}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_a_silent_fresh_start() {
        let dir = scratch_dir("missing");
        let (journal, load) = SessionJournal::open(&dir.join("session-x.wal"), 1, 2);
        assert!(journal.records().is_empty());
        assert_eq!(load, JournalLoad::default());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_fingerprint_separates_plans() {
        let supervisor = Supervisor::default();
        let a = plan_fingerprint(&Spec::g1(), &supervisor, 0);
        assert_eq!(a, plan_fingerprint(&Spec::g1(), &supervisor, 0));
        assert_ne!(a, plan_fingerprint(&Spec::g2(), &supervisor, 0));
        assert_ne!(a, plan_fingerprint(&Spec::g1(), &supervisor, 1));
        let mut other = Supervisor::default();
        other.retry.max_attempts += 1;
        assert_ne!(a, plan_fingerprint(&Spec::g1(), &other, 0));
        let mut other = Supervisor::default();
        other.budget.max_simulations += 1;
        assert_ne!(a, plan_fingerprint(&Spec::g1(), &other, 0));
        let mut other = Supervisor::default();
        other.cost_model.seconds_per_simulation += 1.0;
        assert_ne!(a, plan_fingerprint(&Spec::g1(), &other, 0));
        // The composed fault-plan fingerprint separates plans too.
        let config = AgentConfig::noiseless();
        let clean = faulted_plan_fingerprint(&Spec::g1(), &supervisor, &config, None);
        let faulted = faulted_plan_fingerprint(
            &Spec::g1(),
            &supervisor,
            &config,
            Some(&FaultPlan::flaky(1, 0.2)),
        );
        assert_ne!(clean, faulted);
    }

    #[test]
    fn scan_dir_reports_terminal_and_foreign_files() {
        let dir = scratch_dir("scan");
        let (journal, report) = journaled_session(&dir);
        fs::write(dir.join("session-bogus.wal"), b"not a journal")
            .unwrap_or_else(|e| panic!("{e}"));
        fs::write(dir.join("unrelated.txt"), b"ignored").unwrap_or_else(|e| panic!("{e}"));
        let scans = scan_dir(&dir).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(scans.len(), 2, "{scans:?}");
        let by_name = |needle: &str| {
            scans
                .iter()
                .find(|s| s.path.to_string_lossy().contains(needle))
                .unwrap_or_else(|| panic!("{needle} not scanned"))
        };
        let bogus = by_name("bogus");
        assert!(bogus.load.warning.is_some());
        let real = by_name(&format!("{:016x}", journal.plan_fingerprint()));
        assert_eq!(real.plan_fingerprint, journal.plan_fingerprint());
        assert_eq!(real.seed, 5);
        assert!(real.load.terminal);
        assert_eq!(real.load.attempts_loaded, report.attempts);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn detached_journal_is_free_and_silent() {
        let mut journal = SessionJournal::detached();
        assert!(!journal.is_recording());
        let outcome = journal
            .append(JournalRecord::Attempt(AttemptRecord {
                attempt: 1,
                validated: true,
                events: Vec::new(),
                best: None,
                ledger: CostLedger::new(),
                backend_calls: 0,
            }))
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(outcome.record_bytes, 0);
        assert!(journal.records().is_empty());
        assert_eq!(journal.encoded_len(), 0);
    }
}
