//! Disk persistence for [`SimCache`]: a versioned, checksummed,
//! atomically-written binary snapshot so repeated process invocations
//! warm-start instead of re-paying testbed seconds for netlists already
//! solved.
//!
//! # Snapshot format (version 2)
//!
//! The shared [`crate::wire`] layout: header magic `b"ARTSNSC1"` and
//! format version 2, then exactly one frame whose payload is
//!
//! | size | field |
//! |-----:|-------|
//! | 8    | config salt (`u64`) — see invalidation below |
//! | 8    | entry count (`u64`) |
//! | …    | entries, sorted by fingerprint |
//!
//! Each entry is the exact [`NetlistFingerprint::to_bytes`] key (16
//! bytes) followed by the report in the [`wire::encode_report`] layout:
//! five `f64` bit patterns (gain, gbw, pm, power, fom), one stability
//! byte, then `u32`-counted pole and zero `(re, im)` pairs. Floats are
//! written as [`f64::to_bits`] so a load/save cycle is bit-exact.
//!
//! Entries are written in **sorted fingerprint order**, never hash-map
//! iteration order, so two caches holding the same reports produce
//! byte-identical snapshots regardless of insertion history or process
//! (property-tested in `crates/sim/tests/properties.rs`).
//!
//! # Invalidation rules — reject, never mis-serve
//!
//! A snapshot is loaded **only** when all of the following hold, and
//! otherwise yields an *empty* cache plus a diagnostic warning (never a
//! panic, never a partial load):
//!
//! - the header's magic and format version match (rejects foreign
//!   files, and snapshots from other code generations whose layout may
//!   differ — a version-1 file loads empty with a warning naming its
//!   version),
//! - the frame is complete, its checksum matches, and nothing follows
//!   it (rejects truncation and bit flips),
//! - the payload's config salt equals the caller's expected salt
//!   (rejects snapshots taken under a different analysis configuration
//!   — the resident keys would silently mis-serve reports for the wrong
//!   sweep), and
//! - every decoded report has finite metrics (the in-memory cache's
//!   own admission rule).
//!
//! # Atomicity
//!
//! [`SimCache::save_to`] publishes through [`wire::write_atomic`], so a
//! reader (or a concurrent saver) only ever observes either the old
//! complete snapshot or the new complete snapshot — never a partial
//! file.
//!
//! # Directory wiring
//!
//! Binaries read [`CACHE_DIR_ENV`] (`ARTISAN_SIM_CACHE_DIR`) once at
//! entry through [`snapshot_dir_from_env`], then load and save
//! `<dir>/`[`SNAPSHOT_FILE`] with [`SimCache::load_from`] (empty cache
//! when absent) and [`SimCache::save_to`], giving experiment runners
//! cross-process warm starts. Library code never reads the variable.

use super::{lock, SimCache};
use crate::fingerprint::NetlistFingerprint;
use crate::simulator::AnalysisReport;
use crate::wire::{self, Reader};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Environment variable naming the directory that holds the persistent
/// cache snapshot (see [`snapshot_dir_from_env`]).
pub const CACHE_DIR_ENV: &str = "ARTISAN_SIM_CACHE_DIR";

/// File name of the snapshot inside the [`CACHE_DIR_ENV`] directory.
pub const SNAPSHOT_FILE: &str = "artisan-sim-cache.bin";

/// Leading magic of every snapshot file.
const MAGIC: &[u8; 8] = b"ARTSNSC1";

/// Current snapshot format version. Bump on any layout change: version
/// mismatches load as empty, never as garbage. Version 2 moved the
/// payload into the shared [`wire`] frame.
pub const FORMAT_VERSION: u32 = 2;

/// Result of writing a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveOutcome {
    /// Reports serialized into the snapshot.
    pub entries_saved: usize,
    /// Total snapshot size in bytes.
    pub bytes: usize,
}

/// Result of reading a snapshot. `warning` is `Some` exactly when a
/// present file was rejected (corrupt, truncated, foreign, stale); a
/// *missing* file is a normal cold start and carries no warning.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LoadOutcome {
    /// Reports restored into the cache.
    pub entries_loaded: usize,
    /// Diagnostic for a rejected snapshot (the cache loads empty).
    pub warning: Option<String>,
}

fn decode_entry(reader: &mut Reader<'_>) -> Result<(NetlistFingerprint, AnalysisReport), String> {
    let mut key_bytes = [0u8; 16];
    key_bytes.copy_from_slice(reader.take(16)?);
    let key = NetlistFingerprint::from_bytes(key_bytes);
    let report = reader.report()?;
    // The in-memory cache's own admission rule — the shared wire codec
    // round-trips non-finite reports (the journal needs that), the
    // snapshot refuses to serve them.
    if !report.performance.is_finite() {
        return Err("snapshot entry has non-finite metrics".into());
    }
    Ok((key, report))
}

fn encode(config_salt: u64, entries: &[(NetlistFingerprint, AnalysisReport)]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16 + entries.len() * 128);
    wire::push_u64(&mut payload, config_salt);
    wire::push_u64(&mut payload, entries.len() as u64);
    for (key, report) in entries {
        payload.extend_from_slice(&key.to_bytes());
        wire::encode_report(&mut payload, report);
    }
    wire::framed(MAGIC, FORMAT_VERSION, &payload)
}

fn decode(
    bytes: &[u8],
    expected_salt: u64,
) -> Result<Vec<(NetlistFingerprint, AnalysisReport)>, String> {
    let frames = wire::check_header(bytes, MAGIC, FORMAT_VERSION)?;
    let (payload, rest) = wire::split_frame(frames)?;
    if !rest.is_empty() {
        return Err(format!("{} trailing bytes after the snapshot", rest.len()));
    }
    let mut reader = Reader::new(payload);
    let salt = reader.u64()?;
    if salt != expected_salt {
        return Err(format!(
            "snapshot config salt {salt:#018x} != expected {expected_salt:#018x} — taken under a different analysis configuration"
        ));
    }
    let count = reader.u64()?;
    let mut entries = Vec::new();
    for i in 0..count {
        let entry = decode_entry(&mut reader).map_err(|e| format!("entry {i}/{count}: {e}"))?;
        entries.push(entry);
    }
    if reader.remaining() != 0 {
        return Err(format!(
            "{} trailing bytes after {count} entries",
            reader.remaining()
        ));
    }
    Ok(entries)
}

/// The snapshot directory named by [`CACHE_DIR_ENV`], if set (and
/// non-empty). For binaries to call once at entry.
pub fn snapshot_dir_from_env() -> Option<PathBuf> {
    match std::env::var(CACHE_DIR_ENV) {
        Ok(dir) if !dir.trim().is_empty() => Some(PathBuf::from(dir)),
        _ => None,
    }
}

impl SimCache {
    /// Every resident report, sorted by fingerprint.
    fn sorted_entries(&self) -> Vec<(NetlistFingerprint, AnalysisReport)> {
        let mut entries: Vec<(NetlistFingerprint, AnalysisReport)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                lock(shard)
                    .map
                    .iter()
                    .map(|(&key, entry)| (key, entry.report.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort_by_key(|(key, _)| *key);
        entries
    }

    /// Serializes every resident report into the snapshot format under
    /// `config_salt`. Deterministic: entries are sorted by fingerprint,
    /// so equal contents give equal bytes regardless of insertion order
    /// or process.
    pub fn snapshot_bytes(&self, config_salt: u64) -> Vec<u8> {
        encode(config_salt, &self.sorted_entries())
    }

    /// Restores a cache of `capacity` from snapshot bytes. Any
    /// rejection (see the [module docs](self)) yields an empty cache
    /// plus a warning — never a panic, never a partially-trusted load.
    pub fn from_snapshot_bytes(
        bytes: &[u8],
        capacity: usize,
        config_salt: u64,
    ) -> (SimCache, LoadOutcome) {
        let cache = SimCache::new(capacity);
        match decode(bytes, config_salt) {
            Ok(entries) => {
                let count = entries.len();
                for (key, report) in entries {
                    cache.insert(key, report);
                }
                (
                    cache,
                    LoadOutcome {
                        entries_loaded: count,
                        warning: None,
                    },
                )
            }
            Err(reason) => (
                SimCache::new(capacity),
                LoadOutcome {
                    entries_loaded: 0,
                    warning: Some(format!("sim-cache snapshot rejected: {reason}")),
                },
            ),
        }
    }

    /// Atomically writes the snapshot to `path` with
    /// [`wire::write_atomic`], so concurrent readers and savers never
    /// observe a partial file. The parent directory is created if
    /// missing.
    pub fn save_to(&self, path: &Path, config_salt: u64) -> io::Result<SaveOutcome> {
        // Count from the entries written — the live cache may move
        // under a concurrent insert.
        let entries = self.sorted_entries();
        let bytes = encode(config_salt, &entries);
        wire::write_atomic(path, &bytes)?;
        Ok(SaveOutcome {
            entries_saved: entries.len(),
            bytes: bytes.len(),
        })
    }

    /// Loads a snapshot from `path` into a fresh cache of `capacity`.
    /// A missing file is a normal cold start (empty cache, no warning);
    /// an unreadable or rejected file loads empty with a diagnostic.
    pub fn load_from(path: &Path, capacity: usize, config_salt: u64) -> (SimCache, LoadOutcome) {
        match fs::read(path) {
            Ok(bytes) => SimCache::from_snapshot_bytes(&bytes, capacity, config_salt),
            Err(err) if err.kind() == io::ErrorKind::NotFound => {
                (SimCache::new(capacity), LoadOutcome::default())
            }
            Err(err) => (
                SimCache::new(capacity),
                LoadOutcome {
                    entries_loaded: 0,
                    warning: Some(format!(
                        "sim-cache snapshot unreadable ({}): {err}",
                        path.display()
                    )),
                },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedSim;
    use crate::{SimBackend, Simulator};
    use artisan_circuit::Topology;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    /// A unique scratch directory per call, under the system temp dir
    /// (no tempfile crate in this workspace).
    fn scratch_dir(tag: &str) -> PathBuf {
        static UNIQUE: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "artisan-persist-{tag}-{}-{}",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{e}"));
        dir
    }

    fn warmed_cache() -> SimCache {
        let cache = SimCache::new(64);
        let mut sim = Simulator::new();
        for topo in [Topology::nmc_example(), Topology::dfc_example()] {
            let report = sim
                .analyze_topology(&topo)
                .unwrap_or_else(|e| panic!("{e}"));
            let fp = NetlistFingerprint::of_topology(&topo).unwrap_or_else(|| panic!("no fp"));
            cache.insert(fp, report);
        }
        cache
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let dir = scratch_dir("roundtrip");
        let path = dir.join(SNAPSHOT_FILE);
        let cache = warmed_cache();
        let saved = cache.save_to(&path, 7).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(saved.entries_saved, 2);
        let (loaded, outcome) = SimCache::load_from(&path, 64, 7);
        assert_eq!(outcome.entries_loaded, 2);
        assert!(outcome.warning.is_none(), "{outcome:?}");
        // Every original entry is served bit-identically.
        for topo in [Topology::nmc_example(), Topology::dfc_example()] {
            let fp = NetlistFingerprint::of_topology(&topo).unwrap_or_else(|| panic!("no fp"));
            let original = cache.get(fp).unwrap_or_else(|| panic!("missing original"));
            let restored = loaded.get(fp).unwrap_or_else(|| panic!("missing restored"));
            assert_eq!(original, restored);
        }
        // save → load → save is byte-identical.
        assert_eq!(cache.snapshot_bytes(7), loaded.snapshot_bytes(7));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_a_silent_cold_start() {
        let dir = scratch_dir("missing");
        let (cache, outcome) = SimCache::load_from(&dir.join("nope.bin"), 16, 0);
        assert!(cache.is_empty());
        assert_eq!(outcome, LoadOutcome::default());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_snapshot_loads_empty_with_warning() {
        let cache = warmed_cache();
        let bytes = cache.snapshot_bytes(0);
        // Every truncation point — mid-header, mid-entry, mid-checksum —
        // must reject cleanly. Entries start after the header, the
        // length prefix, the salt and the count.
        let entries = wire::HEADER_LEN + 4 + 16;
        for cut in [0, 1, wire::HEADER_LEN - 1, entries + 5, bytes.len() - 1] {
            let (loaded, outcome) = SimCache::from_snapshot_bytes(&bytes[..cut], 64, 0);
            assert!(loaded.is_empty(), "cut at {cut} must load empty");
            let warning = outcome
                .warning
                .unwrap_or_else(|| panic!("cut {cut}: no warning"));
            assert!(warning.contains("rejected"), "{warning}");
            assert_eq!(outcome.entries_loaded, 0);
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let cache = warmed_cache();
        let bytes = cache.snapshot_bytes(3);
        // Flip every bit of every byte: the magic and version checks
        // catch the header, the frame's length and FNV-1a checksum
        // catch the rest.
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            let (loaded, outcome) = SimCache::from_snapshot_bytes(&corrupt, 64, 3);
            assert!(loaded.is_empty(), "flip of bit {bit} must load empty");
            assert!(outcome.warning.is_some(), "flip of bit {bit} must warn");
        }
    }

    #[test]
    fn wrong_version_and_wrong_salt_are_rejected() {
        let cache = warmed_cache();
        // Wrong version: rewrite the version field. The header is
        // outside the frame checksum, so only the version check can
        // reject it.
        let mut bytes = cache.snapshot_bytes(5);
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let (loaded, outcome) = SimCache::from_snapshot_bytes(&bytes, 64, 5);
        assert!(loaded.is_empty());
        let warning = outcome
            .warning
            .unwrap_or_else(|| panic!("no version warning"));
        assert!(warning.contains("version"), "{warning}");
        // Wrong salt: a pristine snapshot under a different expected
        // salt must be rejected as foreign.
        let bytes = cache.snapshot_bytes(5);
        let (loaded, outcome) = SimCache::from_snapshot_bytes(&bytes, 64, 6);
        assert!(loaded.is_empty());
        let warning = outcome.warning.unwrap_or_else(|| panic!("no salt warning"));
        assert!(warning.contains("salt"), "{warning}");
    }

    #[test]
    fn foreign_file_is_rejected_not_panicked() {
        // A well-framed file with the wrong magic is "foreign".
        let bytes = wire::framed(b"NOTACACH", FORMAT_VERSION, &[0u8; 16]);
        let (loaded, outcome) = SimCache::from_snapshot_bytes(&bytes, 16, 0);
        assert!(loaded.is_empty());
        let warning = outcome.warning.unwrap_or_else(|| panic!("no warning"));
        assert!(warning.contains("magic"), "{warning}");
    }

    #[test]
    fn hostile_entry_count_cannot_over_allocate() {
        // Claim u64::MAX entries in an otherwise-valid frame: the
        // bounded reader must reject at the first short read, not
        // allocate.
        let mut payload = Vec::new();
        wire::push_u64(&mut payload, 0);
        wire::push_u64(&mut payload, u64::MAX);
        let bytes = wire::framed(MAGIC, FORMAT_VERSION, &payload);
        let (loaded, outcome) = SimCache::from_snapshot_bytes(&bytes, 16, 0);
        assert!(loaded.is_empty());
        let warning = outcome.warning.unwrap_or_else(|| panic!("no warning"));
        assert!(warning.contains("entry 0/"), "{warning}");
    }

    #[test]
    fn version_1_snapshot_loads_empty_naming_its_version() {
        // The version-1 layout, byte by byte: magic, version, salt,
        // entry count, then FNV-1a over all of it.
        let mut bytes = b"ARTSNSC1".to_vec();
        wire::push_u32(&mut bytes, 1);
        wire::push_u64(&mut bytes, 9);
        wire::push_u64(&mut bytes, 0);
        let checksum = wire::fnv1a64(&bytes);
        wire::push_u64(&mut bytes, checksum);
        let (loaded, outcome) = SimCache::from_snapshot_bytes(&bytes, 16, 9);
        assert!(loaded.is_empty());
        let warning = outcome.warning.unwrap_or_else(|| panic!("no warning"));
        assert!(warning.contains("version 1"), "{warning}");
    }

    #[test]
    fn concurrent_saves_never_expose_a_partial_file() {
        let dir = scratch_dir("concurrent");
        let path = dir.join(SNAPSHOT_FILE);
        let cache = warmed_cache();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        cache.save_to(&path, 1).unwrap_or_else(|e| panic!("{e}"));
                        // Interleaved loads must always see a complete
                        // snapshot: 2 entries, no warning.
                        let (loaded, outcome) = SimCache::load_from(&path, 64, 1);
                        assert!(outcome.warning.is_none(), "{outcome:?}");
                        assert_eq!(loaded.len(), 2);
                    }
                });
            }
        });
        // No temp files left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{e}"))
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_round_trips_through_a_directory() {
        let dir = scratch_dir("dir");
        let path = dir.join(SNAPSHOT_FILE);
        let salt = 11u64;
        // No snapshot yet: a plain cold start without a warning.
        let (cold, outcome) = SimCache::load_from(&path, 64, salt);
        assert!(cold.is_empty());
        assert_eq!(outcome, LoadOutcome::default());
        // Warm the cache through a wrapper, then persist.
        let cold = Arc::new(cold);
        let mut sim = CachedSim::new(Simulator::new(), Arc::clone(&cold));
        sim.analyze_topology(&Topology::nmc_example())
            .unwrap_or_else(|e| panic!("{e}"));
        let saved = cold.save_to(&path, salt).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(saved.entries_saved, 1);
        // A second "process" warm-starts from the same directory.
        let (warm, outcome) = SimCache::load_from(&path, 64, salt);
        assert_eq!(outcome.entries_loaded, 1);
        let mut sim2 = CachedSim::new(Simulator::new(), Arc::new(warm));
        let report = sim2
            .analyze_topology(&Topology::nmc_example())
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(sim2.ledger().simulations(), 0, "warm start must hit");
        assert_eq!(sim2.ledger().cache_hits(), 1);
        assert_eq!(
            report,
            sim.analyze_topology(&Topology::nmc_example())
                .unwrap_or_else(|e| panic!("{e}"))
        );
        fs::remove_dir_all(&dir).ok();
    }
}
