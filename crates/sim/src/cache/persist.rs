//! Disk persistence for [`SimCache`]: a versioned, checksummed,
//! atomically-written binary snapshot so repeated process invocations
//! warm-start instead of re-paying testbed seconds for netlists already
//! solved.
//!
//! # Snapshot format (version 1, all integers/floats little-endian)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 8    | magic `b"ARTSNSC1"` |
//! | 8      | 4    | format version (`u32`, currently 1) |
//! | 12     | 8    | config salt (`u64`) — see invalidation below |
//! | 20     | 8    | entry count (`u64`) |
//! | 28     | …    | entries, sorted by fingerprint |
//! | end−8  | 8    | FNV-1a 64 checksum of every preceding byte |
//!
//! Each entry is the exact [`NetlistFingerprint::to_bytes`] key (16
//! bytes) followed by the report: five `f64` bit patterns (gain, gbw,
//! pm, power, fom), one stability byte, then pole and zero lists (a
//! `u32` count followed by `(re, im)` `f64` pairs each). Floats are
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
//! - the trailing checksum matches (rejects truncation and bit flips),
//! - the magic matches (rejects foreign files),
//! - the format version matches (rejects snapshots from other code
//!   generations whose layout may differ),
//! - the header config salt equals the caller's expected salt (rejects
//!   snapshots taken under a different analysis configuration — the
//!   resident keys would silently mis-serve reports for the wrong
//!   sweep), and
//! - every decoded report has finite metrics (the in-memory cache's
//!   own admission rule).
//!
//! # Atomicity
//!
//! [`SimCache::save_to`] writes to a process-unique temporary file in
//! the destination directory and `rename`s it into place, so a reader
//! (or a concurrent saver) only ever observes either the old complete
//! snapshot or the new complete snapshot — never a partial file.
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
use crate::wire::{self, fnv1a64, Reader};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable naming the directory that holds the persistent
/// cache snapshot (see [`snapshot_dir_from_env`]).
pub const CACHE_DIR_ENV: &str = "ARTISAN_SIM_CACHE_DIR";

/// File name of the snapshot inside the [`CACHE_DIR_ENV`] directory.
pub const SNAPSHOT_FILE: &str = "artisan-sim-cache.bin";

/// Leading magic of every snapshot file.
const MAGIC: &[u8; 8] = b"ARTSNSC1";

/// Current snapshot format version. Bump on any layout change: version
/// mismatches load as empty, never as garbage.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed header length: magic + version + salt + entry count.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Trailing checksum length.
const CHECKSUM_LEN: usize = 8;

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

fn encode_entry(out: &mut Vec<u8>, key: NetlistFingerprint, report: &AnalysisReport) {
    out.extend_from_slice(&key.to_bytes());
    wire::encode_report(out, report);
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

fn decode(
    bytes: &[u8],
    expected_salt: u64,
) -> Result<Vec<(NetlistFingerprint, AnalysisReport)>, String> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(format!(
            "snapshot too short ({} bytes) — truncated?",
            bytes.len()
        ));
    }
    let (body, tail) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
    let mut checksum = [0u8; 8];
    checksum.copy_from_slice(tail);
    let stored = u64::from_le_bytes(checksum);
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(format!(
            "checksum mismatch (stored {stored:#018x}, computed {computed:#018x}) — corrupt or truncated snapshot"
        ));
    }
    let mut reader = Reader::new(body);
    if reader.take(8)? != MAGIC {
        return Err("not an artisan sim-cache snapshot (bad magic)".into());
    }
    let version = reader.u32()?;
    if version != FORMAT_VERSION {
        return Err(format!(
            "snapshot format version {version} != supported {FORMAT_VERSION}"
        ));
    }
    let mut salt_bytes = [0u8; 8];
    salt_bytes.copy_from_slice(reader.take(8)?);
    let salt = u64::from_le_bytes(salt_bytes);
    if salt != expected_salt {
        return Err(format!(
            "snapshot config salt {salt:#018x} != expected {expected_salt:#018x} — taken under a different analysis configuration"
        ));
    }
    let mut count_bytes = [0u8; 8];
    count_bytes.copy_from_slice(reader.take(8)?);
    let count = u64::from_le_bytes(count_bytes);
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

/// Per-process counter distinguishing concurrent temp files from the
/// same process.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl SimCache {
    /// Serializes every resident report into the version-1 snapshot
    /// format under `config_salt`. Deterministic: entries are sorted by
    /// fingerprint, so equal contents give equal bytes regardless of
    /// insertion order or process.
    pub fn snapshot_bytes(&self, config_salt: u64) -> Vec<u8> {
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
        let mut out = Vec::with_capacity(HEADER_LEN + CHECKSUM_LEN + entries.len() * 128);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&config_salt.to_le_bytes());
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for (key, report) in &entries {
            encode_entry(&mut out, *key, report);
        }
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
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

    /// Atomically writes the snapshot to `path`: the bytes land in a
    /// process-unique temp file in the same directory, then a `rename`
    /// publishes them, so concurrent readers and savers never observe a
    /// partial file. The parent directory is created if missing.
    pub fn save_to(&self, path: &Path, config_salt: u64) -> io::Result<SaveOutcome> {
        let bytes = self.snapshot_bytes(config_salt);
        // Count from the snapshot itself — the live cache may move
        // under a concurrent insert between the two reads.
        let mut count = [0u8; 8];
        count.copy_from_slice(&bytes[20..28]);
        let entries_saved = u64::from_le_bytes(count) as usize;
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(dir) = dir {
            fs::create_dir_all(dir)?;
        }
        let temp_name = format!(
            ".{}.tmp-{}-{}",
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| SNAPSHOT_FILE.to_owned()),
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        );
        let temp_path = match dir {
            Some(dir) => dir.join(&temp_name),
            None => PathBuf::from(&temp_name),
        };
        let result = (|| {
            let mut file = fs::File::create(&temp_path)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
            drop(file);
            fs::rename(&temp_path, path)
        })();
        if result.is_err() {
            // Best-effort cleanup; the original error is what matters.
            let _ = fs::remove_file(&temp_path);
        }
        result.map(|()| SaveOutcome {
            entries_saved,
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
    use std::sync::atomic::AtomicU32;
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
        // must reject cleanly.
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN + 5, bytes.len() - 1] {
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
        // Flip one bit in every byte position (first bit only, to keep
        // the test fast at ~1k decodes) — FNV-1a catches each.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            let (loaded, outcome) = SimCache::from_snapshot_bytes(&corrupt, 64, 3);
            assert!(loaded.is_empty(), "flip at byte {i} must load empty");
            assert!(outcome.warning.is_some(), "flip at byte {i} must warn");
        }
    }

    #[test]
    fn wrong_version_and_wrong_salt_are_rejected() {
        let cache = warmed_cache();
        // Wrong version: rewrite the version field and re-checksum so
        // only the version check can reject it.
        let mut bytes = cache.snapshot_bytes(5);
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let body_len = bytes.len() - CHECKSUM_LEN;
        let checksum = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
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
        // A checksum-valid file with the wrong magic is "foreign".
        let mut bytes = b"NOTACACHExxxxxxxxxxxxxxxxxxx".to_vec();
        let checksum = fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        let (loaded, outcome) = SimCache::from_snapshot_bytes(&bytes, 16, 0);
        assert!(loaded.is_empty());
        let warning = outcome.warning.unwrap_or_else(|| panic!("no warning"));
        assert!(warning.contains("magic"), "{warning}");
    }

    #[test]
    fn hostile_entry_count_cannot_over_allocate() {
        // Claim u64::MAX entries with an otherwise-valid header: the
        // bounded reader must reject at the first short read, not
        // allocate.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        let checksum = fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        let (loaded, outcome) = SimCache::from_snapshot_bytes(&bytes, 16, 0);
        assert!(loaded.is_empty());
        assert!(outcome.warning.is_some());
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
