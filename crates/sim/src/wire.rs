//! The one binary codec behind every durable or remote artifact in the
//! workspace: the [`crate::SimCache`] snapshot (`cache::persist`), the
//! session write-ahead journal in `artisan-resilience`, and the
//! `artisan-serve` wire protocol.
//!
//! # Layout
//!
//! Every artifact is a header followed by one or more frames (all
//! integers little-endian):
//!
//! | size | field |
//! |-----:|-------|
//! | 8    | magic (names the artifact) |
//! | 4    | format version (`u32`) |
//! | per frame: 4 | payload length (`u32`) |
//! | per frame: len | payload |
//! | per frame: 8 | FNV-1a 64 checksum of the payload |
//!
//! [`framed`] and [`push_frame`] write this layout, [`check_header`]
//! and [`split_frame`] validate it, and [`write_atomic`] publishes a
//! file whole. What each payload holds, and which further rules apply,
//! is up to the artifact.
//!
//! # Payload encoding
//!
//! - integers and `f64` bit patterns are little-endian ([`push_u64`],
//!   [`push_f64`], …), so a save → load cycle is bit-exact,
//! - decoding goes through a bounds-checked [`Reader`] — a malformed
//!   length or count can never panic or over-allocate, it surfaces as a
//!   `String` diagnostic the caller turns into a load warning,
//! - corruption detection is [`fnv1a64`] (cheap, dependency-free; the
//!   artifacts are local caches, journals and a loopback protocol, not
//!   trust boundaries).
//!
//! [`encode_report`]/[`Reader::report`] carry a full
//! [`AnalysisReport`] in the shared format, so the cache snapshot, the
//! journal and the server serialize simulation results
//! byte-identically.

use crate::metrics::Performance;
use crate::poles::PoleZero;
use crate::simulator::AnalysisReport;
use artisan_circuit::units::{Decibels, Degrees, Hertz, Watts};
use artisan_math::Complex64;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes in an artifact header: the 8-byte magic and the `u32` format
/// version.
pub const HEADER_LEN: usize = 8 + 4;

/// Bytes a frame adds around its payload: the `u32` length prefix and
/// the trailing `u64` checksum.
pub const FRAME_OVERHEAD: usize = 4 + 8;

/// FNV-1a 64-bit over `bytes` — cheap, dependency-free corruption
/// detection (not cryptographic; the artifacts it guards are local
/// caches and journals, not trust boundaries).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Appends one byte.
pub fn push_u8(out: &mut Vec<u8>, value: u8) {
    out.push(value);
}

/// Appends a little-endian `u32`.
pub fn push_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn push_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends an `f64` as its little-endian bit pattern (bit-exact across
/// a round trip, NaN payloads included).
pub fn push_f64(out: &mut Vec<u8>, value: f64) {
    out.extend_from_slice(&value.to_bits().to_le_bytes());
}

/// Appends a UTF-8 string as a `u32` byte count followed by the bytes.
pub fn push_str(out: &mut Vec<u8>, value: &str) {
    push_u32(out, value.len() as u32);
    out.extend_from_slice(value.as_bytes());
}

/// Appends a pole/zero list as a `u32` count of `(re, im)` `f64` pairs.
pub fn push_complex_list(out: &mut Vec<u8>, list: &[Complex64]) {
    // Pole/zero lists are tiny (circuit order ≈ 10); u32 is generous.
    push_u32(out, list.len() as u32);
    for c in list {
        push_f64(out, c.re);
        push_f64(out, c.im);
    }
}

/// Appends a full [`AnalysisReport`]: five `f64` metric bit patterns
/// (gain, gbw, pm, power, fom), one stability byte, then the pole and
/// zero lists.
pub fn encode_report(out: &mut Vec<u8>, report: &AnalysisReport) {
    push_f64(out, report.performance.gain.0);
    push_f64(out, report.performance.gbw.0);
    push_f64(out, report.performance.pm.0);
    push_f64(out, report.performance.power.0);
    push_f64(out, report.performance.fom);
    push_u8(out, u8::from(report.stable));
    push_complex_list(out, &report.pole_zero.poles);
    push_complex_list(out, &report.pole_zero.zeros);
}

/// Appends one frame around `payload`: its length, the payload, and the
/// payload's [`fnv1a64`]. Every artifact bounds its payloads far below
/// the `u32` length limit.
pub fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    push_u32(out, payload.len() as u32);
    out.extend_from_slice(payload);
    push_u64(out, fnv1a64(payload));
}

/// An artifact header followed by one frame around `payload`, built as
/// one contiguous buffer so it can be written in a single call.
pub fn framed(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + FRAME_OVERHEAD + payload.len());
    out.extend_from_slice(magic);
    push_u32(&mut out, version);
    push_frame(&mut out, payload);
    out
}

/// Checks the artifact header at the start of `bytes` and returns the
/// bytes after it (the frames).
///
/// # Errors
///
/// A diagnostic naming the failure: fewer bytes than a header, a
/// foreign magic, or a version other than `version` (the found version
/// is named, so a file written by another code generation says so).
pub fn check_header<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
) -> Result<&'a [u8], String> {
    let mut reader = Reader::new(bytes);
    let (Ok(found_magic), Ok(found_version)) = (reader.take(8), reader.u32()) else {
        return Err(format!(
            "{} bytes, shorter than the {HEADER_LEN}-byte header — truncated?",
            bytes.len()
        ));
    };
    if found_magic != magic {
        return Err(format!(
            "bad magic (expected {:?})",
            String::from_utf8_lossy(magic)
        ));
    }
    if found_version != version {
        return Err(format!(
            "format version {found_version} != supported {version}"
        ));
    }
    Ok(&bytes[reader.pos()..])
}

/// The payload length declared by the frame starting at `bytes`, or
/// `None` when its length prefix is incomplete. A stream reader uses it
/// to bound how much more to read before [`split_frame`].
pub fn payload_len(bytes: &[u8]) -> Option<usize> {
    Reader::new(bytes).u32().ok().map(|len| len as usize)
}

/// Splits the frame starting at `bytes` into its payload and the bytes
/// after it. Only slices: the declared length is checked against the
/// bytes present before anything is read, so it never drives an
/// allocation, and no input makes this panic.
///
/// # Errors
///
/// A diagnostic when the frame is incomplete (the bytes end inside it)
/// or its checksum does not match the payload. Both are the caller's
/// torn-or-corrupt case.
pub fn split_frame(bytes: &[u8]) -> Result<(&[u8], &[u8]), String> {
    let mut reader = Reader::new(bytes);
    let incomplete = |_| format!("incomplete frame ({} bytes)", bytes.len());
    let len = reader.u32().map_err(incomplete)? as usize;
    let payload = reader.take(len).map_err(incomplete)?;
    let stored = reader.u64().map_err(incomplete)?;
    let computed = fnv1a64(payload);
    if stored != computed {
        return Err(format!(
            "frame checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        ));
    }
    Ok((payload, &bytes[reader.pos()..]))
}

/// Per-process counter distinguishing concurrent temp files from the
/// same process.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Atomically replaces the file at `path` with `bytes`: they land in a
/// process-unique temp file in the same directory, are synced to disk,
/// and a `rename` publishes them, so a concurrent reader, a concurrent
/// writer, or the next process after a crash observes either the old
/// complete file or the new one — never a partial file. The parent
/// directory is created if missing; the temp file is removed if any
/// step fails.
///
/// # Errors
///
/// The first failing filesystem operation.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(dir)?;
    }
    let temp_path = path.with_file_name(format!(
        ".{}.tmp-{}-{}",
        path.file_name().unwrap_or_default().to_string_lossy(),
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    let result = (|| {
        let mut file = fs::File::create(&temp_path)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&temp_path, path)
    })();
    if result.is_err() {
        // Best-effort cleanup; the original error is what matters.
        let _ = fs::remove_file(&temp_path);
    }
    result
}

/// Bounded little-endian reader over a framed payload. Every read is
/// length-checked so a malformed count can never panic or
/// over-allocate; errors are diagnostic strings the caller folds into
/// its load warning.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Current read position (bytes consumed).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// A diagnostic when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format!("unexpected end of payload at byte {}", self.pos))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// A diagnostic at end of payload.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool encoded as `0`/`1`.
    ///
    /// # Errors
    ///
    /// A diagnostic at end of payload or on any other byte value.
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("invalid boolean byte {other}")),
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// A diagnostic at end of payload.
    pub fn u32(&mut self) -> Result<u32, String> {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(buf))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// A diagnostic at end of payload.
    pub fn u64(&mut self) -> Result<u64, String> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// A diagnostic at end of payload.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a [`push_str`]-framed string.
    ///
    /// # Errors
    ///
    /// A diagnostic when the count outruns the payload or the bytes are
    /// not UTF-8.
    pub fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(format!("string length {len} exceeds payload"));
        }
        String::from_utf8(self.take(len)?.to_vec()).map_err(|e| format!("invalid UTF-8: {e}"))
    }

    /// Reads a [`push_complex_list`]-framed pole/zero list.
    ///
    /// # Errors
    ///
    /// A diagnostic when the count outruns the payload.
    pub fn complex_list(&mut self) -> Result<Vec<Complex64>, String> {
        let count = self.u32()? as usize;
        // Each complex needs 16 bytes; reject counts the remaining
        // payload cannot possibly satisfy before allocating.
        if count.saturating_mul(16) > self.remaining() {
            return Err(format!("pole/zero count {count} exceeds payload"));
        }
        let mut list = Vec::with_capacity(count);
        for _ in 0..count {
            let re = self.f64()?;
            let im = self.f64()?;
            list.push(Complex64 { re, im });
        }
        Ok(list)
    }

    /// Reads an [`encode_report`]-framed [`AnalysisReport`].
    ///
    /// # Errors
    ///
    /// A diagnostic on truncation or an invalid stability byte. Metric
    /// finiteness is *not* enforced here — the cache snapshot rejects
    /// non-finite entries (its admission rule), while the journal must
    /// round-trip poisoned reports exactly; each caller applies its own
    /// policy.
    pub fn report(&mut self) -> Result<AnalysisReport, String> {
        let performance = Performance {
            gain: Decibels(self.f64()?),
            gbw: Hertz(self.f64()?),
            pm: Degrees(self.f64()?),
            power: Watts(self.f64()?),
            fom: self.f64()?,
        };
        let stable = self.bool().map_err(|e| format!("stability byte: {e}"))?;
        let poles = self.complex_list()?;
        let zeros = self.complex_list()?;
        Ok(AnalysisReport {
            performance,
            pole_zero: PoleZero { poles, zeros },
            stable,
            // Corner verdicts are never serialized: every cached or
            // journaled snapshot deserializes as nominal-only, and the
            // corner layer (which sits outside the report cache)
            // re-attaches worst-case data from its own verdict map.
            worst_case: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artisan_circuit::Topology;
    use proptest::prelude::*;

    #[test]
    fn scalar_round_trip_is_exact() {
        let mut out = Vec::new();
        push_u8(&mut out, 7);
        push_u32(&mut out, 0xDEAD_BEEF);
        push_u64(&mut out, u64::MAX - 3);
        push_f64(&mut out, -0.0);
        push_f64(&mut out, f64::NAN);
        push_str(&mut out, "journal ≠ snapshot");
        let mut r = Reader::new(&out);
        assert_eq!(r.u8().unwrap_or_else(|e| panic!("{e}")), 7);
        assert_eq!(r.u32().unwrap_or_else(|e| panic!("{e}")), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap_or_else(|e| panic!("{e}")), u64::MAX - 3);
        // Bit-exact: -0.0 and NaN payloads survive.
        assert_eq!(
            r.f64().unwrap_or_else(|e| panic!("{e}")).to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(
            r.f64().unwrap_or_else(|e| panic!("{e}")).to_bits(),
            f64::NAN.to_bits()
        );
        assert_eq!(
            r.str().unwrap_or_else(|e| panic!("{e}")),
            "journal ≠ snapshot"
        );
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn report_round_trip_is_exact() {
        let mut sim = crate::Simulator::new();
        let report = sim
            .analyze_topology(&Topology::nmc_example())
            .unwrap_or_else(|e| panic!("{e}"));
        let mut out = Vec::new();
        encode_report(&mut out, &report);
        let mut r = Reader::new(&out);
        let decoded = r.report().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(decoded, report);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_an_error_never_a_panic() {
        let mut out = Vec::new();
        push_str(&mut out, "hello");
        for cut in 0..out.len() {
            let mut r = Reader::new(&out[..cut]);
            assert!(r.str().is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn hostile_counts_cannot_over_allocate() {
        // A string claiming u32::MAX bytes with a 4-byte payload.
        let mut out = Vec::new();
        push_u32(&mut out, u32::MAX);
        push_u32(&mut out, 0);
        let mut r = Reader::new(&out);
        assert!(r.str().is_err());
        // A complex list claiming more pairs than the payload holds.
        let mut out = Vec::new();
        push_u32(&mut out, 1_000_000);
        let mut r = Reader::new(&out);
        assert!(r.complex_list().is_err());
    }

    #[test]
    fn bool_rejects_other_bytes() {
        let mut r = Reader::new(&[2u8]);
        assert!(r.bool().is_err());
        let mut r = Reader::new(&[1u8, 0u8]);
        assert_eq!(r.bool().unwrap_or_else(|e| panic!("{e}")), true);
        assert_eq!(r.bool().unwrap_or_else(|e| panic!("{e}")), false);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    const MAGIC: &[u8; 8] = b"ARTSNTST";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Header and frames written by the codec split back into the
        /// same payloads, in order, with nothing left over.
        #[test]
        fn random_payloads_round_trip(
            first in prop::collection::vec(0u8..=255, 0..64),
            second in prop::collection::vec(0u8..=255, 0..64),
        ) {
            let mut bytes = framed(MAGIC, 3, &first);
            push_frame(&mut bytes, &second);
            let frames = check_header(&bytes, MAGIC, 3).unwrap_or_else(|e| panic!("{e}"));
            prop_assert_eq!(payload_len(frames), Some(first.len()));
            let (payload, rest) = split_frame(frames).unwrap_or_else(|e| panic!("{e}"));
            prop_assert_eq!(payload, first.as_slice());
            let (payload, rest) = split_frame(rest).unwrap_or_else(|e| panic!("{e}"));
            prop_assert_eq!(payload, second.as_slice());
            prop_assert!(rest.is_empty());
        }

        /// Every proper prefix of a frame is incomplete, never a
        /// shorter frame.
        #[test]
        fn every_truncation_is_incomplete(payload in prop::collection::vec(0u8..=255, 0..64)) {
            let mut frame = Vec::new();
            push_frame(&mut frame, &payload);
            for cut in 0..frame.len() {
                let err = split_frame(&frame[..cut]).err().unwrap_or_else(|| panic!("cut {cut} split"));
                prop_assert!(err.contains("incomplete"), "cut {}: {}", cut, err);
            }
        }

        /// Flipping any one bit of a frame — length, payload or
        /// checksum — is rejected.
        #[test]
        fn every_single_bit_flip_is_rejected(payload in prop::collection::vec(0u8..=255, 0..64)) {
            let mut frame = Vec::new();
            push_frame(&mut frame, &payload);
            for bit in 0..frame.len() * 8 {
                let mut corrupt = frame.clone();
                corrupt[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(split_frame(&corrupt).is_err(), "flip of bit {} accepted", bit);
            }
        }
    }

    #[test]
    fn hostile_length_neither_panics_nor_reads_past_the_input() {
        // Splitting compares the claimed length with the bytes present
        // and only borrows slices, so there is nothing to allocate.
        let mut bytes = Vec::new();
        push_u32(&mut bytes, u32::MAX);
        bytes.extend_from_slice(&[0u8; 16]);
        let err = split_frame(&bytes).err().unwrap_or_default();
        assert!(err.contains("incomplete"), "{err}");
    }

    #[test]
    fn write_atomic_replaces_files_and_cleans_up_on_error() {
        let dir = std::env::temp_dir().join(format!("artisan-wire-{}", std::process::id()));
        let path = dir.join("nested").join("artifact.bin");
        for bytes in [&b"first"[..], b"second"] {
            write_atomic(&path, bytes).unwrap_or_else(|e| panic!("{e}"));
        }
        assert_eq!(fs::read(&path).unwrap_or_default(), b"second");
        // Renaming onto a non-empty directory fails; no temp file stays.
        fs::create_dir_all(dir.join("full").join("child")).unwrap_or_else(|e| panic!("{e}"));
        assert!(write_atomic(&dir.join("full"), b"lost").is_err());
        let names: Vec<_> = fs::read_dir(&dir).into_iter().flatten().flatten().collect();
        assert_eq!(names.len(), 2, "{names:?}");
        fs::remove_dir_all(&dir).ok();
    }
}
