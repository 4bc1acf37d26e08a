//! Write-ahead checkpoint journal for durable, resumable ingest.
//!
//! The paper's motivating deployments (§1: ~300 M calls/day of AT&T call
//! detail) cannot afford a crashed processor that silently re-emits or
//! drops records — PADS's value proposition is that every record is
//! *accounted for*. This crate provides the durability half of that
//! guarantee: an append-only journal of [`Checkpoint`]s, each recording a
//! committed byte offset and record index into the source together with
//! the [`ErrorBudget`] tally and an opaque metrics snapshot at that
//! boundary. A consumer that commits a checkpoint after externalising the
//! records before it can be killed at any point and resumed from the last
//! committed boundary with exactly-once record accounting.
//!
//! # File format
//!
//! ```text
//! header   := "PADSJRNL" u32le(version=1) u32le(0)          (16 bytes)
//! frame    := u32le(payload_len) u32le(crc32(payload)) payload
//! payload  := u64le(source_id) u64le(offset) u64le(record)
//!             u64le(errs) u64le(bad_records) u64le(skipped_records)
//!             u64le(panic_skipped) u8(flags) u32le(metrics_len) metrics
//! flags    := bit0 = budget exhausted, bit1 = budget stopped
//! ```
//!
//! Writes are appended and flushed per commit; `fsync` is batched (every
//! [`Journal::with_fsync_every`] commits, and on [`Journal::sync`]). A
//! crash can therefore tear at most the final frame. [`Journal::open`]
//! detects a torn tail (incomplete frame header or payload at end of
//! file), truncates the file back to the last valid frame, and reports the
//! recovery; a *complete* frame that fails CRC is in-place corruption and
//! is a hard error, as are non-monotonic checkpoints and mid-file source
//! changes. Each failure mode carries a distinct stable
//! [`ErrorCode`].

// The journal sits on the ingest path: like the parsers, it must fail
// with errors, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use pads_runtime::{ErrorBudget, ErrorCode};

const MAGIC: &[u8; 8] = b"PADSJRNL";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 16;
const FRAME_HEADER_LEN: usize = 8;
/// Fixed payload bytes before the variable-length metrics snapshot.
const PAYLOAD_FIXED_LEN: usize = 8 * 7 + 1 + 4;
/// Default number of commits between fsyncs.
pub const DEFAULT_FSYNC_EVERY: usize = 16;

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time so
/// the journal needs no external checksum crate.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data`, as produced by zlib's `crc32`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// One committed position: everything before `offset` / `record` has been
/// externalised, with the budget tally and metrics snapshot at that
/// boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Fingerprint of the source this journal tracks.
    pub source_id: u64,
    /// First unconsumed byte of the source.
    pub offset: u64,
    /// Index of the first unconsumed record.
    pub record: u64,
    /// The error-budget tally at the boundary.
    pub budget: ErrorBudget,
    /// Opaque observer-counter snapshot (e.g. a serialised `MetricsSink`).
    pub metrics: Vec<u8>,
}

/// A journal failure: a stable [`ErrorCode`] plus human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError {
    /// The stable failure class (`Journal*` codes).
    pub code: ErrorCode,
    /// What specifically went wrong.
    pub detail: String,
}

impl JournalError {
    fn new(code: ErrorCode, detail: impl Into<String>) -> JournalError {
        JournalError { code, detail: detail.into() }
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.detail)
    }
}

impl std::error::Error for JournalError {}

/// What [`Journal::open`] repaired: a torn final frame was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Bytes truncated off the tail (the incomplete frame).
    pub dropped_bytes: u64,
    /// Checkpoints that remained valid after truncation.
    pub checkpoints_kept: u64,
}

/// An append-only checkpoint journal backed by one file.
#[derive(Debug)]
pub struct Journal {
    file: File,
    last: Option<Checkpoint>,
    fsync_every: usize,
    commits_since_sync: usize,
}

impl Journal {
    /// Creates a fresh journal at `path`, truncating any existing file,
    /// and durably writes the header.
    pub fn create(path: &Path) -> Result<Journal, JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| JournalError::new(ErrorCode::JournalBadHeader, format!("{path:?}: {e}")))?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        file.write_all(&header).map_err(io_err)?;
        file.sync_data().map_err(io_err)?;
        Ok(Journal {
            file,
            last: None,
            fsync_every: DEFAULT_FSYNC_EVERY,
            commits_since_sync: 0,
        })
    }

    /// Opens an existing journal, validating every frame. A torn final
    /// frame (crash artifact) is truncated away and reported; all other
    /// malformations are hard errors with distinct stable codes:
    ///
    /// * missing/short/garbled header → [`ErrorCode::JournalBadHeader`]
    /// * complete frame failing CRC → [`ErrorCode::JournalCrcMismatch`]
    /// * checkpoints that regress or duplicate → [`ErrorCode::JournalOutOfOrder`]
    /// * source fingerprint changing mid-file → [`ErrorCode::JournalSourceMismatch`]
    pub fn open(path: &Path) -> Result<(Journal, Option<RecoveryReport>), JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| JournalError::new(ErrorCode::JournalBadHeader, format!("{path:?}: {e}")))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err)?;
        if bytes.len() < HEADER_LEN || &bytes[..8] != MAGIC {
            return Err(JournalError::new(
                ErrorCode::JournalBadHeader,
                format!("{path:?}: missing or short journal header ({} bytes)", bytes.len()),
            ));
        }
        let version = u32_le(&bytes[8..12]);
        if version != VERSION {
            return Err(JournalError::new(
                ErrorCode::JournalBadHeader,
                format!("{path:?}: unsupported journal version {version}"),
            ));
        }

        let mut pos = HEADER_LEN;
        let mut last: Option<Checkpoint> = None;
        let mut kept = 0u64;
        let mut torn_at: Option<usize> = None;
        while pos < bytes.len() {
            let remaining = bytes.len() - pos;
            if remaining < FRAME_HEADER_LEN {
                torn_at = Some(pos);
                break;
            }
            let payload_len = u32_le(&bytes[pos..pos + 4]) as usize;
            let crc_stored = u32_le(&bytes[pos + 4..pos + 8]);
            if payload_len > remaining - FRAME_HEADER_LEN {
                torn_at = Some(pos);
                break;
            }
            let payload = &bytes[pos + FRAME_HEADER_LEN..pos + FRAME_HEADER_LEN + payload_len];
            if crc32(payload) != crc_stored {
                return Err(JournalError::new(
                    ErrorCode::JournalCrcMismatch,
                    format!("frame at byte {pos} fails CRC validation"),
                ));
            }
            let cp = decode_payload(payload).ok_or_else(|| {
                JournalError::new(
                    ErrorCode::JournalCrcMismatch,
                    format!("frame at byte {pos} has a malformed payload"),
                )
            })?;
            if let Some(prev) = &last {
                if cp.source_id != prev.source_id {
                    return Err(JournalError::new(
                        ErrorCode::JournalSourceMismatch,
                        format!(
                            "frame at byte {pos} switches source ({:#x} -> {:#x})",
                            prev.source_id, cp.source_id
                        ),
                    ));
                }
                if !advances(prev, &cp) {
                    return Err(JournalError::new(
                        ErrorCode::JournalOutOfOrder,
                        format!(
                            "frame at byte {pos} does not advance (record {} offset {} after record {} offset {})",
                            cp.record, cp.offset, prev.record, prev.offset
                        ),
                    ));
                }
            }
            last = Some(cp);
            kept += 1;
            pos += FRAME_HEADER_LEN + payload_len;
        }

        let report = if let Some(at) = torn_at {
            let dropped = (bytes.len() - at) as u64;
            file.set_len(at as u64).map_err(io_err)?;
            Some(RecoveryReport { dropped_bytes: dropped, checkpoints_kept: kept })
        } else {
            None
        };
        file.seek(SeekFrom::End(0)).map_err(io_err)?;
        Ok((
            Journal {
                file,
                last,
                fsync_every: DEFAULT_FSYNC_EVERY,
                commits_since_sync: 0,
            },
            report,
        ))
    }

    /// Sets the fsync batch size (builder style): the file is fsynced on
    /// every `n`-th commit. `n = 1` syncs every commit; 0 is clamped to 1.
    pub fn with_fsync_every(mut self, n: usize) -> Journal {
        self.fsync_every = n.max(1);
        self
    }

    /// The most recent committed checkpoint, if any.
    pub fn last(&self) -> Option<&Checkpoint> {
        self.last.as_ref()
    }

    /// Appends one checkpoint. Checkpoints must advance monotonically
    /// (offset or record strictly greater) and keep the same source id.
    pub fn commit(&mut self, cp: Checkpoint) -> Result<(), JournalError> {
        if let Some(prev) = &self.last {
            if cp.source_id != prev.source_id {
                return Err(JournalError::new(
                    ErrorCode::JournalSourceMismatch,
                    format!("commit switches source ({:#x} -> {:#x})", prev.source_id, cp.source_id),
                ));
            }
            if !advances(prev, &cp) {
                return Err(JournalError::new(
                    ErrorCode::JournalOutOfOrder,
                    format!(
                        "commit does not advance (record {} offset {} after record {} offset {})",
                        cp.record, cp.offset, prev.record, prev.offset
                    ),
                ));
            }
        }
        let payload = encode_payload(&cp);
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame).map_err(io_err)?;
        self.file.flush().map_err(io_err)?;
        self.commits_since_sync += 1;
        if self.commits_since_sync >= self.fsync_every {
            self.file.sync_data().map_err(io_err)?;
            self.commits_since_sync = 0;
        }
        self.last = Some(cp);
        Ok(())
    }

    /// Forces any batched commits to stable storage.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file.sync_data().map_err(io_err)?;
        self.commits_since_sync = 0;
        Ok(())
    }
}

fn io_err(e: std::io::Error) -> JournalError {
    JournalError::new(ErrorCode::JournalBadHeader, format!("journal I/O failed: {e}"))
}

/// Whether `next` strictly advances past `prev` (duplicates do not).
fn advances(prev: &Checkpoint, next: &Checkpoint) -> bool {
    next.offset >= prev.offset
        && next.record >= prev.record
        && (next.offset > prev.offset || next.record > prev.record)
}

fn u32_le(b: &[u8]) -> u32 {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&b[..4]);
    u32::from_le_bytes(buf)
}

fn u64_le(b: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&b[..8]);
    u64::from_le_bytes(buf)
}

fn encode_payload(cp: &Checkpoint) -> Vec<u8> {
    let mut out = Vec::with_capacity(PAYLOAD_FIXED_LEN + cp.metrics.len());
    out.extend_from_slice(&cp.source_id.to_le_bytes());
    out.extend_from_slice(&cp.offset.to_le_bytes());
    out.extend_from_slice(&cp.record.to_le_bytes());
    let (counters, exhausted, stopped) = cp.budget.to_parts();
    for c in counters {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out.push(u8::from(exhausted) | (u8::from(stopped) << 1));
    out.extend_from_slice(&(cp.metrics.len() as u32).to_le_bytes());
    out.extend_from_slice(&cp.metrics);
    out
}

fn decode_payload(p: &[u8]) -> Option<Checkpoint> {
    if p.len() < PAYLOAD_FIXED_LEN {
        return None;
    }
    let source_id = u64_le(&p[0..8]);
    let offset = u64_le(&p[8..16]);
    let record = u64_le(&p[16..24]);
    let counters =
        [u64_le(&p[24..32]), u64_le(&p[32..40]), u64_le(&p[40..48]), u64_le(&p[48..56])];
    let flags = p[56];
    let budget = ErrorBudget::from_parts(counters, flags & 1 != 0, flags & 2 != 0);
    let metrics_len = u32_le(&p[57..61]) as usize;
    if p.len() != PAYLOAD_FIXED_LEN + metrics_len {
        return None;
    }
    Some(Checkpoint { source_id, offset, record, budget, metrics: p[61..].to_vec() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pads_runtime::RecoveryPolicy;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pads-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn cp(record: u64, offset: u64) -> Checkpoint {
        Checkpoint { source_id: 0xABCD, offset, record, budget: ErrorBudget::new(), metrics: vec![] }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn commit_and_reopen_roundtrips() {
        let path = tmp("roundtrip");
        let mut j = Journal::create(&path).unwrap();
        let policy = RecoveryPolicy::unlimited().with_max_errs(10);
        let mut budget = ErrorBudget::new();
        budget.note_record(&policy, 3, 7);
        let full = Checkpoint {
            source_id: 42,
            offset: 128,
            record: 4,
            budget,
            metrics: vec![1, 2, 3, 4, 5],
        };
        j.commit(cp_with_source(42, 1, 32)).unwrap();
        j.commit(full.clone()).unwrap();
        j.sync().unwrap();
        drop(j);
        let (j, report) = Journal::open(&path).unwrap();
        assert_eq!(report, None);
        assert_eq!(j.last(), Some(&full));
        std::fs::remove_file(&path).ok();
    }

    fn cp_with_source(source_id: u64, record: u64, offset: u64) -> Checkpoint {
        Checkpoint { source_id, offset, record, budget: ErrorBudget::new(), metrics: vec![] }
    }

    #[test]
    fn torn_tail_truncates_to_last_valid() {
        let path = tmp("torn");
        let mut j = Journal::create(&path).unwrap();
        j.commit(cp(1, 10)).unwrap();
        j.commit(cp(2, 20)).unwrap();
        j.sync().unwrap();
        drop(j);
        let valid_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-frame: append half a frame.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x30, 0, 0, 0, 0xDE, 0xAD]).unwrap();
        drop(f);
        let (j, report) = Journal::open(&path).unwrap();
        let report = report.unwrap();
        assert_eq!(report.dropped_bytes, 6);
        assert_eq!(report.checkpoints_kept, 2);
        assert_eq!(j.last().map(|c| c.record), Some(2));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), valid_len);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_payload_truncates_too() {
        let path = tmp("torn-payload");
        let mut j = Journal::create(&path).unwrap();
        j.commit(cp(1, 10)).unwrap();
        drop(j);
        // A full frame header claiming more payload than the file holds.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&100u32.to_le_bytes()).unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap();
        f.write_all(&[7; 10]).unwrap();
        drop(f);
        let (j, report) = Journal::open(&path).unwrap();
        assert_eq!(report.unwrap().dropped_bytes, 18);
        assert_eq!(j.last().map(|c| c.record), Some(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_crc_byte_is_hard_corruption() {
        let path = tmp("crc");
        let mut j = Journal::create(&path).unwrap();
        j.commit(cp(1, 10)).unwrap();
        j.commit(cp(2, 20)).unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the first frame's payload.
        let target = HEADER_LEN + FRAME_HEADER_LEN + 3;
        bytes[target] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert_eq!(err.code, ErrorCode::JournalCrcMismatch);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_checkpoint_is_out_of_order() {
        let path = tmp("dup");
        let mut j = Journal::create(&path).unwrap();
        j.commit(cp(1, 10)).unwrap();
        drop(j);
        // Append a byte-identical copy of the last frame.
        let bytes = std::fs::read(&path).unwrap();
        let frame = bytes[HEADER_LEN..].to_vec();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame).unwrap();
        drop(f);
        let err = Journal::open(&path).unwrap_err();
        assert_eq!(err.code, ErrorCode::JournalOutOfOrder);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn regressing_commit_is_rejected() {
        let path = tmp("regress");
        let mut j = Journal::create(&path).unwrap();
        j.commit(cp(5, 50)).unwrap();
        let err = j.commit(cp(4, 60)).unwrap_err();
        assert_eq!(err.code, ErrorCode::JournalOutOfOrder);
        let err = j.commit(cp(5, 50)).unwrap_err();
        assert_eq!(err.code, ErrorCode::JournalOutOfOrder);
        j.commit(cp(6, 60)).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_length_file_is_bad_header() {
        let path = tmp("zero");
        std::fs::write(&path, b"").unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert_eq!(err.code, ErrorCode::JournalBadHeader);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_is_bad_header() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTAJRNL\x01\x00\x00\x00\x00\x00\x00\x00").unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert_eq!(err.code, ErrorCode::JournalBadHeader);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn source_switch_is_rejected_on_commit_and_open() {
        let path = tmp("source");
        let mut j = Journal::create(&path).unwrap();
        j.commit(cp_with_source(1, 1, 10)).unwrap();
        let err = j.commit(cp_with_source(2, 2, 20)).unwrap_err();
        assert_eq!(err.code, ErrorCode::JournalSourceMismatch);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budget_flags_survive_roundtrip() {
        let path = tmp("flags");
        let policy = RecoveryPolicy::unlimited().with_max_errs(0);
        let mut budget = ErrorBudget::new();
        budget.note_record(&policy, 1, 0);
        assert!(budget.exhausted() && budget.stopped());
        let mut j = Journal::create(&path).unwrap();
        j.commit(Checkpoint { source_id: 9, offset: 1, record: 1, budget, metrics: vec![] })
            .unwrap();
        drop(j);
        let (j, _) = Journal::open(&path).unwrap();
        let got = j.last().unwrap().budget;
        assert_eq!(got, budget);
        assert!(got.exhausted() && got.stopped());
        std::fs::remove_file(&path).ok();
    }
}
