//! Parallel record-sharded parsing.
//!
//! The paper's deployments (§1) parse multi-gigabyte daily feeds — Sirius
//! call detail, web logs — whose record disciplines make the data
//! *embarrassingly splittable*: a newline-delimited source can be cut at any
//! newline, a fixed-width source at any multiple of the width, and the
//! pieces parsed independently, because every record-bounded read is
//! position-independent. [`drive`] exploits that with one unit of work, of
//! synchronisation and of memory ownership — the **chunk**, a few hundred
//! consecutive records:
//!
//! - A shared cutter walks the record boundaries (the [`scan`](crate::scan)
//!   kernels) and hands out chunks in source order, one per request, so a
//!   chunk's first record index is known when it is cut and nobody counts
//!   the source's records up front.
//! - Each worker thread owns a few chunk buffers. It takes the next chunk,
//!   parses its records into a buffer, and sends the buffer to the merge as
//!   **one** message carrying the records, their per-record budget deltas
//!   and end positions, and the worker's observer harvest over exactly
//!   those records. Neighbouring chunks are on different workers, so all of
//!   them are busy at the merge front.
//! - The in-order merge folds the chunk's deltas into the cumulative budget
//!   and hands the chunk to the consumer, which reads the records in place
//!   (or drains the ones it keeps). The buffer then goes **back to the
//!   worker that filled it**: what the consumer left is dropped by the
//!   thread that allocated it, and the buffer is refilled.
//!
//! A worker without a free buffer waits for one to come back, so at most
//! `max_inflight` records per worker are ever retained, and the consumer
//! sees every record's [`Progress`] the moment its chunk's turn comes —
//! which is what lets a checkpoint journal commit during a parallel run.
//!
//! Every engine plugs into that one driver the same way: it implements
//! [`RecordReader`] (next record, position, budget, seek) and hands
//! [`drive`] a factory that opens a reader over the source under a given
//! policy from a given start. The interpreter and the VM do so through
//! `pads::Records`, generated parsers through
//! [`genrt::CursorRecords`](crate::genrt::CursorRecords).
//!
//! [`plan_shards`] is the older, static partition — at most `jobs`
//! contiguous byte-balanced shards with their record counts. The driver no
//! longer uses it; it stays for callers that want such a plan.
//!
//! # Determinism contract
//!
//! The merged output — values, parse descriptors, and the
//! [`ErrorBudget`] tally — is byte-identical to a sequential parse under
//! every [`OnExhausted`](crate::recovery::OnExhausted) mode. Two mechanisms
//! guarantee it:
//!
//! 1. **Workers parse with source-level limits stripped.** A chunk cannot
//!    know how many errors earlier chunks produced, so workers run with
//!    `max_errs`/`max_panic_skip` removed (the per-record
//!    `max_record_errs` cap is positional and stays). The merge folds each
//!    record's error delta into the cumulative budget in record order; as
//!    long as that fold never crosses a limit, the sequential engine would
//!    not have degraded either, and the merged records are exactly its
//!    output.
//! 2. **Sequential replay from the first divergence.** The first chunk
//!    holding a record whose fold crosses a source limit — or the first
//!    chunk whose worker fell short of the cut (a panicked worker surfaces
//!    this way) — is the first place where sequential behaviour could
//!    differ. The merge consumes **none of that chunk** and re-parses from
//!    its first byte sequentially under the full policy with the
//!    budget-as-of-the-previous-chunk carried in. Before the tripping
//!    record the full policy behaves as the stripped one did; re-parsing
//!    the tripping record itself under the real policy reproduces the
//!    budget-exhaustion transition (and its observer event) at exactly the
//!    record where the sequential engine fires it; `Stop` then ends after
//!    that record, `SkipRecord` and `BestEffort` continue under their
//!    degraded modes. A chunk is consumed whole or replayed whole, which
//!    is also what makes one observer harvest per chunk exact.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};
use std::thread;

use crate::encoding::Charset;
use crate::error::Pos;
use crate::io::{frame_record, RecordDiscipline};
use crate::pd::ParseDesc;
use crate::recovery::{ErrorBudget, RecoveryPolicy};

/// One contiguous byte range of the source, aligned to record boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Position of this shard in the plan (0-based).
    pub index: usize,
    /// First byte of the shard (a record start).
    pub start: usize,
    /// One past the last byte (a record end, or the end of the source).
    pub end: usize,
    /// Global index of the shard's first record.
    pub first_record: usize,
    /// Number of records the shard holds.
    pub records: usize,
}

/// A partition of a source into record-aligned shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// The shards, contiguous and in source order. Never empty.
    pub shards: Vec<Shard>,
}

/// Splits `data` into at most `jobs` contiguous shards at record boundaries
/// of `disc`. With `jobs <= 1`, an empty source, or a discipline whose one
/// record is the whole source, the plan is a single shard.
///
/// Shards are byte-balanced: each interior boundary is the first record
/// start at or after an even byte split, found on one walk of the records.
/// Sources with fewer boundaries than jobs simply produce fewer shards.
pub fn plan_shards(
    data: &[u8],
    disc: RecordDiscipline,
    charset: Charset,
    jobs: usize,
) -> ShardPlan {
    let len = data.len();
    let nl = charset.encode(b'\n');
    let jobs = jobs.max(1);
    let mut shards = Vec::with_capacity(jobs);
    let (mut start, mut first_record, mut records, mut pos) = (0, 0, 0, 0);
    while pos < len {
        if pos > start && pos >= len * (shards.len() + 1) / jobs {
            shards.push(Shard { index: shards.len(), start, end: pos, first_record, records });
            (start, first_record, records) = (pos, first_record + records, 0);
        }
        pos = record_end(data, disc, nl, pos);
        records += 1;
    }
    shards.push(Shard { index: shards.len(), start, end: len, first_record, records });
    ShardPlan { shards }
}

/// One past the last byte of the record that starts at `pos < data.len()`,
/// terminator included, as [`frame_record`] frames it. Always past `pos`: a
/// zero-width record is one no reader gets past, so the rest of the source
/// goes with it.
fn record_end(data: &[u8], disc: RecordDiscipline, newline: u8, pos: usize) -> usize {
    let next = frame_record(data, disc, newline, pos).next;
    if next > pos {
        next
    } else {
        data.len()
    }
}

/// One past the last record of `data` that is whole whatever follows `data`
/// in its source — where a window of a longer source may be cut — or 0 when
/// no record is known to end inside it.
pub fn last_record_end(data: &[u8], disc: RecordDiscipline, newline: u8) -> usize {
    let mut pos = 0;
    while pos < data.len() {
        let frame = frame_record(data, disc, newline, pos);
        if !frame.closed || frame.next == pos {
            break;
        }
        pos = frame.next;
    }
    pos
}

/// Default bound on the records a worker may hold ahead of the in-order
/// merge: deep enough to decouple workers from merge stalls, shallow enough
/// to keep retained memory O(jobs · max_inflight) instead of O(all records).
/// Each worker splits it into up to four chunks.
pub const DEFAULT_MAX_INFLIGHT: usize = 1024;

/// The most worker threads one run uses, whatever `jobs` asks for. Every
/// chunk passes through the one in-order merge, which bounds the speed-up
/// long before this many workers, while each worker costs a thread and —
/// in `pads::PadsParser::stream_reader` — a 1 MiB share of the input
/// window, claimed before a byte is read.
pub const MAX_JOBS: usize = 64;

/// Chunk buffers a worker owns: one being filled, the rest queued at (or on
/// their way back from) the merge.
const BUFFERS: usize = 4;

/// Where the in-order merge is, reported to the consumer with every record
/// so it can checkpoint progressively. [`drive`] reports whole-source
/// coordinates — exactly what a checkpoint journal commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Index of the record just consumed.
    pub record: usize,
    /// Where the cursor stood once the record closed: `end.offset` is one
    /// past the record's last byte (the offset a journal commits), and the
    /// whole position is what a source-level error raised right after this
    /// record (budget stop, trailing data) is located at.
    pub end: Pos,
    /// The cumulative budget *after* folding this record.
    pub budget: ErrorBudget,
}

/// A committed position to resume from: everything before byte `offset` /
/// record `record` has been consumed, and `budget` is the tally as of that
/// boundary. [`drive`] and every public entry point take it in whole-source
/// coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResumePoint {
    /// First unconsumed byte.
    pub offset: usize,
    /// Index of the first unconsumed record.
    pub record: usize,
    /// The budget tally at the boundary.
    pub budget: ErrorBudget,
}

/// One engine's record-at-a-time reader: what [`drive`] needs from the
/// interpreter, the VM, or a generated module to shard a source.
pub trait RecordReader {
    /// The parsed representation of one record.
    type Item;

    /// Parses the next record, or returns `None` once the source is
    /// exhausted (or the budget stopped the parse). A reader that makes no
    /// progress on a record must end after yielding it.
    fn next_record(&mut self) -> Option<(Self::Item, ParseDesc)>;

    /// The cursor's position within the slice it was opened on.
    fn position(&self) -> Pos;

    /// The cursor's running error-budget tally.
    fn budget(&self) -> ErrorBudget;

    /// Moves the cursor to byte `offset` — a record boundary — where record
    /// number `record` starts. The budget tally carries on.
    fn seek(&mut self, offset: usize, record: usize);
}

/// What to parse and how to shard it: the input of [`drive`].
#[derive(Debug, Clone, Copy)]
pub struct Job<'d> {
    /// The whole source.
    pub data: &'d [u8],
    /// Record framing of the source.
    pub discipline: RecordDiscipline,
    /// Ambient charset (locates newline boundaries).
    pub charset: Charset,
    /// The recovery policy the merged result must obey.
    pub policy: RecoveryPolicy,
    /// Upper bound on worker threads, itself at most [`MAX_JOBS`]; `<= 1`
    /// parses sequentially.
    pub jobs: usize,
    /// Bound on each worker's lead over the merge, in records; a quarter
    /// of it (at least one record) is the chunk size.
    pub max_inflight: usize,
    /// Where to start: `offset` must be a record boundary (e.g. the byte
    /// offset a checkpoint journal committed); record indices continue
    /// from `record` and the budget tally is restored.
    pub resume: ResumePoint,
}

/// One record of a chunk, as the consumer of [`drive`] sees it.
#[derive(Debug)]
pub struct Parsed<T> {
    /// The parsed representation.
    pub item: T,
    /// Its parse descriptor, in whole-source coordinates.
    pub pd: ParseDesc,
    /// Where the merge stands once this record is consumed.
    pub progress: Progress,
    /// Errors and panic-skip bytes this record added to its worker's
    /// budget: what the merge folds into `progress.budget`.
    nerr: u32,
    panic_skipped: u64,
}

/// Cuts what is left of the source into consecutive chunks of whole
/// records, one per call, so a chunk's first record index is known the
/// moment it is cut and nobody counts the source's records up front.
#[derive(Clone, Copy)]
struct Cutter<'d> {
    data: &'d [u8],
    discipline: RecordDiscipline,
    newline: u8,
    /// Records per chunk.
    size: usize,
    /// The next chunk: its index, first byte and first record.
    index: usize,
    offset: usize,
    record: usize,
}

/// One chunk as cut: bytes `start..end` hold `records` records, the first
/// of them number `first_record`.
struct Cut {
    index: usize,
    start: usize,
    end: usize,
    first_record: usize,
    records: usize,
}

impl Cutter<'_> {
    fn next(&mut self) -> Option<Cut> {
        let start = self.offset;
        let mut records = 0;
        while records < self.size && self.offset < self.data.len() {
            self.offset = record_end(self.data, self.discipline, self.newline, self.offset);
            records += 1;
        }
        if records == 0 {
            return None;
        }
        let cut =
            Cut { index: self.index, start, end: self.offset, first_record: self.record, records };
        self.index += 1;
        self.record += records;
        Some(cut)
    }
}

/// A parsed chunk on its way to the merge.
struct Filled<T, E> {
    index: usize,
    /// The worker that cut and filled it, and gets the buffer back.
    worker: usize,
    records: Vec<Parsed<T>>,
    /// The worker's observer harvest over exactly these records.
    extra: Option<E>,
    /// Whether the reader yielded the records the cutter counted and
    /// stopped where the cutter cut.
    complete: bool,
}

/// The one sharded record driver under every engine.
///
/// `open(slice, policy, start)` builds a reader over `slice` — `job.data`,
/// so positions come out in whole-source coordinates — under `policy`,
/// positioned at `start` with its budget restored, plus a harvest closure
/// drained once per chunk (per-worker observer deltas; return `None` when
/// unobserved). It is called on the thread that reads: once per worker with
/// source-level limits stripped, and once more for the sequential replay
/// under the full policy if the merge diverts.
///
/// `consume` receives every record exactly once, in source order, a chunk
/// at a time: the chunk's records, each with its [`Progress`] cursor, and
/// the harvest covering exactly those records. It may read the records in
/// place or drain them; what it leaves is dropped by the thread that
/// parsed it. The result is byte-identical to draining one reader
/// sequentially — see the module docs for the argument — and a completed
/// run equals a killed run resumed from any checkpoint. Returns the final
/// budget tally.
pub fn drive<'d, R, H, E, O, C>(job: &Job<'d>, open: O, mut consume: C) -> ErrorBudget
where
    R: RecordReader,
    R::Item: Send,
    E: Send,
    H: FnMut() -> Option<E>,
    O: Fn(&'d [u8], RecoveryPolicy, ResumePoint) -> (R, H) + Sync,
    C: FnMut(&mut Vec<Parsed<R::Item>>, Option<E>),
{
    let Job { data, policy, resume, .. } = *job;
    let start = ResumePoint { offset: resume.offset.min(data.len()), ..resume };
    if start.budget.stopped() {
        // A stopped budget ends the parse before any record.
        return start.budget;
    }
    let buffers = job.max_inflight.clamp(1, BUFFERS);
    let size = (job.max_inflight / buffers).max(1);
    let cutter = Cutter {
        data,
        discipline: job.discipline,
        newline: job.charset.encode(b'\n'),
        size,
        index: 0,
        offset: start.offset,
        record: start.record,
    };

    // Sequential replay from a boundary to the end of the source, carrying
    // the merged budget, under the full policy — a chunk's worth of records
    // at a time, so retention and harvests are what the sharded path's are.
    let replay = |from: ResumePoint, consume: &mut C| {
        let (mut reader, mut harvest) = open(data, policy, from);
        let mut batch = Vec::new();
        let mut record = from.record;
        while let Some((item, pd)) = reader.next_record() {
            let progress = Progress { record, end: reader.position(), budget: reader.budget() };
            batch.push(Parsed { item, pd, progress, nerr: 0, panic_skipped: 0 });
            record += 1;
            if batch.len() == size {
                consume(&mut batch, harvest());
                batch.clear();
            }
        }
        if !batch.is_empty() {
            consume(&mut batch, harvest());
        }
        reader.budget()
    };

    // One chunk gains nothing from a worker thread, and an exhausted carried
    // budget degrades from the very first record: both stream through the
    // sequential engine directly.
    let sharded = job.jobs > 1 && !start.budget.exhausted();
    let mut probe = cutter;
    if !probe.next().is_some_and(|cut| sharded && cut.end < data.len()) {
        return replay(start, &mut consume);
    }

    // Workers cannot know how many errors earlier chunks produced, so they
    // parse with source-level limits stripped; the merge (and the replay
    // path) applies the real policy. Per-record limits are positional and
    // stay.
    let stripped = RecoveryPolicy { max_errs: None, max_panic_skip: None, ..policy };
    let cutter = Mutex::new(cutter);
    let worker = |id: usize,
                  tx: mpsc::Sender<Filled<R::Item, E>>,
                  back: mpsc::Receiver<Vec<Parsed<R::Item>>>| {
        let (mut reader, mut harvest) =
            open(data, stripped, ResumePoint { budget: ErrorBudget::new(), ..start });
        // A buffer first, a chunk second: whoever holds the oldest unmerged
        // chunk is then always parsing it, never waiting for the merge, so
        // the merge cannot wait for it in vain. Records the merge left in a
        // returned buffer are dropped here, by the thread that allocated
        // them.
        while let Ok(mut records) = back.recv() {
            records.clear();
            let Some(cut) = cutter.lock().ok().and_then(|mut cutter| cutter.next()) else {
                return;
            };
            // A panic must not strand the merge waiting for this index: the
            // chunk goes out whatever happened, incomplete if cut short.
            let parsed = panic::catch_unwind(AssertUnwindSafe(|| {
                reader.seek(cut.start, cut.first_record);
                let mut prev = reader.budget();
                for record in cut.first_record..cut.first_record + cut.records {
                    let Some((item, pd)) = reader.next_record() else { break };
                    let after = reader.budget();
                    records.push(Parsed {
                        item,
                        pd,
                        // The merge replaces the budget with the cumulative one.
                        progress: Progress { record, end: reader.position(), budget: after },
                        nerr: after.errs.saturating_sub(prev.errs) as u32,
                        panic_skipped: after.panic_skipped.saturating_sub(prev.panic_skipped),
                    });
                    prev = after;
                }
                let complete = records.len() == cut.records && reader.position().offset == cut.end;
                (harvest(), complete)
            }));
            let (extra, complete) = parsed.unwrap_or((None, false));
            let filled = Filled { index: cut.index, worker: id, records, extra, complete };
            // A closed channel means the merge diverted; so does a chunk cut
            // short, and this reader may then be anywhere.
            if tx.send(filled).is_err() || !complete {
                return;
            }
        }
    };

    // The in-order merge, on this thread: fold each chunk's budget deltas,
    // consume the chunk whole and hand its buffer back, or stop at the first
    // chunk the sequential engine could have parsed differently.
    let mut boundary = start;
    let mut divert = None;
    thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let (handles, backs): (Vec<_>, Vec<_>) = (0..job.jobs.min(MAX_JOBS))
            .map(|id| {
                // A worker's buffers start out in its return queue.
                let (back_tx, back_rx) = mpsc::channel();
                for _ in 0..buffers {
                    let _ = back_tx.send(Vec::new());
                }
                let (tx, worker) = (tx.clone(), &worker);
                (scope.spawn(move || worker(id, tx, back_rx)), back_tx)
            })
            .unzip();
        drop(tx);
        let mut early = BTreeMap::new();
        for index in 0.. {
            let next = loop {
                if let Some(chunk) = early.remove(&index) {
                    break Some(chunk);
                }
                match rx.recv() {
                    Ok(chunk) => early.insert(chunk.index, chunk),
                    Err(mpsc::RecvError) => break None,
                };
            };
            // Every worker is gone: the source is consumed, or a worker
            // died between chunks and replay takes the rest.
            let Some(mut chunk) = next else {
                divert = (boundary.offset < data.len()).then_some(boundary);
                break;
            };
            let mut cum = boundary.budget;
            let whole = chunk.complete
                && chunk.records.iter_mut().all(|parsed| {
                    cum.note_record(&policy, parsed.nerr, parsed.panic_skipped);
                    parsed.progress.budget = cum;
                    !cum.exhausted()
                });
            let Some(last) = chunk.records.last().filter(|_| whole) else {
                // A record of this chunk trips a source limit, or its
                // worker fell short of the cut (panic, framing
                // disagreement). Consume none of it: replay re-parses the
                // chunk under the full policy, so the degradation (and its
                // observer transition) lands exactly where the sequential
                // engine puts it.
                divert = Some(boundary);
                break;
            };
            boundary = ResumePoint {
                offset: last.progress.end.offset,
                record: last.progress.record + 1,
                budget: cum,
            };
            consume(&mut chunk.records, chunk.extra);
            if let Some(back) = backs.get(chunk.worker) {
                // A worker that has left drops its receiver; the buffer is
                // then freed here.
                let _ = back.send(chunk.records);
            }
        }
        // Stop the cutting and close the channels, so that a worker parked
        // on its buffer queue wakes up and leaves; join to absorb a worker's
        // panic — its chunk already diverted to replay above.
        if let Ok(mut cutter) = cutter.lock() {
            cutter.offset = data.len();
        }
        drop((rx, backs));
        for handle in handles {
            let _ = handle.join();
        }
    });
    match divert {
        Some(from) => replay(from, &mut consume),
        None => boundary.budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Endian;
    use crate::io::Cursor;
    use crate::recovery::OnExhausted;
    use proptest::prelude::*;
    use proptest::{collection, sample};
    use std::cell::Cell;
    use std::rc::Rc;

    /// [`frame_record`]'s contract, a byte at a time: where each record of
    /// `data` ends, terminator included, and whether it is closed — ends
    /// there whatever a longer source goes on with. A record that ends where
    /// it began (fixed width 0, an empty length header) is one no reader
    /// gets past: the walk stops there, and what is left belongs to that
    /// record's chunk — [`record_end`]'s "always past `pos`" — for the
    /// merge's completeness check to catch.
    fn naive_record_ends(data: &[u8], disc: RecordDiscipline, newline: u8) -> Vec<(usize, bool)> {
        let len = data.len();
        let mut ends = Vec::new();
        let mut pos = 0;
        while pos < len {
            let (end, closed) = match disc {
                RecordDiscipline::None => (len, false),
                RecordDiscipline::Newline => {
                    let mut end = pos;
                    while end < len && data[end] != newline {
                        end += 1;
                    }
                    (len.min(end + 1), end < len)
                }
                RecordDiscipline::FixedWidth(w) => (len.min(pos + w), pos + w <= len),
                RecordDiscipline::LengthPrefixed { header_bytes, endian } => {
                    let mut header = data[pos..len.min(pos.saturating_add(header_bytes))].to_vec();
                    if endian == Endian::Little {
                        header.reverse();
                    }
                    let big = |n: u128, &b: &u8| n.saturating_mul(256) | u128::from(b);
                    let end = (pos + header_bytes) as u128 + header.iter().fold(0, big);
                    let fits = header.len() == header_bytes && end <= len as u128;
                    (if fits { end as usize } else { len }, fits)
                }
            };
            if end == pos {
                ends.push((len, false));
                break;
            }
            ends.push((end, closed));
            pos = end;
        }
        ends
    }

    /// The offsets at which a cursor's records end, walking the source
    /// record by record, under [`naive_record_ends`]' zero-width rule.
    fn cursor_record_ends(data: &[u8], disc: RecordDiscipline, charset: Charset) -> Vec<usize> {
        let mut cur = Cursor::new(data).with_discipline(disc).with_charset(charset);
        let mut ends = Vec::new();
        while !cur.at_eof() {
            let opened = cur.offset();
            let _ = cur.begin_record();
            cur.end_record();
            if cur.offset() == opened {
                ends.push(data.len());
                break;
            }
            ends.push(cur.offset());
        }
        ends
    }

    fn framings() -> Vec<RecordDiscipline> {
        let mut all = vec![RecordDiscipline::Newline, RecordDiscipline::None];
        all.extend((0..9).map(RecordDiscipline::FixedWidth));
        for header_bytes in [1, 2, 4, 8, 10] {
            for endian in [Endian::Big, Endian::Little] {
                all.push(RecordDiscipline::LengthPrefixed { header_bytes, endian });
            }
        }
        all
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        // The cursor, the shard cutter and the window cut all frame through
        // `frame_record`; this holds it to the byte loop above. Cut a record
        // at a time, the cutter's chunks end exactly where the cursor's
        // records do, malformed and truncated headers included.
        #[test]
        fn cutter_and_cursor_frame_records_identically(
            // Both newlines, and bytes small enough to be plausible lengths.
            data in collection::vec(
                sample::select(vec![0u8, 1, 2, 3, 7, b'\n', 0x15, 0x25, b'a', 0xFF]),
                0..48,
            ),
            discipline in sample::select(framings()),
            charset in sample::select(vec![Charset::Ascii, Charset::Ebcdic]),
        ) {
            let naive = naive_record_ends(&data, discipline, charset.encode(b'\n'));
            let mut cutter = Cutter {
                data: &data,
                discipline,
                newline: charset.encode(b'\n'),
                size: 1,
                index: 0,
                offset: 0,
                record: 0,
            };
            let mut cut_ends = Vec::new();
            while let Some(cut) = cutter.next() {
                prop_assert_eq!(cut.start, cut_ends.last().copied().unwrap_or(0));
                let nth = cut_ends.len();
                prop_assert_eq!((cut.index, cut.first_record, cut.records), (nth, nth, 1));
                cut_ends.push(cut.end);
            }
            prop_assert_eq!(&cut_ends, &naive.iter().map(|&(end, _)| end).collect::<Vec<_>>());
            prop_assert_eq!(&cut_ends, &cursor_record_ends(&data, discipline, charset));

            // A window cut falls on the last of those ends before the first
            // record that is not closed — so on one that stays a record end
            // whatever the source goes on with.
            let cut = last_record_end(&data, discipline, charset.encode(b'\n'));
            let closed = naive.iter().take_while(|&&(_, closed)| closed).last();
            prop_assert_eq!(cut, closed.map_or(0, |&(end, _)| end));
            let kept: Vec<usize> = cut_ends.iter().copied().filter(|&end| end <= cut).collect();
            prop_assert_eq!(kept.last().copied().unwrap_or(0), cut);
            for more in [&[0u8, 0][..], b"\n", &[0xFF; 9], &[0x25]] {
                let longer = [&data[..], more].concat();
                let mut ends = cursor_record_ends(&longer, discipline, charset);
                ends.retain(|&end| end <= cut);
                prop_assert_eq!(&ends, &kept, "followed by {:?}", more);
            }
        }
    }

    fn newline_plan(data: &[u8], jobs: usize) -> ShardPlan {
        plan_shards(data, RecordDiscipline::Newline, Charset::Ascii, jobs)
    }

    fn assert_plan_invariants(data: &[u8], plan: &ShardPlan, expected_records: usize) {
        assert!(!plan.shards.is_empty());
        assert_eq!(plan.shards[0].start, 0);
        assert_eq!(plan.shards.last().map(|s| s.end), Some(data.len()));
        let mut first_record = 0;
        let mut prev_end = 0;
        for (i, s) in plan.shards.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.start, prev_end, "shards must be contiguous");
            assert_eq!(s.first_record, first_record);
            prev_end = s.end;
            first_record += s.records;
        }
        assert_eq!(first_record, expected_records);
    }

    #[test]
    fn newline_plans_split_on_record_boundaries() {
        let data = b"aa\nbb\ncc\ndd\nee\nff\n";
        for jobs in 1..=6 {
            let plan = newline_plan(data, jobs);
            assert_plan_invariants(data, &plan, 6);
            assert!(plan.shards.len() <= jobs.max(1));
            for s in &plan.shards {
                if s.end < data.len() {
                    assert_eq!(data[s.end - 1], b'\n', "boundary must follow a newline");
                }
            }
        }
    }

    #[test]
    fn newline_plan_counts_trailing_partial_record() {
        let plan = newline_plan(b"aa\nbb\ncc", 2);
        assert_plan_invariants(b"aa\nbb\ncc", &plan, 3);
    }

    #[test]
    fn degenerate_sources_yield_single_shards() {
        assert_eq!(newline_plan(b"", 4).shards.len(), 1);
        assert_eq!(newline_plan(b"no newline", 4).shards.len(), 1);
        let plan = plan_shards(b"abc", RecordDiscipline::None, Charset::Ascii, 4);
        assert_eq!(plan.shards.len(), 1);
        assert_eq!(plan.shards[0].records, 1);
        let plan = plan_shards(b"abc", RecordDiscipline::FixedWidth(0), Charset::Ascii, 4);
        assert_eq!(plan.shards.len(), 1);
    }

    #[test]
    fn fixed_width_plans_split_at_width_multiples() {
        let data = [7u8; 100];
        let plan = plan_shards(&data, RecordDiscipline::FixedWidth(8), Charset::Ascii, 4);
        assert_plan_invariants(&data, &plan, 13);
        for s in &plan.shards {
            if s.end < data.len() {
                assert_eq!(s.end % 8, 0);
            }
        }
    }

    #[test]
    fn length_prefixed_plans_walk_headers() {
        // Records: [len=3]xyz [len=1]q [len=2]zz, 1-byte headers.
        let data = [3u8, b'x', b'y', b'z', 1, b'q', 2, b'z', b'z'];
        let disc = RecordDiscipline::LengthPrefixed { header_bytes: 1, endian: Endian::Big };
        let plan = plan_shards(&data, disc, Charset::Ascii, 3);
        assert_plan_invariants(&data, &plan, 3);
        for s in &plan.shards {
            if s.end < data.len() {
                assert!([0, 4, 6, 9].contains(&s.end), "boundary {} not a record start", s.end);
            }
        }
    }

    #[test]
    fn length_prefixed_overrun_groups_tail_into_one_record() {
        // Second header claims 200 bytes: the rest of the source is one
        // malformed record, exactly as `begin_record` frames it.
        let data = [2u8, b'a', b'b', 200, b'x', b'y'];
        let disc = RecordDiscipline::LengthPrefixed { header_bytes: 1, endian: Endian::Big };
        let plan = plan_shards(&data, disc, Charset::Ascii, 4);
        assert_plan_invariants(&data, &plan, 2);
    }

    // A toy engine for `drive` tests: each record is one newline-line;
    // lines containing 'X' count one error each, `P` panics a worker. The
    // reader applies its policy the way the cursor does — it stops, or
    // skips records wholesale, once the budget says so.
    struct Toy<'d> {
        data: &'d [u8],
        policy: RecoveryPolicy,
        offset: usize,
        record: usize,
        budget: ErrorBudget,
        /// Records parsed since the last harvest, when on a worker thread.
        streamed: Rc<Cell<u64>>,
        on_worker: bool,
    }

    impl RecordReader for Toy<'_> {
        type Item = String;

        fn next_record(&mut self) -> Option<(String, ParseDesc)> {
            if self.budget.stopped() || self.offset >= self.data.len() {
                return None;
            }
            let end = record_end(self.data, RecordDiscipline::Newline, b'\n', self.offset);
            let line = &self.data[self.offset..end];
            let line = line.strip_suffix(b"\n").unwrap_or(line);
            assert!(!(self.on_worker && line.contains(&b'P')), "worker panic safety net");
            self.offset = end;
            self.record += 1;
            self.streamed.set(self.streamed.get() + u64::from(self.on_worker));
            if self.budget.exhausted() && self.policy.on_exhausted == OnExhausted::SkipRecord {
                self.budget.note_skipped_record();
                return Some(("<skipped>".to_owned(), ParseDesc::ok()));
            }
            self.budget.note_record(&self.policy, u32::from(line.contains(&b'X')), 0);
            Some((String::from_utf8_lossy(line).into_owned(), ParseDesc::ok()))
        }

        fn position(&self) -> Pos {
            Pos { offset: self.offset, record: self.record, byte: 0 }
        }

        fn budget(&self) -> ErrorBudget {
            self.budget
        }

        fn seek(&mut self, offset: usize, record: usize) {
            (self.offset, self.record) = (offset, record);
        }
    }

    struct ToyRun {
        items: Vec<String>,
        budget: ErrorBudget,
        /// Records consumed from workers (vs. replayed).
        streamed: u64,
        progress: Vec<Progress>,
        /// Records per `consume` call.
        chunks: Vec<usize>,
    }

    fn run_toy_from(
        data: &[u8],
        policy: RecoveryPolicy,
        jobs: usize,
        max_inflight: usize,
        resume: ResumePoint,
    ) -> ToyRun {
        let job = Job {
            data,
            discipline: RecordDiscipline::Newline,
            charset: Charset::Ascii,
            policy,
            jobs,
            max_inflight,
            resume,
        };
        let main = thread::current().id();
        let mut run = ToyRun {
            items: Vec::new(),
            budget: ErrorBudget::new(),
            streamed: 0,
            progress: Vec::new(),
            chunks: Vec::new(),
        };
        run.budget = drive(
            &job,
            |data, policy, start: ResumePoint| {
                let streamed = Rc::new(Cell::new(0));
                let reader = Toy {
                    data,
                    policy,
                    offset: start.offset,
                    record: start.record,
                    budget: start.budget,
                    streamed: streamed.clone(),
                    on_worker: thread::current().id() != main,
                };
                (reader, move || Some(streamed.take()))
            },
            |chunk, streamed| {
                run.chunks.push(chunk.len());
                run.streamed += streamed.unwrap_or(0);
                for parsed in chunk.drain(..) {
                    run.items.push(parsed.item);
                    run.progress.push(parsed.progress);
                }
            },
        );
        run
    }

    /// Four-record lead per worker: one-record chunks.
    fn run_toy(data: &[u8], policy: RecoveryPolicy, jobs: usize) -> ToyRun {
        run_toy_from(data, policy, jobs, 4, ResumePoint::default())
    }

    fn run_toy_resumed(
        data: &[u8],
        policy: RecoveryPolicy,
        jobs: usize,
        carried: ErrorBudget,
    ) -> ToyRun {
        run_toy_from(data, policy, jobs, 4, ResumePoint { budget: carried, ..Default::default() })
    }

    fn assert_same(par: &ToyRun, seq: &ToyRun, label: &str) {
        assert_eq!(par.items, seq.items, "{label}: items");
        assert_eq!(par.budget, seq.budget, "{label}: budget");
        assert_eq!(par.progress, seq.progress, "{label}: progress");
    }

    #[test]
    fn sharded_matches_sequential_without_limits() {
        let data = b"one\ntwo\nthrXe\nfour\nfive\nsiX\nseven\neight\n";
        let seq = run_toy(data, RecoveryPolicy::unlimited(), 1);
        for jobs in 2..=5 {
            let par = run_toy(data, RecoveryPolicy::unlimited(), jobs);
            assert_same(&par, &seq, &format!("jobs={jobs}"));
            assert_eq!(par.streamed, par.items.len() as u64, "jobs={jobs}: all streamed");
        }
    }

    #[test]
    fn progress_is_monotonic_and_budget_folds_in_order() {
        let data = b"a\nXb\nc\nXd\ne\n";
        let par = run_toy(data, RecoveryPolicy::unlimited(), 3);
        let mut prev_record = None;
        let mut prev_end = 0;
        let mut prev_errs = 0;
        for p in &par.progress {
            assert_eq!(p.record, prev_record.map_or(0, |r: usize| r + 1), "dense record index");
            assert!(p.end.offset > prev_end, "offsets advance");
            assert!(p.budget.errs >= prev_errs, "budget is monotone");
            prev_record = Some(p.record);
            prev_end = p.end.offset;
            prev_errs = p.budget.errs;
        }
        assert_eq!(prev_end, data.len());
        assert_eq!(prev_errs, 2);
    }

    #[test]
    fn stop_mode_replays_and_discards_past_stop_point() {
        // max_errs = 1: the second 'X' line trips Stop; everything after it
        // must be absent, exactly as sequentially. The tripping record
        // itself is emitted (by replay, under the full policy).
        let policy = RecoveryPolicy::unlimited().with_max_errs(1);
        let data = b"a\nX1\nb\nX2\nc\nd\ne\nf\ng\nh\n";
        let seq = run_toy(data, policy, 1);
        assert!(seq.budget.stopped());
        assert_eq!(seq.items.last().map(String::as_str), Some("X2"));
        for jobs in 2..=4 {
            assert_same(&run_toy(data, policy, jobs), &seq, &format!("jobs={jobs}"));
        }
    }

    #[test]
    fn skip_record_mode_replays_degraded_tail() {
        let policy = RecoveryPolicy::unlimited()
            .with_max_errs(0)
            .with_on_exhausted(OnExhausted::SkipRecord);
        let data = b"a\nb\nXbad\nc\nd\ne\nf\ng\n";
        let seq = run_toy(data, policy, 1);
        assert!(seq.budget.exhausted() && !seq.budget.stopped());
        assert!(seq.items.iter().any(|s| s == "<skipped>"));
        for jobs in 2..=4 {
            assert_same(&run_toy(data, policy, jobs), &seq, &format!("jobs={jobs}"));
        }
    }

    #[test]
    fn clean_prefix_records_stream_before_a_trip() {
        // The trip is in the last chunk: every record before it must have
        // been consumed straight off the workers, not replayed.
        let policy = RecoveryPolicy::unlimited().with_max_errs(0);
        let data = b"a\nb\nc\nd\ne\nf\ng\nXlast\n";
        let par = run_toy(data, policy, 4);
        let seq = run_toy(data, policy, 1);
        assert_same(&par, &seq, "trip in the last chunk");
        assert_eq!(par.streamed, 7, "the clean prefix streams, the tripping record replays");
    }

    #[test]
    fn single_shard_plan_uses_replay_directly() {
        let policy = RecoveryPolicy::unlimited();
        let run = run_toy(b"only\n", policy, 1);
        assert_eq!(run.items, vec!["only".to_owned()]);
        assert_eq!(run.streamed, 0, "jobs = 1 streams through replay");
        // A chunk larger than the source: nothing to hand a worker.
        let data = b"a\nb\nc\n";
        let run = run_toy_from(data, policy, 4, 64, ResumePoint::default());
        assert_eq!(run.items, ["a", "b", "c"]);
        assert_eq!((run.streamed, run.chunks.as_slice()), (0, &[3][..]));
    }

    #[test]
    fn carried_stopped_budget_yields_no_records() {
        let policy = RecoveryPolicy::unlimited().with_max_errs(0);
        let mut carried = ErrorBudget::new();
        carried.note_record(&policy, 1, 0);
        assert!(carried.stopped());
        let run = run_toy_resumed(b"a\nb\n", policy, 4, carried);
        assert!(run.items.is_empty());
        assert_eq!(run.budget, carried);
    }

    #[test]
    fn carried_exhausted_budget_degrades_from_first_record() {
        let policy = RecoveryPolicy::unlimited()
            .with_max_errs(0)
            .with_on_exhausted(OnExhausted::SkipRecord);
        let mut carried = ErrorBudget::new();
        carried.note_record(&policy, 1, 0);
        assert!(carried.exhausted() && !carried.stopped());
        let run = run_toy_resumed(b"a\nb\n", policy, 4, carried);
        assert_eq!(run.items, vec!["<skipped>".to_owned(), "<skipped>".to_owned()]);
        assert_eq!(run.budget.skipped_records, carried.skipped_records + 2);
    }

    #[test]
    fn tight_channel_bound_still_merges_everything() {
        // max_inflight = 1: one one-record buffer per worker, so every
        // worker waits for the merge after each record.
        let data = b"a\nb\nc\nd\ne\nf\ng\nh\ni\nj\nk\nl\n";
        let policy = RecoveryPolicy::unlimited();
        let par = run_toy_from(data, policy, 3, 1, ResumePoint::default());
        assert_same(&par, &run_toy(data, policy, 1), "max_inflight=1");
        assert_eq!(par.streamed, 12);
        assert!(par.chunks.iter().all(|&n| n == 1), "{:?}", par.chunks);
    }

    #[test]
    fn panicked_worker_diverts_to_replay() {
        // Mid-chunk (chunks of two): the chunk's first record is lost with
        // the worker and comes back through replay.
        let data = b"a\nb\nc\nd\ne\nPf\ng\nh\n";
        let policy = RecoveryPolicy::unlimited();
        let par = run_toy_from(data, policy, 4, 8, ResumePoint::default());
        assert_same(&par, &run_toy(data, policy, 1), "worker panic");
        assert_eq!(par.streamed, 4, "the chunks before the lost one stream");
    }

    #[test]
    fn chunks_follow_max_inflight_and_the_source_end() {
        // 11 records, no trailing newline, chunks of 3: the last chunk is
        // short and its last record ends at the end of the source.
        let data = b"a\nb\nc\nd\ne\nf\ng\nh\ni\nj\nk";
        let policy = RecoveryPolicy::unlimited();
        let seq = run_toy(data, policy, 1);
        assert_eq!(seq.items.len(), 11);
        // More workers than chunks, too.
        for jobs in [2, 8] {
            let par = run_toy_from(data, policy, jobs, 12, ResumePoint::default());
            assert_same(&par, &seq, &format!("jobs={jobs}"));
            assert_eq!(par.chunks, [3, 3, 3, 2], "jobs={jobs}");
            assert_eq!(par.streamed, 11, "jobs={jobs}");
        }
    }

    #[test]
    fn a_trip_anywhere_in_a_chunk_replays_that_chunk_whole() {
        // Chunks of three; the budget trips on the first, a middle and the
        // last record of the second chunk, under every degraded mode.
        for (trip, data) in [
            (3, &b"a\nb\nc\nX\ne\nf\ng\nh\nX\nj\n"[..]),
            (4, &b"a\nb\nc\nd\nX\nf\ng\nh\nX\nj\n"[..]),
            (5, &b"a\nb\nc\nd\ne\nX\ng\nh\nX\nj\n"[..]),
        ] {
            for mode in [OnExhausted::Stop, OnExhausted::SkipRecord, OnExhausted::BestEffort] {
                let policy = RecoveryPolicy::unlimited().with_max_errs(0).with_on_exhausted(mode);
                let seq = run_toy(data, policy, 1);
                let par = run_toy_from(data, policy, 2, 12, ResumePoint::default());
                assert_same(&par, &seq, &format!("trip at {trip} under {mode:?}"));
                assert_eq!(par.streamed, 3, "trip at {trip} under {mode:?}: only chunk 0 streams");
            }
        }
    }

    #[test]
    fn a_resume_point_inside_a_chunk_restarts_the_cutting_there() {
        // Resume after the fourth record: chunks of three are cut from
        // there, not from the start of the source.
        let data = b"a\nXb\nc\nd\ne\nf\nXg\nh\ni\n";
        let policy = RecoveryPolicy::unlimited().with_max_errs(5);
        let mut carried = ErrorBudget::new();
        carried.note_record(&policy, 1, 0);
        let resume = ResumePoint { offset: 9, record: 4, budget: carried };
        let seq = run_toy_from(data, policy, 1, 12, resume);
        assert_eq!(seq.items, ["e", "f", "Xg", "h", "i"]);
        assert_eq!(seq.progress[0].record, 4);
        let par = run_toy_from(data, policy, 2, 12, resume);
        assert_same(&par, &seq, "resumed");
        assert_eq!((par.chunks.as_slice(), par.budget.errs), (&[3, 2][..], 2));
    }
}
