//! Parallel record-sharded parsing.
//!
//! The paper's deployments (§1) parse multi-gigabyte daily feeds — Sirius
//! call detail, web logs — whose record disciplines make the data
//! *embarrassingly splittable*: a newline-delimited source can be cut at any
//! newline, a fixed-width source at any multiple of the width, and both
//! halves parsed independently, because every record-bounded read is
//! position-independent. This module exploits that: [`plan_shards`] splits a
//! source into contiguous shards at record boundaries found by the
//! [`scan`](crate::scan) kernels, and [`drive`] parses the shards on
//! worker threads that *stream* records through bounded channels into an
//! in-order merge, so at most `max_inflight` records per shard are ever
//! retained — the merge consumes each record the moment its turn comes,
//! which is what lets a checkpoint journal commit progressively during a
//! parallel run.
//!
//! Every engine plugs into that one driver the same way: it implements
//! [`RecordReader`] (next record, cursor offset, budget) and hands
//! [`drive`] a factory that opens a reader over a byte slice under a given
//! policy from a given start. The interpreter and the VM do so through
//! `pads::Records`, generated parsers through
//! [`genrt::parse_records`](crate::genrt::parse_records).
//!
//! # Determinism contract
//!
//! The merged output — values, parse descriptors, and the
//! [`ErrorBudget`] tally — is byte-identical to a sequential parse under
//! every [`OnExhausted`](crate::recovery::OnExhausted) mode. Two mechanisms
//! guarantee it:
//!
//! 1. **Workers parse with source-level limits stripped.** A shard cannot
//!    know how many errors earlier shards produced, so workers run with
//!    `max_errs`/`max_panic_skip` removed (the per-record
//!    `max_record_errs` cap is positional and stays). The merge folds each
//!    record's error delta into the cumulative budget in record order; as
//!    long as that fold never crosses a limit, the sequential engine would
//!    not have degraded either, and the streamed records are exactly its
//!    output.
//! 2. **Sequential replay from the first divergence.** The first record
//!    whose fold crosses a source limit — or the first shard that produces
//!    fewer records than planned (a panicked worker surfaces this way) —
//!    is the first point where sequential behaviour could differ. The
//!    merge stops *before consuming that record* and re-parses from its
//!    byte offset sequentially under the full policy with the
//!    budget-as-of-the-previous-record carried in. Re-parsing the tripping
//!    record itself under the real policy reproduces the budget-exhaustion
//!    transition (and its observer event) at exactly the record where the
//!    sequential engine fires it; `Stop` then ends after that record,
//!    `SkipRecord` and `BestEffort` continue under their degraded modes.

use std::sync::mpsc;
use std::thread;

use crate::encoding::Charset;
use crate::error::Pos;
use crate::io::RecordDiscipline;
use crate::pd::ParseDesc;
use crate::recovery::{ErrorBudget, RecoveryPolicy};
use crate::scan;

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

impl ShardPlan {
    /// A single shard covering `0..len` with `records` records.
    fn single(len: usize, records: usize) -> ShardPlan {
        ShardPlan {
            shards: vec![Shard { index: 0, start: 0, end: len, first_record: 0, records }],
        }
    }

    /// Builds a plan from record-aligned byte boundaries. `bounds` must be
    /// strictly increasing interior cut points; `records_in` counts the
    /// records of a byte range.
    fn from_bounds(
        len: usize,
        bounds: Vec<usize>,
        records_in: impl Fn(usize, usize) -> usize,
    ) -> ShardPlan {
        let mut shards = Vec::with_capacity(bounds.len() + 1);
        let mut start = 0;
        let mut first_record = 0;
        for end in bounds.into_iter().chain(std::iter::once(len)) {
            let records = records_in(start, end);
            shards.push(Shard { index: shards.len(), start, end, first_record, records });
            first_record += records;
            start = end;
        }
        ShardPlan { shards }
    }

    /// Total records across all shards.
    pub fn total_records(&self) -> usize {
        self.shards.iter().map(|s| s.records).sum()
    }
}

/// Splits `data` into at most `jobs` contiguous shards at record boundaries
/// of `disc`. With `jobs <= 1`, an empty source, or the
/// [`RecordDiscipline::None`] discipline (the whole source is one record),
/// the plan is a single shard.
///
/// Shards are byte-balanced: each interior boundary is the first record
/// boundary at or after an even byte split. Sources with fewer boundaries
/// than jobs simply produce fewer shards.
pub fn plan_shards(
    data: &[u8],
    disc: RecordDiscipline,
    charset: Charset,
    jobs: usize,
) -> ShardPlan {
    let len = data.len();
    match disc {
        RecordDiscipline::None => ShardPlan::single(len, usize::from(len > 0)),
        RecordDiscipline::Newline => {
            let nl = charset.encode(b'\n');
            let records_in = |s: usize, e: usize| {
                let mut n = scan::count_byte(&data[s..e], nl);
                // A final record without a trailing newline still counts.
                if e == len && e > s && data[e - 1] != nl {
                    n += 1;
                }
                n
            };
            if jobs <= 1 || len == 0 {
                return ShardPlan::single(len, records_in(0, len));
            }
            let mut bounds = Vec::with_capacity(jobs - 1);
            let mut prev = 0usize;
            for i in 1..jobs {
                let target = len * i / jobs;
                let from = target.max(prev);
                if from >= len {
                    break;
                }
                if let Some(off) = scan::find_byte(&data[from..], nl) {
                    let b = from + off + 1;
                    if b > prev && b < len {
                        bounds.push(b);
                        prev = b;
                    }
                }
            }
            ShardPlan::from_bounds(len, bounds, records_in)
        }
        RecordDiscipline::FixedWidth(w) => {
            if w == 0 {
                return ShardPlan::single(len, 0);
            }
            let total = len.div_ceil(w);
            let records_in = |s: usize, e: usize| (e - s).div_ceil(w);
            if jobs <= 1 || len == 0 {
                return ShardPlan::single(len, total);
            }
            let mut bounds = Vec::with_capacity(jobs - 1);
            let mut prev = 0usize;
            for i in 1..jobs {
                let b = (total * i / jobs) * w;
                if b > prev && b < len {
                    bounds.push(b);
                    prev = b;
                }
            }
            ShardPlan::from_bounds(len, bounds, records_in)
        }
        RecordDiscipline::LengthPrefixed { header_bytes, endian } => {
            // Record starts are only discoverable by walking the headers,
            // mirroring `Cursor::begin_record`'s framing (including its
            // malformed-header recovery: the rest of the source becomes
            // one record).
            let mut starts = Vec::new();
            let mut pos = 0usize;
            while pos < len {
                starts.push(pos);
                if header_bytes == 0 || header_bytes > len - pos {
                    break;
                }
                let hdr = &data[pos..pos + header_bytes];
                let mut rec_len: usize = 0;
                let fold = |l: usize, b: u8| {
                    l.checked_mul(256).map_or(usize::MAX, |l| l | b as usize)
                };
                match endian {
                    crate::encoding::Endian::Big => {
                        for &b in hdr {
                            rec_len = fold(rec_len, b);
                        }
                    }
                    crate::encoding::Endian::Little => {
                        for &b in hdr.iter().rev() {
                            rec_len = fold(rec_len, b);
                        }
                    }
                }
                let body = pos + header_bytes;
                if rec_len > len - body {
                    break;
                }
                pos = body + rec_len;
            }
            let total = starts.len();
            let records_in = |s: usize, e: usize| {
                starts.iter().filter(|&&p| s <= p && p < e).count()
            };
            if jobs <= 1 || total <= 1 {
                return ShardPlan::single(len, total);
            }
            let mut bounds = Vec::with_capacity(jobs - 1);
            let mut prev = 0usize;
            for i in 1..jobs {
                let target = len * i / jobs;
                // First record start at or after the even byte split.
                if let Some(&b) = starts.iter().find(|&&p| p >= target) {
                    if b > prev && b < len {
                        bounds.push(b);
                        prev = b;
                    }
                }
            }
            ShardPlan::from_bounds(len, bounds, records_in)
        }
    }
}

/// Default bound on in-flight records per shard channel: deep enough to
/// decouple workers from merge stalls, shallow enough to keep retained
/// memory O(jobs · max_inflight) instead of O(all records).
pub const DEFAULT_MAX_INFLIGHT: usize = 1024;

/// One parsed record streamed from a worker to the in-order merge.
struct RecordMsg<T, E> {
    /// The parsed item (value + descriptor in the real engines).
    item: T,
    /// Errors this record added to the budget (the `note_record` delta).
    nerr: u32,
    /// Panic-skip bytes this record added to the budget.
    panic_skipped: u64,
    /// Where the reader's cursor stood once the record closed.
    end: Pos,
    /// Engine-specific per-record side data (e.g. a metrics harvest),
    /// merged in record order.
    extra: Option<E>,
}

/// What a sequential replay reports each record through:
/// `(item, cursor_after_record, budget_after_record, extra)`.
type Emit<'a, T, E> = dyn FnMut(T, Pos, ErrorBudget, Option<E>) + 'a;

/// The sending half a worker streams its shard's records through. Bounded:
/// `send` blocks once `max_inflight` records are queued ahead of the merge.
struct ShardSender<T, E> {
    tx: mpsc::SyncSender<RecordMsg<T, E>>,
}

impl<T, E> ShardSender<T, E> {
    /// Queues one record for the merge, blocking while the channel is at
    /// capacity. Returns `false` when the merge has hung up (it diverted to
    /// sequential replay or consumed the shard's planned record count) —
    /// the worker should stop parsing.
    fn send(&self, msg: RecordMsg<T, E>) -> bool {
        self.tx.send(msg).is_ok()
    }
}

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
    /// Upper bound on worker threads; `<= 1` parses sequentially.
    pub jobs: usize,
    /// Bound on each worker's lead over the merge, in records.
    pub max_inflight: usize,
    /// Where to start: `offset` must be a record boundary (e.g. the byte
    /// offset a checkpoint journal committed); record indices continue
    /// from `record` and the budget tally is restored.
    pub resume: ResumePoint,
}

/// The one sharded record driver under every engine.
///
/// `open(slice, policy, start)` builds a reader over `slice` — always a
/// prefix of `job.data`, so positions come out in whole-source coordinates
/// — under `policy`, positioned at `start` with its budget restored, plus
/// a harvest closure drained once per record (per-worker observer deltas;
/// return `None` when unobserved). It is called on the thread that reads:
/// once per shard with source-level limits stripped, and once more for the
/// sequential replay under the full policy if the merge diverts.
///
/// `consume` receives every record exactly once, in source order, with its
/// harvest and a [`Progress`] cursor. The result is byte-identical to
/// draining one reader sequentially — see the module docs for the
/// argument — and a completed run equals a killed run resumed from any
/// checkpoint. Returns the final budget tally.
pub fn drive<'d, R, H, E, O, C>(job: &Job<'d>, open: O, mut consume: C) -> ErrorBudget
where
    R: RecordReader,
    R::Item: Send,
    E: Send,
    H: FnMut() -> Option<E>,
    O: Fn(&'d [u8], RecoveryPolicy, ResumePoint) -> (R, H) + Sync,
    C: FnMut(R::Item, ParseDesc, Option<E>, &Progress),
{
    let Job { data, policy, resume, .. } = *job;
    let base = resume.offset.min(data.len());
    let plan = plan_shards(&data[base..], job.discipline, job.charset, job.jobs.max(1));
    // Workers cannot know how many errors earlier shards produced, so they
    // parse with source-level limits stripped; the merge (and the replay
    // path) applies the real policy. Per-record limits are positional and
    // stay.
    let stripped = RecoveryPolicy { max_errs: None, max_panic_skip: None, ..policy };

    let worker = |shard: &Shard, tx: ShardSender<(R::Item, ParseDesc), E>| {
        let start = ResumePoint {
            offset: base + shard.start,
            record: resume.record + shard.first_record,
            budget: ErrorBudget::new(),
        };
        let (mut reader, mut harvest) = open(&data[..base + shard.end], stripped, start);
        let mut prev = reader.budget();
        while let Some(item) = reader.next_record() {
            let after = reader.budget();
            let msg = RecordMsg {
                nerr: after.errs.saturating_sub(prev.errs) as u32,
                panic_skipped: after.panic_skipped.saturating_sub(prev.panic_skipped),
                end: reader.position(),
                extra: harvest(),
                item,
            };
            prev = after;
            if !tx.send(msg) {
                break;
            }
        }
    };

    // Sequential replay from the divergence boundary, carrying the merged
    // budget, under the full policy.
    let replay = |from: ResumePoint, emit: &mut Emit<'_, (R::Item, ParseDesc), E>| {
        let (mut reader, mut harvest) = open(data, policy, from);
        while let Some(item) = reader.next_record() {
            emit(item, reader.position(), reader.budget(), harvest());
        }
        reader.budget()
    };

    let start = ResumePoint { offset: base, ..resume };
    run_sharded(&plan, &policy, start, job.max_inflight, worker, replay, |(item, pd), extra, p| {
        consume(item, pd, extra, p)
    })
}

/// Parses a planned source on one thread per shard, streaming records
/// through bounded channels into an in-order merge that hands each record
/// to `consume` the moment its turn comes.
///
/// `worker` parses one shard, sending a [`RecordMsg`] per record through
/// its [`ShardSender`] (it must strip source-level limits from its policy —
/// see the module docs — and stop when `send` returns `false`). `replay`
/// parses sequentially from a [`ResumePoint`] **to the end of the plan**
/// under the full `policy`, calling its emit callback with
/// `(item, cursor_after_record, budget_after_record, extra)` per record and
/// returning the final budget. `consume` receives every merged record, in
/// record order, exactly once.
///
/// `start` is where the plan begins in the coordinates the workers report
/// positions in — byte offset and index of the plan's first record, and
/// the budget tally there (non-default when resuming from a checkpoint);
/// [`Progress`] and the replay's [`ResumePoint`] come out in the same
/// coordinates. With a single shard — or a carried budget already
/// exhausted or stopped — the whole plan goes through `replay`, which
/// streams with O(1) retention by construction.
///
/// Returns the final cumulative budget.
fn run_sharded<T, E, W, R, C>(
    plan: &ShardPlan,
    policy: &RecoveryPolicy,
    start: ResumePoint,
    max_inflight: usize,
    worker: W,
    replay: R,
    mut consume: C,
) -> ErrorBudget
where
    T: Send,
    E: Send,
    W: Fn(&Shard, ShardSender<T, E>) + Sync,
    R: FnOnce(ResumePoint, &mut Emit<'_, T, E>) -> ErrorBudget,
    C: FnMut(T, Option<E>, &Progress),
{
    let shards = &plan.shards;
    if start.budget.stopped() {
        // A stopped budget ends the parse before any record; nothing to do.
        return start.budget;
    }
    let mut cum = start.budget;
    let mut next_record = start.record;
    let mut divert: Option<ResumePoint> = None;
    if shards.len() <= 1 || cum.exhausted() {
        // One shard gains nothing from a worker thread, and an exhausted
        // carried budget degrades from the very first record: both stream
        // through the sequential engine directly.
        divert = Some(start);
    } else {
        thread::scope(|scope| {
            let worker = &worker;
            let mut handles = Vec::with_capacity(shards.len());
            let mut rxs = Vec::with_capacity(shards.len());
            for sh in shards {
                let (tx, rx) = mpsc::sync_channel(max_inflight.max(1));
                let sender = ShardSender { tx };
                handles.push(scope.spawn(move || worker(sh, sender)));
                rxs.push(rx);
            }
            let mut prev_end = start.offset;
            'merge: for (i, rx) in rxs.iter().enumerate() {
                for _ in 0..shards[i].records {
                    let Ok(msg) = rx.recv() else {
                        // The worker hung up short of its planned record
                        // count (panic safety net, or framing disagreement):
                        // sequential replay takes over from the last
                        // consumed boundary.
                        divert =
                            Some(ResumePoint { offset: prev_end, record: next_record, budget: cum });
                        break 'merge;
                    };
                    let before = cum;
                    cum.note_record(policy, msg.nerr, msg.panic_skipped);
                    if cum.exhausted() && !before.exhausted() {
                        // This record trips a source limit. Do not consume
                        // it: replay re-parses it under the full policy so
                        // the degradation (and its observer transition)
                        // lands exactly where the sequential engine puts it.
                        cum = before;
                        divert = Some(ResumePoint {
                            offset: prev_end,
                            record: next_record,
                            budget: before,
                        });
                        break 'merge;
                    }
                    consume(
                        msg.item,
                        msg.extra,
                        &Progress { record: next_record, end: msg.end, budget: cum },
                    );
                    next_record += 1;
                    prev_end = msg.end.offset;
                }
            }
            // Dropping the receivers unblocks any worker parked on a full
            // channel (its next send returns false); join to absorb worker
            // panics — a panicked shard already diverted to replay above.
            drop(rxs);
            for h in handles {
                let _ = h.join();
            }
        });
    }
    if let Some(from) = divert {
        let mut emit = |item: T, end: Pos, budget: ErrorBudget, extra: Option<E>| {
            consume(item, extra, &Progress { record: next_record, end, budget });
            next_record += 1;
        };
        cum = replay(from, &mut emit);
    }
    cum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Endian;
    use crate::recovery::OnExhausted;

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
        assert_eq!(plan.total_records(), expected_records);
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
        assert_eq!(plan.total_records(), 1);
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

    // A toy "parser" for run_sharded tests: each record is one newline-line;
    // lines containing 'X' count one error each. Workers stream each line
    // with its error delta and end offset; `extra` marks worker-parsed
    // records so tests can tell streamed output from replayed output.
    fn toy_worker(data: &[u8]) -> impl Fn(&Shard, ShardSender<String, u64>) + Sync + '_ {
        move |shard, tx| {
            for (line, end) in split_records(data, shard.start, shard.end) {
                let nerr = u32::from(line.contains(&b'X'));
                let msg = RecordMsg {
                    item: String::from_utf8_lossy(line).into_owned(),
                    nerr,
                    panic_skipped: 0,
                    end: at(end),
                    extra: Some(1),
                };
                if !tx.send(msg) {
                    break;
                }
            }
        }
    }

    // The sequential "engine": parses from the resume point to the source
    // end with the full policy, stopping/degrading as the policy dictates.
    fn toy_replay(
        data: &[u8],
        policy: RecoveryPolicy,
    ) -> impl FnOnce(ResumePoint, &mut Emit<'_, String, u64>) -> ErrorBudget + '_
    {
        move |from, emit| {
            let mut budget = from.budget;
            for (line, end) in split_records(data, from.offset, data.len()) {
                if budget.stopped() {
                    break;
                }
                if budget.exhausted() && policy.on_exhausted == OnExhausted::SkipRecord {
                    budget.note_skipped_record();
                    emit("<skipped>".to_owned(), at(end), budget, None);
                    continue;
                }
                let nerr = u32::from(line.contains(&b'X'));
                budget.note_record(&policy, nerr, 0);
                emit(String::from_utf8_lossy(line).into_owned(), at(end), budget, None);
            }
            budget
        }
    }

    fn at(offset: usize) -> Pos {
        Pos { offset, ..Pos::default() }
    }

    // Newline-framed records of `data[start..end]` with their absolute end
    // offsets (one past the terminator, or the slice end for a partial
    // final record).
    fn split_records(data: &[u8], start: usize, end: usize) -> Vec<(&[u8], usize)> {
        let mut out = Vec::new();
        let mut rec_start = start;
        for i in start..end {
            if data[i] == b'\n' {
                out.push((&data[rec_start..i], i + 1));
                rec_start = i + 1;
            }
        }
        if rec_start < end {
            out.push((&data[rec_start..end], end));
        }
        out
    }

    struct ToyRun {
        items: Vec<String>,
        budget: ErrorBudget,
        /// Records consumed from workers (vs. replayed).
        streamed: u64,
        progress: Vec<Progress>,
    }

    fn run_toy_resumed(
        data: &[u8],
        policy: RecoveryPolicy,
        jobs: usize,
        carried: ErrorBudget,
    ) -> ToyRun {
        let plan = newline_plan(data, jobs);
        let mut items = Vec::new();
        let mut streamed = 0;
        let mut progress = Vec::new();
        let budget = run_sharded(
            &plan,
            &policy,
            ResumePoint { budget: carried, ..ResumePoint::default() },
            4,
            toy_worker(data),
            toy_replay(data, policy),
            |item, extra, p: &Progress| {
                items.push(item);
                streamed += extra.unwrap_or(0);
                progress.push(*p);
            },
        );
        ToyRun { items, budget, streamed, progress }
    }

    fn run_toy(data: &[u8], policy: RecoveryPolicy, jobs: usize) -> ToyRun {
        run_toy_resumed(data, policy, jobs, ErrorBudget::new())
    }

    #[test]
    fn sharded_matches_sequential_without_limits() {
        let data = b"one\ntwo\nthrXe\nfour\nfive\nsiX\nseven\neight\n";
        let seq = run_toy(data, RecoveryPolicy::unlimited(), 1);
        for jobs in 2..=5 {
            let par = run_toy(data, RecoveryPolicy::unlimited(), jobs);
            assert_eq!(par.items, seq.items, "jobs={jobs}");
            assert_eq!(par.budget, seq.budget, "jobs={jobs}");
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
            let par = run_toy(data, policy, jobs);
            assert_eq!(par.items, seq.items, "jobs={jobs}");
            assert_eq!(par.budget, seq.budget, "jobs={jobs}");
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
            let par = run_toy(data, policy, jobs);
            assert_eq!(par.items, seq.items, "jobs={jobs}");
            assert_eq!(par.budget, seq.budget, "jobs={jobs}");
        }
    }

    #[test]
    fn clean_prefix_records_stream_before_a_trip() {
        // The trip is in the last shard: every record before it must have
        // been consumed straight off the worker channels, not replayed.
        let policy = RecoveryPolicy::unlimited().with_max_errs(0);
        let data = b"a\nb\nc\nd\ne\nf\ng\nXlast\n";
        let par = run_toy(data, policy, 4);
        let seq = run_toy(data, policy, 1);
        assert_eq!(par.items, seq.items);
        assert_eq!(par.budget, seq.budget);
        assert!(par.streamed >= 2, "clean prefix records should stream without replay");
        assert!(par.streamed < par.items.len() as u64, "the tripping record replays");
    }

    #[test]
    fn single_shard_plan_uses_replay_directly() {
        let policy = RecoveryPolicy::unlimited();
        let run = run_toy(b"only\n", policy, 1);
        assert_eq!(run.items, vec!["only".to_owned()]);
        assert_eq!(run.streamed, 0, "single-shard plans stream through replay");
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
        let data = b"a\nb\nc\nd\ne\nf\ng\nh\ni\nj\nk\nl\n";
        let plan = newline_plan(data, 3);
        let mut items = Vec::new();
        let policy = RecoveryPolicy::unlimited();
        let budget = run_sharded(
            &plan,
            &policy,
            ResumePoint::default(),
            1, // max_inflight: every worker blocks after one queued record
            toy_worker(data),
            toy_replay(data, policy),
            |item: String, _extra, _p: &Progress| items.push(item),
        );
        let seq = run_toy(data, policy, 1);
        assert_eq!(items, seq.items);
        assert_eq!(budget, seq.budget);
    }

    #[test]
    fn panicked_worker_diverts_to_replay() {
        let data = b"a\nb\nc\nd\ne\nf\ng\nh\n";
        let plan = newline_plan(data, 4);
        assert!(plan.shards.len() > 1);
        let panic_in = plan.shards[1].start..plan.shards[1].end;
        let policy = RecoveryPolicy::unlimited();
        let mut items = Vec::new();
        let budget = run_sharded(
            &plan,
            &policy,
            ResumePoint::default(),
            4,
            |shard: &Shard, tx: ShardSender<String, u64>| {
                assert!(shard.start != panic_in.start, "worker panic safety net");
                toy_worker(data)(shard, tx);
            },
            toy_replay(data, policy),
            |item: String, _extra, _p: &Progress| items.push(item),
        );
        let seq = run_toy(data, policy, 1);
        assert_eq!(items, seq.items);
        assert_eq!(budget, seq.budget);
    }
}
