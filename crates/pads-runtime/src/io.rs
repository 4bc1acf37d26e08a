//! The input cursor: byte-level reads bounded by record structure.
//!
//! The paper (§3, end) observes that the notion of a record varies by
//! encoding: ASCII sources delimit with newlines, binary sources use fixed
//! widths, and Cobol sources prefix each record with its length. PADS lets
//! the user pick a record *discipline* before parsing; a [`Cursor`] enforces
//! it by limiting every read to the current record, which is also what makes
//! panic-mode recovery possible (skip to the record boundary and resume).
//!
//! For the paper's very-large-source requirement (§1: netflow at 1 Gbit/s,
//! 300 M calls/day), a cursor never copies the input: it is a window over a
//! caller-owned byte slice, and the interpreter exposes record-at-a-time and
//! element-at-a-time entry points on top of it. The slice need not be the
//! whole source: a cursor [`with_base`](Cursor::with_base) reads a window
//! of it and reports every position — `offset()`, `position()`, each `Loc`,
//! each metrics event — in whole-source coordinates, while the byte access
//! in this file stays window-relative.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use pads_regex::Regex;

use crate::encoding::{Charset, Endian};
use crate::error::{ErrorCode, Loc, ParseState, Pos};
use crate::metrics::{MetricsHandle, RecoveryEvent};
use crate::pd::ParseDesc;
use crate::recovery::{ErrorBudget, OnExhausted, RecoveryPolicy};
use crate::scan;

/// A shared compiled-regex memo, keyed by pattern text. Cursors cloned from
/// one another (and all cursors built by one parser) share a single memo,
/// so each `Pre` pattern in a schema compiles once per parser, not once per
/// cursor or per call. `Pstring_ME`/`_SE` patterns can come from the data,
/// so the memo stops growing at [`REGEX_CACHE_CAPACITY`] entries: the
/// schema's patterns, met first, stay in it, and a pattern past the bound
/// compiles at each use.
pub type RegexCache = Rc<RefCell<HashMap<String, Rc<Regex>>>>;

/// Capacity of a parser's [`RegexCache`]; far above any realistic number
/// of distinct `Pre` patterns in one schema.
pub const REGEX_CACHE_CAPACITY: usize = 256;

/// A fresh empty [`RegexCache`].
pub fn new_regex_cache() -> RegexCache {
    Rc::default()
}

/// How a source is divided into records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordDiscipline {
    /// Records are terminated by `\n` (the PADS default for ASCII data).
    #[default]
    Newline,
    /// Every record is exactly this many bytes (binary call detail).
    FixedWidth(usize),
    /// Each record is preceded by its length (Cobol wire formats). The
    /// header itself is not part of the record content.
    LengthPrefixed {
        /// Size of the length header in bytes (2 or 4).
        header_bytes: usize,
        /// Byte order of the header.
        endian: Endian,
    },
    /// The whole source is one record.
    None,
}

/// The record length a [`RecordDiscipline::LengthPrefixed`] header encodes.
/// A length beyond `usize` saturates rather than overflows; it can never
/// fit a source, so [`frame_record`] reports it as a bad header.
pub fn length_prefix(header: &[u8], endian: Endian) -> usize {
    let fold = |len: usize, &b: &u8| len.checked_mul(256).map_or(usize::MAX, |l| l | b as usize);
    match endian {
        Endian::Big => header.iter().fold(0, fold),
        Endian::Little => header.iter().rev().fold(0, fold),
    }
}

/// Where one record lies in its source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// First byte of the record's content, past a length header.
    pub body: usize,
    /// One past the content's last byte; a terminator is not content.
    pub end: usize,
    /// Where the next record starts: `end`, past the terminator if any.
    pub next: usize,
    /// Whether the record ends inside `data` whatever a longer source goes
    /// on with: its newline, full width, or header and declared length are
    /// all there.
    pub closed: bool,
    /// The framing error of a record that is not closed: a fixed-width
    /// record or a length header that overruns the source, which leave the
    /// rest of the source as the record.
    pub error: Option<ErrorCode>,
}

/// Frames the record that starts at `pos <= data.len()`: the one framing
/// rule behind [`Cursor::begin_record`], the shard cutter and the source
/// driver's window cut. A zero-width record (`FixedWidth(0)`, an empty
/// length header) has `next == pos`; no reader gets past it.
#[inline]
pub fn frame_record(data: &[u8], disc: RecordDiscipline, newline: u8, pos: usize) -> Frame {
    let len = data.len();
    let closed = |body, end, next| Frame { body, end, next, closed: true, error: None };
    let rest = |body, error| Frame { body, end: len, next: len, closed: false, error };
    match disc {
        RecordDiscipline::Newline => match scan::find_byte(&data[pos..], newline) {
            Some(i) => closed(pos, pos + i, pos + i + 1),
            None => rest(pos, None),
        },
        RecordDiscipline::FixedWidth(n) if n <= len - pos => closed(pos, pos + n, pos + n),
        RecordDiscipline::FixedWidth(_) => rest(pos, Some(ErrorCode::RecordTooShort)),
        RecordDiscipline::LengthPrefixed { header_bytes, endian } => {
            if header_bytes > len - pos {
                return rest(pos, Some(ErrorCode::BadRecordHeader));
            }
            let body = pos + header_bytes;
            let rec_len = length_prefix(&data[pos..body], endian);
            if rec_len <= len - body {
                closed(body, body + rec_len, body + rec_len)
            } else {
                rest(body, Some(ErrorCode::BadRecordHeader))
            }
        }
        RecordDiscipline::None => rest(pos, None),
    }
}

/// A saved cursor state, used to backtrack after failed union branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    pos: usize,
    bit_off: u8,
    rec_index: usize,
    rec_start: usize,
    rec_end: Option<usize>,
}

/// Outcome of closing a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordClose {
    /// Bytes that were skipped because the parser had not consumed the
    /// whole record.
    pub skipped: usize,
}

/// Outcome of [`Cursor::open_record`].
#[derive(Debug, Clone, PartialEq)]
pub enum RecordOpen {
    /// A record was already open: nested `Precord` types share the outer
    /// record, and the outer type closes it.
    Nested,
    /// This call opened the record, so the caller closes it with
    /// [`Cursor::close_record`] after parsing the body. A framing error
    /// (short fixed-width record, bad length header) rides along for the
    /// caller to add to the record's descriptor.
    Opened(Option<(ErrorCode, Loc)>),
    /// Nothing to parse: the source is exhausted, or the budget is spent
    /// in skip mode and the record was framed and skipped wholesale. The
    /// descriptor is final; the value is the type's default.
    Done(ParseDesc),
}

/// A read-only parsing cursor over a byte source.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    data: &'a [u8],
    /// Whole-source offset of `data[0]`; `pos`, `rec_start` and `rec_end`
    /// index `data`.
    base: usize,
    pos: usize,
    /// Bits of `data[pos]` already consumed by `read_bits` (0–7). Byte-level
    /// reads align forward, discarding any partial byte (C bit-field padding
    /// semantics).
    bit_off: u8,
    charset: Charset,
    endian: Endian,
    disc: RecordDiscipline,
    rec_index: usize,
    rec_start: usize,
    rec_end: Option<usize>,
    regexes: RegexCache,
    policy: RecoveryPolicy,
    budget: ErrorBudget,
    obs: Observation,
}

/// What observes a cursor's parse: nothing, or a dense-id metrics core
/// (see [`crate::metrics`]) that clones of the cursor share. Which of the
/// two attached tiers applies is decided once, at attach time.
#[derive(Debug, Clone)]
enum Observation {
    Off,
    /// The core only counts: exits bump its slabs, and event-eliding fast
    /// paths may feed it statically-known bumps instead of events.
    Counting(MetricsHandle),
    /// The core's profiler or trace needs every enter/exit event, so
    /// event-eliding fast paths stand down.
    Events(MetricsHandle),
}

impl<'a> Cursor<'a> {
    /// Creates a cursor with the default newline record discipline, ASCII
    /// ambient charset, and big-endian ambient byte order.
    pub fn new(data: &'a [u8]) -> Cursor<'a> {
        Cursor {
            data,
            base: 0,
            pos: 0,
            bit_off: 0,
            charset: Charset::Ascii,
            endian: Endian::Big,
            disc: RecordDiscipline::Newline,
            rec_index: 0,
            rec_start: 0,
            rec_end: None,
            regexes: new_regex_cache(),
            policy: RecoveryPolicy::default(),
            budget: ErrorBudget::new(),
            obs: Observation::Off,
        }
    }

    /// Declares the slice a window of a larger source whose byte `base` is
    /// the slice's first (builder style, before any positioning): every
    /// offset the cursor takes or reports is then a whole-source one.
    pub fn with_base(mut self, base: usize) -> Cursor<'a> {
        self.base = base;
        self
    }

    /// Whole-source offset of the first byte of the slice.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Positions the cursor at a committed record boundary (builder style):
    /// byte `offset` becomes the start of record number `record`. Used by
    /// resume paths that re-open a source at a checkpoint; `offset` is
    /// clamped to the slice.
    pub fn with_start(mut self, offset: usize, record: usize) -> Cursor<'a> {
        self.seek(offset, record);
        self
    }

    /// Moves the cursor to byte `offset`, a record boundary where record
    /// number `record` starts. The budget tally is left as it is.
    pub fn seek(&mut self, offset: usize, record: usize) {
        let offset = offset.saturating_sub(self.base).min(self.data.len());
        self.pos = offset;
        self.bit_off = 0;
        self.rec_start = offset;
        self.rec_end = None;
        self.rec_index = record;
    }

    /// Sets the record discipline (builder style).
    pub fn with_discipline(mut self, disc: RecordDiscipline) -> Cursor<'a> {
        self.disc = disc;
        self
    }

    /// Sets the ambient charset (builder style).
    pub fn with_charset(mut self, charset: Charset) -> Cursor<'a> {
        self.charset = charset;
        self
    }

    /// Sets the ambient byte order for binary base types (builder style).
    pub fn with_endian(mut self, endian: Endian) -> Cursor<'a> {
        self.endian = endian;
        self
    }

    /// Sets the error-budget policy (builder style).
    pub fn with_policy(mut self, policy: RecoveryPolicy) -> Cursor<'a> {
        self.policy = policy;
        self
    }

    /// Attaches a dense-id metrics core (builder style). Clones of the
    /// cursor share the same core. Events feed flat counter slabs by node
    /// id, and a counting core keeps the generated event-eliding fast
    /// paths (a profiling or tracing one needs every event).
    pub fn with_metrics(mut self, core: MetricsHandle) -> Cursor<'a> {
        self.obs = if core.borrow().wants_events() {
            Observation::Events(core)
        } else {
            Observation::Counting(core)
        };
        self
    }

    /// Shares a compiled-regex cache (builder style). Parsers seed every
    /// cursor they build with one per-parser cache so `Pre` patterns
    /// compile once per schema.
    pub fn with_regex_cache(mut self, cache: RegexCache) -> Cursor<'a> {
        self.regexes = cache;
        self
    }

    /// The active recovery policy.
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// The running error-budget tally.
    pub fn budget(&self) -> ErrorBudget {
        self.budget
    }

    /// Replaces the budget tally. Used by streaming front-ends that build a
    /// fresh per-record cursor but must carry the source-level tally across
    /// records.
    pub fn set_budget(&mut self, budget: ErrorBudget) {
        self.budget = budget;
    }

    /// Folds one closed record's error count and panic-skip bytes into the
    /// budget, applying the policy. Both parsing engines call this exactly
    /// once per record they close.
    ///
    /// Because this is the single shared accounting point, the recovery
    /// events it emits (panic-mode skips and the budget-exhaustion
    /// transition) are identical between the interpreter and generated
    /// code by construction.
    pub fn note_record_errors(&mut self, nerr: u32, panic_skipped: u64) {
        let was_exhausted = self.budget.exhausted();
        self.budget.note_record(&self.policy, nerr, panic_skipped);
        let exhausted_now = !was_exhausted && self.budget.exhausted();
        if panic_skipped > 0 || exhausted_now {
            if let Some(core) = self.core() {
                let mut c = core.borrow_mut();
                let at = self.offset();
                if panic_skipped > 0 {
                    c.note_recovery(RecoveryEvent::PanicSkip { bytes: panic_skipped }, at);
                }
                if exhausted_now {
                    let mode = self.policy.on_exhausted;
                    c.note_recovery(RecoveryEvent::BudgetExhausted { mode }, at);
                }
            }
        }
    }

    /// Records one record skipped wholesale under
    /// [`OnExhausted::SkipRecord`].
    pub fn note_skipped_record(&mut self) {
        self.budget.note_skipped_record();
        if let Some(core) = self.core() {
            core.borrow_mut().note_recovery(RecoveryEvent::SkipRecord, self.offset());
        }
    }

    fn core(&self) -> Option<&MetricsHandle> {
        match &self.obs {
            Observation::Off => None,
            Observation::Counting(core) | Observation::Events(core) => Some(core),
        }
    }

    /// Whether a metrics core is attached. Hot paths test this once and
    /// skip event construction entirely when it is false.
    #[inline]
    pub fn observing(&self) -> bool {
        !matches!(self.obs, Observation::Off)
    }

    /// Emits a type-enter event at the current position for the type with
    /// dense node id `id` (see [`crate::metrics::ObsSchema`]). Only a
    /// profiling or tracing core hears it; a counting core needs exits
    /// alone.
    #[inline]
    pub fn observe_enter_id(&self, id: u32) {
        if let Observation::Events(core) = &self.obs {
            core.borrow_mut().enter_id(id, self.offset());
        }
    }

    /// Emits a type-exit event for a parse of type `id` entered at byte
    /// `start_off` whose final descriptor is `pd` — the metrics hot path:
    /// one counter-slab bump on the core, no string work.
    #[inline]
    pub fn observe_exit_id(&self, id: u32, start_off: usize, pd: &ParseDesc) {
        if let Some(core) = self.core() {
            core.borrow_mut().exit_id(id, start_off, self.offset(), pd.nerr);
        }
    }

    /// Emits a source-level error event (root errors such as
    /// `ExtraDataAtEof` that are attached outside any record).
    #[inline]
    pub fn observe_error(&self, code: ErrorCode, loc: Loc) {
        if let Some(core) = self.core() {
            core.borrow_mut().note_error_at("", code, Some(loc.begin.offset));
        }
    }

    /// Emits one error event per descriptor error, then the
    /// record-boundary event, for a record that just closed (or was
    /// skipped wholesale). Both engines call this from their record-close
    /// paths after truncation, so the event streams agree by construction.
    ///
    /// Errors are counted through the allocation-free
    /// [`ParseDesc::visit_error_codes`] walk; only a tracing core makes
    /// this build the `(path, code, loc)` triples.
    pub fn observe_record_close(&self, pd: &ParseDesc) {
        let Some(core) = self.core() else { return };
        let mut c = core.borrow_mut();
        if pd.nerr > 0 {
            if c.tracing() {
                for (path, code, loc) in pd.errors() {
                    c.note_error_at(&path, code, loc.map(|l| l.begin.offset));
                }
            } else {
                pd.visit_error_codes(&mut |code| c.note_error(code));
            }
        }
        let index = self.rec_index.saturating_sub(1);
        c.note_record(index, self.base + self.rec_start, self.offset(), pd.nerr);
    }

    /// Whether the budget is exhausted and further records should be framed
    /// but not parsed.
    pub fn skip_records(&self) -> bool {
        self.budget.exhausted() && self.policy.on_exhausted == OnExhausted::SkipRecord
    }

    /// Whether the budget is exhausted and descriptors should be flattened
    /// to their aggregate counts.
    pub fn best_effort(&self) -> bool {
        self.budget.exhausted() && self.policy.on_exhausted == OnExhausted::BestEffort
    }

    /// Whether the budget tripped in [`OnExhausted::Stop`] mode. When true,
    /// [`at_eof`](Cursor::at_eof) also reports true so iteration ends.
    pub fn stopped(&self) -> bool {
        self.budget.stopped()
    }

    /// The ambient charset.
    pub fn charset(&self) -> Charset {
        self.charset
    }

    /// The ambient byte order.
    pub fn endian(&self) -> Endian {
        self.endian
    }

    /// The record discipline.
    pub fn discipline(&self) -> RecordDiscipline {
        self.disc
    }

    /// Current absolute byte offset. When bits of the current byte have
    /// been consumed by [`read_bits`](Cursor::read_bits), this is the next
    /// *whole* byte (partial bytes pad forward, like C bit fields).
    pub fn offset(&self) -> usize {
        self.base + self.at()
    }

    /// Current absolute position in bits. Unlike
    /// [`offset`](Cursor::offset) it does not round a partially read byte
    /// up, so a zero-width guard comparing it sees a sub-byte read as
    /// progress.
    pub fn bit_offset(&self) -> u64 {
        (self.base + self.pos) as u64 * 8 + u64::from(self.bit_off)
    }

    /// Whether a byte is partly read. [`at_eor`](Cursor::at_eor) and
    /// [`at_eof`](Cursor::at_eof) treat its unread bits as padding, as C
    /// bit fields do; an unsized array tests this first so that the bits
    /// still hold further sub-byte elements.
    pub fn mid_byte(&self) -> bool {
        self.bit_off != 0
    }

    /// [`offset`](Cursor::offset) as an index into the slice.
    #[inline]
    fn at(&self) -> usize {
        self.pos + (self.bit_off != 0) as usize
    }

    /// Discards any partially consumed byte, aligning to the next byte
    /// boundary.
    fn align(&mut self) {
        if self.bit_off != 0 {
            self.bit_off = 0;
            self.pos += 1;
        }
    }

    /// Reads `n` bits (1–64), most significant bit of each byte first,
    /// crossing byte boundaries as needed — the §9 bit-field construct.
    ///
    /// # Errors
    ///
    /// * [`ErrorCode::EvalError`] when `n` is 0 or greater than 64.
    /// * [`ErrorCode::UnexpectedEor`] / [`ErrorCode::UnexpectedEof`] when
    ///   the record or source ends mid-read (no bits are un-consumed).
    pub fn read_bits(&mut self, n: u32) -> Result<u64, ErrorCode> {
        if n == 0 || n > 64 {
            return Err(ErrorCode::EvalError);
        }
        let mut v: u64 = 0;
        for _ in 0..n {
            if self.pos >= self.limit() {
                return Err(if self.in_record() {
                    ErrorCode::UnexpectedEor
                } else {
                    ErrorCode::UnexpectedEof
                });
            }
            let bit = (self.data[self.pos] >> (7 - self.bit_off)) & 1;
            v = (v << 1) | bit as u64;
            self.bit_off += 1;
            if self.bit_off == 8 {
                self.bit_off = 0;
                self.pos += 1;
            }
        }
        Ok(v)
    }

    /// Full position (record coordinates included).
    pub fn position(&self) -> Pos {
        let p = self.at();
        Pos {
            offset: self.base + p,
            record: self.rec_index,
            byte: p.saturating_sub(self.rec_start),
        }
    }

    /// Whether the cursor is inside an open record.
    pub fn in_record(&self) -> bool {
        self.rec_end.is_some()
    }

    /// Exclusive upper bound for reads, as an index into the slice: the
    /// current record end, or the end of the slice when no record is open.
    fn limit(&self) -> usize {
        self.rec_end.unwrap_or(self.data.len())
    }

    /// Bytes available before the read limit (a partially consumed byte
    /// does not count).
    pub fn remaining(&self) -> usize {
        self.limit().saturating_sub(self.at())
    }

    /// Whether the source is exhausted. Also true once the error budget has
    /// tripped in [`OnExhausted::Stop`] mode: the remaining input is
    /// deliberately left unread, and every loop conditioned on end-of-input
    /// terminates without reporting further errors.
    pub fn at_eof(&self) -> bool {
        self.budget.stopped() || self.at() >= self.data.len()
    }

    /// Whether the cursor sits at the end of the current record. Outside an
    /// open record this reports whether the next byte is a record boundary
    /// under the discipline (newline, or end of source).
    pub fn at_eor(&self) -> bool {
        match self.rec_end {
            Some(end) => self.at() >= end,
            None => match self.disc {
                RecordDiscipline::Newline => {
                    self.at_eof() || self.data[self.at()] == self.charset.encode(b'\n')
                }
                _ => self.at_eof(),
            },
        }
    }

    /// Opens the record beginning at the current position. A no-op when a
    /// record is already open (nested `Precord` types share the outer
    /// record).
    ///
    /// # Errors
    ///
    /// * [`ErrorCode::UnexpectedEof`] at end of source.
    /// * [`ErrorCode::RecordTooShort`] when a fixed-width record overruns
    ///   the source; the record is truncated to the available bytes.
    /// * [`ErrorCode::BadRecordHeader`] when a length-prefixed header is
    ///   malformed or overruns; the rest of the source becomes the record.
    pub fn begin_record(&mut self) -> Result<(), ErrorCode> {
        if self.in_record() {
            return Ok(());
        }
        if self.at_eof() {
            return Err(ErrorCode::UnexpectedEof);
        }
        self.align();
        let frame = frame_record(self.data, self.disc, self.charset.encode(b'\n'), self.pos);
        self.pos = frame.body;
        self.rec_start = frame.body;
        self.rec_end = Some(frame.end);
        frame.error.map_or(Ok(()), Err)
    }

    /// Closes the current record: skips any unconsumed bytes, consumes the
    /// record terminator if the discipline has one, and bumps the record
    /// index. Returns how many content bytes were skipped.
    pub fn end_record(&mut self) -> RecordClose {
        self.align();
        let end = self.limit();
        let skipped = end.saturating_sub(self.pos);
        self.pos = end;
        if let RecordDiscipline::Newline = self.disc {
            if self.pos < self.data.len() && self.data[self.pos] == self.charset.encode(b'\n') {
                self.pos += 1;
            }
        }
        self.rec_end = None;
        self.rec_index += 1;
        RecordClose { skipped }
    }

    /// Opens the record a `Precord` type starts at, applying the recovery
    /// policy: the one record-open rule shared by the bytecode VM and the
    /// generated parsers (the interpreter keeps its own inline copy as the
    /// oracle the equivalence suites compare against).
    pub fn open_record(&mut self) -> RecordOpen {
        if self.in_record() {
            return RecordOpen::Nested;
        }
        if self.skip_records() && !self.at_eof() {
            // Budget exhausted in skip mode: frame the record and skip it
            // wholesale instead of parsing it (graceful degradation,
            // mirroring the C runtime's `Pmax_errs` behaviour). The
            // record-relative byte of a record's own start is 0; the
            // cursor's tracking still points at the previous record here
            // (and a resumed cursor has no previous record at all).
            let start = Pos { byte: 0, ..self.position() };
            // A record whose framing fails (a fixed-width tail cut short, a
            // length header that overruns) is the rest of the source: skipped
            // and closed like any other, not left open for the next to nest in.
            let _ = self.begin_record();
            let _ = self.end_record();
            let mut pd =
                ParseDesc::error(ErrorCode::BudgetExhausted, Loc::new(start, self.position()));
            pd.state = ParseState::Panic;
            self.note_skipped_record();
            self.observe_record_close(&pd);
            return RecordOpen::Done(pd);
        }
        match self.begin_record() {
            Ok(()) => RecordOpen::Opened(None),
            Err(ErrorCode::UnexpectedEof) => {
                let mut pd = ParseDesc::error(ErrorCode::UnexpectedEof, Loc::at(self.position()));
                pd.state = ParseState::Partial;
                RecordOpen::Done(pd)
            }
            Err(code) => RecordOpen::Opened(Some((code, Loc::at(self.position())))),
        }
    }

    /// Closes a record [`open_record`](Cursor::open_record) reported as
    /// [`RecordOpen::Opened`], with `pd` the record's finished descriptor:
    /// panic-mode resynchronisation after a syntax error (the skipped span
    /// is recorded so consumed + skipped = record length), trailing-data
    /// detection otherwise, the per-record detail cap, the budget charge,
    /// best-effort flattening, and the record-close observation.
    pub fn close_record(&mut self, pd: &mut ParseDesc) {
        let mut panic_skipped = 0u64;
        if pd.has_syntax_error() {
            let at = self.position();
            let close = self.end_record();
            if close.skipped > 0 {
                let end = Pos {
                    offset: at.offset + close.skipped,
                    record: at.record,
                    byte: at.byte + close.skipped,
                };
                pd.note_panic_skip(Loc::new(at, end));
                panic_skipped = close.skipped as u64;
            }
        } else {
            if !self.at_eor() {
                pd.add_error(ErrorCode::ExtraDataBeforeEor, Loc::at(self.position()));
            }
            panic_skipped = self.end_record().skipped as u64;
        }
        // Per-record error cap: keep the aggregate counts truthful but
        // drop the per-node detail once a record exceeds the cap.
        if self.policy.max_record_errs.is_some_and(|cap| pd.nerr > cap) {
            pd.truncate_detail();
        }
        self.note_record_errors(pd.nerr, panic_skipped);
        if self.best_effort() {
            pd.truncate_detail();
        }
        self.observe_record_close(pd);
    }

    /// Saves the cursor state for later [`restore`](Cursor::restore).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            pos: self.pos,
            bit_off: self.bit_off,
            rec_index: self.rec_index,
            rec_start: self.rec_start,
            rec_end: self.rec_end,
        }
    }

    /// Restores a previously saved state.
    pub fn restore(&mut self, cp: Checkpoint) {
        self.pos = cp.pos;
        self.bit_off = cp.bit_off;
        self.rec_index = cp.rec_index;
        self.rec_start = cp.rec_start;
        self.rec_end = cp.rec_end;
    }

    /// The next raw byte within the read limit, without consuming it
    /// (skipping any partially consumed byte).
    pub fn peek(&self) -> Option<u8> {
        let p = self.at();
        (p < self.limit()).then(|| self.data[p])
    }

    /// The raw byte `i` positions ahead, within the read limit.
    pub fn peek_at(&self, i: usize) -> Option<u8> {
        let p = self.at() + i;
        (p < self.limit()).then(|| self.data[p])
    }

    /// Consumes and returns the next raw byte within the limit.
    pub fn next_byte(&mut self) -> Option<u8> {
        self.align();
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// Advances by `n` bytes, clamped to the read limit. Returns how many
    /// bytes were actually consumed.
    pub fn advance(&mut self, n: usize) -> usize {
        self.align();
        let take = n.min(self.remaining());
        self.pos += take;
        take
    }

    /// Consumes exactly `n` raw bytes, or fails without consuming.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ErrorCode> {
        if self.remaining() < n {
            return Err(if self.in_record() {
                ErrorCode::UnexpectedEor
            } else {
                ErrorCode::UnexpectedEof
            });
        }
        self.align();
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The unread bytes of the current record (or source).
    pub fn rest(&self) -> &'a [u8] {
        &self.data[self.at()..self.limit()]
    }

    /// Distance to the first occurrence of raw byte `b` within the limit.
    /// The record bound is applied once — `rest()` is a slice ending at
    /// the read limit — and the scan kernel runs on the slice
    /// with no per-byte limit checks.
    pub fn find_byte(&self, b: u8) -> Option<usize> {
        scan::find_byte(self.rest(), b)
    }

    /// Length of the longest run of bytes at the cursor that are members of
    /// `class`, bounded by the record limit.
    pub fn skip_class(&self, class: &scan::ClassBitmap) -> usize {
        scan::skip_class(self.rest(), class)
    }

    /// Matches the raw byte sequence `raw` at the cursor, consuming it on
    /// success.
    pub fn match_bytes(&mut self, raw: &[u8]) -> bool {
        if self.rest().starts_with(raw) {
            self.align();
            self.pos += raw.len();
            true
        } else {
            false
        }
    }

    /// Returns the compiled regex for `pattern`, caching compilations in
    /// the shared [`RegexCache`] (per parser, surviving across cursors).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::RegexMismatch`] when the pattern itself is invalid.
    pub fn regex(&mut self, pattern: &str) -> Result<Rc<Regex>, ErrorCode> {
        if let Some(re) = self.regexes.borrow().get(pattern) {
            return Ok(Rc::clone(re));
        }
        let re = Rc::new(Regex::new(pattern).map_err(|_| ErrorCode::RegexMismatch)?);
        let mut memo = self.regexes.borrow_mut();
        if memo.len() < REGEX_CACHE_CAPACITY {
            memo.insert(pattern.to_owned(), Rc::clone(&re));
        }
        Ok(re)
    }

    /// Matches `re` at the cursor against the current record contents,
    /// consuming the longest match. Returns the matched raw bytes.
    pub fn match_regex(&mut self, re: &Regex) -> Option<&'a [u8]> {
        let hay = self.rest();
        let end = re.match_at(hay, 0)?;
        let s = &hay[..end];
        self.align();
        self.pos += end;
        Some(s)
    }

    /// The entire underlying slice.
    pub fn source(&self) -> &'a [u8] {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newline_records() {
        let mut c = Cursor::new(b"ab\ncd\n");
        c.begin_record().unwrap();
        assert_eq!(c.remaining(), 2);
        assert_eq!(c.next_byte(), Some(b'a'));
        assert_eq!(c.next_byte(), Some(b'b'));
        assert!(c.at_eor());
        assert_eq!(c.next_byte(), None);
        let close = c.end_record();
        assert_eq!(close.skipped, 0);
        c.begin_record().unwrap();
        assert_eq!(c.rest(), b"cd");
        let close = c.end_record();
        assert_eq!(close.skipped, 2);
        assert!(c.at_eof());
        assert!(c.begin_record().is_err());
    }

    #[test]
    fn a_partly_read_last_byte_is_padding() {
        // The calls a generated parser makes around a record and a source
        // whose bit fields end mid-byte: no leftover data either time.
        let mut c = Cursor::new(b"\xab\xcd").with_discipline(RecordDiscipline::FixedWidth(2));
        assert!(matches!(c.open_record(), RecordOpen::Opened(None)));
        assert_eq!(c.read_bits(12), Ok(0xabc));
        assert!(c.mid_byte() && c.at_eor());
        let mut pd = ParseDesc::ok();
        c.close_record(&mut pd);
        assert!(pd.is_ok() && !c.mid_byte() && c.at_eof());
        let mut c = Cursor::new(b"\xab");
        assert_eq!(c.read_bits(4), Ok(0xa));
        assert!(c.mid_byte() && c.at_eof());
    }

    #[test]
    fn last_record_without_newline() {
        let mut c = Cursor::new(b"ab\ncd");
        c.begin_record().unwrap();
        c.end_record();
        c.begin_record().unwrap();
        assert_eq!(c.rest(), b"cd");
        c.end_record();
        assert!(c.at_eof());
    }

    #[test]
    fn fixed_width_records() {
        let mut c = Cursor::new(b"aabbc").with_discipline(RecordDiscipline::FixedWidth(2));
        c.begin_record().unwrap();
        assert_eq!(c.rest(), b"aa");
        c.end_record();
        c.begin_record().unwrap();
        assert_eq!(c.rest(), b"bb");
        c.end_record();
        // Short trailing record.
        assert_eq!(c.begin_record(), Err(ErrorCode::RecordTooShort));
        assert_eq!(c.rest(), b"c");
    }

    #[test]
    fn length_prefixed_records() {
        let data = [0u8, 3, b'x', b'y', b'z', 0, 1, b'q'];
        let mut c = Cursor::new(&data).with_discipline(RecordDiscipline::LengthPrefixed {
            header_bytes: 2,
            endian: Endian::Big,
        });
        c.begin_record().unwrap();
        assert_eq!(c.rest(), b"xyz");
        c.end_record();
        c.begin_record().unwrap();
        assert_eq!(c.rest(), b"q");
        c.end_record();
        assert!(c.at_eof());
    }

    #[test]
    fn length_prefixed_overrun_is_flagged() {
        let data = [0u8, 9, b'x'];
        let mut c = Cursor::new(&data).with_discipline(RecordDiscipline::LengthPrefixed {
            header_bytes: 2,
            endian: Endian::Big,
        });
        assert_eq!(c.begin_record(), Err(ErrorCode::BadRecordHeader));
        assert_eq!(c.rest(), b"x");
    }

    #[test]
    fn reads_are_limited_to_record() {
        let mut c = Cursor::new(b"ab|cd\nxx\n");
        c.begin_record().unwrap();
        assert_eq!(c.find_byte(b'x'), None);
        assert_eq!(c.find_byte(b'|'), Some(2));
        assert!(c.take(9).is_err());
        assert_eq!(c.take(5).unwrap(), b"ab|cd");
    }

    #[test]
    fn checkpoint_restores_position() {
        let mut c = Cursor::new(b"hello\n");
        c.begin_record().unwrap();
        let cp = c.checkpoint();
        c.advance(3);
        assert_eq!(c.position().byte, 3);
        c.restore(cp);
        assert_eq!(c.position().byte, 0);
        assert_eq!(c.rest(), b"hello");
    }

    #[test]
    fn match_bytes_and_regex() {
        let mut c = Cursor::new(b"HTTP/1.0 rest\n");
        c.begin_record().unwrap();
        assert!(c.match_bytes(b"HTTP/"));
        assert!(!c.match_bytes(b"2.0"));
        let re = c.regex(r"\d+\.\d+").unwrap();
        assert_eq!(c.match_regex(&re), Some(&b"1.0"[..]));
        assert_eq!(c.position().byte, 8);
    }

    /// Patterns that come from the data fill the memo to its bound and no
    /// further; past it a pattern compiles at each use and matches as a
    /// memoised one does.
    #[test]
    fn the_regex_memo_stops_at_its_capacity() {
        let memo = new_regex_cache();
        for round in 0..2 {
            for i in 0..REGEX_CACHE_CAPACITY + 40 {
                let mut c = Cursor::new(b"aaab\n").with_regex_cache(Rc::clone(&memo));
                c.begin_record().unwrap();
                let re = c.regex(&format!("z{i}|a+")).unwrap();
                assert_eq!(c.match_regex(&re), Some(&b"aaa"[..]), "round {round}, pattern {i}");
                assert!(memo.borrow().len() <= REGEX_CACHE_CAPACITY);
            }
        }
        assert_eq!(memo.borrow().len(), REGEX_CACHE_CAPACITY);
        assert!(memo.borrow().contains_key("z0|a+"), "the first patterns stay");
    }

    #[test]
    fn position_tracks_records() {
        let mut c = Cursor::new(b"a\nb\n");
        c.begin_record().unwrap();
        c.end_record();
        c.begin_record().unwrap();
        let p = c.position();
        assert_eq!(p.record, 1);
        assert_eq!(p.byte, 0);
        assert_eq!(p.offset, 2);
    }

    #[test]
    fn a_window_reports_whole_source_positions() {
        // Bytes 100.. of some source; record 7 starts at its byte 103.
        let mut c = Cursor::new(b"cd\nef\n").with_base(100).with_start(103, 7);
        c.begin_record().unwrap();
        assert_eq!(c.rest(), b"ef");
        c.advance(1);
        assert_eq!(c.position(), Pos { offset: 104, record: 7, byte: 1 });
        c.end_record();
        assert_eq!((c.offset(), c.at_eof()), (106, true));
        c.seek(100, 6);
        assert_eq!(c.peek(), Some(b'c'));
    }

    #[test]
    fn length_prefixed_oversized_header_is_flagged_not_panicked() {
        // A 16-byte header cannot fit in usize; the length saturates and the
        // overrun check reports BadRecordHeader instead of overflowing.
        let data = [0xFFu8; 20];
        let mut c = Cursor::new(&data).with_discipline(RecordDiscipline::LengthPrefixed {
            header_bytes: 16,
            endian: Endian::Big,
        });
        assert_eq!(c.begin_record(), Err(ErrorCode::BadRecordHeader));
        // The rest of the source became the record; closing drains it.
        let close = c.end_record();
        assert_eq!(close.skipped, 4);
        assert!(c.at_eof());
    }

    #[test]
    fn length_prefixed_truncated_header_is_flagged() {
        let data = [0u8];
        let mut c = Cursor::new(&data).with_discipline(RecordDiscipline::LengthPrefixed {
            header_bytes: 2,
            endian: Endian::Big,
        });
        assert_eq!(c.begin_record(), Err(ErrorCode::BadRecordHeader));
    }

    #[test]
    fn checkpoint_round_trips_partial_byte_reads() {
        let mut c = Cursor::new(&[0b1011_0001, 0b1110_0000]);
        assert_eq!(c.read_bits(3).unwrap(), 0b101);
        let cp = c.checkpoint();
        assert_eq!(c.read_bits(7).unwrap(), 0b1_0001_11);
        c.restore(cp);
        // bit_off must be restored: the same 7 bits read again.
        assert_eq!(c.read_bits(7).unwrap(), 0b1_0001_11);
        c.restore(cp);
        // Byte-aligned reads after restore pad forward past the partial byte.
        assert_eq!(c.offset(), 1);
        assert_eq!(c.next_byte(), Some(0b1110_0000));
    }

    #[test]
    fn stop_mode_budget_makes_cursor_report_eof() {
        let policy = RecoveryPolicy::unlimited().with_max_errs(1);
        let mut c = Cursor::new(b"a\nb\nc\n").with_policy(policy);
        c.begin_record().unwrap();
        c.end_record();
        c.note_record_errors(2, 0);
        assert!(c.stopped());
        assert!(c.at_eof());
        assert!(c.begin_record().is_err());
    }

    #[test]
    fn skip_and_best_effort_modes_do_not_stop() {
        let policy =
            RecoveryPolicy::unlimited().with_max_errs(0).with_on_exhausted(OnExhausted::SkipRecord);
        let mut c = Cursor::new(b"a\nb\n").with_policy(policy);
        c.note_record_errors(1, 0);
        assert!(c.skip_records());
        assert!(!c.best_effort());
        assert!(!c.at_eof());

        let policy =
            RecoveryPolicy::unlimited().with_max_errs(0).with_on_exhausted(OnExhausted::BestEffort);
        let mut c = Cursor::new(b"a\nb\n").with_policy(policy);
        c.note_record_errors(1, 0);
        assert!(c.best_effort());
        assert!(!c.skip_records());
        assert!(!c.at_eof());
    }

    #[test]
    fn ebcdic_newline_discipline() {
        // EBCDIC LF is 0x25.
        let data = [0xC1, 0x25, 0xC2, 0x25];
        let mut c = Cursor::new(&data).with_charset(Charset::Ebcdic);
        c.begin_record().unwrap();
        assert_eq!(c.rest(), &[0xC1]);
        c.end_record();
        c.begin_record().unwrap();
        assert_eq!(c.rest(), &[0xC2]);
    }
}
