//! The record-at-a-time source driver.
//!
//! §4 of the paper gives a generated library several entry points so that
//! sources too big to hold (Sirius: 2.2 GB a week) are read "a record at a
//! time", and §5.2 observes that ad hoc sources are "often simply a
//! sequence of records, perhaps prefixed by a header". This module is that
//! pattern as one driver: [`PadsParser::stream_source`] parses the optional
//! header with the source cursor, then hands every record — value,
//! descriptor, whole-source [`Progress`] — to a [`RecordSink`] and drops
//! it. Sequential and sharded runs feed the same sink in the same order.
//!
//! [`SourceFold`] is the sink that stands in for the whole-source
//! descriptor: it folds the per-record descriptors by the struct and array
//! rules [`PadsParser::parse_source`] applies, so a report (or the
//! aggregate `<pd>` of an XML rendering) comes out identical to the
//! whole-tree parse while only one record is ever live — and, asked to
//! [`observe`](SourceFold::observe), a metrics core hears the same events.
//! [`SourceShape::infer`] says which sources that holds for.

use std::io::{self, Read};

use pads_check::ir::{MemberIr, Schema, TyUse, TypeId, TypeKind};
use pads_runtime::par::{self, Job, Progress};
use pads_runtime::{
    ErrorBudget, ErrorCode, Loc, Mask, MetricsCore, MetricsHandle, ParseDesc, ParseState, PdKind,
    Pos, ResumePoint, DEFAULT_MAX_INFLIGHT, MAX_JOBS,
};

use crate::parse::{PadsParser, ParseOptions};
use crate::value::Value;

/// The minimal extra information the paper asks for (§5.2): an optional
/// header type and the record type repeated to the end of the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceShape<'a> {
    /// Name of the header type parsed once at the start, if any.
    pub header: Option<&'a str>,
    /// Name of the record type repeated to end of input.
    pub record: &'a str,
}

/// The element record type of a plain record array: no separator,
/// terminator, size, `Pended` or `Pwhere`, elements of an argument-free
/// `Precord` type.
fn plain_record_array(schema: &Schema, id: TypeId) -> Option<&str> {
    let def = schema.def(id);
    let TypeKind::Array {
        elem: TyUse::Named { id: elem, args },
        sep: None,
        term: None,
        ended: None,
        size: None,
    } = &def.kind
    else {
        return None;
    };
    let elem = schema.def(*elem);
    let plain = !def.is_record
        && def.params.is_empty()
        && def.where_clause.is_none()
        && args.is_empty()
        && elem.is_record;
    plain.then_some(elem.name.as_str())
}

/// The `(header, records)` fields of a source struct that is exactly a
/// header followed by a plain record array.
fn header_and_array(
    schema: &Schema,
) -> Option<(&pads_check::ir::FieldIr, &pads_check::ir::FieldIr)> {
    let src = schema.source_def();
    let TypeKind::Struct { members } = &src.kind else {
        return None;
    };
    let [MemberIr::Field(header), MemberIr::Field(body)] = members.as_slice() else {
        return None;
    };
    let plain = !src.is_record
        && src.params.is_empty()
        && src.where_clause.is_none()
        && header.constraint.is_none()
        && body.constraint.is_none();
    plain.then_some((header, body))
}

impl<'a> SourceShape<'a> {
    /// A headerless source of repeated records.
    pub fn records(record: &'a str) -> SourceShape<'a> {
        SourceShape { header: None, record }
    }

    /// A header followed by repeated records.
    pub fn with_header(header: &'a str, record: &'a str) -> SourceShape<'a> {
        SourceShape { header: Some(header), record }
    }

    /// The shape of the schema's source type, when streaming it record by
    /// record is *faithful* — same values, descriptors and positions as
    /// [`PadsParser::parse_source`]: a plain array of records, or a struct
    /// of exactly a header field and such an array. Everything else is
    /// refused: literal members or a third field in the source struct (the
    /// driver would mis-frame them), field constraints and `Pwhere`
    /// clauses (they need the whole value), arrays with `Psep`, `Pterm`,
    /// a size, `Pended` or `Pwhere`, and parameterised types.
    pub fn infer(schema: &'a Schema) -> Option<SourceShape<'a>> {
        if let Some(record) = plain_record_array(schema, schema.source()) {
            return Some(SourceShape::records(record));
        }
        let (header, body) = header_and_array(schema)?;
        let (TyUse::Named { id: hid, args: hargs }, TyUse::Named { id: bid, args: bargs }) =
            (&header.ty, &body.ty)
        else {
            return None;
        };
        if !hargs.is_empty() || !bargs.is_empty() {
            return None;
        }
        let record = plain_record_array(schema, *bid)?;
        Some(SourceShape::with_header(&schema.def(*hid).name, record))
    }
}

/// Where a [`PadsParser::stream_source`] run delivers what it parses.
pub trait RecordSink {
    /// The header's value and descriptor, once, before any record, with the
    /// cursor's `progress` past it (the header is itself a record).
    /// Returning `false` ends the run there — the source-struct rule, under
    /// which a header with a syntax error aborts the struct and the record
    /// array is never parsed. Sinks that only want the records (the §5.2
    /// programs) keep the default and carry on: the header is itself a
    /// record, so panic-mode recovery has already resynchronised.
    fn header(&mut self, _value: Value, _pd: ParseDesc, _progress: &Progress) -> bool {
        true
    }

    /// One record, in source order, lent for the call: a sharded run hands
    /// it back to the worker that parsed it. `index` counts from this run's
    /// first record (the element index in the record array); `progress` is
    /// in whole-source coordinates.
    fn record(&mut self, index: usize, value: &Value, pd: &ParseDesc, progress: &Progress);

    /// The core attached to the parser
    /// ([`with_metrics`](PadsParser::with_metrics)) is exact as of the last
    /// record delivered: called after every record of a sequential run and
    /// after every chunk of a sharded one, whose workers count a chunk at a
    /// time.
    fn observed(&mut self) {}
}

/// What to stream and how: the input of [`PadsParser::stream_source`].
#[derive(Debug, Clone, Copy)]
pub struct SourceJob<'a> {
    /// Header and record types.
    pub shape: SourceShape<'a>,
    /// Applied to the header and to every record.
    pub mask: &'a Mask,
    /// Where the run starts: the beginning of the source, or a committed
    /// checkpoint — the end of a record, the header behind it.
    pub start: ResumePoint,
    /// Upper bound on worker threads; more than [`MAX_JOBS`] run as that many.
    pub jobs: usize,
    /// Bound on each worker's lead over the merge, in records (a quarter
    /// of it is the chunk workers parse and hand over at a time).
    pub max_inflight: usize,
}

impl<'a> SourceJob<'a> {
    /// The whole source, sequentially.
    pub fn new(shape: SourceShape<'a>, mask: &'a Mask) -> SourceJob<'a> {
        SourceJob {
            shape,
            mask,
            start: ResumePoint::default(),
            jobs: 1,
            max_inflight: DEFAULT_MAX_INFLIGHT,
        }
    }
}

/// How a [`PadsParser::stream_source`] run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceEnd {
    /// The final error-budget tally.
    pub budget: ErrorBudget,
    /// Where the cursor stood after the last thing parsed.
    pub pos: Pos,
    /// Whether the last record consumed nothing, which ends the run short
    /// of the end of the input (the array loop's zero-width guard).
    pub stalled: bool,
    /// Whether `pos` is the end of the input.
    pub at_eof: bool,
}

/// Bytes of input the driver holds per job: the window it fills from the
/// reader, cuts at the last record boundary, parses and refills. It doubles
/// only while a single record does not fit.
const WINDOW: usize = 1 << 20;

/// The part of the source the driver holds: `buf[..filled]` are the source's
/// bytes from `base` on, and `drained` says the reader has no more.
struct Window<R> {
    reader: R,
    buf: Vec<u8>,
    base: usize,
    filled: usize,
    drained: bool,
}

impl<R: Read> Window<R> {
    /// Reads until the buffer is full or the reader is drained, however
    /// short the reads come.
    fn fill(&mut self) -> io::Result<()> {
        while !self.drained && self.filled < self.buf.len() {
            match self.reader.read(&mut self.buf[self.filled..]) {
                Ok(0) => self.drained = true,
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Doubles the buffer. The new one is zeroed by the allocator, so only
    /// the pages the source's bytes reach are ever touched.
    fn grow(&mut self) {
        let mut bigger = vec![0; self.buf.len().max(1) * 2];
        bigger[..self.filled].copy_from_slice(&self.buf[..self.filled]);
        self.buf = bigger;
    }

    /// Drops everything before source byte `offset`, moving the unconsumed
    /// tail to the front.
    fn consume(&mut self, offset: usize) {
        let used = offset.saturating_sub(self.base).min(self.filled);
        self.buf.copy_within(used..self.filled, 0);
        self.filled -= used;
        self.base += used;
    }
}

impl<'s> PadsParser<'s> {
    /// [`stream_reader`](Self::stream_reader) over a source that is already
    /// a slice (a slice is a reader whose reads cannot fail).
    pub fn stream_source<S: RecordSink>(
        &self,
        data: &[u8],
        job: &SourceJob<'_>,
        sink: &mut S,
    ) -> SourceEnd {
        let offset = job.start.offset.min(data.len());
        let job = SourceJob { start: ResumePoint { offset, ..job.start }, ..*job };
        match self.stream_reader(&data[offset..], &job, sink) {
            Ok(end) => end,
            Err(e) => unreachable!("reading a slice failed: {e}"),
        }
    }

    /// The one record-run driver: from `job.start` — where `reader` stands
    /// — parses `job.shape`'s header (if it has one, and the run starts at
    /// the beginning of the source: a later start is a record end, so the
    /// header lies behind it), then every record to the end of the input,
    /// handing each to `sink` and keeping none.
    ///
    /// The source is read through a bounded **window**: 1 MiB per job (and
    /// no more jobs than [`MAX_JOBS`]), filled from `reader`, cut at the last
    /// record boundary of the parser's discipline, parsed, and refilled
    /// behind the unconsumed tail, so memory is the window and one chunk of
    /// records however long the source. Positions, record numbers and the
    /// budget tally carry on from window to window — and from the header to
    /// the records — as on one cursor reading the whole source, so where the
    /// windows fall never shows. A source that cannot be cut —
    /// `RecordDiscipline::None`, or a header or record type that is not a
    /// `Precord` and so is not confined to its record — is read to its end
    /// first.
    ///
    /// How a window's records are parsed is the driver's business, decided
    /// from what it can see: on this thread when `job.jobs <= 1` or the
    /// attached core [wants events](MetricsCore::wants_events), and
    /// otherwise sharded through [`par::drive`], on worker threads that
    /// each parse with a parser and a counting core of their own; the merge
    /// feeds the same sink in source order and folds each chunk's counters
    /// into the attached core. Values, descriptors, budget and counters are
    /// byte-identical either way, under every recovery policy, so the
    /// caller never learns which it was.
    ///
    /// # Errors
    ///
    /// The first error `reader` returns. The sink has then been given every
    /// record that ended before the bytes the failed read was for.
    pub fn stream_reader<R: Read, S: RecordSink>(
        &self,
        reader: R,
        job: &SourceJob<'_>,
        sink: &mut S,
    ) -> io::Result<SourceEnd> {
        self.stream_windowed(reader, WINDOW, job, sink)
    }

    /// [`stream_reader`](Self::stream_reader) with the window size as an
    /// argument, for the tests that show it never matters.
    #[doc(hidden)]
    pub fn stream_windowed<R: Read, S: RecordSink>(
        &self,
        reader: R,
        window: usize,
        job: &SourceJob<'_>,
        sink: &mut S,
    ) -> io::Result<SourceEnd> {
        let SourceJob { shape, mask, start, jobs, max_inflight } = *job;
        let (schema, registry, options) = (self.schema(), self.registry(), self.options());
        let core = self.metrics();
        // A profile or a trace needs one ordered event stream, and an
        // unknown record name poisons the reader with a single error item,
        // which has no per-chunk meaning.
        let sequential = jobs <= 1
            || core.is_some_and(|core| core.borrow().wants_events())
            || schema.type_id(shape.record).is_none();
        let framed = |name| schema.type_id(name).is_some_and(|id| schema.def(id).is_record);
        let cuttable = framed(shape.record) && shape.header.is_none_or(framed);
        let newline = options.charset.encode(b'\n');
        let shares = if sequential { 1 } else { jobs.min(MAX_JOBS) };
        let mut win = Window {
            reader,
            buf: vec![0; window.saturating_mul(shares).max(1)],
            base: start.offset,
            filled: 0,
            drained: false,
        };

        // A start past the beginning has the header behind it: checkpoints
        // are taken at record ends, and the header is the first record.
        let mut header = shape.header.filter(|_| (start.offset, start.record) == (0, 0));
        let mut resume = start;
        let mut pos = Pos { offset: start.offset, record: start.record, byte: 0 };
        let mut index = 0;
        let mut stalled = false;
        loop {
            let read = win.fill();
            // While the reader has more, the cut leaves the window's last
            // byte out and the readers below get it: a record that asks
            // whether the source ends with it then sees that it does not.
            // (After a failed read nothing will follow, and every record
            // before it is due to the sink.)
            let data = &win.buf[..win.filled];
            let cut = match (win.drained, cuttable) {
                (true, _) => win.filled,
                (false, false) => 0,
                (false, true) => {
                    let ahead = usize::from(read.is_ok());
                    let whole = &data[..win.filled.saturating_sub(ahead)];
                    par::last_record_end(whole, options.discipline, newline)
                }
            };
            if cut == 0 && !win.drained {
                read?;
                win.grow();
                continue;
            }
            let (base, until) = (win.base, win.base + cut);
            if let Some(header) = header.take() {
                let mut cur = self.open(data).with_base(base);
                cur.set_budget(start.budget);
                let (value, pd) = self.parse_named(&mut cur, header, &[], mask);
                (pos, resume.budget) = (cur.position(), cur.budget());
                (resume.offset, resume.record) = (pos.offset, pos.record);
                let progress = Progress { record: start.record, end: pos, budget: resume.budget };
                if !sink.header(value, pd, &progress) {
                    read?;
                    break;
                }
            }
            let from = resume;
            let mut deliver = |sink: &mut S, value: &Value, pd: &ParseDesc, progress: &Progress| {
                stalled = progress.end.offset == pos.offset;
                pos = progress.end;
                resume.record = progress.record + 1;
                sink.record(index, value, pd, progress);
                index += 1;
            };
            let budget = if sequential {
                let mut records = self.records_in(data, (base, until), shape.record, mask, from);
                let mut record = from.record;
                while let Some((value, pd)) = records.next() {
                    let progress =
                        Progress { record, end: records.position(), budget: records.budget() };
                    deliver(sink, &value, &pd, &progress);
                    sink.observed();
                    record += 1;
                }
                records.budget()
            } else {
                // The driver below works in the coordinates of the slice it
                // is given — the whole records of the window — and so do
                // the readers it asks about theirs.
                let job = Job {
                    data: &data[..cut],
                    discipline: options.discipline,
                    charset: options.charset,
                    policy: options.policy,
                    jobs,
                    max_inflight,
                    resume: ResumePoint { offset: from.offset - base, ..from },
                };
                // Handles do not cross threads; the cores behind them do. Each
                // reader's thread builds its own parser and, if this one is
                // observed, its own core over the same type table, drained
                // after every chunk.
                let observed = core.is_some();
                let open = |_cut: &[u8], policy, start: ResumePoint| {
                    let mut parser = PadsParser::new(schema, registry)
                        .with_options(ParseOptions { policy, ..options });
                    let worker = observed.then(|| parser.metrics_core().into_handle());
                    if let Some(worker) = &worker {
                        parser = parser.with_metrics(worker.clone());
                    }
                    let start = ResumePoint { offset: base + start.offset, ..start };
                    let records =
                        parser.into_records(data, (base, until), shape.record, mask, start);
                    (records, move || worker.as_ref().map(|worker| worker.borrow_mut().drain()))
                };
                par::drive(&job, open, |chunk, delta: Option<MetricsCore>| {
                    for parsed in chunk.iter() {
                        let mut progress = parsed.progress;
                        progress.end.offset += base;
                        deliver(sink, &parsed.item, &parsed.pd, &progress);
                    }
                    if let (Some(core), Some(delta)) = (core, delta) {
                        core.borrow_mut().merge(&delta);
                    }
                    sink.observed();
                })
            };
            (resume.offset, resume.budget) = (pos.offset, budget);
            read?;
            if win.drained || stalled || budget.stopped() {
                break;
            }
            win.consume(pos.offset);
        }
        let at_eof = win.drained && pos.offset >= win.base + win.filled;
        Ok(SourceEnd { budget: resume.budget, pos, stalled, at_eof })
    }
}

/// How many errors a report lists before it summarises the rest.
const REPORT_ERRORS: usize = 25;

const NCODES: usize = ErrorCode::ALL.len();

/// A located error: the descriptor path, the code, where.
pub type PathError = (String, ErrorCode, Option<Loc>);

/// A node's own error, the way [`ParseDesc::errors`] reports it: set, and
/// not the synthetic `NestedError`.
fn own_error(pd: &ParseDesc) -> Option<ErrorCode> {
    (pd.err_code.is_error() && pd.err_code != ErrorCode::NestedError).then_some(pd.err_code)
}

fn join(prefix: &str, path: &str) -> String {
    match (prefix.is_empty(), path.is_empty()) {
        (true, _) => path.to_owned(),
        (_, true) => prefix.to_owned(),
        _ => format!("{prefix}.{path}"),
    }
}

/// What `pads parse` says about a source: the root state and error count,
/// the first few located errors, and a count per error code.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSummary {
    /// The source descriptor's own node — state, `nerr`, first error — with
    /// the children left out.
    pub root: ParseDesc,
    /// The first errors in [`ParseDesc::errors`] order (at most 25).
    pub errors: Vec<PathError>,
    counts: [u64; NCODES],
}

impl SourceSummary {
    /// The summary of a whole-source descriptor: what [`SourceFold`] must
    /// reproduce without ever holding one.
    pub fn of(pd: &ParseDesc) -> SourceSummary {
        let mut counts = [0; NCODES];
        pd.visit_error_codes(&mut |code| count(&mut counts, code));
        let mut errors = pd.errors();
        errors.truncate(REPORT_ERRORS);
        let kind = match pd.kind {
            PdKind::Array { neerr, first_error, .. } => {
                PdKind::Array { elts: Vec::new(), neerr, first_error }
            }
            _ => PdKind::Base,
        };
        SourceSummary { root: ParseDesc { kind, ..*pd }, errors, counts }
    }

    /// Whether the source parsed without error.
    pub fn is_ok(&self) -> bool {
        self.root.is_ok()
    }

    /// The plain-text record report.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let nerr = self.root.nerr as usize;
        let mut out = format!("parse state: {} errors: {nerr}\n", self.root.state);
        for (path, code, loc) in &self.errors {
            let _ = match loc {
                Some(l) => writeln!(out, "  {path}: {code} at record {}", l.begin.record),
                None => writeln!(out, "  {path}: {code}"),
            };
        }
        if nerr > REPORT_ERRORS {
            let _ = writeln!(out, "  … ({} more)", nerr - REPORT_ERRORS);
        }
        out
    }

    /// The one-line diagnosis — a count per distinct error code, most
    /// frequent first — that goes to stderr, apart from any stdout output.
    pub fn error_line(&self, source: &str) -> String {
        let mut counts: Vec<(String, u64)> = ErrorCode::ALL
            .iter()
            .zip(&self.counts)
            .filter(|(_, &n)| n > 0)
            .map(|(code, &n)| (code.to_string(), n))
            .collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let detail: Vec<String> = counts.into_iter().map(|(k, n)| format!("{k}: {n}")).collect();
        format!(
            "{} error(s) in {source} [{}] ({})",
            self.root.nerr,
            self.root.state,
            if detail.is_empty() { "no detail retained".to_owned() } else { detail.join(", ") }
        )
    }
}

fn count(counts: &mut [u64; NCODES], code: ErrorCode) {
    if let Some(n) = counts.get_mut(code as usize) {
        *n += 1;
    }
}

/// Counts `pd`'s codes and, while the report has room, keeps its located
/// errors under `prefix()`.
fn note(
    counts: &mut [u64; NCODES],
    errors: &mut Vec<PathError>,
    pd: &ParseDesc,
    prefix: impl FnOnce() -> String,
) {
    if pd.is_ok() {
        return;
    }
    pd.visit_error_codes(&mut |code| count(counts, code));
    if errors.len() < REPORT_ERRORS {
        let room = REPORT_ERRORS - errors.len();
        let prefix = prefix();
        let located = pd.errors().into_iter().take(room);
        errors.extend(located.map(|(path, code, loc)| (join(&prefix, &path), code, loc)));
    }
}

/// The report sink: folds a streamed source into the [`SourceSummary`] of
/// the descriptor [`PadsParser::parse_source`] would have built, for the
/// sources [`SourceShape::infer`] accepts.
///
/// The source's own node and the record array's are kept as real
/// [`ParseDesc`]s and updated with the very operations the parser applies
/// (`absorb` per element and per field, `add_error` / `add_root_error` for
/// the conditions raised at the end), minus the children.
///
/// Those two nodes are also the only ones a record-at-a-time run never
/// *parses*, so no engine emits their events: a fold told to
/// [`observe`](Self::observe) emits them itself, and a metrics core then
/// hears a streamed run exactly as it hears the whole-tree parse.
#[derive(Debug)]
pub struct SourceFold {
    /// `(header field, array field)` when the source is a struct around
    /// the record array; `None` when it is the array itself.
    fields: Option<(String, String)>,
    /// The header's descriptor.
    header: Option<ParseDesc>,
    /// A header with a syntax error aborted the source struct.
    aborted: bool,
    /// The record array's node.
    array: ParseDesc,
    /// Some element had a syntax error (`has_syntax_error` of the array).
    syntax: bool,
    len: usize,
    neerr: u32,
    first_error: Option<usize>,
    /// The first located errors of the header, then of the records.
    errors: Vec<PathError>,
    /// How many of `errors` are the header's.
    header_errors: usize,
    counts: [u64; NCODES],
    /// Dense node ids of the source type and, for a struct source, of its
    /// record array.
    ids: (u32, Option<u32>),
    own: Option<OwnNodes>,
}

/// The core that hears the source's own nodes, and where the open ones
/// began.
#[derive(Debug)]
struct OwnNodes {
    core: MetricsHandle,
    source_start: usize,
    /// Set once the header let the struct go on to its record array.
    array_start: Option<usize>,
}

impl SourceFold {
    /// A fold for `schema`'s source type.
    pub fn new(schema: &Schema) -> SourceFold {
        let fields = header_and_array(schema);
        let array = fields.and_then(|(_, body)| match &body.ty {
            TyUse::Named { id, .. } => Some(*id as u32),
            _ => None,
        });
        SourceFold {
            fields: fields.map(|(h, b)| (h.name.clone(), b.name.clone())),
            header: None,
            aborted: false,
            array: ParseDesc::ok(),
            syntax: false,
            len: 0,
            neerr: 0,
            first_error: None,
            errors: Vec::new(),
            header_errors: 0,
            counts: [0; NCODES],
            ids: (schema.source() as u32, array),
            own: None,
        }
    }

    /// Has the fold emit on `core` — the core the parser of the run
    /// carries — the events of the source's own nodes: the source type entered here, at byte
    /// `start`, the record array entered after the header, both exited by
    /// [`finish`](Self::finish), then the root errors `finish` raises. Call
    /// it right before a run over the shape [`SourceShape::infer`] gives.
    pub fn observe(mut self, core: MetricsHandle, start: usize) -> SourceFold {
        core.borrow_mut().enter_id(self.ids.0, start);
        self.own = Some(OwnNodes { core, source_start: start, array_start: None });
        self
    }

    /// The `(header field, array field)` names of a struct source.
    pub fn fields(&self) -> Option<(&str, &str)> {
        self.fields.as_ref().map(|(h, b)| (h.as_str(), b.as_str()))
    }

    /// Records delivered so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no record has been delivered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The record array's node of a struct source, final once
    /// [`finish`](Self::finish) has run. (A source that *is* the array has
    /// it as [`SourceSummary::root`].)
    pub fn array(&self) -> &ParseDesc {
        &self.array
    }

    /// Closes the fold over a run that ended at `end`: raises what the
    /// array loop and `parse_source` raise after the last record (the
    /// zero-width guard, budget exhaustion, trailing data) and returns the
    /// summary.
    pub fn finish(&mut self, end: &SourceEnd) -> SourceSummary {
        let at = Loc::at(end.pos);
        if end.stalled {
            self.array.add_error(ErrorCode::ArrayTermMismatch, at);
        }
        self.array.kind =
            PdKind::Array { elts: Vec::new(), neerr: self.neerr, first_error: self.first_error };
        let mut root = match &self.fields {
            None => self.array.clone(),
            Some(_) => {
                let mut root = ParseDesc::ok();
                if let Some(header) = &self.header {
                    root.absorb(header);
                }
                // A field with a syntax error leaves the struct partial;
                // after the header that also skips the array.
                let mut partial = self.aborted;
                if !self.aborted {
                    root.absorb(&self.array);
                    let own = own_error(&self.array).is_some_and(|code| !code.is_semantic());
                    partial = self.array.state != ParseState::Ok || self.syntax || own;
                }
                if partial {
                    root.state = ParseState::Partial;
                }
                root
            }
        };
        let root_error = if end.budget.stopped() {
            root.add_root_error(ErrorCode::BudgetExhausted, at);
            Some(ErrorCode::BudgetExhausted)
        } else if !end.at_eof {
            root.add_error(ErrorCode::ExtraDataAtEof, at);
            Some(ErrorCode::ExtraDataAtEof)
        } else {
            None
        };
        if let Some(own) = &self.own {
            let mut core = own.core.borrow_mut();
            let end = end.pos.offset;
            if let (Some(id), Some(start)) = (self.ids.1, own.array_start) {
                core.exit_id(id, start, end, self.array.nerr);
            }
            // A root error is raised after the source type's parse returns.
            let own_nerr = root.nerr - u32::from(root_error.is_some());
            core.exit_id(self.ids.0, own.source_start, end, own_nerr);
            if let Some(code) = root_error {
                core.note_error_at("", code, Some(end));
            }
        }

        // `errors()` order: the root's own error, the header's, the
        // array's own, the elements'.
        let (header_errors, record_errors) = self.errors.split_at(self.header_errors);
        let mut errors = Vec::with_capacity(REPORT_ERRORS);
        let mut counts = self.counts;
        if let Some(code) = own_error(&root) {
            errors.push((String::new(), code, root.loc));
            count(&mut counts, code);
        }
        errors.extend_from_slice(header_errors);
        if let (Some((_, field)), Some(code)) = (&self.fields, own_error(&self.array)) {
            // An array the aborted struct never reached has no errors.
            errors.push((field.clone(), code, self.array.loc));
            count(&mut counts, code);
        }
        errors.extend_from_slice(record_errors);
        errors.truncate(REPORT_ERRORS);
        SourceSummary { root, errors, counts }
    }
}

impl RecordSink for SourceFold {
    fn header(&mut self, _value: Value, pd: ParseDesc, progress: &Progress) -> bool {
        let fields = &self.fields;
        note(&mut self.counts, &mut self.errors, &pd, || {
            fields.as_ref().map(|(header, _)| header.clone()).unwrap_or_default()
        });
        self.header_errors = self.errors.len();
        self.aborted = pd.has_syntax_error();
        self.header = Some(pd);
        if let (Some(own), Some(array), false) = (&mut self.own, self.ids.1, self.aborted) {
            own.core.borrow_mut().enter_id(array, progress.end.offset);
            own.array_start = Some(progress.end.offset);
        }
        !self.aborted
    }

    fn record(&mut self, index: usize, _value: &Value, pd: &ParseDesc, _progress: &Progress) {
        self.len = index + 1;
        if !pd.is_ok() {
            self.neerr += 1;
            self.first_error.get_or_insert(index);
            let fields = &self.fields;
            note(&mut self.counts, &mut self.errors, pd, || match fields {
                Some((_, array)) => format!("{array}.[{index}]"),
                None => format!("[{index}]"),
            });
        }
        self.syntax = self.syntax || pd.has_syntax_error();
        self.array.absorb(pd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, descriptions};
    use pads_runtime::Registry;

    fn infer(src: &str) -> Option<(Option<String>, String)> {
        let schema = compile(src, &Registry::standard()).expect("test description compiles");
        SourceShape::infer(&schema).map(|s| (s.header.map(str::to_owned), s.record.to_owned()))
    }

    const TYPES: &str = "Precord Pstruct hdr_t { Puint32 n; };
        Precord Pstruct rec_t { Puint32 a; };
        Parray recs_t { rec_t[]; };";

    #[test]
    fn infers_the_bundled_shapes() {
        let sirius = descriptions::sirius();
        assert_eq!(
            SourceShape::infer(&sirius),
            Some(SourceShape::with_header("summary_header_t", "entry_t"))
        );
        let clf = descriptions::clf();
        assert_eq!(SourceShape::infer(&clf), Some(SourceShape::records("entry_t")));
        let both = format!("{TYPES} Psource Pstruct src_t {{ hdr_t h; recs_t rs; }};");
        assert_eq!(infer(&both), Some((Some("hdr_t".into()), "rec_t".into())));
    }

    #[test]
    fn refuses_a_literal_between_header_and_records() {
        let lit = format!("{TYPES} Psource Pstruct src_t {{ hdr_t h; \"----\"; recs_t rs; }};");
        assert_eq!(infer(&lit), None);
    }

    #[test]
    fn refuses_extra_fields_constraints_and_where_clauses() {
        let three = format!("{TYPES} Psource Pstruct src_t {{ hdr_t h; hdr_t g; recs_t rs; }};");
        assert_eq!(infer(&three), None);
        let computed =
            format!("{TYPES} Psource Pstruct src_t {{ hdr_t h : h.n > 0; recs_t rs; }};");
        assert_eq!(infer(&computed), None);
        let wher = format!(
            "{TYPES} Psource Pstruct src_t {{ hdr_t h; recs_t rs; }} Pwhere {{ h.n > 0 }};"
        );
        assert_eq!(infer(&wher), None);
        let base_header = format!("{TYPES} Psource Pstruct src_t {{ Puint32 h; recs_t rs; }};");
        assert_eq!(infer(&base_header), None);
    }

    #[test]
    fn refuses_arrays_that_are_not_plain() {
        let rec = "Precord Pstruct rec_t { Puint32 a; };";
        for array in [
            "Psource Parray recs_t { rec_t[] : Psep(','); };",
            "Psource Parray recs_t { rec_t[] : Pterm(';'); };",
            "Psource Parray recs_t { rec_t[3]; };",
            "Psource Parray recs_t { rec_t[] : Pended(length == 2); };",
            "Psource Parray recs_t { rec_t[]; } Pwhere { length > 0 };",
        ] {
            assert_eq!(infer(&format!("{rec} {array}")), None, "{array}");
        }
        // Elements that are not records cannot be read a record at a time.
        assert_eq!(
            infer("Pstruct rec_t { Puint32 a; ','; }; Psource Parray recs_t { rec_t[]; };"),
            None
        );
        assert_eq!(
            infer(&format!("{rec} Psource Parray recs_t {{ rec_t[]; }};")),
            Some((None, "rec_t".into()))
        );
    }
}
