//! The contract matrix (`#[path]`-included by every suite that checks it).
//!
//! Every engine, geometry, resume and sink here promises one thing: the
//! values, parse descriptors, budgets and observation events the paper's
//! semantics (§4) give a source. The interpreter's sequential run is the
//! definition the other tiers are checked against, so [`Truth::of`] runs it
//! **once** per case and recovery policy and keeps every fact it produced —
//! the header, each record's value and descriptor, each record boundary with
//! its budget, how the run ended, its counters — plus the whole-tree parse
//! of the same bytes and every event that parse traced. Each column is then
//! a query of that fact base (a `Truth` method), fed a candidate run:
//!
//! - `sequential`: the VM on one thread, and the interpreter's observing fold;
//! - `records`: the record-at-a-time iterator;
//! - `geometry`: the sharded driver in one `(jobs, max_inflight)` row;
//! - `resumed`: the driver started at a record boundary;
//! - `killed`: a run killed at a [`KillPlan`] and resumed from its last
//!   checkpoint, kept in memory or in an on-disk journal;
//! - `batch`: the [`RecordBatch`] round trip;
//! - `generated`, `reader`, `drive`: a generated module's whole-source
//!   parse and its record reader — every descriptor and value — and that
//!   reader under `par::drive`;
//! - `cli`: the `pads` binary as a process — `parse` in each format,
//!   `accum`, `fmt`, and `parse --journal` killed and resumed — its stdout,
//!   stderr and exit status rendered from the fact base;
//!
//! and the facts — byte accounting, `has_syntax_error`, the fact base's widths —
//! hold of every truth.
//!
//! A `#[test]` is a **cell**: the rows of some columns (a [`Plan`]) over
//! some cases — a torture corpus under every policy ([`torture`]) or a
//! block of fault seeds ([`sweep`]). A new description or corpus is a new
//! [`Case`]; a new check is a new column. Failure messages read
//! `<case> <policy> <column>: <fact>`. The descriptions are the bundled three
//! (ASCII, newline-framed) and [`figure1`]'s: `ambient` in ASCII and EBCDIC, `regulus`,
//! `nibbles`, `half_byte`, `half_byte_eor` newline-framed; `call_detail` (big- and little-endian),
//! `tagged_count`, `iphdr`, `half_byte_wide` fixed-width; `netflow` unframed; Altair's copybook
//! in EBCDIC, fixed-width and length-prefixed.
#![allow(dead_code)]

#[path = "collect.rs"]
pub mod collect;
#[path = "tables.rs"]
mod tables;
#[path = "trace_tally.rs"]
mod trace_tally;

#[path = "bundled.rs"]
pub mod bundled;
#[path = "figure1.rs"]
pub mod figure1;

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Debug;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread;

use pads::OnExhausted::BestEffort;
use pads::{
    BaseMask, Charset, Cursor, Endian, Engine, ErrorBudget, ErrorCode, Mask, PadsParser, ParseDesc,
    ParseOptions, ParseState, PdKind, Progress, RecordBatch, RecordDiscipline, RecordSink,
    RecoveryPolicy, Registry, ResumePoint, Schema, SourceEnd, SourceFold, SourceJob, SourceShape,
    SourceSummary, Value, Verifier, Writer,
};
use pads_check::facts::{FactBase, WidthInterval};
use pads_runtime::genrt::CursorRecords;
use pads_runtime::metrics::TraceNode;
use pads_runtime::par::{self, Job, RecordReader};
use pads_runtime::{FaultPlan, KillPlan, MetricsCore, MetricsHandle};
use pads_tools::{value_to_xml, AccConfig, Accumulator, FormatSink, Formatter};

use bundled::Bundled;
use collect::Collect;
pub use tables::{policies, GEOMETRIES};
use trace_tally::Tally;

pub fn mask() -> Mask {
    Mask::all(BaseMask::CheckAndSet)
}

/// One thread, records parsed as they are read.
pub const SEQUENTIAL: (usize, usize) = GEOMETRIES[0];

/// A description as the matrix runs it: its shape, whether that shape is
/// the one [`SourceShape::infer`] gives (then the whole-tree columns apply),
/// the charset, record discipline and byte order every column reads it
/// with, the width each type may consume, the generated module's column,
/// and the `.pads` text the `cli` column hands the binary.
pub struct Description<'a> {
    pub schema: &'a Schema,
    pub registry: &'a Registry,
    pub shape: SourceShape<'a>,
    inferred: bool,
    /// Its `charset`, `discipline` and `endian`; each column sets the rest.
    options: ParseOptions,
    text: Option<&'a str>,
    widths: HashMap<String, (WidthInterval, bool)>,
    generated: Option<fn(&Case<'_>, &Truth, &Plan)>,
}

impl<'a> Description<'a> {
    /// A source that streams: its inferred shape.
    pub fn new(schema: &'a Schema, registry: &'a Registry) -> Description<'a> {
        let shape = SourceShape::infer(schema).expect("the source streams");
        Description {
            shape,
            inferred: true,
            ..Description::records(schema, registry, shape.record)
        }
    }

    /// Any source read as headerless `record`s: no whole-tree columns.
    pub fn records(schema: &'a Schema, registry: &'a Registry, record: &'a str) -> Description<'a> {
        let facts = FactBase::of(schema);
        let widths = schema
            .types
            .iter()
            .enumerate()
            .map(|(id, def)| (def.name.clone(), (facts.of_type(id).facts.width, def.is_record)))
            .collect();
        Description {
            schema,
            registry,
            shape: SourceShape::records(record),
            inferred: false,
            options: ParseOptions::default(),
            text: None,
            widths,
            generated: None,
        }
    }

    /// The description whose `.pads` text is `text`.
    pub fn with_text(self, text: &'a str) -> Description<'a> {
        Description { text: Some(text), ..self }
    }

    /// The description read with `options`' charset, discipline and endian.
    pub fn with_options(self, options: ParseOptions) -> Description<'a> {
        Description { options, ..self }
    }

    pub fn parser(&self, policy: RecoveryPolicy, engine: Engine) -> PadsParser<'a> {
        let options = ParseOptions { policy, engine, ..self.options };
        PadsParser::new(self.schema, self.registry).with_options(options)
    }

    /// The bytes a record's span holds besides its content.
    fn framing(&self) -> u64 {
        match self.options.discipline {
            RecordDiscipline::Newline => 1,
            RecordDiscipline::LengthPrefixed { header_bytes, .. } => header_bytes as u64,
            RecordDiscipline::FixedWidth(_) | RecordDiscipline::None => 0,
        }
    }

    /// The `pads` flags that read the source as every column does, or why none do.
    pub fn cli_flags(&self) -> Result<Vec<String>, &'static str> {
        let ParseOptions { charset, discipline, endian, .. } = self.options;
        let ebcdic = (charset == Charset::Ebcdic).then(|| "--ebcdic".to_owned());
        let framing = match discipline {
            _ if endian == Endian::Little => return Err("pads reads binary big-endian only"),
            RecordDiscipline::Newline => None,
            RecordDiscipline::FixedWidth(n) => Some(flag("--fixed", n)),
            RecordDiscipline::LengthPrefixed { header_bytes, endian: Endian::Big } => {
                Some(flag("--lenpfx", header_bytes))
            }
            RecordDiscipline::LengthPrefixed { .. } => return Err("--lenpfx is big-endian only"),
            RecordDiscipline::None => return Err("pads has no unframed discipline"),
        };
        Ok(ebcdic.into_iter().chain(framing.into_iter().flatten()).collect())
    }
}

/// A corpus of a description, named in every failure message.
pub struct Case<'a> {
    pub name: String,
    pub description: &'a Description<'a>,
    pub data: &'a [u8],
}

impl<'a> Case<'a> {
    pub fn new(name: impl Into<String>, description: &'a Description<'a>, data: &'a [u8]) -> Self {
        Case { name: name.into(), description, data }
    }
}

/// Everything a run delivers: the header, the records, the progress each
/// arrived with, and how the run ended.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub header: Option<(Value, ParseDesc, Progress)>,
    pub items: Vec<(Value, ParseDesc)>,
    pub progress: Vec<Progress>,
    pub end: SourceEnd,
}

/// A run of the driver, a fold beside it when the case's shape is
/// inferred: what it delivered, the counters and the trace of the core it
/// attached, the fold's summary, and how often the driver said the core was
/// exact.
#[derive(Debug, Clone)]
pub struct Streamed {
    pub run: Run,
    pub counters: Option<Tally>,
    pub trace: Option<Vec<TraceNode>>,
    pub summary: Option<SourceSummary>,
    pub observed: usize,
}

/// The contract's sink: keeps everything and feeds the fold if there is
/// one. The fold ends the run after a header with a syntax error — the
/// source-struct rule, as `pads parse` does; with no fold the run goes on
/// past it, as `pads accum` and `pads fmt` do.
#[derive(Default)]
struct Sink {
    kept: Collect,
    fold: Option<SourceFold>,
}

impl RecordSink for Sink {
    fn header(&mut self, value: Value, pd: ParseDesc, progress: &Progress) -> bool {
        let go = match &mut self.fold {
            Some(fold) => fold.header(value.clone(), pd.clone(), progress),
            None => true,
        };
        self.kept.header(value, pd, progress);
        go
    }

    fn record(&mut self, index: usize, value: &Value, pd: &ParseDesc, progress: &Progress) {
        if let Some(fold) = &mut self.fold {
            fold.record(index, value, pd, progress);
        }
        self.kept.record(index, value, pd, progress);
    }

    fn observed(&mut self) {
        self.kept.observed();
    }
}

impl Sink {
    fn into_run(self, end: SourceEnd) -> Run {
        let Collect { header, items, progress, .. } = self.kept;
        Run { header, items, progress, end }
    }
}

/// What a run attaches to its parser: no core, a counting one, or one that
/// also traces every event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    Off,
    Count,
    Trace,
}

/// `parser` with a core over its own table attached, as `observe` says.
fn attach(parser: PadsParser<'_>, observe: Observe) -> (PadsParser<'_>, Option<MetricsHandle>) {
    let core = match observe {
        Observe::Off => return (parser, None),
        Observe::Count => parser.metrics_core(),
        Observe::Trace => trace_tally::unbounded(parser.metrics_core()),
    };
    let core = core.into_handle();
    (parser.with_metrics(core.clone()), Some(core))
}

impl Case<'_> {
    /// The driver over the case from `start` in a `(jobs, max_inflight)`
    /// geometry, into `sink`.
    fn stream(
        &self,
        parser: &PadsParser<'_>,
        (jobs, max_inflight): (usize, usize),
        start: ResumePoint,
        sink: &mut impl RecordSink,
    ) -> SourceEnd {
        let mask = mask();
        let job = SourceJob {
            start,
            jobs,
            max_inflight,
            ..SourceJob::new(self.description.shape, &mask)
        };
        parser.stream_source(self.data, &job, sink)
    }

    /// A candidate of the `sequential` and `geometry` columns.
    pub fn streamed(
        &self,
        policy: RecoveryPolicy,
        engine: Engine,
        geometry: (usize, usize),
        observe: Observe,
    ) -> Streamed {
        let d = self.description;
        let (parser, core) = attach(d.parser(policy, engine), observe);
        let fold = d.inferred.then(|| match &core {
            Some(core) => SourceFold::new(d.schema).observe(core.clone(), 0),
            None => SourceFold::new(d.schema),
        });
        let mut sink = Sink { fold, ..Sink::default() };
        let end = self.stream(&parser, geometry, ResumePoint::default(), &mut sink);
        let summary = sink.fold.as_mut().map(|fold| fold.finish(&end));
        let observed = sink.kept.observed;
        let core = core.as_ref().map(|core| core.borrow());
        Streamed {
            run: sink.into_run(end),
            counters: core.as_ref().map(|core| Tally::of_counters(core)),
            trace: core.and_then(|core| core.trace_roots().map(<[TraceNode]>::to_vec)),
            summary,
            observed,
        }
    }

    /// A candidate of the `resumed` column: the driver from `start`.
    pub fn resumed(
        &self,
        policy: RecoveryPolicy,
        engine: Engine,
        geometry: (usize, usize),
        start: ResumePoint,
    ) -> Run {
        let mut sink = Sink::default();
        let parser = self.description.parser(policy, engine);
        let end = self.stream(&parser, geometry, start, &mut sink);
        sink.into_run(end)
    }

    /// A candidate of the `killed` column: the run `kill` describes, and
    /// the run resumed from its last checkpoint with the counters of its
    /// core (restored from the checkpoint, then counting on).
    pub fn killed(&self, policy: RecoveryPolicy, kill: &Kill) -> (Run, Resumed) {
        let d = self.description;
        let observe = if kill.counted || kill.journal { Observe::Count } else { Observe::Off };
        let (parser, core) = attach(d.parser(policy, kill.engine), observe);
        let path = kill.journal.then(|| {
            static JOURNALS: AtomicUsize = AtomicUsize::new(0);
            let n = JOURNALS.fetch_add(1, Ordering::Relaxed);
            std::env::temp_dir().join(format!("pads-contract-{}-{n}.wal", std::process::id()))
        });
        let journal = path.as_ref().map(|p| pads_journal::Journal::create(p).expect("journal"));
        let mut killed = Killed {
            sink: Sink::default(),
            plan: kill.plan,
            core,
            journal,
            last: None,
            since: 0,
            committed: None,
            dead: kill.plan.kill_after == 0,
        };
        let end = self.stream(&parser, kill.jobs.0, ResumePoint::default(), &mut killed);
        let mut committed = killed.committed.take();
        if let Some(path) = &path {
            drop(killed.journal.take());
            let (journal, torn) = pads_journal::Journal::open(path).expect("reopen journal");
            let at = format!("{} {policy:?} killed {kill:?}", self.name);
            assert!(torn.is_none(), "{at}: a clean journal reported a torn tail");
            let last = journal.last().map(|cp| {
                let (offset, record) = (cp.offset as usize, cp.record as usize);
                (ResumePoint { offset, record, budget: cp.budget }, cp.metrics.clone())
            });
            assert_eq!(last, committed, "{at}: the journal holds the last commit");
            committed = last;
            std::fs::remove_file(path).expect("remove journal");
        }
        let (parser, core) = attach(d.parser(policy, kill.engine), observe);
        let start = committed.map_or_else(ResumePoint::default, |(at, snapshot)| {
            if let Some(core) = &core {
                let restored = MetricsCore::restore(&snapshot).expect("the snapshot restores");
                core.borrow_mut().merge(&restored);
            }
            at
        });
        let mut sink = Sink::default();
        let resumed_end = self.stream(&parser, kill.jobs.1, start, &mut sink);
        let counters = core.map(|core| Tally::of_counters(&core.borrow()));
        let resumed = Resumed { start, run: sink.into_run(resumed_end), counters };
        (killed.sink.into_run(end), resumed)
    }
}

/// A run resumed from a checkpoint: where it started, what it delivered,
/// and the counters of its restored core.
#[derive(Debug, Clone)]
pub struct Resumed {
    pub start: ResumePoint,
    pub run: Run,
    pub counters: Option<Tally>,
}

/// One row of the `killed` column: where the run dies, which engine runs
/// it, the geometries it is killed and resumed in, whether its checkpoints
/// carry the counters, and whether they go through an on-disk journal
/// (which carries them always).
#[derive(Debug, Clone, Copy)]
pub struct Kill {
    pub plan: KillPlan,
    pub engine: Engine,
    pub jobs: ((usize, usize), (usize, usize)),
    pub counted: bool,
    pub journal: bool,
}

impl Kill {
    /// Killed at `plan` and resumed on one thread, the checkpoints kept in
    /// memory without the counters.
    pub fn at(plan: KillPlan, engine: Engine) -> Kill {
        Kill { plan, engine, jobs: (SEQUENTIAL, SEQUENTIAL), counted: false, journal: false }
    }

    /// The record boundary `plan` last commits at over a run of `n`
    /// records, on one thread.
    pub fn last_commit(plan: KillPlan, n: usize) -> usize {
        plan.kill_after.min(n) / plan.checkpoint_every * plan.checkpoint_every
    }
}

/// A run that is killed: every record is kept and advances the plan's
/// cadence; a checkpoint that has fallen due — position, budget, the
/// core's snapshot — is taken only where the driver says the core is exact
/// (what the CLI's journal adapter does); and once `plan.kill_after`
/// records are in, nothing more is heard.
struct Killed {
    sink: Sink,
    plan: KillPlan,
    core: Option<MetricsHandle>,
    journal: Option<pads_journal::Journal>,
    last: Option<ResumePoint>,
    since: usize,
    committed: Option<(ResumePoint, Vec<u8>)>,
    dead: bool,
}

impl RecordSink for Killed {
    fn header(&mut self, value: Value, pd: ParseDesc, progress: &Progress) -> bool {
        self.sink.header(value, pd, progress)
    }

    fn record(&mut self, index: usize, value: &Value, pd: &ParseDesc, progress: &Progress) {
        if self.dead {
            return;
        }
        self.sink.record(index, value, pd, progress);
        self.since += 1;
        let end = progress.end.offset;
        self.last =
            Some(ResumePoint { offset: end, record: progress.record + 1, budget: progress.budget });
    }

    fn observed(&mut self) {
        if self.dead {
            return;
        }
        if let Some(at) = self.last.filter(|_| self.since >= self.plan.checkpoint_every) {
            let metrics =
                self.core.as_ref().map(|core| core.borrow().snapshot()).unwrap_or_default();
            if let Some(journal) = &mut self.journal {
                let cp = pads_journal::Checkpoint {
                    source_id: 0,
                    offset: at.offset as u64,
                    record: at.record as u64,
                    budget: at.budget,
                    metrics: metrics.clone(),
                };
                journal.commit(cp).expect("commit");
            }
            self.committed = Some((at, metrics));
            self.since = 0;
        }
        self.dead = self.sink.kept.items.len() >= self.plan.kill_after;
    }
}

/// The parts of `end` a resumed run must reproduce: a checkpoint is a
/// record end, and the length of the record before it — which a cursor that
/// just closed one still knows — is not in it.
fn resumable(end: SourceEnd) -> SourceEnd {
    SourceEnd { pos: pads::Pos { byte: 0, ..end.pos }, ..end }
}

/// The whole-tree parse of a case whose shape is inferred: its value and
/// descriptor, the records its array holds, and its traced core.
pub struct Whole {
    pub value: Value,
    pub pd: ParseDesc,
    pub records: usize,
    pub core: MetricsCore,
}

/// The fact base: the interpreter's sequential run under one policy with
/// its counters, and the whole-tree parse with its trace (where the shape is
/// not inferred, the run traces instead).
pub struct Truth {
    /// `<case> <policy>`, the head of every failure message.
    pub at: String,
    pub policy: RecoveryPolicy,
    /// The run into a sink with no fold: past a header with a syntax
    /// error too.
    pub run: Run,
    /// Where a header with a syntax error ended the run of a sink that
    /// folds the source.
    aborted: Option<SourceEnd>,
    pub core: MetricsCore,
    pub whole: Option<Whole>,
}

impl Truth {
    pub fn of(case: &Case<'_>, policy: RecoveryPolicy) -> Truth {
        let d = case.description;
        // The whole-tree parse traces the same events, and its own nodes.
        let observe = if d.inferred { Observe::Count } else { Observe::Trace };
        let (parser, core) = attach(d.parser(policy, Engine::Interp), observe);
        let mut sink = Sink::default();
        let end = case.stream(&parser, SEQUENTIAL, ResumePoint::default(), &mut sink);
        let whole = d.inferred.then(|| {
            let (parser, core) = attach(d.parser(policy, Engine::Interp), Observe::Trace);
            let (value, pd) = parser.parse_source(case.data, &mask());
            let array = match &value {
                Value::Struct { fields } => {
                    fields.iter().map(|(_, v)| v).find(|v| v.len().is_some())
                }
                v => Some(v),
            };
            let records = array.and_then(Value::len).unwrap_or(0);
            let core = core.expect("attached").borrow().clone();
            Whole { value, pd, records, core }
        });
        let core = core.expect("attached").borrow().clone();
        let run = sink.into_run(end);
        // What the driver returns when the sink stops it after the header.
        let aborted = run.header.as_ref().filter(|(_, pd, _)| pd.has_syntax_error()).map(
            |(_, _, p)| SourceEnd {
                budget: p.budget,
                pos: p.end,
                stalled: false,
                at_eof: p.end.offset >= case.data.len(),
            },
        );
        Truth { at: format!("{} {policy:?}", case.name), policy, run, aborted, core, whole }
    }

    /// Record boundary `k`: where the records start (past the header) for
    /// `k = 0`, the end of record `k - 1` after.
    pub fn boundary(&self, k: usize) -> ResumePoint {
        let at = |p: &Progress| ResumePoint {
            offset: p.end.offset,
            record: p.record + 1,
            budget: p.budget,
        };
        match k {
            0 => self.run.header.as_ref().map_or_else(ResumePoint::default, |(_, _, p)| at(p)),
            k => at(&self.run.progress[k - 1]),
        }
    }

    pub fn len(&self) -> usize {
        self.run.items.len()
    }

    /// Record `i`'s value at `path`.
    pub fn at(&self, i: usize, path: &str) -> Option<&Value> {
        self.run.items[i].0.at_path(path)
    }

    pub fn int(&self, i: usize, path: &str) -> Option<i64> {
        self.at(i, path).and_then(Value::as_i64)
    }

    /// Whether the run holds `n` records, all clean.
    pub fn clean(&self, n: usize) -> bool {
        self.len() == n && self.run.items.iter().all(|(_, pd)| pd.is_ok())
    }

    /// The core that traced every event: the whole-tree parse's, or the
    /// run's where the shape is not inferred.
    pub fn traced(&self) -> &MetricsCore {
        self.whole.as_ref().map_or(&self.core, |whole| &whole.core)
    }

    /// Whether the header has a syntax error: the whole-tree parse, and a
    /// sink that folds the source, end there.
    pub fn aborted(&self) -> bool {
        self.aborted.is_some()
    }

    /// The run a sink that folds the source hears: the header alone where
    /// the header has a syntax error, all of `run` elsewhere.
    fn folded_run(&self) -> Cow<'_, Run> {
        match self.aborted {
            Some(end) => {
                let header = self.run.header.clone();
                Cow::Owned(Run { header, items: Vec::new(), progress: Vec::new(), end })
            }
            None => Cow::Borrowed(&self.run),
        }
    }

    fn label(&self, column: &str) -> String {
        format!("{} {column}", self.at)
    }

    /// Every column `plan` asks for, and the facts.
    pub fn check(&self, case: &Case<'_>, plan: &Plan) {
        let policy = self.policy;
        self.facts(case);
        for &engine in &plan.sequential {
            self.sequential(engine, &case.streamed(policy, engine, SEQUENTIAL, Observe::Trace));
        }
        for &engine in &plan.records {
            self.records(case, engine);
        }
        let observe = if plan.counted { Observe::Count } else { Observe::Off };
        for &(engine, geometry) in &plan.geometries {
            self.geometry(engine, geometry, &case.streamed(policy, engine, geometry, observe));
        }
        for &(k, engine, geometry) in &plan.resumes {
            let run = case.resumed(policy, engine, geometry, self.boundary(k));
            self.resumed(k, engine, geometry, &run);
        }
        for kill in &plan.kills {
            let (killed, resumed) = case.killed(policy, kill);
            self.killed(kill, &killed, &resumed);
        }
        if plan.batch {
            let mut batch = RecordBatch::new();
            for (v, pd) in &self.run.items {
                batch.push(v, pd);
            }
            self.batch("batch pushed", &batch, self.run.end.budget);
        }
        let headerless = case.description.shape.header.is_none();
        for &(engine, jobs) in plan.batched.iter().filter(|_| headerless) {
            let parser = case.description.parser(policy, engine);
            let (batch, budget) =
                parser.records_par_batched(case.data, case.description.shape.record, &mask(), jobs);
            self.batch(
                &format!("batch records_par_batched {engine:?} jobs={jobs}"),
                &batch,
                budget,
            );
        }
        if let Some(generated) = case.description.generated {
            generated(case, self, plan);
        }
        if !plan.cli.is_empty() {
            self.cli(case, plan.pads, &plan.cli);
        }
    }

    /// `sequential`: one thread, an observing fold, every event traced — the
    /// truth's records, and the whole-tree parse's trace, counters and
    /// summary (the truth's counters where the shape is not inferred).
    pub fn sequential(&self, engine: Engine, got: &Streamed) {
        let column = format!("sequential {engine:?}");
        self.folded(&column, got);
        let at = self.label(&column);
        let trace = got.trace.as_deref();
        assert!(trace.is_some_and(|t| !t.is_empty()), "{at}: no events");
        assert_same_trace(&at, trace, self.traced().trace_roots());
    }

    /// `geometry`: the sharded driver in one row — the truth's records, and
    /// the counters and summary of the sequential run.
    pub fn geometry(&self, engine: Engine, (jobs, inflight): (usize, usize), got: &Streamed) {
        let column = format!("geometry {engine:?} jobs={jobs} inflight={inflight}");
        self.folded(&column, got);
        let at = self.label(&column);
        if got.counters.is_some() && !got.run.items.is_empty() {
            assert!(got.observed > 0, "{at}: the driver never said the core was exact");
        }
    }

    fn folded(&self, column: &str, got: &Streamed) {
        let at = self.label(column);
        same_run(&at, &got.run, &self.folded_run());
        if let Some(counters) = &got.counters {
            assert_eq!(*counters, Tally::of_counters(self.traced()), "{at}: counters");
        }
        if let Some(whole) = &self.whole {
            let summary = got.summary.as_ref().expect("a fold beside the run");
            assert_eq!(*summary, SourceSummary::of(&whole.pd), "{at}: summary");
        }
    }

    /// `records`: the record-at-a-time iterator of a headerless source
    /// yields the truth's records at the truth's boundaries.
    pub fn records(&self, case: &Case<'_>, engine: Engine) {
        let d = case.description;
        if d.shape.header.is_some() {
            return;
        }
        let at = self.label(&format!("records {engine:?}"));
        let parser = d.parser(self.policy, engine);
        let mask = mask();
        let mut records = parser.records(case.data, d.shape.record, &mask);
        let mut i = 0;
        while let Some(item) = records.next() {
            assert!(i < self.len(), "{at}: record count");
            assert_eq!(item, self.run.items[i], "{at}: record [{i}]");
            let progress = &self.run.progress[i];
            assert_eq!(records.position(), progress.end, "{at}: end of [{i}]");
            assert_eq!(records.budget(), progress.budget, "{at}: budget after [{i}]");
            i += 1;
        }
        assert_eq!(i, self.len(), "{at}: record count");
        assert_eq!(records.budget(), self.run.end.budget, "{at}: budget");
    }

    /// `resumed`: the driver started at boundary `k` — past the header, so
    /// none is delivered — yields the truth's records from `k` on and ends
    /// as it does.
    pub fn resumed(&self, k: usize, engine: Engine, (jobs, inflight): (usize, usize), got: &Run) {
        let at = self.label(&format!("resumed {engine:?} at {k} jobs={jobs} inflight={inflight}"));
        self.resumed_from(&at, self.boundary(k), got);
    }

    /// A run from `start` — the beginning, or a boundary — delivers the
    /// truth's header if it starts at the beginning, the truth's records
    /// after `start`, and ends as the truth does.
    fn resumed_from(&self, at: &str, start: ResumePoint, got: &Run) {
        let want = self.run_from(at, start);
        same_run(at, &Run { end: resumable(got.end), ..got.clone() }, &want);
    }

    /// The truth's run as a run from `start` delivers it.
    fn run_from(&self, at: &str, start: ResumePoint) -> Run {
        let beginning = start == ResumePoint::default();
        let k = (0..=self.len()).find(|&k| beginning || self.boundary(k) == start);
        let k = k.unwrap_or_else(|| panic!("{at}: {start:?} is no boundary of the truth"));
        Run {
            header: self.run.header.clone().filter(|_| beginning),
            items: self.run.items[k..].to_vec(),
            progress: self.run.progress[k..].to_vec(),
            end: resumable(self.run.end),
        }
    }

    /// `killed`: the killed run delivered a prefix of the truth's records,
    /// and the run resumed from its last checkpoint delivers the rest and
    /// ends as the truth does, its restored core holding the truth's
    /// counters.
    pub fn killed(&self, kill: &Kill, killed: &Run, resumed: &Resumed) {
        let Kill { plan, engine, jobs: (dies, resumes), journal, .. } = kill;
        let (after, every) = (plan.kill_after, plan.checkpoint_every);
        let store = if *journal { "journal" } else { "memory" };
        let at = self.label(&format!(
            "killed {engine:?} after {after} every {every} {dies:?}→{resumes:?} {store}"
        ));
        let n = killed.items.len();
        assert!(n <= self.len(), "{at}: the killed run delivered more than the truth");
        assert_eq!(killed.items, self.run.items[..n], "{at}: killed prefix");
        self.resumed_from(&at, resumed.start, &resumed.run);
        if let Some(counters) = &resumed.counters {
            assert_eq!(*counters, Tally::of_counters(&self.core), "{at}: counters");
        }
    }

    /// `batch`: every row of `batch` is the truth's record — clean rows
    /// share one canonical descriptor, so descriptors are compared exactly
    /// on error rows and by state elsewhere — and the budget is the truth's.
    pub fn batch(&self, column: &str, batch: &RecordBatch, budget: ErrorBudget) {
        let at = self.label(column);
        assert_eq!(batch.len(), self.len(), "{at}: row count");
        for (i, (v, pd)) in self.run.items.iter().enumerate() {
            assert_eq!(batch.row(i), *v, "{at}: row [{i}]");
            let got = batch.pd(i);
            assert_eq!(got.is_ok(), pd.is_ok(), "{at}: descriptor state [{i}]");
            if !pd.is_ok() {
                assert_eq!(got, *pd, "{at}: descriptor [{i}]");
            }
        }
        assert_eq!(budget, self.run.end.budget, "{at}: budget");
    }

    /// `facts`: what the truth says of itself. Its counters are its trace's,
    /// and the recovery events of the trace and of the run's counters are
    /// the budgets of the runs they heard; the records' extents tile the
    /// source, each panic skip inside its record; `has_syntax_error` is the
    /// errors walk at every descriptor node; and every clean span consumed
    /// a width inside its type's fact-base width interval.
    pub fn facts(&self, case: &Case<'_>) {
        let at = self.label("facts");
        let events = Tally::of_trace(self.traced());
        assert_eq!(
            Tally::of_counters(self.traced()),
            events,
            "{at}: counters (left) against the trace"
        );
        let heard = [
            ("trace", events, self.folded_run().end.budget),
            ("counters", Tally::of_counters(&self.core), self.run.end.budget),
        ];
        for (of, events, budget) in heard {
            let exhausted = events.budget_exhausted.values().sum::<u64>();
            assert_eq!(
                (events.panic_skipped_bytes, events.records_skipped, exhausted),
                (budget.panic_skipped, budget.skipped_records, u64::from(budget.exhausted())),
                "{at}: panic-skip, skip-record and exhaustion events of the {of}"
            );
        }

        let end = self.run.end;
        let mut from = self.boundary(0).offset;
        for (i, ((_, pd), progress)) in self.run.items.iter().zip(&self.run.progress).enumerate() {
            let to = progress.end.offset;
            let last = i + 1 == self.len();
            assert!(to > from || (last && end.stalled), "{at}: record [{i}] consumed nothing");
            let skip =
                pd.errors().into_iter().find(|(_, code, _)| *code == ErrorCode::PanicSkipped);
            // A descriptor flattened by a cap or a spent budget keeps no detail.
            let detailed = pd.kind != PdKind::Base;
            if pd.state == ParseState::Panic && detailed {
                assert!(skip.is_some(), "{at}: [{i}] panicked and skipped nothing: {pd}");
            }
            if let Some((_, _, loc)) = skip {
                let loc = loc.unwrap_or_else(|| panic!("{at}: [{i}] PanicSkipped without a loc"));
                let (b, e) = (loc.begin.offset, loc.end.offset);
                assert!(
                    from <= b && b < e && e <= to,
                    "{at}: [{i}] skipped {b}..{e} of {from}..{to}"
                );
            }
            from = to;
        }
        if !end.stalled && !end.budget.stopped() {
            assert_eq!(end.pos.offset, case.data.len(), "{at}: the records do not tile the source");
        }

        let header = self.run.header.iter().map(|(_, pd, _)| pd);
        let whole = self.whole.iter().map(|whole| &whole.pd);
        for pd in header.chain(self.run.items.iter().map(|(_, pd)| pd)).chain(whole) {
            syntax_agrees(&at, pd);
        }
        let widths = &case.description.widths;
        for (name, consumed) in self.clean_spans() {
            let (w, is_record) =
                widths.get(name).unwrap_or_else(|| panic!("{at}: unknown `{name}`"));
            assert!(consumed >= w.min, "{at}: `{name}` consumed {consumed}, below {}", w.min);
            // A record's span holds its framing, which its content width does not.
            let max = w.max.map(|max| max + u64::from(*is_record) * case.description.framing());
            assert!(
                max.is_none_or(|max| consumed <= max),
                "{at}: `{name}` consumed {consumed}, above {max:?}"
            );
        }
    }

    /// Every span of the whole-tree parse (of the truth's run where there
    /// is none) that closed without an error: its type, the bytes it took.
    pub fn clean_spans(&self) -> Vec<(&str, u64)> {
        let spans =
            trace_tally::spans(self.traced()).into_iter().filter(|(_, span)| span.nerr == 0);
        spans.map(|(name, span)| (name, (span.end - span.start) as u64)).collect()
    }
}

fn same_run(at: &str, got: &Run, want: &Run) {
    assert_eq!(got.header, want.header, "{at}: header");
    assert_eq!(got.items.len(), want.items.len(), "{at}: record count");
    for (i, (got, want)) in got.items.iter().zip(&want.items).enumerate() {
        assert_eq!(got.0, want.0, "{at}: value [{i}]");
        assert_eq!(got.1, want.1, "{at}: descriptor [{i}]");
    }
    assert_eq!(got.progress, want.progress, "{at}: boundaries");
    assert_eq!(got.end, want.end, "{at}: end");
}

/// Node for node; where the traces differ, the first differing node says
/// where.
fn assert_same_trace(at: &str, got: Option<&[TraceNode]>, want: Option<&[TraceNode]>) {
    if got != want {
        let (got, want) = (got.unwrap_or_default(), want.unwrap_or_default());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g, w, "{at}: trace node {i}");
        }
        panic!("{at}: trace lengths {} and {}", got.len(), want.len());
    }
}

/// `has_syntax_error` answers what its definition says — "state not Ok, or
/// some `errors()` entry is not semantic" — at every node of `pd`.
fn syntax_agrees(at: &str, pd: &ParseDesc) {
    let walked = pd.state != ParseState::Ok
        || (pd.nerr > 0 && pd.errors().iter().any(|(_, code, _)| !code.is_semantic()));
    assert_eq!(pd.has_syntax_error(), walked, "{at}: has_syntax_error of {pd}");
    match &pd.kind {
        PdKind::Base => {}
        PdKind::Struct { fields } => fields.iter().for_each(|(_, child)| syntax_agrees(at, child)),
        PdKind::Array { elts, .. } => elts.iter().for_each(|child| syntax_agrees(at, child)),
        PdKind::Union { pd: inner, .. } | PdKind::Opt { inner } | PdKind::Typedef { inner } => {
            inner.iter().for_each(|child| syntax_agrees(at, child))
        }
    }
}

/// Which rows of each column a check runs (the facts hold of every
/// truth): what a cell picks, or every row a fault seed is checked in.
#[derive(Default)]
pub struct Plan {
    pub sequential: Vec<Engine>,
    pub records: Vec<Engine>,
    pub geometries: Vec<(Engine, (usize, usize))>,
    /// Whether the geometry rows attach a counting core.
    pub counted: bool,
    /// `(boundary, engine, geometry)`.
    pub resumes: Vec<(usize, Engine, (usize, usize))>,
    pub kills: Vec<Kill>,
    /// The truth's records pushed into a `RecordBatch`.
    pub batch: bool,
    /// `records_par_batched` rows, `(engine, jobs)`, for headerless shapes.
    pub batched: Vec<(Engine, usize)>,
    /// The generated module's whole-source parse.
    pub generated: bool,
    /// The generated record reader, sequentially.
    pub reader: bool,
    /// The generated reader under `par::drive`: `(boundary, geometry)`.
    pub drives: Vec<(usize, (usize, usize))>,
    /// The `pads` binary the `cli` rows run: a `pads-cli` suite's
    /// `CARGO_BIN_EXE_pads`.
    pub pads: &'static str,
    pub cli: Vec<Cli>,
}

pub const ENGINES: [Engine; 2] = [Engine::Interp, Engine::Vm];

/// Four workers taking a dozen records two at a time (the default
/// in-flight bound would make them one chunk, parsed sequentially).
pub const CHUNKS_OF_TWO: (usize, usize) = (4, 8);

/// `engine` in every row of `GEOMETRIES`.
pub fn every_geometry(engine: Engine) -> Vec<(Engine, (usize, usize))> {
    GEOMETRIES.map(|geometry| (engine, geometry)).to_vec()
}

/// Every record boundary of `truth`, each with a geometry that cycles with
/// it.
pub fn every_boundary(truth: &Truth) -> impl Iterator<Item = (usize, (usize, usize))> {
    let cycle = [SEQUENTIAL, CHUNKS_OF_TWO, (2, 1)];
    (0..=truth.len()).map(move |k| (k, cycle[k % 3]))
}

impl Plan {
    /// Every column but the generated ones and `cli`, on both engines: one
    /// thread, records, every geometry counted, resumed at every boundary,
    /// killed halfway and resumed on four workers from memory or a journal,
    /// and the batch.
    pub fn every_column(truth: &Truth) -> Plan {
        let plan = KillPlan { kill_after: truth.len().div_ceil(2), checkpoint_every: 1 };
        let (jobs, counted) = ((SEQUENTIAL, CHUNKS_OF_TWO), true);
        let kill = |(engine, journal)| Kill { jobs, counted, journal, ..Kill::at(plan, engine) };
        let resumes = every_boundary(truth).flat_map(|(k, g)| ENGINES.map(|e| (k, e, g)));
        Plan {
            sequential: ENGINES.to_vec(),
            records: ENGINES.to_vec(),
            geometries: ENGINES.into_iter().flat_map(every_geometry).collect(),
            counted: true,
            resumes: resumes.collect(),
            kills: ENGINES.into_iter().flat_map(|e| [(e, false), (e, true)]).map(kill).collect(),
            batch: true,
            ..Plan::default()
        }
    }

    /// The `cli` rows `rows`, through the binary at `pads`.
    pub fn cli(pads: &'static str, rows: Vec<Cli>) -> Plan {
        Plan { pads, cli: rows, ..Plan::default() }
    }

    /// Every row a CLF fault seed is checked in: both engines on one thread
    /// and record at a time; the interpreter on two and on four workers,
    /// one-record chunks or chunks of two by turns; the VM on one and on
    /// four workers taking two records at a time; killed at the seed's
    /// `KillPlan` on one thread and resumed on four, and resumed on one
    /// thread where that kill last committed; the batch; and the generated
    /// module, its reader, and the reader resumed where the kill last
    /// committed, on one and on four workers.
    pub fn for_seed(seed: u64, truth: &Truth) -> Plan {
        let (n, chunk) = (truth.len(), [1, 8][seed as usize % 2]);
        let kill = KillPlan::for_seed(seed, n);
        let committed = Kill::last_commit(kill, n);
        let killed = Kill { jobs: (SEQUENTIAL, CHUNKS_OF_TWO), ..Kill::at(kill, Engine::Interp) };
        Plan {
            sequential: ENGINES.to_vec(),
            records: ENGINES.to_vec(),
            geometries: vec![
                (Engine::Interp, (2, chunk)),
                (Engine::Interp, (4, chunk)),
                (Engine::Vm, SEQUENTIAL),
                (Engine::Vm, CHUNKS_OF_TWO),
            ],
            resumes: vec![(committed, Engine::Interp, SEQUENTIAL)],
            kills: vec![killed],
            batch: true,
            generated: true,
            reader: true,
            drives: vec![(committed, SEQUENTIAL), (committed, CHUNKS_OF_TWO)],
            ..Plan::default()
        }
    }
}

/// A cell over `case`: under every policy, its truth checked against the
/// rows `plan` picks for it. Returns the truths, the unlimited policy's
/// first.
pub fn every_policy(case: &Case<'_>, plan: impl Fn(&Truth) -> Plan) -> Vec<Truth> {
    let truths: Vec<_> = policies().into_iter().map(|policy| Truth::of(case, policy)).collect();
    truths.iter().for_each(|truth| truth.check(case, &plan(truth)));
    truths
}

/// A `cli` cell over `case`: `rows` through the binary at `pads` under
/// every policy, and under a two-error budget in the best-effort mode (the
/// matrix's allows three), each truth `check`ed first.
pub fn every_cli_policy(case: &Case<'_>, pads: &'static str, rows: &[Cli], check: fn(&Truth)) {
    let best_effort = RecoveryPolicy::unlimited().with_max_errs(2).with_on_exhausted(BestEffort);
    for policy in policies().into_iter().chain([best_effort]) {
        let truth = Truth::of(case, policy);
        check(&truth);
        truth.check(case, &Plan::cli(pads, rows.to_vec()));
    }
}

/// A cell over `bundled`'s torture corpus, and over the same corpus with no
/// newline after its last record.
pub fn torture(bundled: &Bundled, plan: impl Fn(&Truth) -> Plan) {
    let (name, data) = (bundled.name, bundled.torture);
    let description = bundled.description();
    let unterminated = data.strip_suffix(b"\n").unwrap_or(data);
    let cases = [(name.to_owned(), data), (format!("{name}/no final newline"), unterminated)];
    for (name, data) in cases {
        every_policy(&Case::new(name, &description, data), &plan);
    }
}

/// The fault seeds: the main sweep's thousand, checked in every row
/// [`Plan::for_seed`] gives them, then a block for each cell that checks
/// its own rows on fault seeds — fifty for the journal's and 120 for the
/// header source's, which the main sweep does not run, and twenty more
/// seeds for rows it does, or for the `cli` column. The blocks are
/// disjoint, so no seed's truth is computed twice in the suite.
pub mod seeds {
    use std::ops::Range;

    pub const SWEEP: Range<u64> = 0..1000;
    pub const JOURNAL: Range<u64> = 1000..1050;
    pub const VM_JOURNAL: Range<u64> = 1050..1100;
    pub const HEADER_SOURCE: Range<u64> = 1100..1220;
    pub const PARALLEL: Range<u64> = 1220..1240;
    pub const VM: Range<u64> = 1240..1260;
    pub const KILLED: Range<u64> = 1260..1280;
    pub const RESUMED_READER: Range<u64> = 1280..1300;
    pub const BYTES: Range<u64> = 1300..1320;
    pub const SYNTAX: Range<u64> = 1320..1340;
    pub const EVENTS: Range<u64> = 1340..1360;
    pub const WIDTHS: Range<u64> = 1360..1380;
    pub const CLI: Range<u64> = 1380..1400;
}

/// What a sweep's mutations reached: of its seeds, how many whole-tree
/// parses panicked, had a syntax error, and left clean spans, and how many
/// runs went on past a header with a syntax error.
#[derive(Debug, Default)]
pub struct Reached {
    pub seeds: u64,
    pub panicked: u64,
    pub syntax: u64,
    pub spans: u64,
    pub past_aborted: u64,
}

/// A cell over fault seeds: seed `s` mutates `bundled`'s clean corpus by
/// its own `FaultPlan` (the one place the suite makes one), and the truth
/// under policy `s mod 6` is checked against the rows `plan` picks for it.
/// The seeds are independent, so a sweep spreads them over every CPU
/// (else the last long test of a suite runs alone on one).
pub fn sweep(
    bundled: &Bundled,
    seeds: Range<u64>,
    plan: impl Fn(u64, &Truth) -> Plan + Sync,
) -> Reached {
    let description = bundled.description();
    let policies = policies();
    let next = AtomicU64::new(seeds.start);
    let worker = || {
        let mut reached = Reached::default();
        loop {
            let seed = next.fetch_add(1, Ordering::Relaxed);
            if seed >= seeds.end {
                return reached;
            }
            let data = FaultPlan::for_seed(seed).apply(&bundled.clean);
            let case = Case::new(format!("{} seed {seed}", bundled.name), &description, &data);
            let truth = Truth::of(&case, policies[seed as usize % policies.len()]);
            truth.check(&case, &plan(seed, &truth));
            let whole = truth.whole.as_ref().expect("bundled sources stream");
            reached.seeds += 1;
            reached.panicked += u64::from(whole.pd.state == ParseState::Panic);
            reached.syntax += u64::from(whole.pd.has_syntax_error());
            reached.spans += u64::from(!truth.clean_spans().is_empty());
            reached.past_aborted += u64::from(truth.aborted() && truth.len() > 0);
        }
    };
    on_every_cpu(worker).into_iter().fold(Reached::default(), |reached, part| Reached {
        seeds: reached.seeds + part.seeds,
        panicked: reached.panicked + part.panicked,
        syntax: reached.syntax + part.syntax,
        spans: reached.spans + part.spans,
        past_aborted: reached.past_aborted + part.past_aborted,
    })
}

thread_local! {
    static SPREAD: Cell<bool> = const { Cell::new(false) };
}

/// `worker` on every CPU at once: what each returned, or the first panic.
/// Called from a worker (a sweep's seed checks its `cli` rows), `worker`
/// runs once, on that thread: the work spreads over the CPUs at one level.
fn on_every_cpu<T: Send>(worker: impl Fn() -> T + Sync) -> Vec<T> {
    if SPREAD.get() {
        return vec![worker()];
    }
    let workers = thread::available_parallelism().map_or(1, |n| n.get());
    let spread = || {
        SPREAD.set(true);
        worker()
    };
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(spread)).collect();
        let join = |handle: thread::ScopedJoinHandle<'_, T>| {
            handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        };
        handles.into_iter().map(join).collect()
    })
}

/// A generated module of a case's description: its record type's `read`,
/// `write` and in-memory `verify`, the value of a record and its
/// whole-source parse as the interpreter builds them (through the module's
/// `to_arena` lowering), and its pre-interned core.
pub trait Generated {
    type Record<'d>: PartialEq + Debug + Send;
    fn read<'d>(cur: &mut Cursor<'d>, mask: &Mask) -> (Self::Record<'d>, ParseDesc);
    fn write(record: &Self::Record<'_>, out: &mut Vec<u8>) -> Result<(), ErrorCode>;
    fn verify(record: &Self::Record<'_>) -> bool;
    fn value(record: &Self::Record<'_>) -> Value;
    fn parse_source(cur: &mut Cursor<'_>, mask: &Mask) -> (Value, ParseDesc);
    fn metrics_core() -> MetricsCore;
}

/// A cursor over `data` under `policy`, at `start` with its budget restored:
/// where a generated record reader opens.
pub fn cursor_at(data: &[u8], policy: RecoveryPolicy, start: ResumePoint) -> Cursor<'_> {
    let mut cur = Cursor::new(data).with_policy(policy).with_start(start.offset, start.record);
    cur.set_budget(start.budget);
    cur
}

/// What a run under `par::drive` delivered: the records, the progress of
/// each, the final budget.
pub type Drained<T> = (Vec<(T, ParseDesc)>, Vec<Progress>, ErrorBudget);

/// Records of `data` from `start` under `par::drive` in a `(jobs,
/// max_inflight)` geometry, each reader opened by `open`; with each
/// record's progress and the final budget. Every generated module reads
/// newline-framed ASCII.
pub fn drive<'d, R>(
    data: &'d [u8],
    policy: RecoveryPolicy,
    (jobs, max_inflight): (usize, usize),
    start: ResumePoint,
    open: impl Fn(&'d [u8], RecoveryPolicy, ResumePoint) -> R + Sync,
) -> Drained<R::Item>
where
    R: RecordReader,
    R::Item: Send,
{
    let options = ParseOptions::default();
    let job = Job {
        data,
        discipline: options.discipline,
        charset: options.charset,
        policy,
        jobs,
        max_inflight,
        resume: start,
    };
    let (mut items, mut progress) = (Vec::new(), Vec::new());
    let budget = par::drive(
        &job,
        |slice, policy, start| (open(slice, policy, start), || None::<()>),
        |chunk, _| {
            for parsed in chunk.drain(..) {
                progress.push(parsed.progress);
                items.push((parsed.item, parsed.pd));
            }
        },
    );
    (items, progress, budget)
}

/// `generated`: the module's whole-source parse gives the whole-tree
/// parse's descriptor, value and event stream. `reader`: its record reader,
/// from where the truth's records start, yields the truth's descriptors,
/// values, boundaries and budget; each record, damaged or not, verifies as
/// the [`Verifier`] finds the interpreter's value, and each clean record
/// writes as the interpreter's writer does. `drive`: under `par::drive`, from the
/// plan's boundaries, the reader yields what it yields sequentially.
pub fn generated<'a, G: Generated>(case: &Case<'a>, truth: &Truth, plan: &Plan) {
    let d = case.description;
    let (policy, mask) = (truth.policy, mask());
    if let Some(whole) = truth.whole.as_ref().filter(|_| plan.generated) {
        let at = truth.label("generated parse_source");
        let core = trace_tally::unbounded(G::metrics_core()).into_handle();
        let mut cur = Cursor::new(case.data).with_policy(policy).with_metrics(core.clone());
        let (value, pd) = G::parse_source(&mut cur, &mask);
        assert_eq!(pd, whole.pd, "{at}: descriptor");
        assert_eq!(value, whole.value, "{at}: value");
        let core = core.borrow();
        assert_eq!(
            Tally::of_counters(&core),
            Tally::of_trace(&core),
            "{at}: counters against the trace"
        );
        assert_same_trace(&at, core.trace_roots(), whole.core.trace_roots());
    }
    if !plan.reader && plan.drives.is_empty() {
        return;
    }

    let at = truth.label("generated reader");
    let read = |cur: &mut Cursor<'a>| G::read(cur, &mask);
    let open = |slice, policy, start| CursorRecords::new(cursor_at(slice, policy, start), &read);
    let mut reader = open(case.data, policy, truth.boundary(0));
    let mut sequential = Vec::new();
    let writer = Writer::new(d.schema, d.registry);
    let verifier = Verifier::new(d.schema);
    while let Some((record, pd)) = reader.next_record() {
        let i = sequential.len();
        assert!(i < truth.len(), "{at}: record count");
        let (value, want) = &truth.run.items[i];
        assert_eq!(pd, *want, "{at}: descriptor [{i}]");
        assert_eq!(G::value(&record), *value, "{at}: value [{i}]");
        let progress = truth.run.progress[i];
        assert_eq!(reader.position().offset, progress.end.offset, "{at}: end of [{i}]");
        assert_eq!(reader.budget(), progress.budget, "{at}: budget after [{i}]");
        let verified = verifier.is_valid(d.shape.record, value);
        assert_eq!(G::verify(&record), verified, "{at}: verify [{i}]");
        if want.is_ok() {
            let (mut generated, mut interpreted) = (Vec::new(), Vec::new());
            let generated = G::write(&record, &mut generated).map(|()| generated);
            let interpreted =
                writer.write_named(&mut interpreted, d.shape.record, value).map(|()| interpreted);
            assert_eq!(generated, interpreted, "{at}: written [{i}]");
        }
        sequential.push((record, pd));
    }
    assert_eq!(sequential.len(), truth.len(), "{at}: record count");
    assert_eq!(reader.budget(), truth.run.end.budget, "{at}: budget");
    for &(k, (jobs, inflight)) in &plan.drives {
        let at = truth.label(&format!("generated drive at {k} jobs={jobs} inflight={inflight}"));
        let (items, progress, budget) =
            drive(case.data, policy, (jobs, inflight), truth.boundary(k), open);
        assert_eq!(items, sequential[k..], "{at}: records");
        let ends = |p: &[Progress]| {
            p.iter().map(|p| (p.record, p.end.offset, p.budget)).collect::<Vec<_>>()
        };
        assert_eq!(ends(&progress), ends(&truth.run.progress[k..]), "{at}: boundaries");
        assert_eq!(budget, truth.run.end.budget, "{at}: budget");
    }
}

/// `orders_t`: a record array of pipe-separated orders whose total may not
/// be below their id.
pub const ORDERS: &str = include_str!("../descriptions/orders.pads");

/// A `pads` tool the `cli` column runs: `parse --format <format>`, `accum`
/// with `--summaries` or not, `fmt` (which takes no `--jobs`), and `parse
/// --journal` killed at a plan and resumed — or, with no plan, run through
/// at the default checkpoint cadence and resumed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tool {
    Parse(&'static str),
    Accum(bool),
    Fmt,
    Journal(Option<KillPlan>),
}
use Tool::{Accum, Fmt, Journal, Parse};

/// Every tool but the journal.
pub const TOOLS: [Tool; 6] =
    [Parse("report"), Parse("xml"), Parse("none"), Accum(false), Accum(true), Fmt];

/// One row of the `cli` column: a tool, the `--engine` it names (`None`:
/// the default), and its `--jobs` and `--max-inflight-records` (`None`: the
/// defaults).
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    pub tool: Tool,
    pub engine: Option<Engine>,
    pub geometry: Option<(usize, usize)>,
}

/// `tools` in each geometry (`pads fmt` in none), under the default engine.
pub fn cli(tools: &[Tool], geometries: &[Option<(usize, usize)>]) -> Vec<Cli> {
    let geometries = |tool| if tool == Fmt { &[None][..] } else { geometries };
    let rows = tools.iter().flat_map(|&tool| geometries(tool).iter().map(move |&g| (tool, g)));
    rows.map(|(tool, geometry)| Cli { tool, engine: None, geometry }).collect()
}

/// `name value`, as arguments.
fn flag(name: &str, value: impl ToString) -> [String; 2] {
    [name.to_owned(), value.to_string()]
}

impl Cli {
    /// The row's arguments under `policy`, less the files. The unlimited
    /// policy is the CLI's default, so it gives no budget flag at all.
    fn args(&self, policy: RecoveryPolicy) -> Vec<String> {
        let tool = match self.tool {
            Parse(format) => vec!["parse", "--format", format],
            Accum(summaries) => ["accum", "--summaries"][..1 + usize::from(summaries)].to_vec(),
            Fmt => vec!["fmt"],
            Journal(_) => vec!["parse"],
        };
        let RecoveryPolicy { max_errs, max_record_errs, max_panic_skip, on_exhausted } = policy;
        let limited = policy != RecoveryPolicy::unlimited();
        let flags = [
            max_errs.map(|n| flag("--max-errs", n)),
            max_record_errs.map(|n| flag("--max-record-errs", n)),
            max_panic_skip.map(|n| flag("--max-panic-skip", n)),
            limited.then(|| flag("--on-overflow", on_exhausted)),
            self.engine.map(|engine| flag("--engine", format!("{engine:?}").to_lowercase())),
            self.geometry.map(|(jobs, _)| flag("--jobs", jobs)),
            self.geometry.map(|(_, inflight)| flag("--max-inflight-records", inflight)),
        ];
        tool.into_iter().map(str::to_owned).chain(flags.into_iter().flatten().flatten()).collect()
    }
}

/// What a `pads` process printed — status, stdout, stderr — or what the
/// truth says it prints.
type Printed = (Option<i32>, Vec<u8>, String);

/// `stdout`, and the `pads: <line>` a run whose data had errors ends with.
fn printed(stdout: String, line: Option<String>) -> Printed {
    let stderr = line.map(|line| format!("pads: {line}\n")).unwrap_or_default();
    (Some(if stderr.is_empty() { 0 } else { 2 }), stdout.into(), stderr)
}

fn same(at: &str, got: &Printed, want: &Printed) {
    assert_eq!(got.0, want.0, "{at}: status\n{}", got.2);
    assert_eq!(got.2, want.2, "{at}: stderr");
    assert!(got.1 == want.1, "{at}: stdout differs from the truth's");
}

/// `run` as the driver delivers it to `sink`: the header, then the records
/// unless the header ends the run, each indexed from the run's first.
fn replay(run: &Run, sink: &mut impl RecordSink) {
    if let Some((value, pd, progress)) = &run.header {
        if !sink.header(value.clone(), pd.clone(), progress) {
            return;
        }
    }
    for (i, ((value, pd), progress)) in run.items.iter().zip(&run.progress).enumerate() {
        sink.record(i, value, pd, progress);
    }
}

/// A directory of its own with `files` (name, contents) written into it:
/// the directory, and the files' paths.
pub fn written<const N: usize>(files: [(&str, &[u8]); N]) -> (PathBuf, [String; N]) {
    static DIRS: AtomicUsize = AtomicUsize::new(0);
    let n = DIRS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pads-cli-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let paths = files.map(|(name, contents)| {
        std::fs::write(dir.join(name), contents).expect("write a file");
        dir.join(name).to_string_lossy().into_owned()
    });
    (dir, paths)
}

impl Truth {
    /// `cli`: `pads` over the case's description and bytes, written to a
    /// directory of the column's own, under the truth's policy, the rows
    /// spread over every CPU. `parse` prints the whole-tree parse's report
    /// or `value_to_xml` document, its error line and status 0 or 2;
    /// `accum` and `fmt` an `Accumulator` with the CLI's defaults or a
    /// `FormatSink` with its delimiter, fed the truth's run; `parse
    /// --journal` as [`Column::killed`] says.
    pub fn cli(&self, case: &Case<'_>, pads: &str, rows: &[Cli]) {
        let text = case.description.text.expect("the cli column writes the description's text");
        let flags = case.description.cli_flags().unwrap_or_else(|why| panic!("{}: {why}", self.at));
        let (dir, files) = written([("d.pads", text.as_bytes()), ("data", case.data)]);
        let whole = self.whole.as_ref().expect("pads streams the case");
        let summary = SourceSummary::of(&whole.pd);
        let column = Column { truth: self, case, pads, flags, dir, files, summary };
        let next = AtomicUsize::new(0);
        on_every_cpu(|| {
            while let Some(row) = rows.get(next.fetch_add(1, Ordering::Relaxed)) {
                column.row(row);
            }
        });
        std::fs::remove_dir_all(&column.dir).expect("remove the cli column's files");
    }
}

/// The `cli` column over one truth: the flags that read the case, its
/// files, in a directory of the column's own, and the whole-tree summary.
struct Column<'c> {
    truth: &'c Truth,
    case: &'c Case<'c>,
    pads: &'c str,
    flags: Vec<String>,
    dir: PathBuf,
    files: [String; 2],
    summary: SourceSummary,
}

impl Column<'_> {
    fn row(&self, row: &Cli) {
        let (truth, d, source) = (self.truth, self.case.description, &self.files[1]);
        let args = [row.args(truth.policy), self.flags.clone()].concat();
        let at = truth.label(&format!("cli `{}`", args.join(" ")));
        let bad = |n: u64| (n > 0).then(|| format!("{n} bad record(s) in {source}"));
        let (stdout, line) = match row.tool {
            Parse("report") => (self.summary.report(), self.errors()),
            Parse("xml") => {
                let whole = truth.whole.as_ref().expect("pads streams the case");
                let root = &d.schema.source_def().name;
                (value_to_xml(&whole.value, Some(&whole.pd), root, 0), self.errors())
            }
            Parse(_) => (String::new(), self.errors()),
            Accum(summaries) => {
                let summaries = summaries.then_some((16, 1024));
                let config = AccConfig { summaries, ..AccConfig::default() };
                let mut acc = Accumulator::with_config(d.schema, d.shape.record, config);
                replay(&truth.run, &mut acc);
                (acc.report("<top>"), bad(acc.bad_records))
            }
            Fmt => {
                let mut out = Vec::new();
                let mut sink = FormatSink::new(Formatter::new(&["|"]), &mut out);
                replay(&truth.run, &mut sink);
                let bad = bad(sink.bad_records());
                sink.finish().expect("writes into memory");
                (String::from_utf8(out).expect("utf-8"), bad)
            }
            Journal(kill) => return self.killed(&at, &args, kill),
        };
        same(&at, &self.run(&args, &[]), &printed(stdout, line));
    }

    /// `pads` run with `args`, the case's files, then `extra`.
    fn run(&self, args: &[String], extra: &[String]) -> Printed {
        let mut pads = Command::new(self.pads);
        let out = pads.args(args).args(&self.files).args(extra).output().expect("run pads");
        (out.status.code(), out.stdout, String::from_utf8_lossy(&out.stderr).into_owned())
    }

    /// The line `pads parse` ends with: the whole-tree parse's errors.
    fn errors(&self) -> Option<String> {
        (!self.summary.is_ok()).then(|| self.summary.error_line(&self.files[1]))
    }

    /// `args` run through with `--metrics=json`; run at `kill` (through,
    /// where there is none), printing only a notice if killed; resumed
    /// from a copy of that journal with a run through's `--metrics=json`
    /// (the truth has no rendering of that snapshot), and from the journal
    /// with the report the fold makes of the truth's records from its last
    /// checkpoint (a boundary of the truth) and the truth's status. A run
    /// that ends before its kill leaves a journal that covers the source,
    /// so resuming it re-parses nothing.
    fn killed(&self, at: &str, args: &[String], kill: Option<KillPlan>) {
        let truth = self.truth;
        let journal = |name| self.dir.join(format!("{:?}-{name}.wal", thread::current().id()));
        let [wal, copy, through] = ["killed", "copy", "through"].map(journal);
        let journaled = |wal: &Path, extra: &[String]| {
            self.run(args, &[&flag("--journal", wal.display())[..], extra].concat())
        };
        let through = journaled(&through, &["--metrics=json".into()]);
        assert_eq!(through.0, printed(String::new(), self.errors()).0, "{at}: run through");
        let flags = kill.map(|KillPlan { kill_after, checkpoint_every: every }| {
            [flag("--kill-after", kill_after), flag("--checkpoint-records", every)].concat()
        });
        let at = &format!("{at} {kill:?}");
        let killed = journaled(&wal, &flags.unwrap_or_default());
        let (journal, _) = pads_journal::Journal::open(&wal).expect("open the journal");
        let start = journal.last().map_or_else(ResumePoint::default, |cp| {
            let (offset, record) = (cp.offset as usize, cp.record as usize);
            ResumePoint { offset, record, budget: cp.budget }
        });
        if kill.is_some_and(|kill| truth.folded_run().items.len() >= kill.kill_after) {
            let notice = killed.2.starts_with("pads: --kill-after: stopped after");
            let quiet = killed.0 == Some(0) && killed.1.is_empty();
            assert!(quiet && notice, "{at}: killed {killed:?}");
        } else {
            let at = format!("{at}, ended before the kill");
            same(&at, &killed, &printed(self.summary.report(), self.errors()));
            let end =
                if truth.aborted() { ResumePoint::default() } else { truth.boundary(truth.len()) };
            assert_eq!(start, end, "{at}: the last checkpoint is not the end of the run");
        }
        std::fs::copy(&wal, &copy).expect("copy the journal");
        let metrics = journaled(&copy, &["--resume".into(), "--metrics=json".into()]);
        assert_eq!((metrics.0, metrics.1), (through.0, through.1), "{at}: resumed --metrics=json");
        let from = if start == ResumePoint::default() {
            self.summary.clone()
        } else {
            let run = truth.run_from(at, start);
            let mut fold = SourceFold::new(self.case.description.schema);
            replay(&run, &mut fold);
            fold.finish(&run.end)
        };
        let (errs, source) = (truth.run.end.budget.errs, &self.files[1]);
        let before = format!("{errs} error(s) in {source} (all before the resume point)");
        let said = (!from.is_ok()).then(|| from.error_line(source));
        let said = said.or((!self.summary.is_ok()).then_some(before));
        let at = format!("{at}, resumed at {}", start.record);
        same(&at, &journaled(&wal, &["--resume".into()]), &printed(from.report(), said));
    }
}
