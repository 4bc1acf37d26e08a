//! Parallel/sequential equivalence: the record-sharded engine must be
//! byte-identical to the sequential record loop — same values, same parse
//! descriptors (with global coordinates), same error-budget counters, same
//! observer counter snapshots — at every job count, for every recovery
//! policy, on both the curated torture corpora and a fault-injected sweep.
//!
//! Also home to the `Popt` backtracking regression test: a failed optional
//! must leave the cursor offset, record coordinates, and error budget
//! exactly as its single checkpoint saw them.

#[path = "common/collect.rs"]
mod collect;
#[path = "common/readers.rs"]
mod readers;
#[path = "common/tables.rs"]
mod tables;
#[path = "common/trace_tally.rs"]
mod trace_tally;

use std::fmt::Debug;
use std::sync::Arc;
use std::thread::{self, ThreadId};

use pads::generated::clf as gen_clf;
use pads::{
    compile, descriptions, BaseMask, Charset, Engine, ErrorBudget, Mask, OnExhausted, PadsParser,
    ParseDesc, ParseOptions, RecoveryPolicy, Registry, ResumePoint, Schema, Value,
};
use pads_runtime::base::BaseType;
use pads_runtime::genrt::CursorRecords;
use pads_runtime::par::RecordReader;
use pads_runtime::{Cursor, Endian, ErrorCode, FaultPlan, MetricsHandle, Prim, PrimKind};
use collect::{counts_json, metered};
use readers::{cursor_at, Readers};
use tables::{policies, GEOMETRIES};
use trace_tally::Tally;

const CLF: &[u8] = include_bytes!("data/torture_clf.log");
const SIRIUS: &[u8] = include_bytes!("data/torture_sirius.txt");
const MIXED: &[u8] = include_bytes!("data/torture_mixed.txt");

fn mask() -> Mask {
    Mask::all(BaseMask::CheckAndSet)
}

type Items<T> = Vec<(T, ParseDesc)>;

/// One engine of the matrix: how it reads a source sequentially, and how
/// under the sharded driver.
trait Sharded<'d> {
    type Item: PartialEq + Debug;

    /// The sequential ground truth — one reader over the whole source,
    /// drained — plus every record boundary: element `k` is the resume
    /// point after `k` records (the last one is the end of the run).
    fn sequential_with_boundaries(
        &self,
        data: &'d [u8],
        policy: RecoveryPolicy,
    ) -> (Items<Self::Item>, Vec<ResumePoint>);

    /// The same source in a `(jobs, max_inflight)` geometry from `resume`.
    fn sharded_from(
        &self,
        data: &'d [u8],
        policy: RecoveryPolicy,
        geometry: (usize, usize),
        resume: ResumePoint,
    ) -> (Items<Self::Item>, ErrorBudget);

    /// The sequential ground truth and its final budget.
    fn sequential(
        &self,
        data: &'d [u8],
        policy: RecoveryPolicy,
    ) -> (Items<Self::Item>, ErrorBudget) {
        let (items, boundaries) = self.sequential_with_boundaries(data, policy);
        (items, boundaries.last().map_or_else(ErrorBudget::new, |b| b.budget))
    }

    /// [`sharded_from`](Self::sharded_from) the start of the source.
    fn sharded(
        &self,
        data: &'d [u8],
        policy: RecoveryPolicy,
        geometry: (usize, usize),
    ) -> (Items<Self::Item>, ErrorBudget) {
        self.sharded_from(data, policy, geometry, ResumePoint::default())
    }
}

fn drain<R: RecordReader>(mut reader: R) -> (Items<R::Item>, Vec<ResumePoint>) {
    let mut items = Vec::new();
    let mut boundaries = vec![ResumePoint::default()];
    while let Some(item) = reader.next_record() {
        items.push(item);
        boundaries.push(ResumePoint {
            offset: reader.position().offset,
            record: items.len(),
            budget: reader.budget(),
        });
    }
    (items, boundaries)
}

impl<'d, R, O> Sharded<'d> for Readers<O>
where
    R: RecordReader,
    R::Item: PartialEq + Debug + Send,
    O: Fn(&'d [u8], RecoveryPolicy, ResumePoint) -> R + Sync,
{
    type Item = R::Item;

    fn sequential_with_boundaries(
        &self,
        data: &'d [u8],
        policy: RecoveryPolicy,
    ) -> (Items<R::Item>, Vec<ResumePoint>) {
        drain(self.0(data, policy, ResumePoint::default()))
    }

    fn sharded_from(
        &self,
        data: &'d [u8],
        policy: RecoveryPolicy,
        geometry: (usize, usize),
        resume: ResumePoint,
    ) -> (Items<R::Item>, ErrorBudget) {
        Readers::sharded_from(self, data, policy, geometry, resume)
    }
}

/// The interpreter or the VM through the one public driver: `records`
/// drained sequentially, `stream_source` into a collecting sink sharded.
struct Runtime<'a> {
    schema: &'a Schema,
    registry: &'a Registry,
    engine: Engine,
    record: &'a str,
}

impl Runtime<'_> {
    fn parser(&self, policy: RecoveryPolicy) -> PadsParser<'_> {
        PadsParser::new(self.schema, self.registry).with_options(ParseOptions {
            policy,
            engine: self.engine,
            ..Default::default()
        })
    }
}

impl<'d> Sharded<'d> for Runtime<'_> {
    type Item = Value;

    fn sequential_with_boundaries(
        &self,
        data: &'d [u8],
        policy: RecoveryPolicy,
    ) -> (Items<Value>, Vec<ResumePoint>) {
        drain(self.parser(policy).records(data, self.record, &mask()))
    }

    fn sharded_from(
        &self,
        data: &'d [u8],
        policy: RecoveryPolicy,
        geometry: (usize, usize),
        resume: ResumePoint,
    ) -> (Items<Value>, ErrorBudget) {
        let parser = self.parser(policy);
        let (sink, budget) = collect::stream(&parser, data, self.record, &mask(), geometry, resume);
        for (i, progress) in sink.progress.iter().enumerate() {
            assert_eq!(progress.record, resume.record + i, "progress is dense and in record order");
        }
        (sink.items, budget)
    }
}

/// The one engine-neutral check: the sharded driver in every geometry
/// yields the values, parse descriptors (whole-source coordinates) and
/// budget of the same engine drained sequentially, under every recovery
/// policy — with and without a newline after the final record, and resumed
/// from a boundary inside a chunk.
fn assert_sharded_matches_sequential<'d>(label: &str, data: &'d [u8], engine: &impl Sharded<'d>) {
    let unterminated = data.strip_suffix(b"\n").unwrap_or(data);
    for (label, data) in [(label.to_owned(), data), (format!("{label}/no final newline"), unterminated)]
    {
        for policy in policies() {
            let (seq_items, boundaries) = engine.sequential_with_boundaries(data, policy);
            let seq_budget = boundaries.last().map_or_else(ErrorBudget::new, |b| b.budget);
            for geometry in GEOMETRIES {
                let (par_items, par_budget) = engine.sharded(data, policy, geometry);
                let at = format!("{label} jobs,inflight={geometry:?} policy={policy:?}");
                assert_eq!(par_items.len(), seq_items.len(), "{at}: record count");
                for (i, (par, seq)) in par_items.iter().zip(&seq_items).enumerate() {
                    assert_eq!(par.0, seq.0, "{at}: value [{i}]");
                    assert_eq!(par.1, seq.1, "{at}: descriptor [{i}]");
                }
                assert_eq!(par_budget, seq_budget, "{at}: budget");
            }
            // Resumed after 1 and after 5 records, in chunks of two: the
            // boundary falls inside what was a chunk of the full run.
            for from in boundaries.iter().skip(1).step_by(4).take(2) {
                let (par_items, par_budget) = engine.sharded_from(data, policy, (4, 8), *from);
                let at = format!("{label} resumed at {} policy={policy:?}", from.record);
                assert_eq!(par_items[..], seq_items[from.record..], "{at}: items");
                assert_eq!(par_budget, seq_budget, "{at}: budget");
            }
        }
    }
}

/// A clean twelve-record CLF corpus, and that corpus with record `bad`
/// (and record 10) replaced by garbage, for `bad` the first, a middle and
/// the last record of the second chunk of three. Leaked: readers borrow
/// their source for `'static`.
fn divergence_corpora() -> (&'static [u8], Vec<(usize, &'static [u8])>) {
    let clean: &[u8] = Vec::leak(
        pads_gen::clf::generate(&pads_gen::ClfConfig { records: 12, ..Default::default() }).0,
    );
    let damaged = [3, 4, 5].map(|bad| {
        let mut data = Vec::new();
        for (i, line) in clean.split_inclusive(|&b| b == b'\n').enumerate() {
            data.extend_from_slice(if i == bad || i == 10 { b"not a log line\n" } else { line });
        }
        (bad, &*Vec::leak(data))
    });
    (clean, damaged.to_vec())
}

/// Twelve records in chunks of three.
const CHUNKS_OF_THREE: (usize, usize) = (2, 12);

/// Chunk-level budget divergence on [`divergence_corpora`]: a trip on the
/// first, a middle and the last record of a chunk under each degraded
/// mode.
fn assert_budget_trips_replay_the_chunk(label: &str, engine: &impl Sharded<'static>) {
    for (bad, data) in divergence_corpora().1 {
        for mode in [OnExhausted::Stop, OnExhausted::SkipRecord, OnExhausted::BestEffort] {
            let policy = RecoveryPolicy::unlimited().with_max_errs(0).with_on_exhausted(mode);
            let seq = engine.sequential(data, policy);
            assert!(seq.1.exhausted(), "{label}: record {bad} must trip the budget");
            let par = engine.sharded(data, policy, CHUNKS_OF_THREE);
            assert_eq!(par, seq, "{label}: trip at record {bad} under {mode:?}");
        }
    }
}

/// A reader that panics on a worker thread when asked for record
/// `panic_at`: the sharded driver's safety net must hand the rest of the
/// source to sequential replay.
struct PanicsOnWorker<R> {
    reader: R,
    next: usize,
    panic_at: Option<usize>,
}

impl<R: RecordReader> RecordReader for PanicsOnWorker<R> {
    type Item = R::Item;

    fn next_record(&mut self) -> Option<(R::Item, ParseDesc)> {
        assert_ne!(Some(self.next), self.panic_at, "worker panic safety net");
        self.next += 1;
        self.reader.next_record()
    }

    fn position(&self) -> pads::Pos {
        self.reader.position()
    }

    fn budget(&self) -> ErrorBudget {
        self.reader.budget()
    }

    fn seek(&mut self, offset: usize, record: usize) {
        self.next = record;
        self.reader.seek(offset, record);
    }
}

/// `Puint32` under another name that panics on reading `panic_at` anywhere
/// but on the thread it was made on: on a worker of the sharded driver,
/// never in a sequential run or the replay. What `PanicsOnWorker` is to a
/// reader, for engines whose readers the driver opens itself.
struct PanicsOffThread {
    uint: Arc<dyn BaseType>,
    home: ThreadId,
    panic_at: u64,
}

impl BaseType for PanicsOffThread {
    fn name(&self) -> &str {
        "Ppanicky"
    }

    fn kind(&self) -> PrimKind {
        self.uint.kind()
    }

    fn parse(&self, cur: &mut Cursor<'_>, args: &[Prim]) -> Result<Prim, ErrorCode> {
        let value = self.uint.parse(cur, args)?;
        let spared = thread::current().id() == self.home || value != Prim::Uint(self.panic_at);
        assert!(spared, "worker panic safety net");
        Ok(value)
    }

    fn write(
        &self,
        out: &mut Vec<u8>,
        val: &Prim,
        args: &[Prim],
        charset: Charset,
        endian: Endian,
    ) -> Result<(), ErrorCode> {
        self.uint.write(out, val, args, charset, endian)
    }
}

/// The interpreter and VM rows of the matrix, plus the columnar close
/// path of the public batched entry point.
fn assert_equivalent(label: &str, schema: &Schema, data: &[u8], record: &str) {
    let registry = Registry::standard();
    for engine in [Engine::Interp, Engine::Vm] {
        assert_sharded_matches_sequential(
            &format!("{label}/{engine:?}"),
            data,
            &Runtime { schema, registry: &registry, engine, record },
        );
    }
    let interp = Runtime { schema, registry: &registry, engine: Engine::Interp, record };
    for policy in policies() {
        let (seq_items, seq_budget) = interp.sequential(data, policy);
        // The columnar close path: folding the sharded stream into a
        // RecordBatch must reconstruct every record byte-identically,
        // error records included. Clean rows share one canonical OK
        // descriptor (kind `None`), so descriptors are compared exactly
        // on error rows and on state elsewhere.
        for jobs in [1, 4] {
            let (batch, batch_budget) =
                interp.parser(policy).records_par_batched(data, record, &mask(), jobs);
            assert_eq!(
                batch.len(),
                seq_items.len(),
                "{label} jobs={jobs} policy={policy:?}: batch row count"
            );
            for (i, (v, pd)) in seq_items.iter().enumerate() {
                assert_eq!(
                    batch.row(i),
                    *v,
                    "{label} jobs={jobs} policy={policy:?}: batch row [{i}]"
                );
                let bpd = batch.pd(i);
                assert_eq!(
                    bpd.is_ok(),
                    pd.is_ok(),
                    "{label} jobs={jobs} policy={policy:?}: batch pd state [{i}]"
                );
                if !pd.is_ok() {
                    assert_eq!(
                        bpd, *pd,
                        "{label} jobs={jobs} policy={policy:?}: batch error pd [{i}]"
                    );
                }
            }
            assert_eq!(
                batch_budget, seq_budget,
                "{label} jobs={jobs} policy={policy:?}: batch budget"
            );
        }
    }
}

#[test]
fn torture_clf_parallel_matches_sequential() {
    assert_equivalent("clf", &descriptions::clf(), CLF, "entry_t");
}

#[test]
fn torture_sirius_parallel_matches_sequential() {
    assert_equivalent("sirius", &descriptions::sirius(), SIRIUS, "entry_t");
}

#[test]
fn torture_mixed_parallel_matches_sequential() {
    assert_equivalent("mixed", &descriptions::mixed(), MIXED, "rec_t");
}

/// 1000-seed fault sweep: every deterministic mutation of a clean corpus
/// parses identically at `--jobs {1,2,4}`, cycling through the recovery
/// policies so shard budget-replay runs against injected faults too.
#[test]
fn fault_harness_parallel_matches_sequential() {
    const SEEDS: u64 = 1000;
    let schema = descriptions::clf();
    let registry = Registry::standard();
    let clean =
        pads_gen::clf::generate(&pads_gen::ClfConfig { records: 12, ..Default::default() }).0;
    let policies = policies();
    let interp =
        Runtime { schema: &schema, registry: &registry, engine: Engine::Interp, record: "entry_t" };
    for seed in 0..SEEDS {
        let data = FaultPlan::for_seed(seed).apply(&clean);
        let policy = policies[(seed as usize) % policies.len()];
        let (seq_items, seq_budget) = interp.sequential(&data, policy);
        for jobs in [2, 4] {
            // One-record chunks and chunks of two, by turns.
            let (par_items, par_budget) =
                interp.sharded(&data, policy, (jobs, 1 + 7 * (seed as usize % 2)));
            assert_eq!(
                par_items, seq_items,
                "seed {seed} jobs={jobs} policy={policy:?}: items diverge"
            );
            assert_eq!(
                par_budget, seq_budget,
                "seed {seed} jobs={jobs} policy={policy:?}: budget diverges"
            );
        }
        // Columnar round trip on the same faulted corpus: every record —
        // including the ones the recovery policy patched up — must come
        // back out of the batch byte-identical.
        let mut batch = pads::RecordBatch::new();
        for (v, pd) in &seq_items {
            batch.push(v, pd);
        }
        for (i, (v, pd)) in seq_items.iter().enumerate() {
            assert_eq!(batch.row(i), *v, "seed {seed}: batch row [{i}] diverges");
            assert_eq!(
                batch.pd(i).is_ok(),
                pd.is_ok(),
                "seed {seed}: batch pd state [{i}] diverges"
            );
            if !pd.is_ok() {
                assert_eq!(batch.pd(i), *pd, "seed {seed}: batch error pd [{i}] diverges");
            }
        }
    }
}

/// A counting core over `parser`'s own table, attached, and the run it then
/// hears: CLF sharded in chunks of two, so every worker hands over several.
fn observed(parser: PadsParser<'_>, jobs: usize) -> MetricsHandle {
    let (parser, core) = metered(parser);
    let (sink, _) =
        collect::stream(&parser, CLF, "entry_t", &mask(), (jobs, 8), ResumePoint::default());
    assert!(sink.observed > 0, "jobs={jobs}: the driver never said the core was exact");
    core
}

/// Event-stream reference: the core attached to a sharded run holds the
/// counters that the *trace tree* of one sequential run accounts for — an
/// independent tally of every span, error, record and recovery event — and
/// that run's own counters agree with its tree.
#[test]
fn parallel_metrics_merge_matches_sequential_snapshot() {
    let schema = descriptions::clf();
    let registry = Registry::standard();

    let parser = PadsParser::new(&schema, &registry);
    let seq = trace_tally::unbounded(parser.metrics_core()).into_handle();
    let parser = parser.with_metrics(seq.clone());
    let _ = parser.records(CLF, "entry_t", &mask()).count();
    let seq = seq.borrow();
    trace_tally::assert_counters_match_trace("sequential", &seq);
    let want = Tally::of_trace(&seq);

    for jobs in [1, 2, 4] {
        let core = observed(PadsParser::new(&schema, &registry), jobs);
        assert_eq!(
            Tally::of_counters(&core.borrow()),
            want,
            "jobs={jobs}: merged counters diverge from the sequential event stream"
        );
    }
}

/// Dense-core equivalence: the workers' `MetricsCore` shards (the
/// `Send`-able counter slabs), drained per chunk and merged in record order
/// into the attached core, leave it with the snapshot of a sequential run.
#[test]
fn parallel_dense_cores_merge_matches_sequential_snapshot() {
    let schema = descriptions::clf();
    let registry = Registry::standard();

    let (parser, seq_core) = metered(PadsParser::new(&schema, &registry));
    let _ = parser.records(CLF, "entry_t", &mask()).count();
    let seq_json = counts_json(&seq_core);

    for jobs in [1, 2, 4] {
        let core = observed(PadsParser::new(&schema, &registry), jobs);
        assert_eq!(
            counts_json(&core),
            seq_json,
            "jobs={jobs}: merged dense cores diverge from sequential"
        );
    }
}

/// The generated row of the matrix: the generated record reader under the
/// sharded driver agrees with the same reader looped sequentially.
#[test]
fn generated_parallel_matches_sequential_loop() {
    let m = mask();
    let read = |cur: &mut Cursor<'static>| gen_clf::EntryT::read(cur, &m);
    let generated =
        Readers(|slice, policy, start| CursorRecords::new(cursor_at(slice, policy, start), &read));
    assert_sharded_matches_sequential("clf/generated", CLF, &generated);
}

/// A chunk is merged whole or replayed whole, whichever engine filled it:
/// the interpreter, the VM and the generated reader under budget trips at
/// every position of a chunk and under a worker panic in the middle of one.
#[test]
fn chunk_divergence_replays_the_chunk_for_every_reader() {
    let schema = descriptions::clf();
    let registry = Registry::standard();
    let m = mask();
    let read = |cur: &mut Cursor<'static>| gen_clf::EntryT::read(cur, &m);
    let open = |slice, policy, start| CursorRecords::new(cursor_at(slice, policy, start), &read);
    for engine in [Engine::Interp, Engine::Vm] {
        let runtime = Runtime { schema: &schema, registry: &registry, engine, record: "entry_t" };
        assert_budget_trips_replay_the_chunk(&format!("clf/{engine:?}"), &runtime);
    }
    assert_budget_trips_replay_the_chunk("clf/generated", &Readers(&open));

    // A generated worker panics at record 7: its reader is wrapped.
    let home = thread::current().id();
    let panicking = Readers(|slice, policy, start: ResumePoint| PanicsOnWorker {
        reader: open(slice, policy, start),
        next: start.record,
        panic_at: (thread::current().id() != home).then_some(7),
    });
    let (clean, _) = divergence_corpora();
    let policy = RecoveryPolicy::unlimited();
    assert_eq!(
        panicking.sharded(clean, policy, CHUNKS_OF_THREE),
        Readers(&open).sequential(clean, policy),
        "clf/generated: worker panic at record 7"
    );

    // A runtime worker panics at record 7: `stream_source` opens the
    // readers itself, so the panic sits in a base type. The attached core
    // still ends up exact — the panicked chunk's counts die with its worker
    // and the replay counts the chunk again.
    let mut registry = Registry::standard();
    let uint = registry.get("Puint32").expect("standard registry").clone();
    registry.register(Arc::new(PanicsOffThread { uint, home, panic_at: 7 }));
    let schema = compile("Precord Pstruct n_t { Ppanicky n; };", &registry).expect("compiles");
    let numbers = (0..12).map(|n| format!("{n}\n")).collect::<String>().into_bytes();
    let numbers: &'static [u8] = Vec::leak(numbers);
    for engine in [Engine::Interp, Engine::Vm] {
        let runtime = Runtime { schema: &schema, registry: &registry, engine, record: "n_t" };
        let seq = runtime.sequential(numbers, policy);
        assert_eq!(seq.0.len(), 12);
        assert_eq!(
            runtime.sharded(numbers, policy, CHUNKS_OF_THREE),
            seq,
            "numbers/{engine:?}: worker panic at record 7"
        );
        let counted = |jobs| {
            let (parser, core) = metered(runtime.parser(policy));
            collect::stream(&parser, numbers, "n_t", &m, (jobs, 12), ResumePoint::default());
            counts_json(&core)
        };
        assert_eq!(counted(2), counted(1), "numbers/{engine:?}: counters after a worker panic");
    }
}

/// Regression (satellite): a failed `Popt` must restore from its single
/// checkpoint — cursor offset, record coordinates, and error budget all
/// exactly as before the attempt.
#[test]
fn failed_popt_leaves_cursor_and_budget_untouched() {
    let registry = Registry::standard();
    let schema = compile("Pstruct t { Popt Puint32 b; };", &registry).expect("compiles");
    let parser = PadsParser::new(&schema, &registry);
    let mut cur = parser.open(b"xyz");
    let before_pos = cur.position();
    let before_budget = cur.budget();
    let (v, pd) = parser.parse_named(&mut cur, "t", &[], &mask());
    assert_eq!(v.at_path("b"), Some(&Value::Opt(None)));
    assert!(pd.is_ok(), "a missing optional is not an error: {pd}");
    assert_eq!(cur.position(), before_pos, "failed Popt moved the cursor");
    assert_eq!(cur.budget(), before_budget, "failed Popt charged the budget");

    // Inside a record, the record coordinates survive too: the field after
    // the optional sees the exact bytes the optional declined.
    let schema = compile(
        r#"
        Precord Pstruct line_t { Popt Puint32 b; Pstring(:'|':) s; '|'; Puint32 n; };
        Psource Parray lines_t { line_t[]; };
        "#,
        &registry,
    )
    .expect("compiles");
    let parser = PadsParser::new(&schema, &registry);
    let items: Vec<_> = parser.records(b"abc|7\nxy|9\n", "line_t", &mask()).collect();
    assert_eq!(items.len(), 2);
    for (i, (v, pd)) in items.iter().enumerate() {
        assert!(pd.is_ok(), "[{i}]: {pd}");
        assert_eq!(v.at_path("b"), Some(&Value::Opt(None)), "[{i}]");
    }
    assert_eq!(items[0].0.at_path("s").and_then(Value::as_str), Some("abc"));
    assert_eq!(items[1].0.at_path("n").and_then(Value::as_u64), Some(9));
}
