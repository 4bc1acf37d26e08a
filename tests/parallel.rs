//! Parallel/sequential equivalence: the record-sharded engine must be
//! byte-identical to the sequential record loop — same values, same parse
//! descriptors (with global coordinates), same error-budget counters, same
//! observer counter snapshots — at every job count, for every recovery
//! policy, on both the curated torture corpora and a fault-injected sweep.
//!
//! Also home to the `Popt` backtracking regression test: a failed optional
//! must leave the cursor offset, record coordinates, and error budget
//! exactly as its single checkpoint saw them.

#[path = "common/trace_tally.rs"]
mod trace_tally;

use std::fmt::Debug;

use pads::generated::clf as gen_clf;
use pads::{
    compile, descriptions, BaseMask, Charset, Engine, ErrorBudget, Mask, OnExhausted, PadsParser,
    ParseDesc, ParseOptions, RecordDiscipline, RecoveryPolicy, Registry, ResumePoint, Schema,
    Value, DEFAULT_MAX_INFLIGHT,
};
use pads_observe::MetricsSink;
use pads_runtime::genrt::CursorRecords;
use pads_runtime::par::{self, Job, RecordReader};
use pads_runtime::{Cursor, FaultPlan, MetricsCore, MetricsHandle};
use trace_tally::Tally;

const CLF: &[u8] = include_bytes!("data/torture_clf.log");
const SIRIUS: &[u8] = include_bytes!("data/torture_sirius.txt");
const MIXED: &[u8] = include_bytes!("data/torture_mixed.txt");

fn mask() -> Mask {
    Mask::all(BaseMask::CheckAndSet)
}

/// The policy matrix every equivalence check runs under: unlimited, plus
/// each `OnExhausted` mode with a budget small enough to trip on the
/// torture corpora, plus the orthogonal per-record and panic-skip limits.
fn policies() -> Vec<RecoveryPolicy> {
    vec![
        RecoveryPolicy::unlimited(),
        RecoveryPolicy::unlimited().with_max_errs(2).with_on_exhausted(OnExhausted::Stop),
        RecoveryPolicy::unlimited().with_max_errs(2).with_on_exhausted(OnExhausted::SkipRecord),
        RecoveryPolicy::unlimited().with_max_errs(3).with_on_exhausted(OnExhausted::BestEffort),
        RecoveryPolicy::unlimited().with_max_record_errs(0),
        RecoveryPolicy::unlimited().with_max_panic_skip(0).with_on_exhausted(OnExhausted::SkipRecord),
    ]
}

type Items<T> = Vec<(T, ParseDesc)>;

/// Sequential ground truth: drain one reader over the whole source and
/// read back the budget.
fn sequential<'d, R: RecordReader>(
    data: &'d [u8],
    policy: RecoveryPolicy,
    open: &impl Fn(&'d [u8], RecoveryPolicy, ResumePoint) -> R,
) -> (Items<R::Item>, ErrorBudget) {
    let (items, boundaries) = sequential_with_boundaries(data, policy, open);
    (items, boundaries.last().map_or_else(ErrorBudget::new, |b| b.budget))
}

/// The sequential ground truth plus every record boundary: element `k` is
/// the resume point after `k` records (the last one is the end of the run).
fn sequential_with_boundaries<'d, R: RecordReader>(
    data: &'d [u8],
    policy: RecoveryPolicy,
    open: &impl Fn(&'d [u8], RecoveryPolicy, ResumePoint) -> R,
) -> (Items<R::Item>, Vec<ResumePoint>) {
    let mut reader = open(data, policy, ResumePoint::default());
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

/// How the sharded driver is run: `(jobs, max_inflight)`. The corpora here
/// are a dozen records, so the in-flight bound sets the chunk geometry:
/// sequential; one-record chunks; chunks of two; more workers than chunks;
/// one chunk larger than the source.
const GEOMETRIES: [(usize, usize); 6] =
    [(1, DEFAULT_MAX_INFLIGHT), (2, 1), (4, 1), (2, 8), (16, 8), (4, DEFAULT_MAX_INFLIGHT)];

/// The same reader under the sharded driver from the start of the source.
fn sharded<'d, R>(
    data: &'d [u8],
    policy: RecoveryPolicy,
    (jobs, max_inflight): (usize, usize),
    open: &(impl Fn(&'d [u8], RecoveryPolicy, ResumePoint) -> R + Sync),
) -> (Items<R::Item>, ErrorBudget)
where
    R: RecordReader,
    R::Item: Send,
{
    sharded_from(data, policy, (jobs, max_inflight), ResumePoint::default(), open)
}

/// The same reader under the sharded driver from `resume`. Every corpus
/// here is newline-framed ASCII.
fn sharded_from<'d, R>(
    data: &'d [u8],
    policy: RecoveryPolicy,
    (jobs, max_inflight): (usize, usize),
    resume: ResumePoint,
    open: &(impl Fn(&'d [u8], RecoveryPolicy, ResumePoint) -> R + Sync),
) -> (Items<R::Item>, ErrorBudget)
where
    R: RecordReader,
    R::Item: Send,
{
    let job = Job {
        data,
        discipline: RecordDiscipline::Newline,
        charset: Charset::Ascii,
        policy,
        jobs,
        max_inflight,
        resume,
    };
    let mut items = Vec::new();
    let mut next = resume.record;
    let budget = par::drive(
        &job,
        |slice, policy, start| (open(slice, policy, start), || None::<()>),
        |chunk, _harvest| {
            for parsed in chunk.drain(..) {
                assert_eq!(parsed.progress.record, next, "progress is dense and in record order");
                next += 1;
                items.push((parsed.item, parsed.pd));
            }
        },
    );
    (items, budget)
}

/// The one engine-neutral check: whatever engine `open` builds readers
/// for, the sharded driver in every geometry yields the values, parse
/// descriptors (whole-source coordinates) and budget of one reader drained
/// sequentially, under every recovery policy — with and without a newline
/// after the final record, and resumed from a boundary inside a chunk.
fn assert_sharded_matches_sequential<'d, R>(
    label: &str,
    data: &'d [u8],
    open: impl Fn(&'d [u8], RecoveryPolicy, ResumePoint) -> R + Sync,
) where
    R: RecordReader,
    R::Item: PartialEq + Debug + Send,
{
    let unterminated = data.strip_suffix(b"\n").unwrap_or(data);
    for (label, data) in [(label.to_owned(), data), (format!("{label}/no final newline"), unterminated)]
    {
        for policy in policies() {
            let (seq_items, boundaries) = sequential_with_boundaries(data, policy, &open);
            let seq_budget = boundaries.last().map_or_else(ErrorBudget::new, |b| b.budget);
            for geometry in GEOMETRIES {
                let (par_items, par_budget) = sharded(data, policy, geometry, &open);
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
                let (par_items, par_budget) = sharded_from(data, policy, (4, 8), *from, &open);
                let at = format!("{label} resumed at {} policy={policy:?}", from.record);
                assert_eq!(par_items[..], seq_items[from.record..], "{at}: items");
                assert_eq!(par_budget, seq_budget, "{at}: budget");
            }
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

/// Chunk-level divergence, for whatever engine `open` builds readers for,
/// on [`divergence_corpora`] cut into chunks of three: a budget trip on
/// the first, a middle and the last record of a chunk under each degraded
/// mode, and a worker that panics in the middle of a chunk.
fn assert_chunk_divergence_matches_sequential<R>(
    label: &str,
    open: impl Fn(&'static [u8], RecoveryPolicy, ResumePoint) -> R + Sync,
) where
    R: RecordReader,
    R::Item: PartialEq + Debug + Send,
{
    let (clean, damaged) = divergence_corpora();
    let chunks_of_three = (2, 12);
    for (bad, data) in damaged {
        for mode in [OnExhausted::Stop, OnExhausted::SkipRecord, OnExhausted::BestEffort] {
            let policy = RecoveryPolicy::unlimited().with_max_errs(0).with_on_exhausted(mode);
            let seq = sequential(data, policy, &open);
            assert!(seq.1.exhausted(), "{label}: record {bad} must trip the budget");
            let par = sharded(data, policy, chunks_of_three, &open);
            assert_eq!(par, seq, "{label}: trip at record {bad} under {mode:?}");
        }
    }
    let main = std::thread::current().id();
    let panicking = |slice, policy, start: ResumePoint| PanicsOnWorker {
        reader: open(slice, policy, start),
        next: start.record,
        panic_at: (std::thread::current().id() != main).then_some(7),
    };
    let policy = RecoveryPolicy::unlimited();
    assert_eq!(
        sharded(clean, policy, chunks_of_three, &panicking),
        sequential(clean, policy, &open),
        "{label}: worker panic at record 7"
    );
}

/// A reader factory for a runtime engine: each reader owns a thread-local
/// parser, exactly what `records_par_stream` opens per shard.
fn runtime_reader<'a>(
    schema: &'a Schema,
    registry: &'a Registry,
    engine: Engine,
    record: &'a str,
    mask: &'a Mask,
) -> impl for<'d> Fn(&'d [u8], RecoveryPolicy, ResumePoint) -> pads::Records<'a, 'a, 'd> + Sync {
    move |slice, policy, start| {
        PadsParser::new(schema, registry)
            .with_options(ParseOptions { policy, engine, ..Default::default() })
            .into_records(slice, record, mask, start)
    }
}

/// The interpreter and VM rows of the matrix, plus the columnar close
/// path of the public batched entry point.
fn assert_equivalent(label: &str, schema: &Schema, data: &[u8], record: &str) {
    let registry = Registry::standard();
    let m = mask();
    for engine in [Engine::Interp, Engine::Vm] {
        assert_sharded_matches_sequential(
            &format!("{label}/{engine:?}"),
            data,
            runtime_reader(schema, &registry, engine, record, &m),
        );
    }
    let open = runtime_reader(schema, &registry, Engine::Interp, record, &m);
    for policy in policies() {
        let (seq_items, seq_budget) = sequential(data, policy, &open);
        // The columnar close path: folding the sharded stream into a
        // RecordBatch must reconstruct every record byte-identically,
        // error records included. Clean rows share one canonical OK
        // descriptor (kind `None`), so descriptors are compared exactly
        // on error rows and on state elsewhere.
        for jobs in [1, 4] {
            let parser = PadsParser::new(schema, &registry)
                .with_options(ParseOptions { policy, ..Default::default() });
            let (batch, batch_budget) =
                parser.records_par_batched(data, record, &mask(), jobs);
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
    let m = mask();
    let open = runtime_reader(&schema, &registry, Engine::Interp, "entry_t", &m);
    for seed in 0..SEEDS {
        let data = FaultPlan::for_seed(seed).apply(&clean);
        let policy = policies[(seed as usize) % policies.len()];
        let (seq_items, seq_budget) = sequential(&data, policy, &open);
        for jobs in [2, 4] {
            // One-record chunks and chunks of two, by turns.
            let (par_items, par_budget) =
                sharded(&data, policy, (jobs, 1 + 7 * (seed as usize % 2)), &open);
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

/// A sharded parse observed per worker: the per-chunk harvests in merge
/// order, for the caller to fold together.
fn observed<E: Send>(
    parser: &PadsParser<'_>,
    data: &[u8],
    record: &str,
    jobs: usize,
    observer: impl Fn() -> (MetricsHandle, Box<dyn FnMut() -> E>) + Sync,
) -> Vec<E> {
    let mut harvests = Vec::new();
    parser.records_par_stream(
        data,
        record,
        &mask(),
        jobs,
        8, // chunks of two: several harvests per worker
        ResumePoint::default(),
        Some(&observer),
        |_chunk, harvest| harvests.extend(harvest),
    );
    harvests
}

/// Per-worker dense cores for `observed`: one core per worker, drained per
/// chunk. `drain()` keeps the interning table with the live core, so the
/// worker's trusted dense ids stay valid across harvests.
fn worker_core(
    schema: &Schema,
    registry: &Registry,
) -> (MetricsHandle, Box<dyn FnMut() -> MetricsCore>) {
    let core = PadsParser::new(schema, registry).metrics_core().into_handle();
    let live = core.clone();
    (core, Box::new(move || live.borrow_mut().drain()))
}

fn merged(cores: &[MetricsCore]) -> MetricsCore {
    let mut merged = MetricsCore::new();
    for core in cores {
        merged.merge(core);
    }
    merged
}

/// Event-stream reference: per-worker cores merged in record order hold the
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
        let parser = PadsParser::new(&schema, &registry);
        let cores = observed(&parser, CLF, "entry_t", jobs, || worker_core(&schema, &registry));
        assert_eq!(
            Tally::of_counters(&merged(&cores)),
            want,
            "jobs={jobs}: merged counters diverge from the sequential event stream"
        );
    }
}

/// Dense-core equivalence: per-worker `MetricsCore` shards (the `Send`-able
/// counter slabs) drained per chunk and merged in record order produce the
/// same snapshot as a sequential dense-core run.
#[test]
fn parallel_dense_cores_merge_matches_sequential_snapshot() {
    let schema = descriptions::clf();
    let registry = Registry::standard();

    let parser = PadsParser::new(&schema, &registry);
    let seq_core = parser.metrics_core().into_handle();
    let parser = parser.with_metrics(seq_core.clone());
    let _ = parser.records(CLF, "entry_t", &mask()).count();
    let seq_json = MetricsSink::from_core(seq_core.borrow_mut().drain()).counts_json();

    for jobs in [1, 2, 4] {
        let parser = PadsParser::new(&schema, &registry);
        let cores = observed(&parser, CLF, "entry_t", jobs, || worker_core(&schema, &registry));
        assert_eq!(
            MetricsSink::from_core(merged(&cores)).counts_json(),
            seq_json,
            "jobs={jobs}: merged dense cores diverge from sequential"
        );
    }
}

/// The generated row of the matrix: the generated record reader under the
/// sharded driver agrees with the same reader looped sequentially, and the
/// module's `parse_records_par` entry is that driver.
#[test]
fn generated_parallel_matches_sequential_loop() {
    let m = mask();
    let read = |cur: &mut Cursor<'static>| gen_clf::EntryT::read(cur, &m);
    let open = |slice, policy, start: ResumePoint| {
        let mut cur = Cursor::new(slice).with_policy(policy).with_start(start.offset, start.record);
        cur.set_budget(start.budget);
        CursorRecords::new(cur, &read)
    };
    assert_sharded_matches_sequential("clf/generated", CLF, open);
    for policy in policies() {
        let (seq, seq_budget) = sequential(CLF, policy, &open);
        for jobs in [1, 2, 4] {
            let (par, par_budget) =
                gen_clf::parse_records_par(CLF, &m, ResumePoint::default(), jobs, |d| {
                    Cursor::new(d).with_policy(policy)
                });
            assert_eq!(par, seq, "jobs={jobs} policy={policy:?}: parse_records_par items");
            assert_eq!(par_budget, seq_budget, "jobs={jobs} policy={policy:?}: budget");
        }
    }
}

/// A chunk is merged whole or replayed whole, whichever engine filled it:
/// the interpreter, the VM and the generated reader under budget trips at
/// every position of a chunk and under a worker panic.
#[test]
fn chunk_divergence_replays_the_chunk_for_every_reader() {
    let schema = descriptions::clf();
    let registry = Registry::standard();
    let m = mask();
    for engine in [Engine::Interp, Engine::Vm] {
        assert_chunk_divergence_matches_sequential(
            &format!("clf/{engine:?}"),
            runtime_reader(&schema, &registry, engine, "entry_t", &m),
        );
    }
    let read = |cur: &mut Cursor<'static>| gen_clf::EntryT::read(cur, &m);
    assert_chunk_divergence_matches_sequential("clf/generated", |slice, policy, start| {
        let mut cur = Cursor::new(slice).with_policy(policy).with_start(start.offset, start.record);
        cur.set_budget(start.budget);
        CursorRecords::new(cur, &read)
    });
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
