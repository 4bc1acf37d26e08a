//! The sharded driver against the sequential run: the interpreter's cells
//! of the contract matrix (`common/contract.rs`) — the element iterator,
//! every geometry, every resume point, the batch — and the generated reader
//! under `par::drive`; then the one-off regressions of chunk replay and of
//! `Popt`.

#[path = "common/contract.rs"]
mod contract;

use std::sync::Arc;
use std::thread::{self, ThreadId};

use contract::bundled::{self, Bundled};
use contract::{
    cursor_at, drive, every_boundary, every_geometry, mask, seeds, sweep, torture, Case,
    Description, Observe, Plan, Truth, ENGINES, GEOMETRIES, SEQUENTIAL,
};
use pads::generated::clf;
use pads::{
    compile, Charset, Cursor, Endian, Engine, ErrorBudget, ErrorCode, OnExhausted, PadsParser,
    ParseDesc, Pos, Prim, PrimKind, RecoveryPolicy, Registry, ResumePoint, Value,
};
use pads_runtime::base::BaseType;
use pads_runtime::genrt::CursorRecords;
use pads_runtime::par::RecordReader;

fn interpreter_tiers(bundled: Bundled) {
    let interp = Engine::Interp;
    torture(&bundled, |truth| Plan {
        records: vec![interp],
        geometries: every_geometry(interp),
        counted: true,
        resumes: every_boundary(truth).map(|(k, geometry)| (k, interp, geometry)).collect(),
        batch: true,
        batched: vec![(interp, 1), (interp, 4)],
        ..Plan::default()
    });
}

#[test]
fn torture_clf_parallel_matches_sequential() {
    interpreter_tiers(bundled::clf());
}

#[test]
fn torture_sirius_parallel_matches_sequential() {
    interpreter_tiers(bundled::sirius());
}

#[test]
fn torture_mixed_parallel_matches_sequential() {
    interpreter_tiers(bundled::mixed());
}

/// CLF fault seeds sharded at two and four workers — one-record chunks and
/// chunks of two by turns — and folded into a `RecordBatch`: rows every
/// seed of the main sweep (`fault_injection.rs`) runs too, here on a block
/// of seeds of their own.
#[test]
fn fault_harness_parallel_matches_sequential() {
    sweep(&bundled::clf(), seeds::PARALLEL, |seed, _| {
        let rows = if seed % 2 == 0 { [(2, 1), (4, 1)] } else { [(2, 8), (4, 8)] };
        Plan {
            geometries: rows.map(|g| (Engine::Interp, g)).to_vec(),
            batch: true,
            ..Plan::default()
        }
    });
}

/// The counters fact alone, at one, two and four workers taking records two
/// at a time: the core attached to a sharded run holds the counters the
/// whole-tree parse's trace accounts for.
fn counters_merge(engine: Engine) {
    for bundled in bundled::all() {
        torture(&bundled, |_| Plan {
            geometries: [1, 2, 4].map(|jobs| (engine, (jobs, 8))).to_vec(),
            counted: true,
            ..Plan::default()
        });
    }
}

#[test]
fn parallel_metrics_merge_matches_sequential_snapshot() {
    counters_merge(Engine::Interp);
}

/// The VM's workers fill the dense cores the merge drains.
#[test]
fn parallel_dense_cores_merge_matches_sequential_snapshot() {
    counters_merge(Engine::Vm);
}

/// The generated reader under `par::drive`, from the beginning in every
/// geometry and from every later record boundary in one that cycles with
/// it, yields what it yields looped sequentially.
#[test]
fn generated_parallel_matches_sequential_loop() {
    for bundled in bundled::all() {
        torture(&bundled, |truth| {
            let from_the_beginning = GEOMETRIES.map(|geometry| (0, geometry));
            let drives = from_the_beginning.into_iter().chain(every_boundary(truth).skip(1));
            Plan { drives: drives.collect(), ..Plan::default() }
        });
    }
}

/// Twelve records in chunks of three.
const CHUNKS_OF_THREE: (usize, usize) = (2, 12);

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

    fn position(&self) -> Pos {
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

/// A chunk is merged whole or replayed whole, whichever engine filled it.
/// A budget of no errors trips on the first, a middle and the last record
/// of the second chunk of three (record 10 is damaged too), under each
/// degraded mode, for the interpreter, the VM and the generated reader. And
/// a worker that panics in the middle of a chunk hands the rest of the
/// source to sequential replay: a generated reader, and the interpreter and
/// the VM, whose attached core still ends exact — the panicked chunk's
/// counts die with its worker and the replay counts the chunk again.
#[test]
fn chunk_divergence_replays_the_chunk_for_every_reader() {
    let source = bundled::clf();
    let description = source.description();
    for bad in [3, 4, 5] {
        let mut data = Vec::new();
        for (i, line) in source.clean.split_inclusive(|&b| b == b'\n').enumerate() {
            data.extend_from_slice(if i == bad || i == 10 { b"not a log line\n" } else { line });
        }
        let case = Case::new(format!("clf/{bad} damaged"), &description, &data);
        for mode in [OnExhausted::Stop, OnExhausted::SkipRecord, OnExhausted::BestEffort] {
            let truth = Truth::of(
                &case,
                RecoveryPolicy::unlimited().with_max_errs(0).with_on_exhausted(mode),
            );
            assert!(truth.run.end.budget.exhausted(), "{}: the budget trips", truth.at);
            let geometries = ENGINES.map(|engine| (engine, CHUNKS_OF_THREE)).to_vec();
            let drives = vec![(0, CHUNKS_OF_THREE)];
            let plan = Plan {
                geometries,
                batch: true,
                generated: true,
                reader: true,
                drives,
                ..Plan::default()
            };
            truth.check(&case, &plan);
        }
    }

    let home = thread::current().id();
    let (m, policy) = (mask(), RecoveryPolicy::unlimited());
    let clean: &'static [u8] = Vec::leak(bundled::clean_clf());
    let read = |cur: &mut Cursor<'static>| clf::EntryT::read(cur, &m);
    let open = |slice, policy, start| CursorRecords::new(cursor_at(slice, policy, start), &read);
    let panicking = |slice, policy, start: ResumePoint| PanicsOnWorker {
        reader: open(slice, policy, start),
        next: start.record,
        panic_at: (thread::current().id() != home).then_some(7),
    };
    let beginning = ResumePoint::default();
    assert_eq!(
        drive(clean, policy, CHUNKS_OF_THREE, beginning, panicking),
        drive(clean, policy, SEQUENTIAL, beginning, open),
        "clf/generated: worker panic at record 7"
    );

    let mut registry = Registry::standard();
    let uint = registry.get("Puint32").expect("standard registry").clone();
    registry.register(Arc::new(PanicsOffThread { uint, home, panic_at: 7 }));
    let schema = compile("Precord Pstruct n_t { Ppanicky n; };", &registry).expect("compiles");
    let numbers = (0..12).map(|n| format!("{n}\n")).collect::<String>().into_bytes();
    let description = Description::records(&schema, &registry, "n_t");
    let case = Case::new("numbers", &description, &numbers);
    let truth = Truth::of(&case, policy);
    assert_eq!(truth.len(), 12);
    for engine in ENGINES {
        truth.geometry(
            engine,
            CHUNKS_OF_THREE,
            &case.streamed(policy, engine, CHUNKS_OF_THREE, Observe::Count),
        );
    }
}

/// A failed `Popt` restores from its single checkpoint: cursor offset,
/// record coordinates and error budget all as before the attempt.
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
