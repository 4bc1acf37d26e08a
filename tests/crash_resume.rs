//! Kill-and-resume equivalence: for every seeded corpus, killing a parse
//! at an arbitrary record boundary and resuming from the last committed
//! checkpoint must reproduce the uninterrupted run exactly — byte-identical
//! values, parse descriptors (global coordinates), and error-budget
//! counters — for the interpreter (sequential and record-sharded at
//! `--jobs {1,4}`) and for the generated parsers, under every recovery
//! policy. A subset of seeds additionally round-trips the checkpoints
//! through a real on-disk [`pads_journal::Journal`] and checks the
//! metrics-snapshot restore path.

#[path = "common/collect.rs"]
mod collect;
#[path = "common/readers.rs"]
mod readers;
#[path = "common/tables.rs"]
mod tables;

use pads::generated::clf as gen_clf;
use pads::{
    descriptions, BaseMask, ErrorBudget, Mask, PadsParser, ParseDesc, ParseOptions, Progress,
    RecordSink, RecoveryPolicy, Registry, ResumePoint, Schema, SourceEnd, SourceShape, Value,
    DEFAULT_MAX_INFLIGHT,
};
use collect::{counts_json, metered, stream_into, Collect};
use pads_runtime::genrt::CursorRecords;
use pads_runtime::{Cursor, FaultPlan, KillPlan, MetricsCore, MetricsHandle, Pos};
use readers::{cursor_at, Readers};
use tables::{policies, CHUNKS_OF_TWO};

fn mask() -> Mask {
    Mask::all(BaseMask::CheckAndSet)
}

/// Collects a record-sharded parse (`stream_source`) from `resume`.
fn sharded(
    parser: &PadsParser<'_>,
    data: &[u8],
    jobs: usize,
    resume: ResumePoint,
) -> (Vec<(Value, ParseDesc)>, ErrorBudget) {
    let (sink, budget) =
        collect::stream(parser, data, "entry_t", &mask(), (jobs, CHUNKS_OF_TWO), resume);
    (sink.items, budget)
}

fn parser_for<'s>(
    schema: &'s Schema,
    registry: &'s Registry,
    policy: RecoveryPolicy,
) -> PadsParser<'s> {
    PadsParser::new(schema, registry).with_options(ParseOptions { policy, ..Default::default() })
}

/// Uninterrupted sequential ground truth.
fn full_run(
    schema: &Schema,
    registry: &Registry,
    policy: RecoveryPolicy,
    data: &[u8],
) -> (Vec<(Value, ParseDesc)>, ErrorBudget) {
    let parser = parser_for(schema, registry, policy);
    let m = mask();
    let mut it = parser.records(data, "entry_t", &m);
    let items: Vec<_> = it.by_ref().collect();
    (items, it.budget())
}

/// Runs until the kill point, checkpointing every `checkpoint_every`
/// records, and returns (records consumed before the kill, the last
/// committed checkpoint).
fn killed_run(
    schema: &Schema,
    registry: &Registry,
    policy: RecoveryPolicy,
    data: &[u8],
    plan: KillPlan,
) -> (Vec<(Value, ParseDesc)>, ResumePoint) {
    let parser = parser_for(schema, registry, policy);
    let m = mask();
    let mut it = parser.records(data, "entry_t", &m);
    let mut consumed = Vec::new();
    let mut committed = ResumePoint::default();
    loop {
        if consumed.len() >= plan.kill_after {
            break;
        }
        let Some(item) = it.next() else { break };
        consumed.push(item);
        if consumed.len() % plan.checkpoint_every == 0 {
            committed = ResumePoint {
                offset: it.offset(),
                record: consumed.len(),
                budget: it.budget(),
            };
        }
    }
    (consumed, committed)
}

/// 1000-seed interpreter sweep: kill at a seeded record boundary, resume
/// from the last committed checkpoint on the source driver at `jobs {1,4}`
/// — the committed prefix plus the resumed tail must equal the
/// uninterrupted run, budget included.
#[test]
fn kill_resume_matches_uninterrupted_run() {
    const SEEDS: u64 = 1000;
    let schema = descriptions::clf();
    let registry = Registry::standard();
    let clean =
        pads_gen::clf::generate(&pads_gen::ClfConfig { records: 12, ..Default::default() }).0;
    let policies = policies();
    for seed in 0..SEEDS {
        let data = FaultPlan::for_seed(seed).apply(&clean);
        let policy = policies[(seed as usize) % policies.len()];
        let (full, full_budget) = full_run(&schema, &registry, policy, &data);
        let plan = KillPlan::for_seed(seed, full.len());
        let (consumed, cp) = killed_run(&schema, &registry, policy, &data, plan);

        // Exactly-once accounting: only checkpointed records count as
        // externalised; the uncommitted suffix is discarded on resume.
        let mut prefix = consumed;
        prefix.truncate(cp.record);
        assert_eq!(
            prefix.as_slice(),
            &full[..cp.record],
            "seed {seed} plan={plan:?} policy={policy:?}: committed prefix diverges"
        );

        // Resume on the driver: sequential at `jobs = 1`, sharded at 4.
        for jobs in [1, 4] {
            let parser = parser_for(&schema, &registry, policy);
            let (par, par_budget) = sharded(&parser, &data, jobs, cp);
            assert_eq!(
                par.as_slice(),
                &full[cp.record..],
                "seed {seed} jobs={jobs} plan={plan:?} policy={policy:?}: parallel tail diverges"
            );
            assert_eq!(
                par_budget, full_budget,
                "seed {seed} jobs={jobs} plan={plan:?} policy={policy:?}: parallel budget diverges"
            );
        }
    }
}

/// The generated engine honours the same contract: `Cursor::with_start`
/// plus a restored budget continues a killed generated parse exactly, and
/// the generated record reader under the sharded driver does the same from
/// that `ResumePoint` at `jobs {1,4}`.
#[test]
fn generated_kill_resume_matches_uninterrupted_run() {
    const SEEDS: u64 = 1000;
    fn read<'d>(cur: &mut Cursor<'d>) -> (gen_clf::EntryT<'d>, ParseDesc) {
        gen_clf::EntryT::read(cur, &mask())
    }
    let clean =
        pads_gen::clf::generate(&pads_gen::ClfConfig { records: 12, ..Default::default() }).0;
    let policies = policies();
    for seed in 0..SEEDS {
        let data = FaultPlan::for_seed(seed).apply(&clean);
        let policy = policies[(seed as usize) % policies.len()];

        // Uninterrupted generated ground truth.
        let mut cur = Cursor::new(&data).with_policy(policy);
        let mut full = Vec::new();
        loop {
            if cur.at_eof() {
                break;
            }
            let before = cur.offset();
            full.push(read(&mut cur));
            if cur.offset() == before {
                break;
            }
        }
        let full_budget = cur.budget();

        // Kill at a seeded boundary, checkpointing along the way.
        let plan = KillPlan::for_seed(seed, full.len());
        let mut cur = Cursor::new(&data).with_policy(policy);
        let mut consumed = 0usize;
        let mut cp = ResumePoint::default();
        loop {
            if consumed >= plan.kill_after || cur.at_eof() {
                break;
            }
            let before = cur.offset();
            let _ = read(&mut cur);
            if cur.offset() == before {
                break;
            }
            consumed += 1;
            if consumed % plan.checkpoint_every == 0 {
                cp = ResumePoint { offset: cur.offset(), record: consumed, budget: cur.budget() };
            }
        }

        // Sequential resume over the generated reader.
        let mut cur = cursor_at(&data, policy, cp);
        let mut resumed = Vec::new();
        loop {
            if cur.at_eof() {
                break;
            }
            let before = cur.offset();
            resumed.push(read(&mut cur));
            if cur.offset() == before {
                break;
            }
        }
        assert_eq!(
            resumed.as_slice(),
            &full[cp.record..],
            "seed {seed} plan={plan:?} policy={policy:?}: generated resumed tail diverges"
        );
        assert_eq!(
            cur.budget(),
            full_budget,
            "seed {seed} plan={plan:?} policy={policy:?}: generated resumed budget diverges"
        );

        // Record-sharded generated resume.
        let generated =
            Readers(|slice, policy, start| CursorRecords::new(cursor_at(slice, policy, start), &read));
        for jobs in [1, 4] {
            let (par, par_budget) = generated.sharded_from(&data, policy, (jobs, CHUNKS_OF_TWO), cp);
            assert_eq!(
                par.as_slice(),
                &full[cp.record..],
                "seed {seed} jobs={jobs} plan={plan:?}: generated parallel tail diverges"
            );
            assert_eq!(
                par_budget, full_budget,
                "seed {seed} jobs={jobs} plan={plan:?}: generated parallel budget diverges"
            );
        }
    }
}

/// A seed subset drives the real on-disk journal end to end: commit
/// checkpoints (budget + metrics snapshot) during the killed run, reopen
/// the file, resume from its last checkpoint with the restored observer
/// state — final metrics must equal an uninterrupted observed run.
#[test]
fn journal_roundtrip_restores_budget_and_metrics() {
    const SEEDS: u64 = 50;
    let schema = descriptions::clf();
    let registry = Registry::standard();
    let clean =
        pads_gen::clf::generate(&pads_gen::ClfConfig { records: 12, ..Default::default() }).0;
    let policies = policies();
    let dir = std::env::temp_dir().join(format!("pads-crash-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for seed in 0..SEEDS {
        let data = FaultPlan::for_seed(seed).apply(&clean);
        let policy = policies[(seed as usize) % policies.len()];

        // Uninterrupted observed run: the metrics ground truth.
        let (parser, core) = metered(parser_for(&schema, &registry, policy));
        let m = mask();
        let mut it = parser.records(&data, "entry_t", &m);
        let full: Vec<_> = it.by_ref().collect();
        let full_budget = it.budget();
        drop(it);
        let full_json = counts_json(&core);

        // Killed run, committing (position, budget, metrics) to disk.
        let plan = KillPlan::for_seed(seed, full.len());
        let path = dir.join(format!("seed-{seed}.wal"));
        let mut journal = pads_journal::Journal::create(&path).expect("create journal");
        let (parser, core) = metered(parser_for(&schema, &registry, policy));
        let m = mask();
        let mut it = parser.records(&data, "entry_t", &m);
        let mut consumed = 0usize;
        loop {
            if consumed >= plan.kill_after {
                break;
            }
            let Some(_item) = it.next() else { break };
            consumed += 1;
            if consumed % plan.checkpoint_every == 0 {
                journal
                    .commit(pads_journal::Checkpoint {
                        source_id: seed,
                        offset: it.offset() as u64,
                        record: consumed as u64,
                        budget: it.budget(),
                        metrics: core.borrow().snapshot(),
                    })
                    .expect("commit");
            }
        }
        drop(journal);

        // Reopen and resume with the restored budget and observer state.
        let (journal, repaired) = pads_journal::Journal::open(&path).expect("reopen journal");
        assert!(repaired.is_none(), "seed {seed}: clean journal reported a torn tail");
        let (cp_resume, restored) = match journal.last() {
            Some(cp) => (
                ResumePoint {
                    offset: cp.offset as usize,
                    record: cp.record as usize,
                    budget: cp.budget,
                },
                MetricsCore::restore(&cp.metrics).expect("metrics snapshot restores"),
            ),
            None => (ResumePoint::default(), MetricsCore::new()),
        };
        // The restored counters fold into a core over the parser's own
        // table, which then keeps counting.
        let (parser, core) = metered(parser_for(&schema, &registry, policy));
        core.borrow_mut().merge(&restored);
        let geometry = (1, DEFAULT_MAX_INFLIGHT);
        let (resumed, resumed_budget) =
            collect::stream(&parser, &data, "entry_t", &mask(), geometry, cp_resume);
        assert_eq!(
            resumed.items.as_slice(),
            &full[cp_resume.record..],
            "seed {seed} plan={plan:?} policy={policy:?}: journal-resumed tail diverges"
        );
        assert_eq!(resumed_budget, full_budget, "seed {seed}: journal-resumed budget diverges");
        assert_eq!(
            counts_json(&core),
            full_json,
            "seed {seed} plan={plan:?} policy={policy:?}: restored metrics diverge"
        );
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_dir(&dir);
}

/// A journaled run that is killed, in process: every record is kept and
/// advances `plan`'s cadence; a checkpoint that has fallen due — position,
/// budget, the core's snapshot — is taken only where the driver says the
/// core is exact (what the CLI's journal adapter does); and once
/// `plan.kill_after` records are in, nothing more is heard.
struct Killed {
    kept: Collect,
    core: MetricsHandle,
    plan: KillPlan,
    last: Option<ResumePoint>,
    since: usize,
    committed: Option<(ResumePoint, Vec<u8>)>,
    dead: bool,
}

impl RecordSink for Killed {
    fn header(&mut self, value: Value, pd: ParseDesc, progress: &Progress) -> bool {
        self.kept.header(value, pd, progress)
    }

    fn record(&mut self, index: usize, value: &Value, pd: &ParseDesc, progress: &Progress) {
        if self.dead {
            return;
        }
        self.kept.record(index, value, pd, progress);
        self.since += 1;
        self.last = Some(ResumePoint {
            offset: progress.end.offset,
            record: progress.record + 1,
            budget: progress.budget,
        });
    }

    fn observed(&mut self) {
        if self.dead {
            return;
        }
        if let Some(at) = self.last.filter(|_| self.since >= self.plan.checkpoint_every) {
            self.committed = Some((at, self.core.borrow().snapshot()));
            self.since = 0;
        }
        self.dead = self.kept.items.len() >= self.plan.kill_after;
    }
}

/// Sirius — a header, then the records — killed before the first record
/// commit, mid-run and after the last record, sequentially and sharded:
/// the run resumed from the last checkpoint starts past the header, so it
/// is given no header, and ends with the uninterrupted run's remaining
/// records, `SourceEnd` (position, budget) and counters, under every
/// policy. A run with no checkpoint yet starts over, header included.
#[test]
fn header_source_kill_resume_matches_uninterrupted_run() {
    const SEEDS: u64 = 120;
    let schema = descriptions::sirius();
    let registry = Registry::standard();
    let shape = SourceShape::infer(&schema).expect("sirius streams");
    assert!(shape.header.is_some());
    let cfg = pads_gen::SiriusConfig { records: 12, ..Default::default() };
    let clean = pads_gen::sirius::generate(&cfg).0;
    let policies = policies();
    let m = mask();
    for seed in 0..SEEDS {
        let data = FaultPlan::for_seed(seed).apply(&clean);
        let policy = policies[(seed as usize) % policies.len()];
        let observed = || metered(parser_for(&schema, &registry, policy));
        let beginning = ResumePoint::default();

        let (parser, core) = observed();
        let mut full = Collect::default();
        let full_end =
            stream_into(&parser, &data, shape, &m, (1, CHUNKS_OF_TWO), beginning, &mut full);
        let full_json = counts_json(&core);
        let n = full.items.len();

        let plans = [
            KillPlan { kill_after: 1, checkpoint_every: 3 },
            KillPlan { kill_after: n / 2, checkpoint_every: 2 },
            KillPlan { kill_after: n, checkpoint_every: 1 },
        ];
        for (plan, jobs) in plans.into_iter().flat_map(|plan| [(plan, 1), (plan, 2)]) {
            let at = format!("seed {seed} jobs={jobs} plan={plan:?} policy={policy:?}");
            let (parser, core) = observed();
            let kept = Collect::default();
            let mut killed =
                Killed { kept, core, plan, last: None, since: 0, committed: None, dead: false };
            stream_into(&parser, &data, shape, &m, (jobs, CHUNKS_OF_TWO), beginning, &mut killed);

            let (parser, core) = observed();
            let start = killed.committed.map_or(beginning, |(at, snapshot)| {
                let restored = MetricsCore::restore(&snapshot).expect("metrics snapshot restores");
                core.borrow_mut().merge(&restored);
                at
            });
            let mut resumed = Collect::default();
            let end =
                stream_into(&parser, &data, shape, &m, (jobs, CHUNKS_OF_TWO), start, &mut resumed);
            // The header is record 0: `start.record - 1` records are behind
            // a checkpoint, and so is the header.
            let behind = if start == beginning {
                assert_eq!(resumed.header, full.header, "{at}: header");
                0
            } else {
                assert_eq!(resumed.header, None, "{at}: the header is behind the checkpoint");
                start.record - 1
            };
            assert_eq!(resumed.items.as_slice(), &full.items[behind..], "{at}: resumed tail");
            // A checkpoint is a record end; the length of the record before
            // it, which a cursor that just closed one still knows, is not
            // in it.
            let ended = |end: SourceEnd| SourceEnd { pos: Pos { byte: 0, ..end.pos }, ..end };
            assert_eq!(ended(end), ended(full_end), "{at}: how the run ended");
            assert_eq!(counts_json(&core), full_json, "{at}: counters");
        }
    }
}

/// The library rule on its own: a `start` past the beginning of a header
/// source — any record end — has the header behind it, so the driver
/// delivers no header and the remaining records. (It used to parse the
/// header type at `start`, on a record.)
#[test]
fn a_start_past_the_header_delivers_no_header_and_the_remaining_records() {
    const SIRIUS: &[u8] = include_bytes!("data/torture_sirius.txt");
    let schema = descriptions::sirius();
    let registry = Registry::standard();
    let shape = SourceShape::with_header("summary_header_t", "entry_t");
    let parser = parser_for(&schema, &registry, RecoveryPolicy::unlimited());
    let m = mask();
    let mut full = Collect::default();
    let geometry = (1, CHUNKS_OF_TWO);
    stream_into(&parser, SIRIUS, shape, &m, geometry, ResumePoint::default(), &mut full);
    assert!(full.header.is_some() && full.items.len() > 2);
    for (k, after) in full.progress.iter().enumerate() {
        let (offset, record) = (after.end.offset, after.record + 1);
        let start = ResumePoint { offset, record, budget: after.budget };
        for jobs in [1, 2] {
            let mut rest = Collect::default();
            stream_into(&parser, SIRIUS, shape, &m, (jobs, CHUNKS_OF_TWO), start, &mut rest);
            assert_eq!(rest.header, None, "start after record {k}, jobs={jobs}");
            assert_eq!(rest.items.as_slice(), &full.items[k + 1..], "start after record {k}");
        }
    }
}
