//! VM/interpreter equivalence: the bytecode tier (`Engine::Vm`) must be
//! byte-identical to the tree-walking interpreter — same values, same parse
//! descriptors, same error-budget counters, same observation events and
//! counter snapshots — on the curated torture corpora under every recovery policy,
//! across the sequential, record-sharded (`--jobs {1,4}`), columnar-batch,
//! and journaled kill-and-resume entry points, and across a 1000-seed
//! fault-injection sweep. The generated modules are cross-checked too
//! (values plus descriptor verdicts, the same contract the codegen
//! equivalence suite holds the interpreter to), and the per-cursor-charset
//! program selection gets direct coverage.

#[path = "common/collect.rs"]
mod collect;
#[path = "common/tables.rs"]
mod tables;

use std::sync::Arc;

use pads::generated::clf as gen_clf;
use pads::{
    descriptions, BaseMask, Engine, ErrorBudget, Mask, PadsParser, ParseDesc,
    ParseOptions, RecoveryPolicy, Registry, ResumePoint, Schema, Value,
};
use collect::{counts_json, metered};
use tables::{policies, CHUNKS_OF_TWO};
use pads_runtime::{Charset, Cursor, FaultPlan, KillPlan, MetricsCore};

const CLF: &[u8] = include_bytes!("data/torture_clf.log");
const SIRIUS: &[u8] = include_bytes!("data/torture_sirius.txt");
const MIXED: &[u8] = include_bytes!("data/torture_mixed.txt");

fn mask() -> Mask {
    Mask::all(BaseMask::CheckAndSet)
}

fn opts(policy: RecoveryPolicy, engine: Engine) -> ParseOptions {
    ParseOptions { policy, engine, ..Default::default() }
}

/// Collects a record-sharded parse (`stream_source`) from `resume`.
fn sharded(
    parser: &PadsParser<'_>,
    data: &[u8],
    record: &str,
    jobs: usize,
    resume: ResumePoint,
) -> (Vec<(Value, ParseDesc)>, ErrorBudget) {
    let (sink, budget) =
        collect::stream(parser, data, record, &mask(), (jobs, CHUNKS_OF_TWO), resume);
    (sink.items, budget)
}

/// Drains `records()` under the given options and reads back the budget.
fn run(
    schema: &Schema,
    registry: &Registry,
    options: ParseOptions,
    data: &[u8],
    record: &str,
) -> (Vec<(Value, ParseDesc)>, ErrorBudget) {
    let parser = PadsParser::new(schema, registry).with_options(options);
    let m = mask();
    let mut it = parser.records(data, record, &m);
    let items: Vec<_> = it.by_ref().collect();
    (items, it.budget())
}

/// Every entry point of the VM engine against the interpreter ground
/// truth: sequential records, record-sharded records, columnar batches.
fn assert_engines_agree(label: &str, schema: &Schema, data: &[u8], record: &str) {
    let registry = Registry::standard();
    for policy in policies() {
        let (iv, ib) = run(schema, &registry, opts(policy, Engine::Interp), data, record);
        let (vv, vb) = run(schema, &registry, opts(policy, Engine::Vm), data, record);
        assert_eq!(vv.len(), iv.len(), "{label} policy={policy:?}: record count");
        for (i, (vm, interp)) in vv.iter().zip(&iv).enumerate() {
            assert_eq!(vm.0, interp.0, "{label} policy={policy:?}: value [{i}]");
            assert_eq!(vm.1, interp.1, "{label} policy={policy:?}: descriptor [{i}]");
        }
        assert_eq!(vb, ib, "{label} policy={policy:?}: budget");

        // Record-sharded: the VM runs inside each worker thread.
        for jobs in [1, 4] {
            let parser =
                PadsParser::new(schema, &registry).with_options(opts(policy, Engine::Vm));
            let (par, par_budget) = sharded(&parser, data, record, jobs, ResumePoint::default());
            assert_eq!(
                par, iv,
                "{label} jobs={jobs} policy={policy:?}: sharded VM items diverge"
            );
            assert_eq!(
                par_budget, ib,
                "{label} jobs={jobs} policy={policy:?}: sharded VM budget diverges"
            );
        }

        // Columnar close path: VM-parsed rows must reconstruct
        // byte-identically, error rows with their exact descriptors.
        for jobs in [1, 4] {
            let parser =
                PadsParser::new(schema, &registry).with_options(opts(policy, Engine::Vm));
            let (batch, batch_budget) = parser.records_par_batched(data, record, &mask(), jobs);
            assert_eq!(
                batch.len(),
                iv.len(),
                "{label} jobs={jobs} policy={policy:?}: VM batch row count"
            );
            for (i, (v, pd)) in iv.iter().enumerate() {
                assert_eq!(
                    batch.row(i),
                    *v,
                    "{label} jobs={jobs} policy={policy:?}: VM batch row [{i}]"
                );
                let bpd = batch.pd(i);
                assert_eq!(
                    bpd.is_ok(),
                    pd.is_ok(),
                    "{label} jobs={jobs} policy={policy:?}: VM batch pd state [{i}]"
                );
                if !pd.is_ok() {
                    assert_eq!(
                        bpd, *pd,
                        "{label} jobs={jobs} policy={policy:?}: VM batch error pd [{i}]"
                    );
                }
            }
            assert_eq!(
                batch_budget, ib,
                "{label} jobs={jobs} policy={policy:?}: VM batch budget"
            );
        }
    }
}

#[test]
fn torture_clf_vm_matches_interpreter() {
    assert_engines_agree("clf", &descriptions::clf(), CLF, "entry_t");
}

#[test]
fn torture_sirius_vm_matches_interpreter() {
    assert_engines_agree("sirius", &descriptions::sirius(), SIRIUS, "entry_t");
}

#[test]
fn torture_mixed_vm_matches_interpreter() {
    assert_engines_agree("mixed", &descriptions::mixed(), MIXED, "rec_t");
}

/// 1000-seed fault sweep: every deterministic mutation of a clean corpus
/// parses identically under both engines, sequentially and record-sharded,
/// cycling through the recovery policies.
#[test]
fn fault_harness_vm_matches_interpreter() {
    const SEEDS: u64 = 1000;
    let schema = descriptions::clf();
    let registry = Registry::standard();
    let clean =
        pads_gen::clf::generate(&pads_gen::ClfConfig { records: 12, ..Default::default() }).0;
    let policies = policies();
    for seed in 0..SEEDS {
        let data = FaultPlan::for_seed(seed).apply(&clean);
        let policy = policies[(seed as usize) % policies.len()];
        let (iv, ib) = run(&schema, &registry, opts(policy, Engine::Interp), &data, "entry_t");
        let (vv, vb) = run(&schema, &registry, opts(policy, Engine::Vm), &data, "entry_t");
        assert_eq!(vv, iv, "seed {seed} policy={policy:?}: VM items diverge");
        assert_eq!(vb, ib, "seed {seed} policy={policy:?}: VM budget diverges");
        for jobs in [1, 4] {
            let parser =
                PadsParser::new(&schema, &registry).with_options(opts(policy, Engine::Vm));
            let (par, par_budget) =
                sharded(&parser, &data, "entry_t", jobs, ResumePoint::default());
            assert_eq!(par, iv, "seed {seed} jobs={jobs} policy={policy:?}: items diverge");
            assert_eq!(
                par_budget, ib,
                "seed {seed} jobs={jobs} policy={policy:?}: budget diverges"
            );
        }
    }
}

/// Observation equivalence: a core fed by the VM engine holds exactly the
/// span tree (unbounded trace: every enter, exit, error, recovery and
/// record event, in order) and the deterministic counters of one fed by
/// the interpreter — sequentially, and for the counters merged across
/// per-worker cores at `--jobs {1,4}`.
#[test]
fn vm_observer_stream_matches_interpreter() {
    for (label, schema, data, record) in [
        ("clf", descriptions::clf(), CLF, "entry_t"),
        ("sirius", descriptions::sirius(), SIRIUS, "entry_t"),
        ("mixed", descriptions::mixed(), MIXED, "rec_t"),
    ] {
        let registry = Registry::standard();
        let observe = |engine| {
            let parser = PadsParser::new(&schema, &registry)
                .with_options(opts(RecoveryPolicy::unlimited(), engine));
            let core = parser.metrics_core().with_trace(usize::MAX, usize::MAX).into_handle();
            let parser = parser.with_metrics(core.clone());
            let _ = parser.records(data, record, &mask()).count();
            core
        };
        let (interp, vm) = (observe(Engine::Interp), observe(Engine::Vm));
        assert_eq!(
            vm.borrow().trace_roots(),
            interp.borrow().trace_roots(),
            "{label}: VM event stream diverges from interpreter"
        );
        let interp_json = counts_json(&interp);
        assert_eq!(counts_json(&vm), interp_json, "{label}: VM counters diverge from interpreter");

        for jobs in [1, 4] {
            let (parser, core) = metered(
                PadsParser::new(&schema, &registry)
                    .with_options(opts(RecoveryPolicy::unlimited(), Engine::Vm)),
            );
            let geometry = (jobs, CHUNKS_OF_TWO);
            let (sink, _) =
                collect::stream(&parser, data, record, &mask(), geometry, ResumePoint::default());
            assert!(sink.observed > 0, "{label} jobs={jobs}: the driver never said `observed`");
            assert_eq!(
                counts_json(&core),
                interp_json,
                "{label} jobs={jobs}: merged VM metrics diverge from interpreter"
            );
        }
    }
}

/// The VM agrees with the generated modules under the same contract the
/// codegen equivalence suite holds the interpreter to: identical values
/// record by record and identical descriptor verdicts, plus an identical
/// error budget, over the torture CLF corpus and every recovery policy.
#[test]
fn vm_matches_generated_reader_on_torture_clf() {
    let schema = descriptions::clf();
    let registry = Registry::standard();
    for policy in policies() {
        // Generated sequential ground truth.
        let mut cur = Cursor::new(CLF).with_policy(policy);
        let mut gen_items = Vec::new();
        loop {
            if cur.at_eof() {
                break;
            }
            let before = cur.offset();
            gen_items.push(gen_clf::EntryT::read(&mut cur, &mask()));
            if cur.offset() == before {
                break;
            }
        }
        let gen_budget = cur.budget();

        let (vm_items, vm_budget) =
            run(&schema, &registry, opts(policy, Engine::Vm), CLF, "entry_t");
        assert_eq!(vm_items.len(), gen_items.len(), "policy={policy:?}: record count");
        for (i, ((vv, vpd), (gv, gpd))) in vm_items.iter().zip(&gen_items).enumerate() {
            assert_eq!(
                vv.at_path("length").and_then(Value::as_u64),
                Some(gv.length as u64),
                "policy={policy:?}: length [{i}]"
            );
            assert_eq!(vpd.is_ok(), gpd.is_ok(), "policy={policy:?}: pd verdict [{i}]");
            assert_eq!(vpd.nerr, gpd.nerr, "policy={policy:?}: pd nerr [{i}]");
        }
        assert_eq!(vm_budget, gen_budget, "policy={policy:?}: budget");
    }
}

/// Journaled kill-and-resume under the VM engine: checkpoints committed to
/// a real on-disk journal during a killed VM run, reopened and resumed with
/// the restored budget and observer state, must reproduce the uninterrupted
/// interpreter run exactly — values, budget, and metrics snapshot.
#[test]
fn vm_journal_kill_resume_matches_uninterrupted_interpreter() {
    const SEEDS: u64 = 50;
    let schema = descriptions::clf();
    let registry = Registry::standard();
    let clean =
        pads_gen::clf::generate(&pads_gen::ClfConfig { records: 12, ..Default::default() }).0;
    let policies = policies();
    let dir = std::env::temp_dir().join(format!("pads-vm-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for seed in 0..SEEDS {
        let data = FaultPlan::for_seed(seed).apply(&clean);
        let policy = policies[(seed as usize) % policies.len()];

        // Uninterrupted *interpreter* run with metrics: the ground truth.
        let (parser, core) = metered(
            PadsParser::new(&schema, &registry).with_options(opts(policy, Engine::Interp)),
        );
        let m = mask();
        let mut it = parser.records(&data, "entry_t", &m);
        let full: Vec<_> = it.by_ref().collect();
        let full_budget = it.budget();
        drop(it);
        let full_json = counts_json(&core);

        // Killed VM run, committing (position, budget, metrics) to disk.
        let plan = KillPlan::for_seed(seed, full.len());
        let path = dir.join(format!("seed-{seed}.wal"));
        let mut journal = pads_journal::Journal::create(&path).expect("create journal");
        let (parser, core) =
            metered(PadsParser::new(&schema, &registry).with_options(opts(policy, Engine::Vm)));
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

        // Reopen and resume — still on the VM engine.
        let (journal, repaired) = pads_journal::Journal::open(&path).expect("reopen journal");
        assert!(repaired.is_none(), "seed {seed}: clean journal reported a torn tail");
        let (cp, restored) = match journal.last() {
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
        let (parser, core) =
            metered(PadsParser::new(&schema, &registry).with_options(opts(policy, Engine::Vm)));
        core.borrow_mut().merge(&restored);
        let m = mask();
        let mut it = parser.records_resumed(&data, "entry_t", &m, cp);
        let resumed: Vec<_> = it.by_ref().collect();
        let resumed_budget = it.budget();
        drop(it);
        assert_eq!(
            resumed.as_slice(),
            &full[cp.record..],
            "seed {seed} plan={plan:?} policy={policy:?}: VM-resumed tail diverges"
        );
        assert_eq!(
            resumed_budget, full_budget,
            "seed {seed} plan={plan:?} policy={policy:?}: VM-resumed budget diverges"
        );
        assert_eq!(
            counts_json(&core),
            full_json,
            "seed {seed} plan={plan:?} policy={policy:?}: VM-restored metrics diverge"
        );
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_dir(&dir);
}

/// Engine-selection contract: the VM runs whatever charset the cursor
/// carries — the program compiled for it — and agrees with the interpreter
/// under both. A compiled program holds the base-type handles it resolved,
/// so the reference count of the description's one `Puint32` is a witness
/// that the VM parser compiled and kept a program per charset rather than
/// fall back to the interpreter.
#[test]
fn vm_runs_under_either_charset_and_agrees_with_the_interpreter() {
    let registry = Registry::standard();
    let schema = pads::compile(
        "Precord Pstruct charset_witness_t { Puint32 n; '|'; Pstring(:'|':) tag; '|'; };",
        &registry,
    )
    .expect("compiles");
    let ebcdic = Charset::Ebcdic;
    let line: Vec<u8> = b"17|west|".iter().map(|&b| ebcdic.encode(b)).collect();
    let interp = PadsParser::new(&schema, &registry);
    let vm = PadsParser::new(&schema, &registry)
        .with_options(opts(RecoveryPolicy::unlimited(), Engine::Vm));
    let uint = Arc::clone(registry.get("Puint32").expect("standard registry"));
    let holders = Arc::strong_count(&uint);

    // Both parsers were built for ASCII; hand them cursors of either kind.
    for (charset, data) in [(Charset::Ascii, &b"17|west|"[..]), (ebcdic, &line[..])] {
        let parse = |parser: &PadsParser<'_>| {
            let mut cur = parser.open(data).with_charset(charset);
            parser.parse_named(&mut cur, "charset_witness_t", &[], &mask())
        };
        let (iv, ipd) = parse(&interp);
        let (vv, vpd) = parse(&vm);
        assert!(ipd.is_ok(), "{charset:?}: {ipd}");
        assert_eq!(iv.at_path("n").and_then(Value::as_u64), Some(17), "{charset:?}");
        assert_eq!(vv, iv, "{charset:?}: VM value diverges");
        assert_eq!(vpd, ipd, "{charset:?}: VM descriptor diverges");
    }
    assert_eq!(
        Arc::strong_count(&uint),
        holders + 2,
        "the VM parser holds the ASCII and the EBCDIC program it ran"
    );
}
