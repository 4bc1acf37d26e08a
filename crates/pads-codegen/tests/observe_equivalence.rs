//! Event-stream equivalence: every engine — the interpreting parser, the
//! bytecode VM and the generated modules — feeds an attached metrics core
//! *identical* events, compared node for node through the unbounded trace
//! tree, and the recovery events mirror the `ErrorBudget` counters exactly:
//! the generated cells of the contract matrix (`tests/common/contract.rs`)
//! over the torture corpora and fault seeds, then the two degraded budget
//! modes on a Sirius corpus with a known number of damaged records.

#[path = "../../../tests/common/contract.rs"]
mod contract;
#[path = "../../../tests/common/trace_tally.rs"]
mod trace_tally;

use contract::{bundled, seeds, sweep, torture, Plan, ENGINES};
use pads::generated::sirius;
use pads::{descriptions, Engine, PadsParser, ParseOptions};
use pads_observe::trace;
use pads_runtime::{
    BaseMask, Cursor, ErrorBudget, ErrorCode, Loc, Mask, MetricsCore, OnExhausted, ParseDesc,
    RecoveryPolicy,
};
use trace_tally::{assert_counters_match_trace, unbounded, Tally};

fn mask() -> Mask {
    Mask::all(BaseMask::CheckAndSet)
}

type Errors = Vec<(String, ErrorCode, Option<Loc>)>;

/// Parses `data` whole with the interpreter or the VM under `policy`, an
/// unbounded tracing core attached; returns the core and the located errors
/// of the source descriptor.
fn engine_run(
    schema: &pads_check::ir::Schema,
    data: &[u8],
    policy: RecoveryPolicy,
    engine: Engine,
) -> (MetricsCore, Errors) {
    let registry = pads_runtime::Registry::standard();
    let parser = PadsParser::new(schema, &registry)
        .with_options(ParseOptions { policy, engine, ..Default::default() });
    let core = unbounded(parser.metrics_core()).into_handle();
    let (_, pd) = parser.with_metrics(core.clone()).parse_source(data, &mask());
    let core = core.borrow().clone();
    (core, pd.errors())
}

/// A generated module's whole-source entry and its pre-interned core.
type Generated = (fn(&mut Cursor<'_>, &Mask) -> ParseDesc, fn() -> MetricsCore);

const GEN_SIRIUS: Generated = (|cur, m| sirius::parse_source(cur, m).1, sirius::metrics_core);

/// Parses `data` with a generated `parse_source`; returns the core, the
/// located errors and the cursor's final budget (for counter cross-checks).
fn gen_run(
    (parse, metrics_core): Generated,
    data: &[u8],
    policy: RecoveryPolicy,
) -> (MetricsCore, Errors, ErrorBudget) {
    let core = unbounded(metrics_core()).into_handle();
    let mut cur = Cursor::new(data).with_policy(policy).with_metrics(core.clone());
    let pd = parse(&mut cur, &mask());
    let core = core.borrow().clone();
    (core, pd.errors(), cur.budget())
}

/// Node for node: the trees are equal, and where they are not the first
/// differing line of their JSONL renderings says where.
fn assert_same_stream(name: &str, want: &MetricsCore, got: &MetricsCore) {
    if want.trace_roots() != got.trace_roots() {
        let (want, got) = (trace::jsonl(want).unwrap(), trace::jsonl(got).unwrap());
        for (i, (a, b)) in want.lines().zip(got.lines()).enumerate() {
            assert_eq!(a, b, "{name}: event {i} diverges");
        }
        panic!(
            "{name}: stream lengths differ ({} vs {})",
            want.lines().count(),
            got.lines().count()
        );
    }
    assert!(want.trace_roots().is_some_and(|r| !r.is_empty()), "{name}: no events observed");
}

/// Runs all three engines over `data`, holds them to one event stream (and
/// the descriptors to one located-error list, which carries the full error
/// `Loc`s the trace keeps only the start of), cross-checks each engine's
/// counters against its own tree, and returns the generated run.
fn assert_engines_agree(
    name: &str,
    schema: &pads_check::ir::Schema,
    generated: Generated,
    data: &[u8],
    policy: RecoveryPolicy,
) -> (MetricsCore, ErrorBudget) {
    let (interp, interp_errors) = engine_run(schema, data, policy, Engine::Interp);
    let (vm, vm_errors) = engine_run(schema, data, policy, Engine::Vm);
    let (gen, gen_errors, budget) = gen_run(generated, data, policy);
    assert_same_stream(&format!("{name}: interpreter vs VM"), &interp, &vm);
    assert_same_stream(&format!("{name}: interpreter vs generated"), &interp, &gen);
    assert_eq!(interp_errors, vm_errors, "{name}: VM descriptor errors diverge");
    assert_eq!(interp_errors, gen_errors, "{name}: generated descriptor errors diverge");
    for (engine, core) in [("interpreter", &interp), ("VM", &vm), ("generated", &gen)] {
        assert_counters_match_trace(&format!("{name}/{engine}"), core);
    }
    (gen, budget)
}

/// The generated module's whole-source parse over each torture corpus:
/// the interpreter's verdict, record count and every event it traced.
#[test]
fn torture_corpora_produce_identical_event_streams() {
    for bundled in bundled::all() {
        torture(&bundled, |_| Plan { generated: true, ..Plan::default() });
    }
}

/// CLF fault seeds: the interpreter's fold, the VM and the generated module
/// trace the events of the whole-tree parse, and its recovery events
/// account for exactly the bytes the budget says panic mode skipped.
#[test]
fn fault_harness_event_streams_agree_and_match_byte_accounting() {
    let reached = sweep(&bundled::clf(), seeds::EVENTS, |_, _| Plan {
        sequential: ENGINES.to_vec(),
        generated: true,
        ..Plan::default()
    });
    assert!(reached.panicked > 0, "no mutation triggered panic recovery: {reached:?}");
}

/// A Sirius corpus with a known number of dirty records (as in the budget
/// tests of `fault_injection.rs`).
fn dirty_sirius() -> Vec<u8> {
    pads_gen::sirius::generate(&pads_gen::SiriusConfig {
        records: 40,
        syntax_errors: 10,
        sort_violations: 0,
        ..Default::default()
    })
    .0
}

#[test]
fn skip_record_mode_emits_matching_recovery_events() {
    let data = dirty_sirius();
    let policy = RecoveryPolicy::unlimited()
        .with_max_errs(3)
        .with_on_exhausted(OnExhausted::SkipRecord);
    let schema = descriptions::sirius();
    let (gen, budget) =
        assert_engines_agree("sirius/skip-record", &schema, GEN_SIRIUS, &data, policy);
    // Every budget-driven record skip produced exactly one SkipRecord event,
    // and the exhaustion transition itself was announced once.
    let events = Tally::of_trace(&gen);
    assert!(budget.skipped_records > 0, "budget never forced a skip");
    assert_eq!(events.records_skipped, budget.skipped_records);
    assert_eq!(
        events.budget_exhausted.values().sum::<u64>(),
        1,
        "exhaustion transition must fire exactly once"
    );
    // The counters aggregate the same stream (`assert_engines_agree` held
    // them to the tree): skips, and 40 entries + the header record.
    assert_eq!(gen.records_skipped(), budget.skipped_records);
    assert_eq!(gen.records(), 40 + 1);
}

#[test]
fn best_effort_mode_emits_matching_recovery_events() {
    let data = dirty_sirius();
    let policy = RecoveryPolicy::unlimited()
        .with_max_errs(3)
        .with_on_exhausted(OnExhausted::BestEffort);
    let schema = descriptions::sirius();
    let (gen, budget) =
        assert_engines_agree("sirius/best-effort", &schema, GEN_SIRIUS, &data, policy);
    // Best-effort never skips records wholesale; it only flattens detail.
    let events = Tally::of_trace(&gen);
    assert_eq!(events.records_skipped, 0);
    assert_eq!(budget.skipped_records, 0);
    assert!(
        events.budget_exhausted.contains_key("BestEffort"),
        "exhaustion under BestEffort must be announced"
    );
}
