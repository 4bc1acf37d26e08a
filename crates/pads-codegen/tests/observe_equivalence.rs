//! Event-stream equivalence: every engine — the interpreting parser, the
//! bytecode VM and the generated modules — feeds an attached metrics core
//! *identical* events, compared node for node through the unbounded trace
//! tree, and the recovery events mirror the `ErrorBudget` counters exactly:
//! the generated cells of the contract matrix (`tests/common/contract.rs`)
//! over the torture corpora and fault seeds, then the recovery events of
//! the two degraded budget modes that keep parsing, on a Sirius corpus with
//! a known number of damaged records.

#[path = "../../../tests/common/contract.rs"]
mod contract;

use contract::{bundled, seeds, sweep, torture, Plan, Truth, ENGINES};
use pads::{OnExhausted, RecoveryPolicy};

/// The dirty Sirius corpus under a budget of three errors exhausted in
/// `mode`: both engines and the generated module trace the interpreter's
/// event stream, its counters held to the trace.
fn degraded(mode: OnExhausted) -> Truth {
    let policy = RecoveryPolicy::unlimited().with_max_errs(3).with_on_exhausted(mode);
    bundled::dirty_sirius(policy).0
}

/// The generated module's whole-source parse over each torture corpus:
/// the interpreter's descriptor, value and every event it traced.
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

/// Every record the budget skipped is one `SkipRecord` event, and the
/// exhaustion is announced once.
#[test]
fn skip_record_mode_emits_matching_recovery_events() {
    let truth = degraded(OnExhausted::SkipRecord);
    let (at, core, budget) = (&truth.at, truth.traced(), truth.run.end.budget);
    assert!(budget.skipped_records > 0, "{at}: budget never forced a skip");
    assert_eq!(core.records_skipped(), budget.skipped_records, "{at}: skip events");
    assert_eq!(core.sorted_budget_modes(), [("SkipRecord", 1)], "{at}: exhaustion events");
    assert_eq!(core.records(), 40 + 1, "{at}: 40 entries and the header");
}

/// Best effort never skips a record wholesale; its exhaustion is announced.
#[test]
fn best_effort_mode_emits_matching_recovery_events() {
    let truth = degraded(OnExhausted::BestEffort);
    let (at, core, budget) = (&truth.at, truth.traced(), truth.run.end.budget);
    assert_eq!((core.records_skipped(), budget.skipped_records), (0, 0), "{at}: skips");
    assert_eq!(core.sorted_budget_modes(), [("BestEffort", 1)], "{at}: exhaustion events");
}
