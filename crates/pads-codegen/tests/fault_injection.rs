//! The fault sweep: a thousand `FaultPlan` mutations of each bundled
//! description's clean corpus, each seed's truth computed once and checked
//! in the rows of the contract matrix (`tests/common/contract.rs`) the
//! description's sweep gives it, and the facts on blocks of seeds of their
//! own. Then the three [`OnExhausted`] degradation modes of the error
//! budget, and the per-record cap, on a Sirius corpus with a known number
//! of damaged records: each a cell of that corpus under its policy, its
//! degradation asserted on the interpreter's truth.

#[path = "../../../tests/common/contract.rs"]
mod contract;

use contract::bundled::{self, Bundled};
use contract::{seeds, sweep, Plan, Truth};
use pads::{Engine, ErrorCode, OnExhausted, ParseState, PdKind, RecoveryPolicy};

/// The main sweep of `bundled`, each seed checked in the rows `plan` gives
/// it: its mutations must reach panic-mode recovery (where the description
/// can) and syntax errors, and on nine seeds in ten leave clean spans for
/// the width check.
fn survives(bundled: Bundled, plan: impl Fn(u64, &Truth) -> Plan + Sync) {
    let reached = sweep(&bundled, seeds::SWEEP, plan);
    let (name, panics) = (bundled.name, bundled.panics);
    assert!(reached.panicked > 0 || !panics, "{name}: no mutation triggered panic recovery");
    assert!(reached.syntax > 0, "{name}: no mutation produced a syntax error");
    assert!(reached.spans > reached.seeds * 9 / 10, "{name}: {reached:?}");
}

/// Sirius and mixed seeds: the VM on one thread with every event traced,
/// the batch, and the generated module's whole-source parse and record
/// reader. The sharded, killed and drive rows run on every CLF seed; Sirius
/// seeds are killed in `crash_resume.rs`'s header-source cell.
fn vm_and_generated(_: u64, _: &Truth) -> Plan {
    Plan {
        sequential: vec![Engine::Vm],
        batch: true,
        generated: true,
        reader: true,
        ..Plan::default()
    }
}

#[test]
fn clf_survives_one_thousand_fault_plans() {
    survives(bundled::clf(), Plan::for_seed);
}

#[test]
fn sirius_survives_one_thousand_fault_plans() {
    survives(bundled::sirius(), vm_and_generated);
}

#[test]
fn mixed_survives_one_thousand_fault_plans() {
    survives(bundled::mixed(), vm_and_generated);
}

/// `ParseDesc::has_syntax_error` walks error codes without allocating; the
/// facts hold it to what the definition it replaced answered — "state not
/// Ok, or some `errors()` entry is not semantic" — at every node of every
/// descriptor, here on a block of fault seeds of each bundled description.
#[test]
fn has_syntax_error_agrees_with_errors_walk_on_every_fault_descriptor() {
    let syntax: u64 = bundled::all()
        .iter()
        .map(|bundled| sweep(bundled, seeds::SYNTAX, |_, _| Plan::default()).syntax)
        .sum();
    assert!(syntax > 0, "no mutation produced a syntax error");
}

/// CLF fault seeds read record at a time: every byte of the mutated source
/// is consumed by a record or skipped by panic recovery, and each panicked
/// record reports its skipped span inside its extent.
#[test]
fn fault_recovery_accounts_for_every_byte() {
    sweep(&bundled::clf(), seeds::BYTES, |_, _| Plan {
        records: vec![Engine::Interp],
        ..Plan::default()
    });
}

/// A budget of three errors, exhausted in `mode`.
fn budget(mode: OnExhausted) -> RecoveryPolicy {
    RecoveryPolicy::unlimited().with_max_errs(3).with_on_exhausted(mode)
}

/// The records whose descriptor has errors flattened to one node.
fn flat(truth: &Truth) -> usize {
    truth.run.items.iter().filter(|(_, pd)| pd.nerr > 0 && pd.kind == PdKind::Base).count()
}

/// `OnExhausted::Stop`: parsing halts short of the corpus and says so.
#[test]
fn budget_stop_halts_both_engines_identically() {
    let (truth, _) = bundled::dirty_sirius(budget(OnExhausted::Stop));
    let whole = truth.whole.as_ref().expect("sirius streams");
    let said = whole.pd.errors().iter().any(|e| e.1 == ErrorCode::BudgetExhausted);
    assert!(said && whole.records < 40, "{}: {} records", truth.at, whole.records);
}

/// `OnExhausted::SkipRecord`: once the budget is spent, records are skipped
/// wholesale and marked `BudgetExhausted`/`Panic`, but every record still
/// materialises.
#[test]
fn budget_skip_record_degrades_gracefully() {
    let (truth, _) = bundled::dirty_sirius(budget(OnExhausted::SkipRecord));
    let whole = truth.whole.as_ref().expect("sirius streams");
    let skipped = (truth.run.items.iter())
        .filter(|(_, pd)| pd.err_code == ErrorCode::BudgetExhausted)
        .filter(|(_, pd)| pd.state == ParseState::Panic)
        .count();
    assert!(whole.records == 40 && skipped > 0, "{}: {skipped} skipped", truth.at);
}

/// `OnExhausted::BestEffort`: every record is parsed and none skipped, but
/// the descriptors of damaged records flatten to one node.
#[test]
fn budget_best_effort_flattens_detail() {
    let (truth, _) = bundled::dirty_sirius(budget(OnExhausted::BestEffort));
    let whole = truth.whole.as_ref().expect("sirius streams");
    let skipped = truth.run.end.budget.skipped_records;
    assert_eq!((whole.records, skipped), (40, 0), "{}", truth.at);
    assert!(flat(&truth) > 0, "{}: best-effort mode kept full descriptor detail", truth.at);
}

/// A per-record cap of no errors, the global budget unlimited, flattens
/// exactly the damaged records and leaves the error count as it is.
#[test]
fn per_record_error_cap_truncates_detail() {
    let (full, damaged) = bundled::dirty_sirius(RecoveryPolicy::unlimited());
    let (capped, _) = bundled::dirty_sirius(RecoveryPolicy::unlimited().with_max_record_errs(0));
    assert_eq!(flat(&capped), damaged, "{}: flattened records", capped.at);
    let nerr = |truth: &Truth| truth.whole.as_ref().expect("sirius streams").pd.nerr;
    assert_eq!(nerr(&capped), nerr(&full), "{}: error count", capped.at);
}
