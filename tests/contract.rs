//! The contract matrix (`common/contract.rs`) cannot pass vacuously: each
//! row here plants a fault in a candidate run and must fail the column
//! meant to catch it. The cells that run the matrix are the suites that
//! include it.

#[path = "common/contract.rs"]
mod contract;

use contract::{bundled, Case, Description, Kill, Observe, Truth, CHUNKS_OF_TWO, SEQUENTIAL};
use pads::{Engine, RecoveryPolicy};
use pads_runtime::KillPlan;

/// The torture CLF case and its unlimited-policy truth, handed to `fault`.
fn planted(fault: impl FnOnce(&Case<'_>, &Truth)) {
    let clf = bundled::clf();
    let description = Description::new(&clf.schema, &clf.registry);
    let case = Case::new("clf", &description, clf.torture);
    fault(&case, &Truth::of(&case, RecoveryPolicy::unlimited()));
}

#[test]
#[should_panic(expected = "geometry Vm jobs=2 inflight=1: record count")]
fn a_run_missing_its_last_record_fails_the_geometry_column() {
    planted(|case, truth| {
        let mut got = case.streamed(truth.policy, Engine::Vm, (2, 1), Observe::Off);
        got.run.items.pop();
        got.run.progress.pop();
        truth.geometry(Engine::Vm, (2, 1), &got);
    });
}

#[test]
#[should_panic(expected = "sequential Vm: descriptor [")]
fn a_descriptor_whose_nerr_is_off_by_one_fails_the_sequential_column() {
    planted(|case, truth| {
        let mut got = case.streamed(truth.policy, Engine::Vm, SEQUENTIAL, Observe::Trace);
        let (_, pd) = got.run.items.iter_mut().find(|(_, pd)| !pd.is_ok()).expect("an error");
        pd.nerr += 1;
        truth.sequential(Engine::Vm, &got);
    });
}

#[test]
#[should_panic(expected = "killed Interp after 6 every 2 (1, 8)→(4, 8) memory: end")]
fn a_budget_one_error_short_fails_the_killed_column() {
    planted(|case, truth| {
        let plan = KillPlan { kill_after: 6, checkpoint_every: 2 };
        let jobs = ((1, 8), CHUNKS_OF_TWO);
        let kill = Kill { plan, engine: Engine::Interp, jobs, counted: true, journal: false };
        let (killed, mut resumed) = case.killed(truth.policy, &kill);
        resumed.run.end.budget.errs -= 1;
        truth.killed(&kill, &killed, &resumed);
    });
}

#[test]
#[should_panic(expected = "geometry Interp jobs=4 inflight=1: counters")]
fn a_counter_snapshot_missing_a_node_fails_the_geometry_column() {
    planted(|case, truth| {
        let mut got = case.streamed(truth.policy, Engine::Interp, (4, 1), Observe::Count);
        got.counters.as_mut().expect("counted").types.pop_last();
        truth.geometry(Engine::Interp, (4, 1), &got);
    });
}
