//! Kill and resume: the contract matrix's (`common/contract.rs`) `killed`
//! column — a run killed and resumed from its last checkpoint, in memory or
//! through an on-disk journal, ends as the uninterrupted run, counters
//! included — and the generated reader resumed at a checkpoint; then a
//! start past a header.

#[path = "common/contract.rs"]
mod contract;

use contract::bundled;
use contract::{
    every_boundary, every_policy, seeds, sweep, torture, Case, Description, Kill, Plan, Truth,
    CHUNKS_OF_TWO, SEQUENTIAL,
};
use pads::{Engine, RecoveryPolicy};
use pads_runtime::KillPlan;

/// Each of `rows` — the engine, the geometry the run dies and resumes in,
/// whether its checkpoints go through a journal — killed before the first
/// commit, midway and after the last record, the counters in the
/// checkpoints.
fn spread(truth: &Truth, rows: &[(Engine, (usize, usize), bool)]) -> Plan {
    let n = truth.len();
    let plans = [(1, 3), (n / 2, 2), (n, 1)].map(|(kill_after, checkpoint_every)| KillPlan {
        kill_after,
        checkpoint_every,
    });
    let kills = plans.into_iter().flat_map(|plan| {
        rows.iter().map(move |&(engine, jobs, journal)| Kill {
            plan,
            engine,
            jobs: (jobs, jobs),
            counted: true,
            journal,
        })
    });
    Plan { kills: kills.collect(), ..Plan::default() }
}

/// The interpreter in memory on one thread, the VM through a journal on
/// two workers.
const TORTURE_KILLS: [(Engine, (usize, usize), bool); 2] =
    [(Engine::Interp, SEQUENTIAL, false), (Engine::Vm, (2, 8), true)];

/// Over the headerless torture corpora, [`TORTURE_KILLS`]; and CLF fault
/// seeds killed at the seed's `KillPlan` on one thread and resumed on one
/// and on four — rows every seed of the main sweep (`fault_injection.rs`)
/// runs too, here on a block of seeds of their own.
#[test]
fn kill_resume_matches_uninterrupted_run() {
    for bundled in [bundled::clf(), bundled::mixed()] {
        torture(&bundled, |truth| spread(truth, &TORTURE_KILLS));
    }
    sweep(&bundled::clf(), seeds::KILLED, |seed, truth| {
        let kill = Kill::at(KillPlan::for_seed(seed, truth.len()), Engine::Interp);
        let resumed = |jobs| Kill { jobs: (SEQUENTIAL, jobs), ..kill };
        Plan { kills: vec![resumed(SEQUENTIAL), resumed(CHUNKS_OF_TWO)], ..Plan::default() }
    });
}

/// The same over Sirius, whose header is the first record: the torture
/// corpus, and that corpus behind a header with a syntax error — a run
/// that does not fold the source goes on past it — killed as above and
/// resumed at every boundary; and fault seeds killed before the first
/// commit, midway and after the last record, on one thread and on two
/// workers, the counters in the checkpoints. Some seeds damage the header
/// and have records after it.
#[test]
fn header_source_kill_resume_matches_uninterrupted_run() {
    let sirius = bundled::sirius();
    torture(&sirius, |truth| spread(truth, &TORTURE_KILLS));
    let description = sirius.description();
    let end = sirius.torture.iter().position(|&b| b == b'\n').expect("a header line");
    let bad_header = [&b"not a header"[..], &sirius.torture[end..]].concat();
    let case = Case::new("sirius/bad header", &description, &bad_header);
    every_policy(&case, |truth| {
        assert!(truth.aborted() && truth.len() > 0, "{}: records after the header", truth.at);
        let resumes = every_boundary(truth).map(|(k, g)| (k, Engine::Interp, g));
        Plan { resumes: resumes.collect(), ..spread(truth, &TORTURE_KILLS) }
    });
    let rows = [(Engine::Interp, SEQUENTIAL, false), (Engine::Interp, (2, 8), false)];
    let reached = sweep(&sirius, seeds::HEADER_SOURCE, |_, truth| spread(truth, &rows));
    assert!(reached.past_aborted > 0, "no seed damaged the header: {reached:?}");
}

/// CLF fault seeds: the interpreter killed at the seed's `KillPlan`, its
/// checkpoints — position, budget, counters — committed to an on-disk
/// journal, reopened and resumed with the restored core.
#[test]
fn journal_roundtrip_restores_budget_and_metrics() {
    sweep(&bundled::clf(), seeds::JOURNAL, |seed, truth| {
        let plan = KillPlan::for_seed(seed, truth.len());
        let kill = Kill { counted: true, journal: true, ..Kill::at(plan, Engine::Interp) };
        Plan { kills: vec![kill], ..Plan::default() }
    });
}

/// CLF fault seeds: the generated reader, resumed at the last checkpoint
/// the seed's `KillPlan` commits, yields the tail of the uninterrupted run,
/// on one thread and on four workers — rows every seed of the main sweep
/// runs too, here on a block of seeds of their own.
#[test]
fn generated_kill_resume_matches_uninterrupted_run() {
    sweep(&bundled::clf(), seeds::RESUMED_READER, |seed, truth| {
        let k = Kill::last_commit(KillPlan::for_seed(seed, truth.len()), truth.len());
        Plan { reader: true, drives: vec![(k, SEQUENTIAL), (k, CHUNKS_OF_TWO)], ..Plan::default() }
    });
}

/// A start past the beginning of a header source — any record end — has
/// the header behind it: the driver delivers no header and the remaining
/// records, never the header type parsed over a record.
#[test]
fn a_start_past_the_header_delivers_no_header_and_the_remaining_records() {
    let (sirius, policy) = (bundled::sirius(), RecoveryPolicy::unlimited());
    let description = Description::new(&sirius.schema, &sirius.registry);
    let case = Case::new("sirius", &description, sirius.torture);
    let truth = Truth::of(&case, policy);
    assert!(truth.run.header.is_some() && truth.len() > 2);
    for k in 1..=truth.len() {
        for geometry in [SEQUENTIAL, (2, 8)] {
            let run = case.resumed(policy, Engine::Interp, geometry, truth.boundary(k));
            truth.resumed(k, Engine::Interp, geometry, &run);
        }
    }
}
