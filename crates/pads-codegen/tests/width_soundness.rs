//! Width-interval soundness: the fact database claims every parse of a
//! type `T` consumes between `min` and `max` bytes (`max` absent for
//! unbounded types). The facts of the contract matrix
//! (`tests/common/contract.rs`) check every clean span of the whole-tree
//! parse's trace against the computed interval — record types get one byte
//! of slack for the newline their close consumes — and its `generated`
//! column holds the generated module's trace to that one, so the check
//! covers both engines.

#[path = "../../../tests/common/contract.rs"]
mod contract;

use contract::{bundled, seeds, sweep, torture, Plan};

#[test]
fn torture_corpora_respect_width_intervals_on_both_engines() {
    for bundled in bundled::all() {
        torture(&bundled, |_| Plan { generated: true, ..Plan::default() });
    }
}

/// CLF fault seeds: soundness holds on whatever clean sub-parses survive
/// the damage, and on nine seeds in ten some do.
#[test]
fn fault_harness_respects_width_intervals_on_both_engines() {
    let reached =
        sweep(&bundled::clf(), seeds::WIDTHS, |_, _| Plan { generated: true, ..Plan::default() });
    assert!(reached.spans > reached.seeds * 9 / 10, "too few seeds left clean spans: {reached:?}");
}
