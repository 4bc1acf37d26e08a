//! The tables the CLI matrices run over (`#[path]`-included by the suites
//! that want them): the recovery budgets as flags, and the job counts.
#![allow(dead_code)]

use pads::{OnExhausted, RecoveryPolicy};

/// Unlimited, and a two-error budget in each `--on-overflow` mode: the
/// flags, and the policy they ask for.
pub fn policies() -> Vec<(Vec<String>, RecoveryPolicy)> {
    let flags = |mode: &str| ["--max-errs", "2", "--on-overflow", mode].map(str::to_owned).to_vec();
    let capped = |mode| RecoveryPolicy::unlimited().with_max_errs(2).with_on_exhausted(mode);
    vec![
        (Vec::new(), RecoveryPolicy::unlimited()),
        (flags("stop"), capped(OnExhausted::Stop)),
        (flags("skip"), capped(OnExhausted::SkipRecord)),
        (flags("best-effort"), capped(OnExhausted::BestEffort)),
    ]
}

/// `--jobs`: sequential, the two cores CI has, and more workers than that.
pub const JOBS: [&str; 3] = ["1", "2", "4"];
