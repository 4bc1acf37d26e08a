//! The tables the contract matrix and the driver suites run over
//! (`#[path]`-included, so each test crate compiles its own copy): the
//! recovery policies and the chunk geometries. A new row here reaches every
//! column of the matrix.
#![allow(dead_code)]

use pads::{OnExhausted, RecoveryPolicy, DEFAULT_MAX_INFLIGHT};

/// The policy matrix every equivalence check runs under: unlimited, plus
/// each `OnExhausted` mode with a budget small enough to trip on the
/// torture corpora, plus the orthogonal per-record and panic-skip limits.
pub fn policies() -> Vec<RecoveryPolicy> {
    vec![
        RecoveryPolicy::unlimited(),
        RecoveryPolicy::unlimited().with_max_errs(2).with_on_exhausted(OnExhausted::Stop),
        RecoveryPolicy::unlimited().with_max_errs(2).with_on_exhausted(OnExhausted::SkipRecord),
        RecoveryPolicy::unlimited().with_max_errs(3).with_on_exhausted(OnExhausted::BestEffort),
        RecoveryPolicy::unlimited().with_max_record_errs(0),
        RecoveryPolicy::unlimited().with_max_panic_skip(0).with_on_exhausted(OnExhausted::SkipRecord),
    ]
}

/// How the sharded driver is run: `(jobs, max_inflight)`. The corpora of
/// these suites are a dozen records, so the in-flight bound sets the chunk
/// geometry: sequential; one-record chunks; chunks of two; more workers
/// than chunks; one chunk larger than the source.
pub const GEOMETRIES: [(usize, usize); 6] =
    [(1, DEFAULT_MAX_INFLIGHT), (2, 1), (4, 1), (2, 8), (16, 8), (4, DEFAULT_MAX_INFLIGHT)];
