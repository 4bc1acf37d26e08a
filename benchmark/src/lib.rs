//! The pads-rs end-to-end benchmark harness (see `README.md`).
//!
//! * [`workload`] — the four workloads: corpus, cross-checked reference
//!   outputs, timed child-process rounds;
//! * [`corpus`] — seeded corpora, record-local damage, content hash;
//! * [`sys`] — `wait4`-measured child runs and the process CPU clock;
//! * [`span`] — the in-memory span recorder of the traced run;
//! * [`metrics`] — every metric's name, unit, direction and bound;
//! * [`stats`], [`json`], [`args`] — medians, the result line, the
//!   contract's arguments.

pub mod args;
pub mod corpus;
pub mod json;
pub mod metrics;
pub mod span;
pub mod stats;
pub mod sys;
pub mod workload;
