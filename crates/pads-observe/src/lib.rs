//! Observability exposition for the PADS data path.
//!
//! The runtime owns the one observation mechanism: a dense-id
//! [`MetricsCore`] attached to the cursor, with an optional per-node
//! profiler and an optional span-tree trace riding on it
//! ([`pads_runtime::metrics`]). This crate renders what a core collected:
//!
//! * [`metrics`] — per-type hit counts and byte spans, error counts by
//!   code, record throughput, and latency summaries, exposed in
//!   Prometheus text format and JSON;
//! * [`trace`] — the depth-bounded span tree showing exactly how each
//!   record was consumed, as JSONL or rendered text.
//!
//! Every engine (the `pads-core` interpreter and VM, and
//! `pads-codegen`-generated modules) feeds a core the same events for
//! the same input, so a rendering never needs to know which engine ran.
//!
//! ```
//! use pads_observe::{metrics, trace, MetricsCore};
//! use pads_runtime::Cursor;
//!
//! let core = MetricsCore::with_names(["entry_t"]).with_trace(8, 1000).into_handle();
//! let cur = Cursor::new(b"data").with_metrics(core.clone());
//! // ... parse with any engine ...
//! # drop(cur);
//! let core = core.borrow();
//! print!("{}", trace::render(&core).expect("tracing on"));
//! println!("{}", metrics::counts_json(&core));
//! ```

pub mod metrics;
pub mod trace;
mod util;

pub use pads_runtime::metrics::{MetricsCore, MetricsHandle, ObsSchema, RecoveryEvent, TypeStat};
