//! Runtime support for the PADS data description language.
//!
//! This crate is the Rust analogue of the ~30,000-line C runtime described
//! in §6 of *PADS: a domain-specific language for processing ad hoc data*
//! (Fisher & Gruber, PLDI 2005). It provides everything the interpreting
//! parser and generated parsers share:
//!
//! * [`error`] — error codes, locations, and parse states;
//! * [`pd`] — parse descriptors, the error half of every parse result;
//! * [`mask`] — run-time masks selecting which constraints to check;
//! * [`encoding`] — ambient codings: ASCII, EBCDIC (cp037), byte orders;
//! * [`date`] — civil-time conversion and the `Pdate` styles;
//! * [`prim`] — primitive values produced by base types;
//! * [`render`] — their text forms, appended to a byte buffer (every
//!   printed value, `Display` included, comes from there);
//! * [`io`] — the record-disciplined input [`io::Cursor`];
//! * [`base`] — the user-extensible base type [`base::Registry`]
//!   with the full built-in families (`Pint*`/`Puint*` in ASCII, EBCDIC and
//!   binary codings, strings, dates, IP addresses, Cobol decimals, …);
//! * [`recovery`] — error budgets and graceful-degradation policies
//!   (the `Pmax_errs` / `Perror_rep` discipline);
//! * [`fault`] — deterministic fault injection for adversarial testing;
//! * [`par`] — record-aligned shard planning and the one sharded record
//!   driver every engine plugs into;
//! * [`rules`] — the parsing rule of each type kind (arrays, unions,
//!   typedefs, enums, literals), written once for the VM and generated code;
//! * [`genrt`] — the library generated parsers link against (`PStr`,
//!   `rd_*`/`wr_*` helpers, the generated-code prelude, and
//!   [`genrt::CursorRecords`], the generated engine's record reader);
//! * [`metrics`] — the dense-ID, `Send`-able [`metrics::MetricsCore`]
//!   both engines emit parse events to through the cursor: counter
//!   slabs, plus the opt-in per-node cost profiler and span-tree trace
//!   (exposition lives in the `pads-observe` crate);
//! * [`summary`] — bounded-memory histograms and quantile estimates.
//!
//! # Examples
//!
//! Parsing a single base-type value directly from bytes:
//!
//! ```
//! use pads_runtime::base::Registry;
//! use pads_runtime::io::{Cursor, RecordDiscipline};
//! use pads_runtime::prim::Prim;
//!
//! # fn main() -> Result<(), pads_runtime::error::ErrorCode> {
//! let registry = Registry::standard();
//! let mut cursor = Cursor::new(b"1005022800|...").with_discipline(RecordDiscipline::None);
//! let value = registry.get("Puint32").unwrap().parse(&mut cursor, &[])?;
//! assert_eq!(value, Prim::Uint(1_005_022_800));
//! # Ok(())
//! # }
//! ```

// Parsers must never abort on data: panics are bugs here, so new
// `unwrap`/`expect` sites are rejected outright (test code is exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arena;
pub mod base;
pub mod date;
pub mod encoding;
pub mod error;
pub mod fault;
pub mod genrt;
pub mod io;
pub mod mask;
pub mod metrics;
pub mod name;
pub mod par;
pub mod pd;
pub mod prim;
pub mod recovery;
pub mod render;
pub mod rules;
pub mod scan;
pub mod summary;

pub use arena::{AShape, AVal, AValRef, NameId, NameTable, ValueArena};
pub use base::{BaseType, PrimView, Registry};
pub use encoding::{Charset, Endian};
pub use error::{ErrorCode, Loc, ParseState, Pos};
pub use fault::{FaultPlan, FaultReader, KillPlan};
pub use io::{Cursor, RecordDiscipline, RecordOpen};
pub use mask::{BaseMask, Mask};
pub use metrics::{MetricsCore, MetricsHandle, ObsSchema, RecoveryEvent, TypeStat};
pub use name::Name;
pub use par::{
    plan_shards, Parsed, Progress, RecordReader, ResumePoint, Shard, ShardPlan,
    DEFAULT_MAX_INFLIGHT, MAX_JOBS,
};
pub use pd::{ParseDesc, PdChild, PdKind, SparseElts};
pub use prim::{Prim, PrimKind};
pub use recovery::{ErrorBudget, OnExhausted, RecoveryPolicy};
pub use scan::{count_byte, find_byte, find_literal, skip_class, ClassBitmap};
