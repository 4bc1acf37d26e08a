//! Parsers generated by `pads-codegen` for the bundled descriptions and
//! for `tests/descriptions/operators.pads`, the expression language at
//! its edges, a case of the contract matrix.
//!
//! These modules are the Rust analogue of the `.h`/`.c` pairs the original
//! PADS compiler emitted (§4 of the paper): native representation types
//! with `read`/`write`/`verify` functions, no interpretation overhead.
//! Like that generated C, each module links a fixed runtime library —
//! `pads_runtime::genrt`, re-exported at its top — instead of carrying its
//! own readers and writers. They are committed so the crate proves they
//! compile; a golden test in
//! `pads-codegen` keeps them in sync with the generator (regenerate with
//! `cargo run -p pads-codegen --bin regen`).

pub mod clf;
pub mod mixed;
pub mod operators;
pub mod sirius;
