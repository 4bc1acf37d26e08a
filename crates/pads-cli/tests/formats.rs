//! `--format {report,xml,none}`, `--journal` and `pads accum` over an
//! order array, as cells of the contract matrix's `cli` column: whether
//! the records reach the sink from the sequential engine or through the
//! record-sharded merge — error records that went through panic-mode
//! recovery included — the binary prints what the interpreter's truth
//! renders, under every policy, and `--format none` prints nothing but
//! keeps the error line and the exit status.

#[path = "../../../tests/common/contract.rs"]
mod contract;

use std::process::Command;

use contract::{cli, every_cli_policy, Case, Description, Tool, ORDERS};
use pads::Registry;

const PADS: &str = env!("CARGO_BIN_EXE_pads");

// A constraint violation (record 1), a syntax error the panic-mode
// recovery policy resynchronises past (record 3), and clean records.
const DATA: &[u8] = b"1|OPEN|5\n2|SHIP|1\n3|DONE|9\nnot-a-record\n5|SHIP|20\n6|DONE|8\n";

/// `tools` over the orders sequentially and on three and four workers
/// taking a record at a time, so that `--jobs N` really shards them.
fn cell(tools: &[Tool]) {
    let registry = Registry::standard();
    let schema = pads::compile(ORDERS, &registry).expect("orders_t compiles");
    let description = Description::new(&schema, &registry).with_text(ORDERS);
    let rows = cli(tools, &[None, Some((1, 2)), Some((3, 2)), Some((4, 2))]);
    every_cli_policy(&Case::new("orders", &description, DATA), PADS, &rows, |_| ());
}

#[test]
fn report_is_byte_identical_between_sequential_and_sharded_engines() {
    cell(&[Tool::Parse("report")]);
}

#[test]
fn xml_is_byte_identical_between_sequential_and_sharded_engines() {
    cell(&[Tool::Parse("xml")]);
}

#[test]
fn format_none_discards_output_but_keeps_the_exit_status() {
    cell(&[Tool::Parse("none")]);
}

/// Journaled at the default checkpoint cadence, and never killed.
#[test]
fn journaled_report_matches_the_plain_sequential_report() {
    cell(&[Tool::Journal(None)]);
}

#[test]
fn accumulator_report_is_identical_through_the_batched_parallel_engine() {
    cell(&[Tool::Accum(false), Tool::Accum(true), Tool::Fmt]);
}

#[test]
fn format_rejects_unknown_values() {
    let out = Command::new(PADS).args(["parse", "d.pads", "data", "--format", "csv"]).output();
    let out = out.expect("run pads");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr.contains("expected report, xml, or none"), "{stderr}");
}
