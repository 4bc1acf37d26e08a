//! Figure 1's last row: netflow — "data-dependent number of fixed-width
//! binary records" arriving at gigabit rates, with missed packets as the
//! common error. A NetFlow-v5-shaped description: a binary header carrying
//! the flow count, then exactly that many fixed-width flow records. Each
//! test is a matrix cell (`common/contract.rs`) plus what only it asserts.

#[path = "common/contract.rs"]
mod contract;

use contract::figure1;
use pads::{BaseMask, Engine, ErrorCode, Mask, RecoveryPolicy, Value, Writer};

#[test]
fn data_dependent_flow_counts_parse() {
    let export = figure1::netflow();
    let truth = &export.cells()[0];
    assert!(truth.clean(2));
    let flows = [0, 1].map(|i| truth.at(i, "flows").and_then(Value::len));
    assert_eq!((truth.int(0, "count"), flows), (Some(1), [Some(1), Some(2)]));
    assert_eq!(truth.int(1, "flows.[1].octets"), Some(9000));
    // Write-back reproduces the binary stream.
    let writer = Writer::new(&export.schema, &export.registry).with_options(export.options);
    let mut out = Vec::new();
    truth.run.items.iter().for_each(|(p, _)| writer.write_named(&mut out, "packet_t", p).unwrap());
    assert_eq!(out, export.corpora[0].1);
}

#[test]
fn truncated_packet_is_the_missed_packets_error() {
    // Figure 1 lists "missed packets" as netflow's common error: a packet
    // whose header promises more flows than arrive.
    let truth = &figure1::netflow().cells()[1];
    // The first flow parsed cleanly; the second is a flagged placeholder
    // (PADS keeps the declared shape and marks the error in the pd).
    assert_eq!(truth.at(3, "flows").and_then(Value::len), Some(2));
    assert_eq!(truth.int(3, "flows.[0].packets"), Some(1));
    let codes: Vec<_> = truth.run.items[3].1.errors().into_iter().map(|(_, c, _)| c).collect();
    assert!(codes.contains(&ErrorCode::UnexpectedEof), "{codes:?}");
}

#[test]
fn semantic_checks_reach_into_binary_flows() {
    // octets < packets violates the per-flow constraint.
    let export = figure1::netflow();
    let errors = export.cells()[1].run.items[2].1.errors();
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].0.contains("octets") && errors[0].1.is_semantic(), "{errors:?}");
    // ... and masks can turn them off for line-rate processing (§1's
    // gigabit-per-second motivation).
    let parser = export.description().parser(RecoveryPolicy::unlimited(), Engine::Interp);
    let set = Mask::all(BaseMask::Set);
    let records = parser.records(&export.corpora[1].1, "packet_t", &set);
    let ok: Vec<bool> = records.map(|(_, pd)| pd.is_ok()).collect();
    assert_eq!(ok, [true, true, true, false]);
}
