//! The Altair pipeline end to end (§5.2): Cobol copybook → PADS
//! description → parse EBCDIC records → accumulator profile. Each test is
//! a matrix cell (`common/contract.rs`) plus the values only it asserts.

#[path = "common/contract.rs"]
mod contract;

use contract::figure1;
use pads::Value;
use pads_tools::Accumulator;

#[test]
fn copybook_feed_parses_and_profiles() {
    let feed = figure1::altair_fixed();
    let truth = &feed.cells()[0];
    assert!(truth.clean(3));
    assert_eq!(truth.int(0, "acct_id"), Some(101));
    assert_eq!(truth.at(0, "region").and_then(Value::as_str), Some("NE1"));
    assert_eq!([truth.int(1, "amount"), truth.int(2, "cycle_day")], [Some(-250), Some(14)]);
    // Accumulator profile over the feed — what Altair automates for ~4000
    // files per day.
    let mut acc = Accumulator::new(&feed.schema, "bill_rec_t");
    truth.run.items.iter().for_each(|(rec, pd)| acc.add(rec, pd));
    assert_eq!((acc.records, acc.bad_records), (3, 0));
    assert_eq!(acc.stats_at("region").unwrap().top(1), vec![("NE1", 2)]);
    let amount = acc.stats_at("amount").unwrap();
    assert_eq!((amount.num.min, amount.num.max), (-250.0, 5000.0));
}

#[test]
fn corrupted_cobol_record_is_flagged_not_fatal() {
    let truth = &figure1::altair_fixed().cells()[1];
    // Panic recovery keeps every record; only the second is bad.
    let bad: Vec<bool> = truth.run.items.iter().map(|(_, pd)| !pd.is_ok()).collect();
    assert_eq!(bad, [false, true, false]);
    assert_eq!(truth.int(2, "acct_id"), Some(103));
}

#[test]
fn length_prefixed_cobol_discipline_works_too() {
    // Cobol wire formats often carry a 2-byte length header (§3, end).
    let truth = &figure1::altair_lenpfx().cells()[0];
    assert!(truth.clean(2));
    assert_eq!(truth.int(1, "amount"), Some(-9));
}
