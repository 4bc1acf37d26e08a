//! `Cursor::open_record` / `Cursor::close_record` — the record
//! open/skip/close policy the VM and the generated parsers share — against
//! the interpreter's own inline copy (`parse_def_inner`), which stays
//! separate precisely so it can be the oracle here.
//!
//! The interpreter parses a `Precord` body without framing when the cursor
//! is already inside a record, so the runtime policy can be wrapped around
//! the very same body parser: every value, descriptor, per-record budget
//! tally and cursor offset must then equal what `PadsParser::records`
//! produces on its own, on the torture corpora, under every degradation
//! mode.

use pads::{descriptions, PadsParser, ParseOptions, Schema};
use pads_runtime::{
    BaseMask, ErrorBudget, Mask, OnExhausted, ParseDesc, RecordOpen, RecoveryPolicy, Registry,
};

const CLF: &[u8] = include_bytes!("../../../tests/data/torture_clf.log");
const SIRIUS: &[u8] = include_bytes!("../../../tests/data/torture_sirius.txt");
const MIXED: &[u8] = include_bytes!("../../../tests/data/torture_mixed.txt");

fn policies() -> Vec<RecoveryPolicy> {
    vec![
        RecoveryPolicy::unlimited(),
        RecoveryPolicy::unlimited().with_max_errs(2).with_on_exhausted(OnExhausted::Stop),
        RecoveryPolicy::unlimited().with_max_errs(2).with_on_exhausted(OnExhausted::SkipRecord),
        RecoveryPolicy::unlimited().with_max_errs(3).with_on_exhausted(OnExhausted::BestEffort),
        RecoveryPolicy::unlimited().with_max_record_errs(0),
        RecoveryPolicy::unlimited().with_max_panic_skip(0).with_on_exhausted(OnExhausted::SkipRecord),
    ]
}

fn assert_policy_matches_interpreter(label: &str, schema: &Schema, data: &[u8], record: &str) {
    let registry = Registry::standard();
    let mask = Mask::all(BaseMask::CheckAndSet);
    let id = schema.type_id(record).expect("record type exists");
    let mut exercised = ErrorBudget::new();
    for policy in policies() {
        let parser = PadsParser::new(schema, &registry)
            .with_options(ParseOptions { policy, ..Default::default() });

        // Oracle: the interpreter's own framing, with the running budget
        // and offset after every record.
        let mut oracle = Vec::new();
        let mut it = parser.records(data, record, &mask);
        while let Some((value, pd)) = it.next() {
            oracle.push((value, pd, it.budget(), it.offset()));
        }

        let mut cur = parser.open(data);
        let mut seen = 0usize;
        while !cur.at_eof() {
            let before = cur.offset();
            let (value, pd): (_, ParseDesc) = match cur.open_record() {
                RecordOpen::Nested => panic!("{label}: no record is open between records"),
                RecordOpen::Done(pd) => (parser.default_def(id), pd),
                RecordOpen::Opened(framing) => {
                    let (value, mut pd) = parser.parse_named(&mut cur, record, &[], &mask);
                    if let Some((code, loc)) = framing {
                        pd.add_error(code, loc);
                    }
                    cur.close_record(&mut pd);
                    (value, pd)
                }
            };
            let at = format!("{label} policy={policy:?} record {seen}");
            let (want_value, want_pd, want_budget, want_offset) =
                oracle.get(seen).unwrap_or_else(|| panic!("{at}: oracle has no such record"));
            assert_eq!(&value, want_value, "{at}: value");
            assert_eq!(&pd, want_pd, "{at}: descriptor");
            assert_eq!(cur.budget(), *want_budget, "{at}: budget");
            assert_eq!(cur.offset(), *want_offset, "{at}: offset");
            seen += 1;
            if cur.offset() == before {
                break;
            }
        }
        assert_eq!(seen, oracle.len(), "{label} policy={policy:?}: record count");
        exercised.absorb(&cur.budget());
    }
    // The matrix must actually reach every branch of the policy: panic-mode
    // skips, wholesale budget skips, and a Stop.
    assert!(exercised.panic_skipped > 0, "{label}: no panic-mode skip");
    assert!(exercised.skipped_records > 0, "{label}: no budget-skipped record");
    assert!(exercised.stopped(), "{label}: Stop never tripped");
}

#[test]
fn record_policy_matches_interpreter_on_torture_clf() {
    assert_policy_matches_interpreter("clf", &descriptions::clf(), CLF, "entry_t");
}

#[test]
fn record_policy_matches_interpreter_on_torture_sirius() {
    assert_policy_matches_interpreter("sirius", &descriptions::sirius(), SIRIUS, "entry_t");
}

#[test]
fn record_policy_matches_interpreter_on_torture_mixed() {
    assert_policy_matches_interpreter("mixed", &descriptions::mixed(), MIXED, "rec_t");
}
