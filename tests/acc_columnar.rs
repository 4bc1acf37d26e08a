//! `Accumulator::add_batch` is the benchmark's gen-tier entry point: over
//! any [`RecordBatch`] it must leave the accumulator exactly where `add`
//! over the batch's `rows()` does.

use pads::{descriptions, BaseMask, Mask, PadsParser, RecordBatch, Registry, Schema};
use pads_tools::Accumulator;

fn sirius_batch(schema: &Schema, records: usize, syntax_errors: usize) -> RecordBatch {
    let registry = Registry::standard();
    let parser = PadsParser::new(schema, &registry);
    let (data, _) = pads_gen::sirius::generate(&pads_gen::SiriusConfig {
        records,
        syntax_errors,
        sort_violations: 0,
        ..Default::default()
    });
    let body_start = data.iter().position(|&b| b == b'\n').unwrap() + 1;
    let mask = Mask::all(BaseMask::CheckAndSet);
    parser.records_batched(&data[body_start..], "entry_t", &mask).0
}

/// A clean batch, a dirty batch, and both in sequence — with a `tracked`
/// limit small enough that which values are admitted depends on arrival
/// order — give the report and counters of `add` over `rows()`.
#[test]
fn repeated_batches_accumulate_identically() {
    let schema = descriptions::sirius();
    let clean = sirius_batch(&schema, 120, 0);
    let dirty = sirius_batch(&schema, 300, 20);
    assert_eq!(clean.error_rows(), 0);
    assert!(dirty.error_rows() > 0);
    let counters =
        |a: &Accumulator<'_>| (a.records, a.bad_records, a.skipped_records, a.panicked_records);
    let runs: [&[&RecordBatch]; 3] = [&[&clean], &[&dirty], &[&clean, &dirty]];
    for batches in runs {
        let mut via_batch = Accumulator::with_limits(&schema, "entry_t", 3, 3);
        let mut via_rows = Accumulator::with_limits(&schema, "entry_t", 3, 3);
        for batch in batches {
            via_batch.add_batch(batch);
            for (v, pd) in batch.rows() {
                via_rows.add(&v, &pd);
            }
        }
        assert_eq!(counters(&via_batch), counters(&via_rows));
        assert_eq!(via_batch.report("<top>"), via_rows.report("<top>"));
    }
}
