//! Whole-program generation for header+records sources.
//!
//! §5.2 of the paper: "ad hoc sources are often simply a sequence of
//! records, perhaps prefixed by a header, so we can create a complete
//! accumulator program from minimal extra information … given only the
//! names of the optional header type and the record type". The same
//! pattern powers the generated formatting (§5.3.1) and XML-conversion
//! (§5.3.2) programs: each is a [`RecordSink`](pads::RecordSink) —
//! [`Accumulator`], [`FormatSink`](crate::fmt::FormatSink),
//! [`XmlSourceSink`](crate::xml::XmlSourceSink) — that the source driver
//! runs over a [`SourceShape`]. [`accumulator_program`] is the first as
//! one library call.

use pads::{BaseMask, Mask, PadsParser, ParseOptions, Registry, Schema, SourceJob};

use crate::acc::Accumulator;

pub use pads::SourceShape;

/// The generated accumulator program: parse the whole source record by
/// record, fold every record into a profile, and return the report (§5.2).
///
/// # Panics
///
/// Panics if the shape names types not declared in `schema`.
pub fn accumulator_program<'s>(
    schema: &'s Schema,
    registry: &Registry,
    options: ParseOptions,
    shape: &SourceShape<'_>,
    data: &[u8],
    tracked: usize,
    top_k: usize,
) -> (Accumulator<'s>, String) {
    let parser = PadsParser::new(schema, registry).with_options(options);
    let mask = Mask::all(BaseMask::CheckAndSet);
    let mut acc = Accumulator::with_limits(schema, shape.record, tracked, top_k);
    parser.stream_source(data, &SourceJob::new(*shape, &mask), &mut acc);
    let report = acc.report("<top>");
    (acc, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pads::descriptions;

    #[test]
    fn accumulator_program_over_sirius_with_header() {
        let registry = Registry::standard();
        let schema = descriptions::sirius();
        let (data, stats) = pads_gen::sirius::generate(&pads_gen::SiriusConfig {
            records: 300,
            syntax_errors: 4,
            sort_violations: 1,
            ..Default::default()
        });
        let shape = SourceShape::with_header("summary_header_t", "entry_t");
        let (acc, report) = accumulator_program(
            &schema,
            &registry,
            ParseOptions::default(),
            &shape,
            &data,
            1000,
            10,
        );
        assert_eq!(acc.records, 300);
        let injected: std::collections::BTreeSet<usize> = stats
            .syntax_error_records
            .iter()
            .chain(&stats.sort_violation_records)
            .copied()
            .collect();
        assert_eq!(acc.bad_records, injected.len() as u64);
        assert!(report.contains("<top>.header.order_num"), "{report}");
    }
}
