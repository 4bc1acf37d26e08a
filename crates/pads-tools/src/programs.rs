//! Whole-program generation for header+records sources.
//!
//! §5.2 of the paper: "ad hoc sources are often simply a sequence of
//! records, perhaps prefixed by a header, so we can create a complete
//! accumulator program from minimal extra information … given only the
//! names of the optional header type and the record type". The same
//! pattern powers the generated formatting (§5.3.1) and XML-conversion
//! (§5.3.2) programs. These functions are those programs as library calls.

use std::io;

use pads::{
    BaseMask, Mask, PadsParser, ParseDesc, ParseOptions, Progress, RecordSink, Registry, Schema,
    SourceJob, Value,
};

use crate::acc::Accumulator;
use crate::fmt::Formatter;
use crate::xml::write_xml;

pub use pads::SourceShape;

/// A sink that only wants the records: `f(value, descriptor)` for each.
struct Records<F>(F);

impl<F: FnMut(&Value, &ParseDesc)> RecordSink for Records<F> {
    fn record(&mut self, _index: usize, value: &Value, pd: &ParseDesc, _progress: &Progress) {
        (self.0)(value, pd);
    }
}

/// Runs the source driver over `reader`: the header is parsed with the
/// source cursor and the records continue it, so every location a
/// descriptor carries is in whole-source coordinates.
fn each_record(
    schema: &Schema,
    registry: &Registry,
    options: ParseOptions,
    shape: &SourceShape<'_>,
    reader: impl io::Read,
    f: impl FnMut(&Value, &ParseDesc),
) -> io::Result<()> {
    let parser = PadsParser::new(schema, registry).with_options(options);
    let mask = Mask::all(BaseMask::CheckAndSet);
    parser.stream_reader(reader, &SourceJob::new(*shape, &mask), &mut Records(f)).map(drop)
}

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

/// The generated formatting program: one delimited line per record, with
/// an optional date output format and mask-based column suppression
/// (§5.3.1), read from `reader` a window at a time and written to `out`
/// record by record.
///
/// # Errors
///
/// The outer error is the first failed read of `reader`; the inner one the
/// first failed write to `out`, after which nothing more is written.
///
/// # Panics
///
/// Panics if the shape names types not declared in `schema`.
pub fn format_source<R: io::Read, W: io::Write>(
    schema: &Schema,
    registry: &Registry,
    options: ParseOptions,
    shape: &SourceShape<'_>,
    reader: R,
    formatter: &Formatter,
    mut out: W,
) -> io::Result<io::Result<()>> {
    let mut failed = None;
    each_record(schema, registry, options, shape, reader, |v, _| {
        if failed.is_none() {
            failed = writeln!(out, "{}", formatter.format(v)).err();
        }
    })?;
    Ok(match failed {
        Some(e) => Err(e),
        None => out.flush(),
    })
}

/// [`format_source`] into a `String`.
///
/// # Panics
///
/// Panics if the shape names types not declared in `schema`.
pub fn formatting_program(
    schema: &Schema,
    registry: &Registry,
    options: ParseOptions,
    shape: &SourceShape<'_>,
    data: &[u8],
    formatter: &Formatter,
) -> String {
    let mut out = Vec::new();
    // Reading a slice and writing into a `Vec` cannot fail.
    let _ = format_source(schema, registry, options, shape, data, formatter, &mut out);
    String::from_utf8_lossy(&out).into_owned()
}

/// The generated XML-conversion program: the whole source as one XML
/// document, parse descriptors embedded wherever the data was buggy
/// (§5.3.2).
///
/// # Panics
///
/// Panics if the shape names types not declared in `schema`.
pub fn xml_program(
    schema: &Schema,
    registry: &Registry,
    options: ParseOptions,
    shape: &SourceShape<'_>,
    data: &[u8],
    root_tag: &str,
) -> String {
    let mut out = format!("<{root_tag}>\n");
    // Reading a slice cannot fail, nor can writing into a `String`.
    let _ = each_record(schema, registry, options, shape, data, |v, pd| {
        let _ = write_xml(&mut out, v, Some(pd), shape.record, 2);
    });
    out.push_str(&format!("</{root_tag}>\n"));
    out
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
        assert_eq!(acc.bad_records, 5);
        assert!(report.contains("<top>.header.order_num"), "{report}");
        let _ = stats;
    }

    #[test]
    fn formatting_program_produces_one_line_per_record() {
        let registry = Registry::standard();
        let schema = descriptions::clf();
        let (data, _) = pads_gen::clf::generate(&pads_gen::ClfConfig {
            records: 25,
            dash_length_rate: 0.0,
            ..Default::default()
        });
        let fmt = Formatter::new(&["|"]).with_date_format("%D:%T");
        let out = formatting_program(
            &schema,
            &registry,
            ParseOptions::default(),
            &SourceShape::records("entry_t"),
            &data,
            &fmt,
        );
        assert_eq!(out.lines().count(), 25);
        assert!(out.lines().all(|l| l.matches('|').count() >= 9), "{out}");
    }

    #[test]
    fn xml_program_wraps_records_in_a_root() {
        let registry = Registry::standard();
        let schema = descriptions::sirius();
        let (data, _) = pads_gen::sirius::generate(&pads_gen::SiriusConfig {
            records: 5,
            syntax_errors: 0,
            sort_violations: 0,
            ..Default::default()
        });
        let out = xml_program(
            &schema,
            &registry,
            ParseOptions::default(),
            &SourceShape::with_header("summary_header_t", "entry_t"),
            &data,
            "sirius",
        );
        assert!(out.starts_with("<sirius>\n"));
        assert!(out.ends_with("</sirius>\n"));
        assert_eq!(out.matches("<entry_t>").count(), 5);
    }
}
