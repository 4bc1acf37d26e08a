//! Generated-tool families of PADS (§5 of the paper).
//!
//! Because PADS descriptions are declarative, the system can produce much
//! more than a parser. This crate provides the tool families the paper
//! builds on top of the core library:
//!
//! * [`acc`] — **accumulators**: per-type statistical profiles (good/bad
//!   counts, min/max/avg, top-*k* of the first-*N* distinct values), used
//!   at AT&T to discover undocumented "no data available" encodings and to
//!   watch Cobol feeds drift (§5.2);
//! * [`fmt`] — the **formatting tool**: delimiter-list flattening with mask
//!   suppression and date formats, producing spreadsheet/database loadable
//!   text (§5.3.1, Figure 8);
//! * [`xml`] — **XML conversion**: canonical value-to-XML embedding parse
//!   descriptors for buggy data, plus the generated XML Schema (§5.3.2).
//!
//! [`programs`] packages the three as complete source-to-report programs
//! given just the paper's "minimal extra information": an optional header
//! type plus the record type (§5.2).
//!
//! The query-support tool family (§5.4) lives in its own crate,
//! `pads-query`.

pub mod acc;
pub mod fmt;
pub mod programs;
pub mod xml;

// The summary machinery lives in the runtime (the metrics core's latency
// histograms reuse it); re-exported here so accumulator users keep the
// `pads_tools::summary` path.
pub use pads_runtime::summary;

pub use acc::{AccConfig, Accumulator};
pub use summary::{Histogram, Quantiles};
pub use programs::{
    accumulator_program, format_source, formatting_program, xml_program, SourceShape,
};
pub use fmt::Formatter;
pub use xml::{schema_to_xsd, value_to_xml, write_xml, XmlSourceSink};

#[cfg(test)]
mod tests {
    use super::*;
    use pads::{compile, PadsParser};
    use pads_runtime::{BaseMask, Mask, Registry};

    #[test]
    fn accumulator_counts_good_and_bad_and_distribution() {
        let registry = Registry::standard();
        let schema = compile(
            r#"
            Precord Pstruct r_t { Pstring(:',':) tag; ','; Puint32 len : len < 100; };
            Psource Parray rs_t { r_t[]; };
            "#,
            &registry,
        )
        .unwrap();
        let parser = PadsParser::new(&schema, &registry);
        let mask = Mask::all(BaseMask::CheckAndSet);
        let mut acc = Accumulator::new(&schema, "r_t");
        let data = b"a,30\nb,30\nc,170\nd,43\ne,-\n";
        for (v, pd) in parser.records(data, "r_t", &mask) {
            acc.add(&v, &pd);
        }
        assert_eq!(acc.records, 5);
        assert_eq!(acc.bad_records, 2); // constraint (170) and syntax (-)
        let len = acc.stats_at("len").expect("len stats");
        assert_eq!(len.good + len.bad, 5);
        assert_eq!(len.bad, 2);
        assert_eq!(len.top(1), vec![("30", 2)]);
        let report = acc.report("<top>");
        assert!(report.contains("<top>.len : uint32"), "{report}");
        assert!(report.contains("good: 3 bad: 2 pcnt-bad: 40.000"));
        assert!(report.contains("min: 30 max: 43"));
        assert!(report.contains("SUMMING"));
    }

    #[test]
    fn accumulator_reports_budget_skipped_records() {
        use pads::{OnExhausted, ParseOptions, RecoveryPolicy};
        let registry = Registry::standard();
        let schema = compile(
            r#"
            Precord Pstruct r_t { Pstring(:',':) tag; ','; Puint32 len : len < 100; };
            Psource Parray rs_t { r_t[]; };
            "#,
            &registry,
        )
        .unwrap();
        let policy =
            RecoveryPolicy::unlimited().with_max_errs(1).with_on_exhausted(OnExhausted::SkipRecord);
        let parser = PadsParser::new(&schema, &registry)
            .with_options(ParseOptions { policy, ..Default::default() });
        let mask = Mask::all(BaseMask::CheckAndSet);
        let mut acc = Accumulator::new(&schema, "r_t");
        for (v, pd) in parser.records(b"a,170\nb,170\nc,30\nd,30\n", "r_t", &mask) {
            acc.add(&v, &pd);
        }
        assert_eq!(acc.records, 4);
        assert!(acc.skipped_records > 0, "budget never forced a skip");
        // Skipped records carry default values; they must not leak into the
        // per-field distributions.
        let len = acc.stats_at("len").expect("len stats");
        assert_eq!(len.good + len.bad, acc.records - acc.skipped_records);
        let report = acc.report("<top>");
        assert!(report.contains("recovery:"), "{report}");
    }

    #[test]
    fn accumulator_tracks_union_tags_and_array_lengths() {
        let registry = Registry::standard();
        let schema = compile(
            r#"
            Punion which_t { Puint32 num; Pstring(:'|':) word; };
            Precord Pstruct r_t { which_t w; '|'; Puint8 pad; };
            Psource Parray rs_t { r_t[]; };
            "#,
            &registry,
        )
        .unwrap();
        let parser = PadsParser::new(&schema, &registry);
        let mask = Mask::all(BaseMask::CheckAndSet);
        let mut acc = Accumulator::new(&schema, "r_t");
        for (v, pd) in parser.records(b"12|1\nham|2\neggs|3\n", "r_t", &mask) {
            acc.add(&v, &pd);
        }
        let report = acc.report("<top>");
        let section = report
            .split("\n\n")
            .find(|s| s.starts_with("<top>.w.<tag> : union tag"))
            .unwrap_or_else(|| panic!("no <top>.w.<tag> section in {report}"));
        let vals: Vec<&str> = section.lines().filter(|l| l.starts_with(" val:")).collect();
        assert_eq!(
            vals,
            [
                format!(" val: {:>12} count: {:>8} %-of-good: 66.667", "word", 2),
                format!(" val: {:>12} count: {:>8} %-of-good: 33.333", "num", 1),
            ],
            "{section}"
        );
    }

    #[test]
    fn summaries_ride_along_with_the_accumulator() {
        let registry = Registry::standard();
        let schema = compile(
            "Precord Pstruct r_t { Puint32 n; }; Psource Parray rs_t { r_t[]; };",
            &registry,
        )
        .unwrap();
        let parser = PadsParser::new(&schema, &registry);
        let mask = Mask::all(BaseMask::CheckAndSet);
        let cfg = AccConfig { summaries: Some((16, 256)), ..AccConfig::default() };
        let mut acc = acc::Accumulator::with_config(&schema, "r_t", cfg);
        let data: String = (0..1000).map(|i| format!("{i}\n")).collect();
        for (v, pd) in parser.records(data.as_bytes(), "r_t", &mask) {
            acc.add(&v, &pd);
        }
        let n = acc.stats_at("n").unwrap();
        let h = n.histogram().expect("summaries enabled");
        assert_eq!(h.count(), 1000);
        let q = n.quantiles().expect("summaries enabled");
        let med = q.quantile(0.5).unwrap();
        assert!((med - 500.0).abs() < 150.0, "median ~{med}");
        let report = acc.report("<top>");
        assert!(report.contains("p25:"), "{report}");
        assert!(report.contains('#'), "{report}");
    }

    #[test]
    fn tracking_limit_caps_distinct_values() {
        let registry = Registry::standard();
        let schema = compile(
            "Precord Pstruct r_t { Puint32 n; }; Psource Parray rs_t { r_t[]; };",
            &registry,
        )
        .unwrap();
        let parser = PadsParser::new(&schema, &registry);
        let mask = Mask::all(BaseMask::CheckAndSet);
        let mut acc = Accumulator::with_limits(&schema, "r_t", 5, 3);
        let data: String = (0..20).map(|i| format!("{i}\n")).collect();
        for (v, pd) in parser.records(data.as_bytes(), "r_t", &mask) {
            acc.add(&v, &pd);
        }
        let n = acc.stats_at("n").unwrap();
        assert_eq!(n.distinct(), 5);
        assert_eq!(n.good, 20);
        // 5 of 20 values tracked -> 25%.
        let report = acc.report("<top>");
        assert!(report.contains("tracked 25.000% of values"), "{report}");
    }
}
