//! Metrics exposition: Prometheus text-format and JSON renderings of a
//! dense-id [`MetricsCore`].
//!
//! Aggregation lives in [`pads_runtime::metrics`]: the core is a plain
//! `Send` struct bumping flat `Vec`-indexed counter slabs by node id, so
//! the hot path never touches a string — names are rejoined here, at
//! exposition time, by free functions over `&MetricsCore`.
//!
//! All counters are exact and deterministic for a given input — the JSON
//! `counts` section is diffable across runs and machines and is what the
//! CI golden snapshots pin. Timings (wall-clock latencies, throughput)
//! are inherently non-deterministic and are kept in a separate `timings`
//! section / separate Prometheus metric families.

use std::fmt::Write as _;

use pads_runtime::metrics::MetricsCore;

use crate::util::esc;

/// The deterministic counters as a pretty-printed JSON object. This
/// is the golden-snapshot format: no timings, stable key order.
pub fn counts_json(core: &MetricsCore) -> String {
    let mut o = String::new();
    o.push_str("{\n");
    let _ = writeln!(o, "  \"records\": {},", core.records());
    let _ = writeln!(o, "  \"records_with_errors\": {},", core.records_with_errors());
    let _ = writeln!(o, "  \"records_skipped\": {},", core.records_skipped());
    let _ = writeln!(o, "  \"record_bytes\": {},", core.record_bytes());
    let _ = writeln!(o, "  \"errors_total\": {},", core.errors_total());
    o.push_str("  \"errors_by_code\": {");
    let codes = core.sorted_error_codes();
    for (i, (code, n)) in codes.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(o, "{sep}    \"{code}\": {n}");
    }
    o.push_str(if codes.is_empty() { "},\n" } else { "\n  },\n" });
    o.push_str("  \"recovery\": {\n");
    let _ = writeln!(o, "    \"panic_skip_events\": {},", core.panic_skip_events());
    let _ = writeln!(o, "    \"panic_skipped_bytes\": {},", core.panic_skipped_bytes());
    o.push_str("    \"budget_exhausted\": {");
    let modes = core.sorted_budget_modes();
    for (i, (mode, n)) in modes.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(o, "{sep}      \"{mode}\": {n}");
    }
    o.push_str(if modes.is_empty() { "}\n" } else { "\n    }\n" });
    o.push_str("  },\n");
    o.push_str("  \"types\": {");
    let types = core.sorted_types();
    for (i, (name, t)) in types.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            o,
            "{sep}    \"{}\": {{\"hits\": {}, \"bytes\": {}, \"errors\": {}}}",
            esc(name),
            t.hits,
            t.bytes,
            t.errors
        );
    }
    o.push_str(if types.is_empty() { "}\n" } else { "\n  }\n" });
    o.push('}');
    o
}

/// Full JSON exposition: `{"counts": …, "timings": …}`. Strip or
/// ignore `timings` when diffing.
pub fn json(core: &MetricsCore) -> String {
    let counts = indent(&counts_json(core), "  ");
    let timings = indent(&timings_json(core), "  ");
    format!("{{\n  \"counts\": {counts},\n  \"timings\": {timings}\n}}")
}

fn timings_json(core: &MetricsCore) -> String {
    let elapsed = core.elapsed_seconds();
    let mut o = String::new();
    o.push_str("{\n");
    let _ = writeln!(o, "  \"elapsed_seconds\": {:.6},", elapsed);
    let _ =
        writeln!(o, "  \"records_per_second\": {:.1},", rate(core.records(), elapsed));
    let _ = writeln!(
        o,
        "  \"bytes_per_second\": {:.1},",
        rate(core.record_bytes(), elapsed)
    );
    o.push_str("  \"record_latency_us\": {");
    let qs: Vec<(f64, &str)> =
        vec![(0.5, "p50"), (0.9, "p90"), (0.99, "p99"), (1.0, "max")];
    let mut first = true;
    for (q, name) in qs {
        if let Some(v) = core.latency_quantile(q) {
            let sep = if first { "" } else { ", " };
            let _ = write!(o, "{sep}\"{name}\": {v:.1}");
            first = false;
        }
    }
    o.push_str("}\n");
    o.push('}');
    o
}

/// Prometheus text exposition format: every family led by its
/// `# HELP` / `# TYPE` headers, label values escaped (counters plus
/// latency quantiles as a summary metric).
pub fn prometheus(core: &MetricsCore) -> String {
    let mut o = String::new();
    let c = |o: &mut String, name: &str, help: &str, v: u64| {
        let _ = writeln!(o, "# HELP {name} {help}");
        let _ = writeln!(o, "# TYPE {name} counter");
        let _ = writeln!(o, "{name} {v}");
    };
    c(&mut o, "pads_records_total", "Records closed (skipped included).", core.records());
    c(
        &mut o,
        "pads_records_with_errors_total",
        "Records closed with at least one error.",
        core.records_with_errors(),
    );
    c(
        &mut o,
        "pads_records_skipped_total",
        "Records skipped wholesale under OnExhausted::SkipRecord.",
        core.records_skipped(),
    );
    c(
        &mut o,
        "pads_record_bytes_total",
        "Bytes covered by closed records.",
        core.record_bytes(),
    );
    c(&mut o, "pads_errors_total", "Descriptor errors observed.", core.errors_total());

    let _ = writeln!(o, "# HELP pads_errors_by_code_total Errors by ErrorCode variant.");
    let _ = writeln!(o, "# TYPE pads_errors_by_code_total counter");
    for (code, n) in core.sorted_error_codes() {
        let _ = writeln!(o, "pads_errors_by_code_total{{code=\"{code}\"}} {n}");
    }

    c(
        &mut o,
        "pads_panic_skip_events_total",
        "Panic-mode resynchronisation events.",
        core.panic_skip_events(),
    );
    c(
        &mut o,
        "pads_panic_skipped_bytes_total",
        "Bytes discarded by panic-mode resynchronisation.",
        core.panic_skipped_bytes(),
    );
    let _ = writeln!(o, "# HELP pads_budget_exhausted_total Budget exhaustion transitions.");
    let _ = writeln!(o, "# TYPE pads_budget_exhausted_total counter");
    for (mode, n) in core.sorted_budget_modes() {
        let _ = writeln!(o, "pads_budget_exhausted_total{{mode=\"{mode}\"}} {n}");
    }

    let types = core.sorted_types();
    let _ = writeln!(o, "# HELP pads_type_hits_total Parses per named type.");
    let _ = writeln!(o, "# TYPE pads_type_hits_total counter");
    for (name, t) in &types {
        let _ = writeln!(o, "pads_type_hits_total{{type=\"{}\"}} {}", esc(name), t.hits);
    }
    let _ = writeln!(o, "# HELP pads_type_bytes_total Bytes spanned per named type.");
    let _ = writeln!(o, "# TYPE pads_type_bytes_total counter");
    for (name, t) in &types {
        let _ = writeln!(o, "pads_type_bytes_total{{type=\"{}\"}} {}", esc(name), t.bytes);
    }
    let _ = writeln!(o, "# HELP pads_type_errors_total Errors per named type.");
    let _ = writeln!(o, "# TYPE pads_type_errors_total counter");
    for (name, t) in &types {
        let _ = writeln!(o, "pads_type_errors_total{{type=\"{}\"}} {}", esc(name), t.errors);
    }

    let _ = writeln!(o, "# HELP pads_record_latency_seconds Per-record parse latency.");
    let _ = writeln!(o, "# TYPE pads_record_latency_seconds summary");
    for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
        if let Some(us) = core.latency_quantile(q) {
            let _ = writeln!(
                o,
                "pads_record_latency_seconds{{quantile=\"{label}\"}} {:.9}",
                us / 1e6
            );
        }
    }
    let _ = writeln!(o, "pads_record_latency_seconds_count {}", core.latency_count());
    o
}

/// A one-line human summary for stderr, alongside the CLI's per-code
/// error listing.
pub fn summary_line(core: &MetricsCore) -> String {
    let elapsed = core.elapsed_seconds();
    let mb = core.record_bytes() as f64 / (1024.0 * 1024.0);
    let mbps = if elapsed > 0.0 { mb / elapsed } else { 0.0 };
    format!(
        "metrics: {} records ({} bad, {} skipped), {} errors, {} bytes in {:.1} ms ({:.1} MiB/s)",
        core.records(),
        core.records_with_errors(),
        core.records_skipped(),
        core.errors_total(),
        core.record_bytes(),
        elapsed * 1e3,
        mbps
    )
}

fn rate(n: u64, elapsed: f64) -> f64 {
    if elapsed > 0.0 {
        n as f64 / elapsed
    } else {
        0.0
    }
}

/// Re-indents every line after the first by `pad` (for nesting one
/// pretty-printed object inside another).
fn indent(s: &str, pad: &str) -> String {
    let mut out = String::new();
    for (i, line) in s.lines().enumerate() {
        if i > 0 {
            out.push('\n');
            out.push_str(pad);
        }
        out.push_str(line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pads_runtime::metrics::RecoveryEvent;
    use pads_runtime::{ErrorCode, OnExhausted};

    #[test]
    fn counts_json_is_deterministic_and_ordered() {
        let mut m = MetricsCore::with_names(&["b_t", "a_t"]);
        m.exit_id(0, 0, 4, 0);
        m.exit_id(1, 0, 2, 0);
        m.note_error(ErrorCode::LitMismatch);
        m.note_record(0, 0, 0, 1);
        let a = counts_json(&m);
        let b = counts_json(&m);
        assert_eq!(a, b);
        // Name-sorted exposition: a_t before b_t.
        let ia = a.find("a_t").unwrap();
        let ib = a.find("b_t").unwrap();
        assert!(ia < ib, "{a}");
        assert!(a.contains("\"errors_total\": 1"));
        assert!(a.contains("\"records\": 1"));
    }

    #[test]
    fn recovery_events_tally() {
        let mut m = MetricsCore::new();
        m.note_recovery(RecoveryEvent::PanicSkip { bytes: 7 }, 0);
        m.note_recovery(RecoveryEvent::SkipRecord, 0);
        m
            .note_recovery(RecoveryEvent::BudgetExhausted { mode: OnExhausted::BestEffort }, 0);
        assert_eq!(m.panic_skipped_bytes(), 7);
        assert_eq!(m.records_skipped(), 1);
        assert!(counts_json(&m).contains("\"BestEffort\": 1"));
    }

    #[test]
    fn merge_folds_counters_exactly() {
        let mut a = MetricsCore::with_names(&["t"]);
        a.exit_id(0, 0, 4, 0);
        a.note_error(ErrorCode::LitMismatch);
        a.note_record(0, 0, 0, 1);
        let mut b = MetricsCore::with_names(&["t"]);
        b.exit_id(0, 0, 2, 0);
        b.note_error(ErrorCode::RangeError);
        b.note_recovery(RecoveryEvent::SkipRecord, 0);
        b.note_record(1, 0, 0, 0);

        // One core fed both streams sequentially == two cores merged.
        let mut seq = MetricsCore::with_names(&["t"]);
        seq.exit_id(0, 0, 4, 0);
        seq.note_error(ErrorCode::LitMismatch);
        seq.note_record(0, 0, 0, 1);
        seq.exit_id(0, 0, 2, 0);
        seq.note_error(ErrorCode::RangeError);
        seq.note_recovery(RecoveryEvent::SkipRecord, 0);
        seq.note_record(1, 0, 0, 0);

        a.merge(&b);
        assert_eq!(counts_json(&a), counts_json(&seq));
    }

    #[test]
    fn exposition_does_not_depend_on_table_order_or_unused_slots() {
        // The same events on two cores whose tables order the types
        // differently (one with a type nothing touches) must render to the
        // same bytes: names, not ids, key the exposition — the property
        // that lets any engine's table stand behind one golden snapshot.
        let mut a = MetricsCore::with_names(&["client_t", "entry_t"]);
        a.exit_id(1, 0, 10, 0);
        a.exit_id(0, 0, 4, 0);
        let mut b = MetricsCore::with_names(&["entry_t", "client_t", "unused_t"]);
        b.exit_id(0, 0, 10, 0);
        b.exit_id(1, 0, 4, 0);
        for m in [&mut a, &mut b] {
            m.note_error(ErrorCode::LitMismatch);
            m.note_record(0, 0, 0, 1);
        }
        assert_eq!(counts_json(&a), counts_json(&b));
        // Timing families aside, the Prometheus counter lines agree too.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("latency"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&prometheus(&a)), strip(&prometheus(&b)));
    }

    #[test]
    fn prometheus_has_core_families() {
        let mut m = MetricsCore::new();
        m.note_record(0, 0, 0, 0);
        let text = prometheus(&m);
        assert!(text.contains("pads_records_total 1"));
        assert!(text.contains("# TYPE pads_records_total counter"));
        assert!(text.contains("pads_record_latency_seconds_count 1"));
    }

    #[test]
    fn prometheus_headers_precede_every_family() {
        let mut m = MetricsCore::with_names(&["t"]);
        m.exit_id(0, 0, 1, 0);
        m.note_record(0, 0, 0, 0);
        let text = prometheus(&m);
        for family in [
            "pads_records_total",
            "pads_records_with_errors_total",
            "pads_records_skipped_total",
            "pads_record_bytes_total",
            "pads_errors_total",
            "pads_errors_by_code_total",
            "pads_panic_skip_events_total",
            "pads_panic_skipped_bytes_total",
            "pads_budget_exhausted_total",
            "pads_type_hits_total",
            "pads_type_bytes_total",
            "pads_type_errors_total",
            "pads_record_latency_seconds",
        ] {
            let help = format!("# HELP {family} ");
            let ty = format!("# TYPE {family} ");
            let h = text.find(&help).unwrap_or_else(|| panic!("no HELP for {family}"));
            let t = text.find(&ty).unwrap_or_else(|| panic!("no TYPE for {family}"));
            assert!(h < t, "HELP after TYPE for {family}");
            // The first sample of the family comes after its headers.
            let sample = text.find(&format!("\n{family}")).unwrap_or(usize::MAX);
            assert!(t < sample, "sample before headers for {family}");
        }
    }

    /// Golden snapshot for label-value escaping: a hostile type name must
    /// come out byte-exactly escaped in both expositions.
    #[test]
    fn escaping_of_type_names_is_pinned() {
        let mut m = MetricsCore::with_names(&["weird\"name\\with\nnasties"]);
        m.exit_id(0, 0, 3, 0);
        let prom = prometheus(&m);
        assert!(
            prom.contains(r#"pads_type_hits_total{type="weird\"name\\with\nnasties"} 1"#),
            "{prom}"
        );
        let json = counts_json(&m);
        assert!(
            json.contains(r#""weird\"name\\with\nnasties": {"hits": 1, "bytes": 3, "errors": 0}"#),
            "{json}"
        );
    }

    #[test]
    fn snapshot_restore_reproduces_counts_json() {
        let mut m = MetricsCore::with_names(&["b_t", "a_t"]);
        m.exit_id(0, 0, 4, 0);
        m.exit_id(1, 0, 2, 0);
        m.note_error(ErrorCode::LitMismatch);
        m.note_error(ErrorCode::RangeError);
        m.note_recovery(RecoveryEvent::PanicSkip { bytes: 7 }, 0);
        m.note_recovery(RecoveryEvent::SkipRecord, 0);
        m.note_recovery(RecoveryEvent::BudgetExhausted { mode: OnExhausted::Stop }, 0);
        m.note_record(0, 0, 0, 1);
        m.note_record(1, 0, 0, 0);
        let restored = MetricsCore::restore(&m.snapshot()).expect("roundtrips");
        assert_eq!(counts_json(&restored), counts_json(&m));
    }

    #[test]
    fn restore_rejects_malformed_payloads() {
        let m = MetricsCore::new();
        let snap = m.snapshot();
        assert!(MetricsCore::restore(&[]).is_none(), "empty");
        assert!(MetricsCore::restore(&snap[..snap.len() - 1]).is_none(), "truncated");
        let mut wrong = snap.clone();
        wrong[0] = wrong[0].wrapping_add(1);
        assert!(MetricsCore::restore(&wrong).is_none(), "wrong version");
        let mut trailing = snap;
        trailing.push(0);
        assert!(MetricsCore::restore(&trailing).is_none(), "trailing bytes");
    }

    /// Codec edge case: a core that never sampled a latency batch (fewer
    /// than LATENCY_BATCH records — the empty-histogram case) must
    /// round-trip and expose cleanly.
    #[test]
    fn snapshot_with_empty_latency_histogram_roundtrips() {
        let mut m = MetricsCore::new();
        m.note_record(0, 0, 0, 0);
        let restored = MetricsCore::restore(&m.snapshot()).expect("roundtrips");
        assert_eq!(counts_json(&restored), counts_json(&m));
        // The live core counts the record even though no batch has been
        // sampled yet; latency state is wall-clock and is not persisted,
        // so the restored core starts its summary fresh.
        assert!(prometheus(&m).contains("pads_record_latency_seconds_count 1"));
        assert!(prometheus(&restored).contains("pads_record_latency_seconds_count 0"));
        // And no quantile lines, since the histogram is empty.
        assert!(!prometheus(&restored).contains("quantile=\"0.5\""));
    }

    /// Codec edge case: counters at or near u64::MAX must saturate, not
    /// wrap, through snapshot → restore (restore folds with
    /// saturating_add) and through merge.
    #[test]
    fn saturating_counters_survive_restore_and_merge() {
        let mut m = MetricsCore::with_names(&["t"]);
        m.exit_id(0, 0, 4, 0);
        m.exit_id(0, 0, usize::MAX - 2, 0);
        let mut other = MetricsCore::with_names(&["t"]);
        other.exit_id(0, 0, 100, 0);
        m.merge(&other);
        let types = m.sorted_types();
        assert_eq!(types[0].1.bytes, u64::MAX, "merge saturates");
        let restored = MetricsCore::restore(&m.snapshot()).expect("roundtrips");
        assert_eq!(restored.sorted_types()[0].1.bytes, u64::MAX, "codec preserves the rail");
    }

    /// Codec edge case: an unknown error-code name (a journal written by
    /// newer code with more ErrorCode variants) must restore without
    /// error — the unknown code's count is dropped from the by-code
    /// table but stays in errors_total. This is the journal-resume
    /// forward-compatibility contract.
    #[test]
    fn unknown_error_code_names_are_forward_compatible() {
        let mut m = MetricsCore::new();
        m.note_error(ErrorCode::LitMismatch);
        m.note_error(ErrorCode::LitMismatch);
        let snap = m.snapshot();
        // Hand-craft a payload replacing the code name "LitMismatch"
        // with an equal-length name no current variant has.
        let needle = b"LitMismatch";
        let pos = snap
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("code name present");
        let mut futuristic = snap.clone();
        futuristic[pos..pos + needle.len()].copy_from_slice(b"FutureCode?");
        let restored = MetricsCore::restore(&futuristic).expect("restores despite unknown code");
        assert_eq!(restored.errors_total(), 2, "total keeps the count");
        assert!(restored.sorted_error_codes().is_empty(), "unknown code dropped from table");
        // And the restored core keeps aggregating normally.
        let mut core = restored;
        core.note_error(ErrorCode::RangeError);
        assert_eq!(core.errors_total(), 3);
    }

    #[test]
    fn latency_samples_batch_but_count_every_record() {
        let mut m = MetricsCore::new();
        for i in 0..(64 * 2 + 5) {
            m.note_record(i, 0, 0, 0);
        }
        // Two full batches sampled; 5 records still pending.
        let expect = format!("pads_record_latency_seconds_count {}", 64 * 2 + 5);
        assert!(prometheus(&m).contains(&expect));
    }

    #[test]
    fn json_wraps_counts_and_timings() {
        let m = MetricsCore::new();
        let j = json(&m);
        assert!(j.contains("\"counts\""));
        assert!(j.contains("\"timings\""));
        assert!(j.contains("\"elapsed_seconds\""));
    }
}
