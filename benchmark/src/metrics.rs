//! Every metric the benchmark reports: name, unit, direction, and for the
//! end-to-end ones the share of the parent's median by which a later
//! change may worsen them. `BENCHMARK.json` lists the same tables; a test
//! keeps the two in step.

use crate::json::Metric;

/// One metric's definition. Only end-to-end metrics carry a bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub bound: Option<f64>,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, lower_is_better: true, bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, lower_is_better: false, bound: None }
}

const fn bounded(def: Def, bound: f64) -> Def {
    Def { bound: Some(bound), ..def }
}

/// What a user of the programs would see (the untraced run).
pub const END_TO_END: [Def; 6] = [
    bounded(lower("setup_s", "s"), 0.25),
    bounded(higher("vm_mb_per_s", "MB/s"), 0.25),
    bounded(higher("gen_mb_per_s", "MB/s"), 0.25),
    bounded(lower("vm_peak_rss_kib", "KiB"), 0.05),
    bounded(lower("gen_peak_rss_kib", "KiB"), 0.05),
    bounded(lower("vm_par_cpu_ratio", "ratio"), 0.15),
];

/// Timed child runs that failed ÷ runs attempted: printed by every run
/// and held to 0 by `suite --twice`, but not one of [`END_TO_END`]. The
/// benchmark contract admits no metric whose value is 0 (its relative
/// worsening is undefined) and carries the same fact in the result
/// line's `attempted`, `failed` and `correct`.
pub const FAILED_SHARE: Def = lower("failed_share", "share");

/// Single layers, from the traced run.
pub const PER_LAYER: [Def; 38] = [
    lower("check.compile_us", "us"),
    higher("scan.count_byte_mb_per_s", "MB/s"),
    lower("io.framing_ns_per_record", "ns"),
    lower("vm.compile_us", "us"),
    lower("vm.program_len", "count"),
    lower("vm.parse_ns_per_record", "ns"),
    lower("vm.parse_set_ns_per_record", "ns"),
    lower("vm.batched_ns_per_record", "ns"),
    lower("vm.allocs_per_record", "count"),
    lower("interp.parse_ns_per_record", "ns"),
    lower("interp.allocs_per_record", "count"),
    lower("gen.read_ns_per_record", "ns"),
    lower("gen.write_ns_per_record", "ns"),
    lower("gen.to_arena_ns_per_record", "ns"),
    lower("gen.allocs_per_record", "count"),
    lower("batch.push_ns_per_record", "ns"),
    lower("batch.error_rows", "count"),
    lower("write.ns_per_record", "ns"),
    lower("acc.add_batch_ns_per_record", "ns"),
    lower("acc.add_ns_per_record", "ns"),
    lower("acc.report_us", "us"),
    lower("xml.ns_per_record", "ns"),
    lower("xml.out_bytes_per_in_byte", "ratio"),
    lower("par.plan_shards_us", "us"),
    higher("par.shards", "count"),
    lower("par.batched_cpu_ratio", "ratio"),
    higher("par.wall_speedup", "ratio"),
    higher("env.effective_cores", "count"),
    lower("obs.metrics_ratio", "ratio"),
    lower("recovery.bad_records", "count"),
    lower("recovery.errors", "count"),
    lower("recovery.panic_skipped_bytes", "count"),
    lower("recovery.clean_ns_per_record", "ns"),
    lower("recovery.damaged_ns_per_record", "ns"),
    lower("journal.commit_us", "us"),
    lower("baseline.vet_ns_per_record", "ns"),
    lower("trace.vm_unaccounted_share", "ratio"),
    lower("trace.gen_unaccounted_share", "ratio"),
];

/// The measured `values` as the metrics `defs` lists, in the table's
/// order and with its units.
///
/// # Panics
///
/// Panics when a listed metric was not measured or a measured one is not
/// listed: the tables and the harness have drifted apart.
pub fn measured(defs: &[Def], values: &[(&str, f64)]) -> Vec<Metric> {
    assert_eq!(defs.len(), values.len(), "measured metrics and the table differ in number");
    defs.iter()
        .map(|def| {
            let (_, value) = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
            Metric { name: def.name, value: *value, unit: def.unit }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::RUN_SECONDS;
    use crate::workload::WORKLOADS;

    fn better(lower_is_better: bool) -> &'static str {
        if lower_is_better {
            "lower"
        } else {
            "higher"
        }
    }

    /// `BENCHMARK.json` is written one entry per line in exactly this
    /// form, so line-by-line comparison is all the parsing needed.
    #[test]
    fn benchmark_json_lists_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let entries = |key: &str| -> Vec<String> {
            let start =
                doc.find(&format!("\"{key}\": [")).unwrap_or_else(|| panic!("{key} missing"));
            doc[start..]
                .lines()
                .skip(1)
                .take_while(|l| l.trim_start().starts_with('{'))
                .map(|l| l.trim().trim_end_matches(',').to_owned())
                .collect()
        };
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    better(m.lower_is_better),
                    m.bound.expect("end-to-end metrics are bounded")
                )
            })
            .collect();
        assert_eq!(entries("end_to_end"), end_to_end);
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    better(m.lower_is_better)
                )
            })
            .collect();
        assert_eq!(entries("per_layer"), per_layer);
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect();
        assert_eq!(entries("workloads"), workloads);
        assert!(doc.contains(&format!("\"run_seconds\": {RUN_SECONDS},")), "run_seconds");
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.push(FAILED_SHARE.name);
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(
                name.len() <= 64
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
