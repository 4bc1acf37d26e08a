//! The source driver against the whole-tree parse, in process.
//!
//! `PadsParser::stream_source` parses a header with the source cursor and
//! continues it through the records, so everything a sink sees — values,
//! descriptors, every `Loc` — is what `parse_source` puts in the tree, and
//! `SourceFold` rebuilds the tree's own nodes from the stream. The CLI
//! matrix (`pads-cli/tests/stream_matrix.rs`) pins the printed bytes; this
//! file pins the data underneath, and the §5.2 programs that ride the
//! driver.

#[path = "common/collect.rs"]
mod collect;

use pads::{
    descriptions, BaseMask, Engine, Mask, OnExhausted, PadsParser, ParseDesc, ParseOptions, PdKind,
    Progress, RecordSink, RecoveryPolicy, Registry, Schema, SourceFold, SourceJob, SourceShape,
    SourceSummary, Value,
};
use collect::{counts_json, metered};
use pads_tools::{accumulator_program, value_to_xml, xml_program};

const CLF: &[u8] = include_bytes!("data/torture_clf.log");
const SIRIUS: &[u8] = include_bytes!("data/torture_sirius.txt");
const MIXED: &[u8] = include_bytes!("data/torture_mixed.txt");

fn mask() -> Mask {
    Mask::all(BaseMask::CheckAndSet)
}

/// A Sirius file of `records` clean records with record `k` (0-based,
/// after the header) cut short, which is a syntax error inside it.
fn sirius_with_damaged_record(records: usize, k: usize) -> Vec<u8> {
    let cfg = pads_gen::SiriusConfig {
        records,
        syntax_errors: 0,
        sort_violations: 0,
        ..Default::default()
    };
    let data = pads_gen::sirius::generate(&cfg).0;
    let mut out = Vec::new();
    for (i, line) in data.split_inclusive(|&b| b == b'\n').enumerate() {
        if i == k + 1 {
            out.extend_from_slice(&line[..line.len() / 2]);
            out.push(b'\n');
        } else {
            out.extend_from_slice(line);
        }
    }
    out
}

/// Keeps every record's descriptor, clean ones in the canonical form an
/// array descriptor stores them in.
#[derive(Default)]
struct Descriptors(Vec<ParseDesc>);

impl RecordSink for Descriptors {
    fn record(&mut self, _index: usize, _value: &Value, pd: &ParseDesc, _progress: &Progress) {
        self.0.push(if pd.is_clean() { ParseDesc::CLEAN } else { pd.clone() });
    }
}

/// The element descriptors of the whole-tree parse's `es` array, dense.
fn tree_descriptors(pd: &ParseDesc, len: usize) -> Vec<ParseDesc> {
    let Some(PdKind::Array { elts, .. }) = pd.field("es").map(|es| &es.kind) else {
        return vec![ParseDesc::CLEAN; len];
    };
    (0..len).map(|i| elts.get(i).cloned().unwrap_or(ParseDesc::CLEAN)).collect()
}

/// Regression: the §5.2 programs used to restart the cursor at offset 0 /
/// record 0 after the header, so every location in a Sirius descriptor
/// was relative to the first record and one record short.
#[test]
fn records_after_a_header_keep_whole_source_coordinates() {
    let registry = Registry::standard();
    let schema = descriptions::sirius();
    let (records, k) = (40, 17);
    let data = sirius_with_damaged_record(records, k);
    let shape = SourceShape::with_header("summary_header_t", "entry_t");
    let options = ParseOptions::default();
    let parser = PadsParser::new(&schema, &registry);
    let (v, pd) = parser.parse_source(&data, &mask());
    let want = tree_descriptors(&pd, records);
    let bad = &want[k];
    let loc = bad.loc.expect("the damaged record has a located error");
    assert_eq!(loc.begin.record, k + 1, "record numbers count the header");
    assert!(loc.begin.offset > data.len() / 3, "offsets are whole-source");

    // The driver, as `accumulator_program` runs it.
    let mut seen = Descriptors::default();
    parser.stream_source(&data, &SourceJob::new(shape, &mask()), &mut seen);
    assert_eq!(seen.0, want);
    let (acc, _) = accumulator_program(&schema, &registry, options, &shape, &data, 1000, 10);
    assert_eq!((acc.records, acc.bad_records), (records as u64, 1));

    // The XML program prints the locations it was given.
    let locs = |xml: &str| -> Vec<String> {
        xml.lines().filter(|l| l.contains("<loc>")).map(|l| l.trim().to_owned()).collect()
    };
    let program = xml_program(&schema, &registry, options, &shape, &data, "sirius");
    let es = v.at_path("es").expect("es");
    let tree = value_to_xml(es, pd.field("es"), "es", 0);
    let elt_locs: Vec<String> = locs(&tree).into_iter().rev().skip(1).rev().collect();
    assert!(!elt_locs.is_empty());
    assert_eq!(locs(&program), elt_locs, "all but the array's own <loc>");
}

fn policies() -> Vec<RecoveryPolicy> {
    vec![
        RecoveryPolicy::unlimited(),
        RecoveryPolicy::unlimited().with_max_errs(2).with_on_exhausted(OnExhausted::Stop),
        RecoveryPolicy::unlimited().with_max_errs(2).with_on_exhausted(OnExhausted::SkipRecord),
        RecoveryPolicy::unlimited().with_max_errs(3).with_on_exhausted(OnExhausted::BestEffort),
        RecoveryPolicy::unlimited().with_max_record_errs(0),
    ]
}

/// The fold's summary — the root node with its first error and location,
/// the first located errors, the per-code counts — equals the summary of
/// the descriptor `parse_source` builds, node for node.
#[test]
fn the_fold_rebuilds_the_source_descriptor_summary() {
    let registry = Registry::standard();
    let sources: [(&str, Schema, &[u8]); 3] = [
        ("clf", descriptions::clf(), CLF),
        ("sirius", descriptions::sirius(), SIRIUS),
        ("mixed", descriptions::mixed(), MIXED),
    ];
    for (name, schema, data) in &sources {
        let shape = SourceShape::infer(schema).expect("bundled sources stream");
        for policy in policies() {
            for engine in [Engine::Interp, Engine::Vm] {
                let options = ParseOptions { policy, engine, ..Default::default() };
                let parser = PadsParser::new(schema, &registry).with_options(options);
                let (_, pd) = parser.parse_source(data, &mask());
                let want = SourceSummary::of(&pd);
                // Sequential, one chunk (which the driver parses in place),
                // and chunks of one record on three workers.
                for (jobs, max_inflight) in [(1, 1024), (3, 1024), (3, 4)] {
                    let mut fold = SourceFold::new(schema);
                    let mask = mask();
                    let job = SourceJob { jobs, max_inflight, ..SourceJob::new(shape, &mask) };
                    let end = parser.stream_source(data, &job, &mut fold);
                    let got = fold.finish(&end);
                    assert_eq!(
                        got, want,
                        "{name} {policy:?} {engine:?} jobs={jobs}/{max_inflight}"
                    );
                }
            }
        }
    }
}

/// A fold told to `observe` emits the events of the source's own nodes —
/// the only ones a record-at-a-time run never parses — so the core of a
/// streamed run holds the trace tree (every enter, exit, error, recovery
/// and record, in order) and the counters of the whole-tree parse: also
/// when the budget stops the run short (a root error) and when a damaged
/// header aborts the source struct before its record array.
#[test]
fn an_observing_fold_hears_what_the_whole_tree_parse_does() {
    let registry = Registry::standard();
    let records = &SIRIUS[SIRIUS.iter().position(|&b| b == b'\n').unwrap() + 1..];
    let bad_header = [b"not a header\n", records].concat();
    let sources: [(&str, Schema, &[u8]); 4] = [
        ("clf", descriptions::clf(), CLF),
        ("sirius", descriptions::sirius(), SIRIUS),
        ("sirius/bad-header", descriptions::sirius(), &bad_header),
        ("mixed", descriptions::mixed(), MIXED),
    ];
    for (name, schema, data) in &sources {
        let shape = SourceShape::infer(schema).expect("bundled sources stream");
        for policy in policies() {
            for engine in [Engine::Interp, Engine::Vm] {
                let options = ParseOptions { policy, engine, ..Default::default() };
                let observed = || {
                    let parser = PadsParser::new(schema, &registry).with_options(options);
                    let core = parser.metrics_core().with_trace(usize::MAX, usize::MAX);
                    let core = core.into_handle();
                    (parser.with_metrics(core.clone()), core)
                };
                let (parser, tree) = observed();
                let _ = parser.parse_source(data, &mask());
                let (parser, streamed) = observed();
                let mut fold = SourceFold::new(schema).observe(streamed.clone(), 0);
                let mask = mask();
                let end = parser.stream_source(data, &SourceJob::new(shape, &mask), &mut fold);
                let _ = fold.finish(&end);
                let (tree, streamed) = (tree.borrow(), streamed.borrow());
                let label = format!("{name} {policy:?} {engine:?}");
                assert!(tree.trace_roots().is_some_and(|r| !r.is_empty()), "{label}: no events");
                assert_eq!(streamed.trace_roots(), tree.trace_roots(), "{label}: trace");
                assert_eq!(streamed.snapshot(), tree.snapshot(), "{label}: counters");
            }
        }
    }
}

/// A core attached with `with_metrics` hears every run: after a sharded
/// `stream_source` — header sources too, the header counted — it holds the
/// counters of the sequential run, whatever the chunk geometry, the policy
/// or the engine, and the caller never built a per-worker core to get them.
#[test]
fn an_attached_core_hears_a_sharded_run_as_it_hears_a_sequential_one() {
    let registry = Registry::standard();
    let sources: [(&str, Schema, &[u8]); 3] = [
        ("clf", descriptions::clf(), CLF),
        ("sirius", descriptions::sirius(), SIRIUS),
        ("mixed", descriptions::mixed(), MIXED),
    ];
    for (name, schema, data) in &sources {
        let shape = SourceShape::infer(schema).expect("bundled sources stream");
        for policy in policies() {
            for engine in [Engine::Interp, Engine::Vm] {
                let options = ParseOptions { policy, engine, ..Default::default() };
                let run = |jobs, max_inflight| {
                    let (parser, core) =
                        metered(PadsParser::new(schema, &registry).with_options(options));
                    let mut fold = SourceFold::new(schema).observe(core.clone(), 0);
                    let mask = mask();
                    let job = SourceJob { jobs, max_inflight, ..SourceJob::new(shape, &mask) };
                    let end = parser.stream_source(data, &job, &mut fold);
                    let summary = fold.finish(&end);
                    (counts_json(&core), summary)
                };
                let want = run(1, 1024);
                assert!(want.0.contains("\"records\""), "{name}: {}", want.0);
                for (jobs, max_inflight) in [(2, 4), (4, 4), (2, 8), (4, 8)] {
                    let label = format!("{name} {policy:?} {engine:?} jobs={jobs}/{max_inflight}");
                    assert_eq!(run(jobs, max_inflight), want, "{label}");
                }
            }
        }
    }
}

/// A profile (or a trace) needs one ordered event stream, so a core that
/// wants events keeps the run on one thread whatever `jobs` says: the
/// `jobs = 4` profile is the `jobs = 1` profile, not a table that lost the
/// events of every chunk a worker parsed.
#[test]
fn an_events_wanting_core_keeps_the_run_sequential() {
    let registry = Registry::standard();
    for (name, schema, data) in
        [("clf", descriptions::clf(), CLF), ("sirius", descriptions::sirius(), SIRIUS)]
    {
        let shape = SourceShape::infer(&schema).expect("bundled sources stream");
        let profile = |jobs| {
            let parser = PadsParser::new(&schema, &registry);
            let core = parser.metrics_core().with_profile().into_handle();
            let parser = parser.with_metrics(core.clone());
            let mut fold = SourceFold::new(&schema).observe(core.clone(), 0);
            let mask = mask();
            let job = SourceJob { jobs, max_inflight: 4, ..SourceJob::new(shape, &mask) };
            let end = parser.stream_source(data, &job, &mut fold);
            let _ = fold.finish(&end);
            let core = core.borrow();
            (core.profile_table(false).expect("profiling"), core.profile_folded())
        };
        let sequential = profile(1);
        assert!(sequential.0.lines().count() > 3, "{name}: {}", sequential.0);
        assert_eq!(profile(4), sequential, "{name}: jobs = 4 profile");
    }
}
