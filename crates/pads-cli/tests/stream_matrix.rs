//! `pads parse` streams `[header] + records` sources through the source
//! driver; this is the differential matrix that pins it to the whole-tree
//! parse. For every description × corpus × recovery budget × engine ×
//! `--jobs`, the CLI's report stdout, XML stdout, stderr summary and exit
//! status must be byte-identical to what `parse_source` yields in process:
//! `SourceSummary::of` for the report and the summary line, `value_to_xml`
//! for the document.

use std::path::{Path, PathBuf};
use std::process::Command;

#[path = "common/tables.rs"]
mod tables;

use pads::{
    descriptions, BaseMask, Engine, Mask, PadsParser, ParseOptions, RecordDiscipline,
    RecoveryPolicy, Registry, Schema, SourceFold, SourceJob, SourceShape, SourceSummary,
};
use pads_runtime::FaultPlan;
use tables::{policies, JOBS};

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pads-stream-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// What the whole-tree parse says the CLI must print.
struct Expected {
    report: String,
    xml: String,
    summary: Option<String>,
    code: i32,
}

fn oracle(schema: &Schema, options: ParseOptions, data: &[u8], source: &str) -> Expected {
    let registry = Registry::standard();
    let parser = PadsParser::new(schema, &registry).with_options(options);
    let (v, pd) = parser.parse_source(data, &Mask::all(BaseMask::CheckAndSet));
    let summary = SourceSummary::of(&pd);
    Expected {
        report: summary.report(),
        xml: pads_tools::value_to_xml(&v, Some(&pd), &schema.source_def().name, 0),
        summary: (!summary.is_ok()).then(|| format!("pads: {}\n", summary.error_line(source))),
        code: if summary.is_ok() { 0 } else { 2 },
    }
}

/// Runs `pads parse` and checks it against `want`: stderr is the diagnosis
/// and nothing else — in particular no `ignoring --jobs` notice, whatever
/// the source's shape (Sirius has a header, and shards all the same).
fn check(descr: &Path, data: &Path, flags: &[String], format: &str, want: &Expected) {
    let out = Command::new(env!("CARGO_BIN_EXE_pads"))
        .arg("parse")
        .arg(descr)
        .arg(data)
        .args(["--format", format])
        .args(flags)
        .output()
        .expect("run pads");
    let label =
        format!("{} {} --format {format} {}", descr.display(), data.display(), flags.join(" "));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("ignoring --jobs"), "{label}\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let want_stdout = if format == "xml" { &want.xml } else { &want.report };
    assert_eq!(out.status.code(), Some(want.code), "{label}\n{stderr}");
    assert!(*stdout == **want_stdout, "{label}: stdout differs from the whole-tree parse");
    assert_eq!(stderr, want.summary.clone().unwrap_or_default(), "{label}");
}

/// Clean, `FaultPlan`-damaged and torture corpora for one description.
fn corpora(name: &str, schema: &Schema) -> Vec<(String, Vec<u8>)> {
    let clean = match name {
        "clf" => {
            let cfg =
                pads_gen::ClfConfig { records: 150, dash_length_rate: 0.0, ..Default::default() };
            pads_gen::clf::generate(&cfg).0
        }
        "sirius" => {
            let cfg = pads_gen::SiriusConfig {
                records: 150,
                syntax_errors: 0,
                sort_violations: 0,
                ..Default::default()
            };
            pads_gen::sirius::generate(&cfg).0
        }
        _ => pads_gen::Generator::new(schema, pads_gen::GenConfig::default())
            .generate_records("rec_t", 150),
    };
    // Enough damage to trip a two-error budget well before the end.
    let plan = FaultPlan { seed: 11, bit_flips: 30, deletions: 8, insertions: 8, truncate: false };
    let damaged = plan.apply(&clean);
    let ext = if name == "clf" { "log" } else { "txt" };
    let torture = std::fs::read(repo_root().join(format!("tests/data/torture_{name}.{ext}")))
        .expect("torture corpus");
    vec![("clean".into(), clean), ("damaged".into(), damaged), ("torture".into(), torture)]
}

const INFLIGHT: &str = "--max-inflight-records";

#[test]
fn streamed_parse_matches_the_whole_tree_parse() {
    let dir = temp_dir();
    for (name, schema) in [
        ("clf", descriptions::clf()),
        ("sirius", descriptions::sirius()),
        ("mixed", descriptions::mixed()),
    ] {
        let descr = repo_root().join(format!("descriptions/{name}.pads"));
        for (kind, data) in corpora(name, &schema) {
            let path = dir.join(format!("{name}-{kind}.dat"));
            std::fs::write(&path, &data).expect("write corpus");
            let source = path.to_string_lossy().into_owned();
            for (policy_flags, policy) in policies() {
                for (engine_flag, engine) in [("interp", Engine::Interp), ("vm", Engine::Vm)] {
                    let options = ParseOptions { policy, engine, ..Default::default() };
                    let want = oracle(&schema, options, &data, &source);
                    for jobs in JOBS {
                        let mut flags = policy_flags.clone();
                        // Chunks of two records, so that `--jobs 2|4` really
                        // shard these small corpora.
                        let run = ["--engine", engine_flag, "--jobs", jobs, INFLIGHT, "8"];
                        flags.extend(run.map(str::to_owned));
                        check(&descr, &path, &flags, "report", &want);
                        check(&descr, &path, &flags, "xml", &want);
                    }
                }
            }
        }
    }
}

/// A header with a syntax error aborts the source struct: the record array
/// is never parsed, the rest of the file is trailing data.
#[test]
fn a_bad_header_aborts_the_source_like_the_whole_tree_parse() {
    let schema = descriptions::sirius();
    let cfg = pads_gen::SiriusConfig { records: 20, syntax_errors: 1, ..Default::default() };
    let mut data = pads_gen::sirius::generate(&cfg).0;
    data[0] = b'x';
    let path = temp_dir().join("sirius-bad-header.dat");
    std::fs::write(&path, &data).expect("write corpus");
    let want = oracle(&schema, ParseOptions::default(), &data, &path.to_string_lossy());
    assert!(want.report.contains("parse state: partial"), "{}", want.report);
    assert!(want.xml.contains("<length>0</length>"), "the array is never parsed");
    let descr = repo_root().join("descriptions/sirius.pads");
    check(&descr, &path, &[], "report", &want);
    check(&descr, &path, &[], "xml", &want);
}

/// A header that exhausts a stop budget ends the parse at the root, before
/// the first record.
#[test]
fn a_budget_stopped_in_the_header_is_reported_at_the_root() {
    let schema = descriptions::sirius();
    let cfg = pads_gen::SiriusConfig { records: 20, ..Default::default() };
    let mut data = pads_gen::sirius::generate(&cfg).0;
    data[0] = b'x';
    let path = temp_dir().join("sirius-stopped-header.dat");
    std::fs::write(&path, &data).expect("write corpus");
    let policy = RecoveryPolicy::unlimited().with_max_errs(0);
    let options = ParseOptions { policy, ..Default::default() };
    let want = oracle(&schema, options, &data, &path.to_string_lossy());
    assert!(want.report.contains("budget"), "{}", want.report);
    let descr = repo_root().join("descriptions/sirius.pads");
    let flags = ["--max-errs", "0"].map(str::to_owned);
    check(&descr, &path, &flags, "report", &want);
    check(&descr, &path, &flags, "xml", &want);
}

/// A record that consumes nothing ends the array on its zero-width guard
/// and leaves the rest of the input as trailing garbage. `pads` refuses a
/// zero-width discipline (`--fixed 0`), so the driver runs in process here,
/// into the two sinks `pads parse` prints through.
#[test]
fn trailing_garbage_after_a_stalled_record_is_extra_data_at_eof() {
    let schema = descriptions::clf();
    let data = std::fs::read(repo_root().join("tests/data/torture_clf.log")).expect("corpus");
    let options =
        ParseOptions { discipline: RecordDiscipline::FixedWidth(0), ..Default::default() };
    let want = oracle(&schema, options, &data, "torture_clf.log");
    assert_eq!(want.code, 2);
    assert!(want.xml.contains("<length>1</length>"), "the first record stalls the array");
    let registry = Registry::standard();
    let options = ParseOptions { engine: Engine::Vm, ..options };
    let parser = PadsParser::new(&schema, &registry).with_options(options);
    let shape = SourceShape::infer(&schema).expect("clf streams");
    let mask = Mask::all(BaseMask::CheckAndSet);
    for jobs in [1, 4] {
        let job = SourceJob { jobs, max_inflight: 8, ..SourceJob::new(shape, &mask) };
        let mut fold = SourceFold::new(&schema);
        let end = parser.stream_source(&data, &job, &mut fold);
        assert_eq!(fold.finish(&end).report(), want.report, "jobs={jobs}: report");
        let mut xml = Vec::new();
        let mut sink = pads_tools::XmlSourceSink::new(&schema, &mut xml);
        let end = parser.stream_source(&data, &job, &mut sink);
        sink.finish(&end).expect("writes into memory");
        assert!(xml == want.xml.as_bytes(), "jobs={jobs}: xml differs from the whole-tree parse");
    }
}
