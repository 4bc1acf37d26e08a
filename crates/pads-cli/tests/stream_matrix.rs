//! `pads parse`, `pads accum` and `pads fmt` as cells of the contract
//! matrix's `cli` column (`tests/common/contract.rs`): for every bundled
//! description × corpus × recovery policy × engine × `--jobs`, the
//! binary's stdout, stderr and exit status are what the interpreter's truth
//! renders — `SourceSummary::of` the whole-tree parse for the report and
//! the error line, `value_to_xml` for the document, an `Accumulator` and a
//! `FormatSink` fed the truth's run for the §5 programs.

#[path = "../../../tests/common/contract.rs"]
mod contract;

use contract::bundled::{self, Bundled};
use contract::{cli, every_cli_policy, seeds, sweep, Case, Cli, Plan, Tool, Truth, TOOLS};
use pads::{
    Engine, PadsParser, ParseOptions, RecordDiscipline, RecoveryPolicy, SourceFold, SourceJob,
    SourceShape, SourceSummary,
};
use pads_gen::{ClfConfig, SiriusConfig};
use pads_runtime::{FaultPlan, KillPlan};

const PADS: &str = env!("CARGO_BIN_EXE_pads");

/// One, two and four workers taking two records at a time, so that these
/// small corpora really shard.
const JOBS: [Option<(usize, usize)>; 3] = [Some((1, 8)), Some((2, 8)), Some((4, 8))];

/// 150 clean records of `bundled`'s description.
fn clean(bundled: &Bundled) -> Vec<u8> {
    let records = 150;
    let clf = ClfConfig { records, dash_length_rate: 0.0, ..Default::default() };
    let sirius =
        SiriusConfig { records, syntax_errors: 0, sort_violations: 0, ..Default::default() };
    match bundled.name {
        "clf" => pads_gen::clf::generate(&clf).0,
        "sirius" => pads_gen::sirius::generate(&sirius).0,
        _ => pads_gen::Generator::new(&bundled.schema, pads_gen::GenConfig::default())
            .generate_records("rec_t", records),
    }
}

/// Clean, `FaultPlan`-damaged and torture corpora of each bundled
/// description under every policy: `parse --format report|xml` under each
/// engine in every row of `JOBS`, and every tool under the default engine
/// on four workers.
#[test]
fn streamed_parse_matches_the_whole_tree_parse() {
    let engines =
        |row| [Engine::Interp, Engine::Vm].map(|engine| Cli { engine: Some(engine), ..row });
    let mut rows: Vec<Cli> = cli(&TOOLS[..2], &JOBS).into_iter().flat_map(engines).collect();
    rows.extend(cli(&TOOLS, &JOBS[2..]));
    // Enough damage to trip a two-error budget well before the end.
    let damage =
        FaultPlan { seed: 11, bit_flips: 30, deletions: 8, insertions: 8, truncate: false };
    for bundled in bundled::all() {
        let (description, clean) = (bundled.description(), clean(&bundled));
        let damaged = damage.apply(&clean);
        for (corpus, data) in
            [("clean", &clean[..]), ("damaged", &damaged), ("torture", bundled.torture)]
        {
            let case = Case::new(format!("{} {corpus}", bundled.name), &description, data);
            every_cli_policy(&case, PADS, &rows, |_| ());
        }
    }
}

/// Twenty fault seeds of each bundled description: every tool, on one
/// thread and on four workers taking two records at a time.
#[test]
fn every_tool_prints_the_truth_of_fault_seeds() {
    let rows = cli(&TOOLS, &[JOBS[0], JOBS[2]]);
    for bundled in bundled::all() {
        sweep(&bundled, seeds::CLI, |_, _| Plan::cli(PADS, rows.clone()));
    }
}

/// Figure 1's sources — EBCDIC text, fixed-width binary, fixed-width and
/// length-prefixed EBCDIC Cobol, bit fields, Regulus — and the operators'
/// edge cases of `operators.pads`, clean and damaged, under every policy: every tool on one and on four workers, and `parse
/// --journal` killed after a record and resumed. Not Netflow, whose packets
/// are no `Precord` (`pads` infers no shape), nor the call detail read
/// little-endian (`pads` reads binary big-endian only).
#[test]
fn figure1_sources_print_the_truth() {
    let four = Some(contract::CHUNKS_OF_TWO);
    let mut rows = cli(&TOOLS, &[Some((1, 8)), four]);
    let kill = KillPlan { kill_after: 1, checkpoint_every: 1 };
    rows.extend(cli(&[Tool::Journal(Some(kill))], &[four]));
    let cases = contract::figure1::all().into_iter().filter(|source| source.record.is_none());
    for source in cases.filter(|source| source.description().cli_flags().is_ok()) {
        let description = source.description();
        for (corpus, data) in &source.corpora {
            let case = Case::new(format!("{} {corpus}", source.name), &description, data);
            every_cli_policy(&case, PADS, &rows, |_| ());
        }
    }
}

/// The defaults, and one, two and four workers in the default chunk (256
/// records) and in one-record chunks.
fn geometries() -> Vec<Option<(usize, usize)>> {
    let sharded = [1, 2, 4].into_iter().flat_map(|jobs| [(jobs, 1024), (jobs, 4)]);
    [None].into_iter().chain(sharded.map(Some)).collect()
}

#[test]
fn accum_prints_the_sequential_report_at_every_job_count() {
    let (clf, config) = (bundled::clf(), ClfConfig { records: 3000, ..Default::default() });
    let (description, data) = (clf.description(), pads_gen::clf::generate(&config).0);
    let case = Case::new("clf 3000", &description, &data);
    let rows = cli(&TOOLS[3..5], &geometries());
    Truth::of(&case, RecoveryPolicy::unlimited()).check(&case, &Plan::cli(PADS, rows));
}

/// The Sirius feed `config` generates — its header's first byte wrong
/// where `bad` — under `policy`: the truth, checked in `rows`.
fn sirius(config: &SiriusConfig, bad: bool, policy: RecoveryPolicy, rows: &[Cli]) -> Truth {
    let sirius = bundled::sirius();
    let mut data = pads_gen::sirius::generate(config).0;
    data[0] = if bad { b'x' } else { data[0] };
    let description = sirius.description();
    let case =
        Case::new(format!("sirius {}, bad header: {bad}", config.records), &description, &data);
    let truth = Truth::of(&case, policy);
    truth.check(&case, &Plan::cli(PADS, rows.to_vec()));
    truth
}

/// A source with a header shards like any other, from the point its header
/// leaves off, also when the header has a syntax error (the source struct
/// aborts before its record array) and when it trips a stop budget.
#[test]
fn a_header_source_prints_the_sequential_bytes_at_every_job_count() {
    let config = SiriusConfig { records: 1000, seed: 0x51E1, ..Default::default() };
    let rows = cli(&TOOLS[..4], &geometries());
    let (unlimited, stop) =
        (RecoveryPolicy::unlimited(), RecoveryPolicy::unlimited().with_max_errs(0));
    for (bad, policy) in [(false, unlimited), (true, unlimited), (true, stop)] {
        sirius(&config, bad, policy, &rows);
    }
}

/// Twenty Sirius records, one a syntax error.
fn twenty() -> SiriusConfig {
    SiriusConfig { records: 20, syntax_errors: 1, ..Default::default() }
}

/// A header with a syntax error aborts the source struct: the record array
/// is never parsed, the rest of the file is trailing data.
#[test]
fn a_bad_header_aborts_the_source_like_the_whole_tree_parse() {
    let truth = sirius(&twenty(), true, RecoveryPolicy::unlimited(), &cli(&TOOLS, &[None]));
    let whole = truth.whole.as_ref().expect("sirius streams");
    assert!(truth.aborted() && whole.records == 0, "the array is never parsed");
}

/// A header that exhausts a stop budget ends the parse at the root, before
/// the first record.
#[test]
fn a_budget_stopped_in_the_header_is_reported_at_the_root() {
    let stop = RecoveryPolicy::unlimited().with_max_errs(0);
    let truth = sirius(&twenty(), true, stop, &cli(&TOOLS, &[None]));
    assert!(truth.run.end.budget.stopped() && truth.len() == 0, "{:?}", truth.run.end);
}

/// A record that consumes nothing ends the array on its zero-width guard
/// and leaves the rest of the input as trailing garbage. `pads` refuses a
/// zero-width discipline (`--fixed 0`), so the driver runs in process here,
/// into the two sinks `pads parse` prints through.
#[test]
fn trailing_garbage_after_a_stalled_record_is_extra_data_at_eof() {
    let (clf, mask) = (bundled::clf(), contract::mask());
    let (schema, data) = (&clf.schema, clf.torture);
    let options =
        ParseOptions { discipline: RecordDiscipline::FixedWidth(0), ..Default::default() };
    let parser = PadsParser::new(schema, &clf.registry).with_options(options);
    let (value, pd) = parser.parse_source(data, &mask);
    let report = SourceSummary::of(&pd).report();
    let xml = pads_tools::value_to_xml(&value, Some(&pd), &schema.source_def().name, 0);
    assert!(!pd.is_ok() && xml.contains("<length>1</length>"), "the first record stalls the array");
    let parser = parser.with_options(ParseOptions { engine: Engine::Vm, ..options });
    let shape = SourceShape::infer(schema).expect("clf streams");
    for jobs in [1, 4] {
        let job = SourceJob { jobs, max_inflight: 8, ..SourceJob::new(shape, &mask) };
        let mut fold = SourceFold::new(schema);
        let end = parser.stream_source(data, &job, &mut fold);
        assert_eq!(fold.finish(&end).report(), report, "jobs={jobs}: report");
        let mut out = Vec::new();
        let mut sink = pads_tools::XmlSourceSink::new(schema, &mut out);
        let end = parser.stream_source(data, &job, &mut sink);
        sink.finish(&end).expect("writes into memory");
        assert!(out == xml.as_bytes(), "jobs={jobs}: xml differs from the whole-tree parse");
    }
}
