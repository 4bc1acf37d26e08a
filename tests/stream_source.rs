//! The source driver against the whole-tree parse, in process.
//!
//! `PadsParser::stream_source` parses a header with the source cursor and
//! continues it through the records, so everything a sink sees — values,
//! descriptors, every `Loc` — is what `parse_source` puts in the tree, and
//! `SourceFold` rebuilds the tree's own nodes from the stream: the fold's
//! cells of the contract matrix (`common/contract.rs`), whose `cli` column
//! (`pads-cli/tests/stream_matrix.rs`) pins the printed bytes. This file
//! also pins the §5.2 programs that ride the driver, and a profile that
//! needs one thread.
//!
//! The driver reads its source through a bounded window; the second half
//! of this file shows that where the windows fall never shows — whatever
//! the framing, the window size, the reads' lengths and the job count — and
//! what a hostile reader (a length prefix that lies, a read that fails)
//! gets.

use std::io::{self, Read};

#[path = "common/contract.rs"]
mod contract;

use contract::collect::{metered, Collect};
use contract::{
    bundled, every_geometry, every_policy, figure1, mask, policies, torture, Plan, ENGINES,
};
use pads::{
    descriptions, Charset, Endian, Engine, PadsParser, ParseDesc, ParseOptions, PdChild, PdKind,
    Progress, RecordDiscipline, RecordSink, RecoveryPolicy, Registry, SourceEnd, SourceFold,
    SourceJob, SourceShape, Value,
};
use pads_runtime::fault::{FaultReader, Xorshift};
use pads_tools::{accumulator_program, value_to_xml, XmlSourceSink};
use proptest::prelude::*;
use proptest::sample;

const CLF: &[u8] = include_bytes!("data/torture_clf.log");
const SIRIUS: &[u8] = include_bytes!("data/torture_sirius.txt");

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
    let Some(PdKind::Array { elts, .. }) = pd.child(PdChild::Field("es")).map(|es| &es.kind) else {
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
    let locs = |xml: &[u8]| -> Vec<String> {
        let xml = String::from_utf8_lossy(xml);
        xml.lines().filter(|l| l.contains("<loc>")).map(|l| l.trim().to_owned()).collect()
    };
    let mut program = Vec::new();
    let mut sink = XmlSourceSink::new(&schema, &mut program);
    let end = parser.stream_source(&data, &SourceJob::new(shape, &mask()), &mut sink);
    sink.finish(&end).expect("writing into a Vec cannot fail");
    let tree = value_to_xml(&v, Some(&pd), &schema.source_def().name, 0);
    assert!(locs(tree.as_bytes()).len() > 1);
    assert_eq!(locs(&program), locs(tree.as_bytes()));
}

/// The torture Sirius corpus with its header line replaced by `header` of
/// it.
fn sirius_with_header(header: impl FnOnce(&[u8]) -> &[u8]) -> Vec<u8> {
    let end = SIRIUS.iter().position(|&b| b == b'\n').unwrap();
    [header(&SIRIUS[..end]), &SIRIUS[end..]].concat()
}

/// The fold's summary — the root node with its first error and location,
/// the first located errors, the per-code counts — equals the summary of
/// the descriptor `parse_source` builds, in every geometry and on both
/// engines: for a header that aborts the source and for one cut short.
#[test]
fn the_fold_rebuilds_the_source_descriptor_summary() {
    let sirius = bundled::sirius();
    let description = sirius.description();
    let bad_header = sirius_with_header(|_| b"not a header");
    let short_header = sirius_with_header(|line| &line[..line.len() / 2]);
    for (name, data) in [("sirius/bad header", &bad_header), ("sirius/short header", &short_header)]
    {
        let case = contract::Case::new(name, &description, data);
        every_policy(&case, |_| Plan {
            geometries: ENGINES.into_iter().flat_map(every_geometry).collect(),
            ..Plan::default()
        });
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
    for bundled in bundled::all() {
        torture(&bundled, |_| Plan { sequential: vec![Engine::Interp], ..Plan::default() });
    }
    let sirius = bundled::sirius();
    let description = sirius.description();
    let bad_header = sirius_with_header(|_| b"not a header");
    let case = contract::Case::new("sirius/bad header", &description, &bad_header);
    every_policy(&case, |_| Plan { sequential: ENGINES.to_vec(), ..Plan::default() });
}

/// A core attached with `with_metrics` hears every run: after a sharded
/// `stream_source` over a header source with a damaged record, it holds
/// the counters of the sequential run, whatever the chunk geometry, the
/// policy or the engine, and the caller never built a per-worker core to
/// get them.
#[test]
fn an_attached_core_hears_a_sharded_run_as_it_hears_a_sequential_one() {
    let sirius = bundled::sirius();
    let description = sirius.description();
    let data = sirius_with_damaged_record(40, 17);
    let case = contract::Case::new("sirius/damaged record 17", &description, &data);
    every_policy(&case, |_| Plan {
        geometries: ENGINES.into_iter().flat_map(every_geometry).collect(),
        counted: true,
        ..Plan::default()
    });
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

/// Hands `data` out in reads of 1 to 40 bytes, whatever buffer it is given.
struct ShortReads<'a> {
    data: &'a [u8],
    rng: Xorshift,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (1 + self.rng.below(40)).min(buf.len());
        self.data.read(&mut buf[..n])
    }
}

/// Everything a run hands over or leaves behind: the sink's header and
/// records, each with its `Progress`; how the run ended; the counters of the
/// core attached to the parser.
type Run = (
    Option<(Value, ParseDesc, Progress)>,
    Vec<(Value, ParseDesc)>,
    Vec<Progress>,
    SourceEnd,
    Vec<u8>,
);

/// What `drive` — a call of the driver on the parser it is given, into the
/// sink it is given — hands over and leaves behind.
fn run(
    parser: PadsParser<'_>,
    drive: impl FnOnce(&PadsParser<'_>, &mut Collect) -> SourceEnd,
) -> Run {
    let (parser, core) = metered(parser);
    let mut sink = Collect::default();
    let end = drive(&parser, &mut sink);
    let counters = core.borrow().snapshot();
    (sink.header, sink.items, sink.progress, end, counters)
}

/// Every framing a Figure 1 source is read with, and ones none is: records
/// all empty (the first stalls the run), an ASCII byte as a length (records
/// of 32 to 126 bytes), two of them little-endian (the rest is one record).
fn framings() -> Vec<RecordDiscipline> {
    let odd = [(0, Endian::Big), (1, Endian::Big), (2, Endian::Little)]
        .map(|(header_bytes, endian)| RecordDiscipline::LengthPrefixed { header_bytes, endian });
    let figure1 = figure1::all().into_iter().map(|source| source.options.discipline);
    figure1.chain([RecordDiscipline::FixedWidth(0)]).chain(odd).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Window geometry never shows. For each bundled description, under any
    // framing (the text then frames as garbage, which must come out as the
    // same garbage), policy and engine: a run fed by short reads of random
    // length through windows of 1 byte to more than the source — smaller
    // than a record, so the window has to grow; cut so that a stop or a
    // degraded budget trips in a later window, which `par::drive` replays
    // and the next window starts from — delivers what one window holding
    // the whole source does: values, descriptors with their `Loc`s, every
    // `Progress`, the `SourceEnd`, the attached core's counters.
    #[test]
    fn window_geometry_never_shows(
        discipline in sample::select(framings()),
        policy in sample::select(policies()),
        engine in sample::select(vec![Engine::Interp, Engine::Vm]),
        window in prop_oneof![1usize..100, 1usize..1000],
        jobs in 1usize..=2,
        ends_with_newline in any::<bool>(),
        seed in any::<u64>(),
    ) {
        for bundled in bundled::all() {
            let (name, data) = (bundled.name, bundled.torture);
            let data = &data[..data.len() - usize::from(!ends_with_newline)];
            let options = ParseOptions { discipline, ..Default::default() };
            let description = bundled.description().with_options(options);
            let parser = || description.parser(policy, engine);
            let mask = mask();
            let whole = SourceJob::new(description.shape, &mask);
            let want = run(parser(), |parser, sink| parser.stream_source(data, &whole, sink));
            let windowed = SourceJob { jobs, max_inflight: 4, ..whole };
            let reader = ShortReads { data, rng: Xorshift::new(seed) };
            let got = run(parser(), |parser, sink| {
                parser.stream_windowed(reader, window, &windowed, sink).expect("reads succeed")
            });
            prop_assert!(
                got == want,
                "{name} {discipline:?} {policy:?} {engine:?} window={window} jobs={jobs}: \
                 {got:#?}\nwindowed (above) differs from whole (below)\n{want:#?}"
            );
        }
    }
}

/// The records of `data` as `source`'s description reads them with
/// `discipline` in `charset`: what the driver delivers from short reads
/// through windows of each size in `windows`, which must be what the slice
/// iterator yields — values and descriptors, locations included.
fn streamed(
    source: &figure1::Source,
    (charset, discipline): (Charset, RecordDiscipline),
    data: &[u8],
    windows: [usize; 3],
) -> Vec<(Value, ParseDesc)> {
    let options = ParseOptions { charset, discipline, ..source.options };
    let description = source.description().with_options(options);
    let parser = description.parser(RecoveryPolicy::unlimited(), Engine::Interp);
    let (mask, record) = (mask(), description.shape.record);
    let sliced: Vec<_> = parser.records(data, record, &mask).collect();
    for window in windows {
        let mut sink = Collect::default();
        let job = SourceJob::new(SourceShape::records(record), &mask);
        let reader = ShortReads { data, rng: Xorshift::new(window as u64) };
        let end = parser.stream_windowed(reader, window, &job, &mut sink).expect("reads succeed");
        let at = format!("{} {discipline:?} window={window}", source.name);
        assert_eq!(sink.items, sliced, "{at}");
        assert!(end.at_eof || end.stalled, "{at}: {end:?}");
    }
    sliced
}

fn ok(items: &[(Value, ParseDesc)]) -> Vec<bool> {
    items.iter().map(|(_, pd)| pd.is_ok()).collect()
}

fn uints(items: &[(Value, ParseDesc)], path: &str) -> Vec<Option<u64>> {
    items.iter().map(|(v, _)| v.at_path(path).and_then(Value::as_u64)).collect()
}

const ASCII: Charset = Charset::Ascii;

#[test]
fn newline_streaming_matches_slice_parsing() {
    let (data, newline) = (b"1,ab\n2,cd\nbroken\n4,ef\n", (ASCII, RecordDiscipline::Newline));
    let items = streamed(&figure1::ambient(), newline, data, [1, 5, 1 << 20]);
    assert_eq!(ok(&items), [true, true, false, true]);
}

#[test]
fn fixed_width_streaming() {
    let calls = figure1::call_detail();
    let fixed = (ASCII, RecordDiscipline::FixedWidth(11));
    let items = streamed(&calls, fixed, &calls.corpora[0].1, [1, 12, 1 << 20]);
    assert_eq!(uints(&items, "caller"), [Some(0x01020304), Some(7)]);
}

#[test]
fn truncated_fixed_width_tail_is_flagged() {
    // One full record and one truncated byte.
    let data = [figure1::call(1, 2, 3, 0), vec![9]].concat();
    let fixed = (ASCII, RecordDiscipline::FixedWidth(11));
    let items = streamed(&figure1::call_detail(), fixed, &data, [1, 2, 1 << 20]);
    assert_eq!(ok(&items), [true, false]);
}

/// Every length-prefixed framing the driver meets parses as the slice path
/// parses the same bytes — a prefix that lies about a short tail included:
/// the window grows with the bytes that exist, never with the length a
/// header announces.
#[test]
fn length_prefixed_streaming() {
    let wide = [&[0u8; 9][..], &[5], b"abc\0\x01", &[0; 9], &[5], b"xyz\0\x02"].concat();
    let saturates = b"\x01\0\0\0\0\0\0\0\0\x05abc\0\x01";
    let cases: [(&str, usize, Endian, &[u8], usize); 7] = [
        ("two records", 2, Endian::Big, b"\0\x05abc\0\x01\0\x05xyz\0\x02", 2),
        ("little-endian", 2, Endian::Little, b"\x05\0abc\0\x01", 1),
        // 2^56 bytes announced, five present.
        ("lying prefix", 8, Endian::Big, b"\x01\0\0\0\0\0\0\0abc\0\x01", 0),
        ("header wider than a usize", 10, Endian::Big, &wide, 2),
        ("wide header that saturates", 10, Endian::Big, saturates, 0),
        ("header cut short", 4, Endian::Big, &[0, 0], 0),
        ("body cut short", 2, Endian::Big, &[0, 5, b'a'], 0),
    ];
    for (label, header_bytes, endian, data, clean) in cases {
        let lenpfx = (ASCII, RecordDiscipline::LengthPrefixed { header_bytes, endian });
        let items = streamed(&figure1::tagged_count(), lenpfx, data, [1, 6, 1 << 20]);
        let ok = items.iter().filter(|(_, pd)| !pd.err_code.is_error()).count();
        assert_eq!(ok, clean, "{label}: clean records");
    }
}

/// The window is cut at the newline of the parser's charset, so EBCDIC
/// sources stream under every framing: fixed-width, and newline-terminated
/// (EBCDIC LF is 0x25).
#[test]
fn streaming_works_under_ebcdic() {
    let framed: [(RecordDiscipline, &[u8]); 2] = [
        (RecordDiscipline::FixedWidth(5), b"12,ab34,cd"),
        (RecordDiscipline::Newline, b"12,ab\n34,cd\n"),
    ];
    for (discipline, text) in framed {
        let (data, framing) = (figure1::ebcdic(text), (Charset::Ebcdic, discipline));
        let items = streamed(&figure1::ambient_ebcdic(), framing, &data, [1, 3, 1 << 20]);
        assert_eq!(uints(&items, "n"), [Some(12), Some(34)], "{discipline:?}");
    }
}

/// A reader that fails mid-stream is an error, not a panic and not an
/// `IoError` record: the run returns it once the sink holds every record
/// that ended before the failed read — here through the header, whether the
/// failure falls inside a record or right on a boundary, on one thread or
/// two.
#[test]
fn a_failing_reader_is_an_error_after_the_records_before_it() {
    let registry = Registry::standard();
    let schema = descriptions::sirius();
    let shape = SourceShape::infer(&schema).expect("sirius streams");
    let mask = mask();
    let starts: Vec<usize> = [0]
        .into_iter()
        .chain(SIRIUS.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i + 1))
        .collect();
    for fail_at in [0, 1, starts[1], starts[4] - 1, starts[4], starts[4] + 1, SIRIUS.len() - 1] {
        for (jobs, window) in [(1, 1 << 20), (1, 16), (2, 1 << 20), (2, 64)] {
            let parser = PadsParser::new(&schema, &registry);
            let mut sink = Collect::default();
            let job = SourceJob { jobs, max_inflight: 4, ..SourceJob::new(shape, &mask) };
            let reader = FaultReader::new(SIRIUS.to_vec()).with_chunk(7).with_fail_at(fail_at);
            let err = parser.stream_windowed(reader, window, &job, &mut sink).unwrap_err();
            assert_eq!(err.to_string(), "injected fault");
            // The header is the first of the whole lines before the fault.
            let whole = starts.iter().filter(|&&start| 0 < start && start <= fail_at).count();
            let label = format!("fail_at={fail_at} jobs={jobs} window={window}");
            assert_eq!(sink.header.is_some(), whole > 0, "{label}");
            assert_eq!(sink.items.len(), whole.saturating_sub(1), "{label}");
            let mut want = Collect::default();
            parser.stream_source(SIRIUS, &SourceJob::new(shape, &mask), &mut want);
            assert_eq!(sink.items, want.items[..sink.items.len()], "{label}");
        }
    }
}
