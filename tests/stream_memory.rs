//! The source driver keeps one window of input and one record live: the
//! peak heap of a streamed parse does not grow with the number of records,
//! where the whole-tree parse's does — exactly so when the source comes
//! from a reader and was never in memory at all. The generated parsers'
//! arena path allocates (next to) nothing per record at steady state, the
//! XML sink nothing at all, and the name interner grows with the
//! descriptions compiled, never with how often. All are measured with a
//! counting global allocator, which is why these tests have a binary to
//! themselves and take turns (`SERIAL`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pads::generated::{clf, sirius};
use pads::{
    descriptions, BaseMask, Charset, Cursor, ErrorBudget, Mask, PadsParser, ParseDesc,
    Pos, Progress, RecordSink, Registry, SourceFold, SourceJob, SourceShape, Value, Verifier,
    Writer,
};
use pads_runtime::{Name, ValueArena};

/// Forwards to the system allocator, tracking live bytes, their peak, and
/// the number of allocations (the growth half of `realloc` included).
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// The counters are the process's: one test measures at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn grew(by: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live bytes above what was live when `f` started.
fn peak_of(f: impl FnOnce()) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - before
}

/// An output that keeps nothing: it counts the newlines written to it.
struct LineCount(usize);

impl std::io::Write for LineCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.iter().filter(|&&b| b == b'\n').count();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn corpus(records: usize) -> Vec<u8> {
    let cfg = pads_gen::SiriusConfig { records, ..Default::default() };
    pads_gen::sirius::generate(&cfg).0
}

#[test]
fn streamed_peak_heap_is_flat_in_the_record_count() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let registry = Registry::standard();
    let schema = descriptions::sirius();
    let shape = SourceShape::infer(&schema).expect("sirius streams");
    let mask = Mask::all(BaseMask::CheckAndSet);
    let parser = PadsParser::new(&schema, &registry);
    let (small, large) = (corpus(2_000), corpus(20_000));

    let streamed = |data: &[u8], records: usize| {
        peak_of(|| {
            let mut fold = SourceFold::new(&schema);
            let end = parser.stream_source(data, &SourceJob::new(shape, &mask), &mut fold);
            assert_eq!(fold.len(), records);
            assert!(end.at_eof);
        })
    };
    // Warm whatever the first parse allocates once (regex cache, names).
    streamed(&small, 2_000);
    let (at_2k, at_20k) = (streamed(&small, 2_000), streamed(&large, 20_000));
    // The window, one record's tree and the report's first few errors: the
    // largest record of the longer corpus may be a little bigger, nothing
    // more.
    assert!(
        at_20k <= at_2k + 16 * 1024,
        "streamed peak grew with the record count: {at_2k} B at 2 000, {at_20k} B at 20 000"
    );

    // The formatting program writes each line as its record arrives.
    let formatted = |data: &[u8], records: usize| {
        peak_of(|| {
            let mut lines = LineCount(0);
            let fmt = pads_tools::Formatter::new(&["|"]);
            let mut sink = pads_tools::FormatSink::new(fmt, &mut lines);
            parser.stream_source(data, &SourceJob::new(shape, &mask), &mut sink);
            sink.finish().expect("counting cannot fail");
            assert_eq!(lines.0, records);
        })
    };
    formatted(&small, 2_000);
    let (fmt_2k, fmt_20k) = (formatted(&small, 2_000), formatted(&large, 20_000));
    assert!(
        fmt_20k <= fmt_2k + 16 * 1024,
        "formatting peak grew with the record count: {fmt_2k} B at 2 000, {fmt_20k} B at 20 000"
    );

    // The probe does see a tree that is held: the whole-source value is
    // far above the window and one record.
    let whole = peak_of(|| drop(parser.parse_source(&large, &mask)));
    assert!(whole > 50 * at_20k, "whole-tree peak {whole} B vs streamed {at_20k} B");
}

/// A source of `times` × `piece` that is never in memory: the reader hands
/// the same piece out again and again, and allocates nothing.
struct Repeat<'a> {
    piece: &'a [u8],
    at: usize,
    times: usize,
}

impl std::io::Read for Repeat<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.at == self.piece.len() && self.times > 0 {
            (self.at, self.times) = (0, self.times - 1);
        }
        let n = buf.len().min(if self.times == 0 { 0 } else { self.piece.len() - self.at });
        buf[..n].copy_from_slice(&self.piece[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// Memory is flat in the length of the source, window included: a run over
/// 40 000 CLF records from a reader peaks where a run over 10 000 does on
/// one thread — to the byte, but for what the test harness's own threads
/// allocate meanwhile, a line of output at most — and within one worker's
/// chunk buffers of it on two (how many of those are full at once is the
/// scheduler's choice).
#[test]
fn a_reader_fed_run_peaks_the_same_at_four_times_the_length() {
    const PIECES: usize = 10;
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let registry = Registry::standard();
    let schema = descriptions::clf();
    let shape = SourceShape::infer(&schema).expect("clf streams");
    let mask = Mask::all(BaseMask::CheckAndSet);
    let parser = PadsParser::new(&schema, &registry);
    let cfg = pads_gen::ClfConfig { records: 1_000, ..Default::default() };
    let piece = pads_gen::clf::generate(&cfg).0;
    for (jobs, max_inflight, allowance) in [(1, 1024, 4 * 1024), (2, 64, 64 * 4 * 1024)] {
        let peak = |pieces: usize| {
            peak_of(|| {
                let mut fold = SourceFold::new(&schema);
                let job = SourceJob { jobs, max_inflight, ..SourceJob::new(shape, &mask) };
                let reader = Repeat { piece: &piece, at: 0, times: pieces };
                let end = parser.stream_reader(reader, &job, &mut fold).expect("reads succeed");
                assert_eq!((fold.len(), end.at_eof), (pieces * 1_000, true));
            })
        };
        // Warm whatever the first parse allocates once.
        peak(1);
        let (at_n, at_4n) = (peak(PIECES), peak(4 * PIECES));
        println!("jobs={jobs}: peak {at_n} B at N, {at_4n} B at 4 N");
        assert!(at_n >= 1 << 20, "jobs={jobs}: the window is on this heap, peak {at_n} B");
        assert!(
            at_4n <= at_n + allowance,
            "jobs={jobs}: peak live heap {at_n} B at N, {at_4n} B at 4 N"
        );
    }
}

/// Allocations per record of `pass` at steady state: a first pass grows
/// every reusable buffer, the second, identical one is counted. Counts are
/// exact, so one measured pass is enough.
fn steady_allocs_per_record(name: &str, mut pass: impl FnMut() -> usize) -> f64 {
    let records = pass();
    let before = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(pass(), records, "{name}: passes parsed different record counts");
    let per_record = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / records as f64;
    println!("{name:<22} {per_record:>10.3} allocs/record  ({records} records)");
    per_record
}

/// One pass over `data`: `record` parses the record at the cursor, until
/// none is left. Returns how many there were.
fn read_records<'d>(data: &'d [u8], mut record: impl FnMut(&mut Cursor<'d>)) -> usize {
    let mut cur = Cursor::new(data);
    let mut records = 0;
    while !cur.at_eof() {
        record(&mut cur);
        records += 1;
    }
    records
}

/// The allocation ceilings of the generated parsers' arena path: at most
/// 2.0 allocations per record on clean CLF (string leaves borrow: exactly
/// 0) and clean Sirius (`Vec` growth of the variable-length event array:
/// about 1.7), and on CLF at least 10 times fewer than the interpreter's
/// owned `Value` trees. These rows leave with `ValueArena`.
#[test]
fn arena_path_allocates_next_to_nothing_per_record() {
    const RECORDS: usize = 10_000;
    const MAX_PER_RECORD: f64 = 2.0;
    const MIN_RATIO: f64 = 10.0;
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let registry = Registry::standard();
    let mask = Mask::all(BaseMask::CheckAndSet);
    let (clf_data, _) = pads_gen::clf::generate(&pads_gen::ClfConfig {
        records: RECORDS,
        dash_length_rate: 0.0,
        ..Default::default()
    });
    let (sirius_data, _) = pads_gen::sirius::generate(&pads_gen::SiriusConfig {
        records: RECORDS,
        syntax_errors: 0,
        sort_violations: 0,
        ..Default::default()
    });
    let header = sirius_data.iter().position(|&b| b == b'\n').map_or(0, |p| p + 1);
    let sirius_body = &sirius_data[header..];

    let clf_schema = descriptions::clf();
    let interpreter = PadsParser::new(&clf_schema, &registry);
    let owned = steady_allocs_per_record("clf_interpreted", || {
        interpreter.records(&clf_data, "entry_t", &mask).count()
    });
    // A generated `read` lowered into an arena that is reset per record:
    // typed values borrow their strings from the buffer and the arena's
    // stores keep their capacity.
    let mut arena = ValueArena::new();
    let clf_arena = steady_allocs_per_record("clf_arena", || {
        read_records(&clf_data, |cur| {
            let (v, _) = clf::EntryT::read(cur, &mask);
            arena.reset();
            let _ = v.to_arena(&mut arena);
        })
    });
    let mut arena = ValueArena::new();
    let sirius_arena = steady_allocs_per_record("sirius_arena", || {
        read_records(sirius_body, |cur| {
            let (v, _) = sirius::EntryT::read(cur, &mask);
            arena.reset();
            let _ = v.to_arena(&mut arena);
        })
    });

    assert!(clf_arena <= MAX_PER_RECORD, "clf_arena allocates {clf_arena:.3}/record");
    assert!(sirius_arena <= MAX_PER_RECORD, "sirius_arena allocates {sirius_arena:.3}/record");
    assert!(
        owned >= MIN_RATIO * clf_arena,
        "clf arena path allocates {clf_arena:.3}/record against {owned:.3} for owned trees: \
         less than {MIN_RATIO} times fewer"
    );
}

/// The XML sink renders into one reused byte buffer: once a first pass has
/// grown it, a second pass of clean CLF records through
/// `XmlSourceSink::record` allocates nothing at all.
#[test]
fn xml_sink_allocates_nothing_per_clean_record() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let registry = Registry::standard();
    let schema = descriptions::clf();
    let mask = Mask::all(BaseMask::CheckAndSet);
    let (data, _) = pads_gen::clf::generate(&pads_gen::ClfConfig {
        records: 2_000,
        dash_length_rate: 0.0,
        ..Default::default()
    });
    let parser = PadsParser::new(&schema, &registry);
    let parsed: Vec<(Value, ParseDesc)> = parser.records(&data, "entry_t", &mask).collect();
    assert!(parsed.iter().all(|(_, pd)| pd.is_ok()), "the corpus is clean");
    let progress = Progress { record: 0, end: Pos::default(), budget: ErrorBudget::new() };
    let mut sink = pads_tools::XmlSourceSink::new(&schema, std::io::sink());
    let per_record = steady_allocs_per_record("xml_sink", || {
        for (i, (value, pd)) in parsed.iter().enumerate() {
            sink.record(i, value, pd, &progress);
        }
        parsed.len()
    });
    assert_eq!(per_record, 0.0, "the XML sink allocates {per_record:.3}/record");
}

/// Names are interned when a parser, VM program, verifier or writer is
/// built, each distinct text once per process: compiling the three bundled
/// descriptions and building all four 1 000 times leaves the interner
/// where the first time left it.
#[test]
fn recompiling_leaves_the_name_interner_as_one_compile_left_it() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let registry = Registry::standard();
    let build = || {
        for schema in [descriptions::clf(), descriptions::sirius(), descriptions::mixed()] {
            drop(PadsParser::new(&schema, &registry));
            drop(pads::vm::compile(&schema, &registry, Charset::Ascii));
            drop(Verifier::new(&schema));
            drop(Writer::new(&schema, &registry));
        }
    };
    build();
    let once = Name::interned();
    for _ in 1..1_000 {
        build();
    }
    assert_eq!(Name::interned(), once, "interned names after 1 000 compiles vs one");
}
