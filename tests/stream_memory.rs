//! The source driver keeps one record live: the peak heap of a streamed
//! parse does not grow with the number of records, where the whole-tree
//! parse's does. Measured with a counting global allocator, which is why
//! this test has a binary to itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pads::{
    descriptions, BaseMask, Mask, PadsParser, ParseOptions, Registry, SourceFold, SourceJob,
    SourceShape,
};

/// Forwards to the system allocator, tracking live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
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
    let registry = Registry::standard();
    let schema = descriptions::sirius();
    let shape = SourceShape::infer(&schema).expect("sirius streams");
    let mask = Mask::all(BaseMask::CheckAndSet);
    let options = ParseOptions::default();
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
    // One record's tree plus the report's first few errors: the largest
    // record of the longer corpus may be a little bigger, nothing more.
    assert!(
        at_20k <= at_2k + 16 * 1024,
        "streamed peak grew with the record count: {at_2k} B at 2 000, {at_20k} B at 20 000"
    );

    // The formatting program writes each line as its record arrives.
    let formatted = |data: &[u8], records: usize| {
        peak_of(|| {
            let fmt = pads_tools::Formatter::new(&["|"]);
            let mut lines = LineCount(0);
            pads_tools::format_source(&schema, &registry, options, &shape, data, &fmt, &mut lines)
                .expect("counting cannot fail");
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
    // two orders of magnitude above one record.
    let whole = peak_of(|| drop(parser.parse_source(&large, &mask)));
    assert!(whole > 100 * at_20k, "whole-tree peak {whole} B vs streamed {at_20k} B");
}
