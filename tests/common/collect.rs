//! The collecting sink of the equivalence suites (`#[path]`-included, so
//! each test crate compiles its own copy) — everything
//! [`PadsParser::stream_source`] delivers, kept — and the two helpers every
//! observed run of theirs starts and ends with.
#![allow(dead_code)]

use pads::{
    ErrorBudget, Mask, PadsParser, ParseDesc, Progress, RecordSink, ResumePoint, SourceEnd,
    SourceJob, SourceShape, Value,
};
use pads_runtime::MetricsHandle;

/// `parser` with a counting core over its own type table attached.
pub fn metered(parser: PadsParser<'_>) -> (PadsParser<'_>, MetricsHandle) {
    let core = parser.metrics_core().into_handle();
    (parser.with_metrics(core.clone()), core)
}

/// The deterministic counters `core` holds, as the golden-snapshot JSON.
pub fn counts_json(core: &MetricsHandle) -> String {
    pads_observe::metrics::counts_json(&core.borrow())
}

/// The header, if the source has one, and every record, each with the
/// progress it arrived with, and how many times the driver said the attached
/// core was exact.
#[derive(Default)]
pub struct Collect {
    pub header: Option<(Value, ParseDesc, Progress)>,
    pub items: Vec<(Value, ParseDesc)>,
    pub progress: Vec<Progress>,
    pub observed: usize,
}

impl RecordSink for Collect {
    fn header(&mut self, value: Value, pd: ParseDesc, progress: &Progress) -> bool {
        self.header = Some((value, pd, *progress));
        true
    }

    fn record(&mut self, index: usize, value: &Value, pd: &ParseDesc, progress: &Progress) {
        assert_eq!(index, self.items.len(), "indices are dense and in record order");
        self.items.push((value.clone(), pd.clone()));
        self.progress.push(*progress);
    }

    fn observed(&mut self) {
        self.observed += 1;
    }
}

/// A headerless source of `record`s streamed from `resume` on up to `jobs`
/// threads with `max_inflight` records in flight.
pub fn stream(
    parser: &PadsParser<'_>,
    data: &[u8],
    record: &str,
    mask: &Mask,
    geometry: (usize, usize),
    resume: ResumePoint,
) -> (Collect, ErrorBudget) {
    let mut sink = Collect::default();
    let shape = SourceShape::records(record);
    let end = stream_into(parser, data, shape, mask, geometry, resume, &mut sink);
    (sink, end.budget)
}

/// A source of `shape` streamed into `sink` from `resume`, in a `(jobs,
/// max_inflight)` geometry.
pub fn stream_into(
    parser: &PadsParser<'_>,
    data: &[u8],
    shape: SourceShape<'_>,
    mask: &Mask,
    (jobs, max_inflight): (usize, usize),
    resume: ResumePoint,
    sink: &mut impl RecordSink,
) -> SourceEnd {
    let job = SourceJob { start: resume, jobs, max_inflight, ..SourceJob::new(shape, mask) };
    parser.stream_source(data, &job, sink)
}
