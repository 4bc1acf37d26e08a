//! The collecting sink of the driver suites (`#[path]`-included, so each
//! test crate compiles its own copy): everything
//! [`PadsParser::stream_source`] delivers, kept.
#![allow(dead_code)]

use pads::{PadsParser, ParseDesc, Progress, RecordSink, Value};
use pads_runtime::MetricsHandle;

/// `parser` with a counting core over its own type table attached.
pub fn metered(parser: PadsParser<'_>) -> (PadsParser<'_>, MetricsHandle) {
    let core = parser.metrics_core().into_handle();
    (parser.with_metrics(core.clone()), core)
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
