//! A sharded parse into a [`RecordBatch`]: the pinned
//! [`PadsParser::records_par_batched`] shim over the source driver.
//!
//! Sharding itself — chunks, workers, the in-order merge, per-worker
//! observation — is [`PadsParser::stream_source`] over
//! [`pads_runtime::par::drive`]; see the determinism notes on
//! [`pads_runtime::par`].

use pads_runtime::par::Progress;
use pads_runtime::{ErrorBudget, Mask, ParseDesc};

use crate::batch::RecordBatch;
use crate::parse::PadsParser;
use crate::source::{RecordSink, SourceJob, SourceShape};
use crate::value::Value;

/// A batch is a sink of the source driver: every record becomes a row.
impl RecordSink for RecordBatch {
    fn record(&mut self, _index: usize, value: &Value, pd: &ParseDesc, _progress: &Progress) {
        self.push(value, pd);
    }
}

impl<'s> PadsParser<'s> {
    /// Parses `data` record-at-a-time with the named record type on up to
    /// `jobs` worker threads, pushing the merged stream into a
    /// [`RecordBatch`] whose row `i` reconstructs exactly what
    /// [`PadsParser::records`] yields at index `i`. Returns the batch and
    /// the final error-budget tally. No CLI path calls it; it is pinned
    /// for the benchmark's layer timings.
    pub fn records_par_batched(
        &self,
        data: &[u8],
        name: &str,
        mask: &Mask,
        jobs: usize,
    ) -> (RecordBatch, ErrorBudget) {
        let mut batch = RecordBatch::new();
        let job = SourceJob { jobs, ..SourceJob::new(SourceShape::records(name), mask) };
        let end = self.stream_source(data, &job, &mut batch);
        (batch, end.budget)
    }
}
