//! Parallel record-sharded parsing for the interpreter and the VM.
//!
//! This is the runtime engines' front-end to [`pads_runtime::par::drive`]:
//! the source is cut into small record-aligned chunks, worker threads —
//! each with a thread-local [`PadsParser`] — take neighbouring chunks and
//! parse them into buffers they own, and every filled chunk crosses to the
//! in-order merge as one message. The output — values, parse descriptors
//! (in whole-source coordinates), and the [`ErrorBudget`] — is
//! byte-identical to [`PadsParser::records`] run sequentially, under every
//! recovery policy; see the determinism notes on [`pads_runtime::par`].
//!
//! The chunk is what bounds memory and enables durability: a worker holds
//! at most `max_inflight` records ahead of the merge, and
//! [`PadsParser::records_par_stream`] lends every chunk to the consumer the
//! moment its turn comes, each record with a [`Progress`](par::Progress)
//! cursor (committed offset, record index, budget), so a checkpoint journal
//! can commit during the run instead of after it, and a later run can
//! continue from such a checkpoint by passing it as the [`ResumePoint`].
//! What the consumer leaves in the chunk goes back to the worker that
//! parsed it and is dropped there.
//!
//! Observation is per-worker: `records_par_stream` takes a *factory* that
//! builds one [`MetricsHandle`] per worker thread — the handle never
//! crosses threads; the `Send`-able
//! [`MetricsCore`](pads_runtime::MetricsCore) behind it does — plus a
//! harvest closure drained once per chunk, whose deltas reach the consumer
//! in merge order, each with the chunk it covers, for the caller to fold
//! together.

use pads_runtime::par::{self, Job};
use pads_runtime::{
    ErrorBudget, Mask, MetricsHandle, Parsed, ResumePoint, DEFAULT_MAX_INFLIGHT,
};

use crate::parse::{PadsParser, ParseOptions};
use crate::value::Value;

impl<'s> PadsParser<'s> {
    /// Parses `data` record-at-a-time with the named record type on up to
    /// `jobs` worker threads, folding the merged stream straight into a
    /// columnar [`RecordBatch`](crate::batch::RecordBatch): the close path
    /// (report, accumulators, writers) reads contiguous columns, and row
    /// `i` reconstructs exactly what [`PadsParser::records`] yields at
    /// index `i`. Returns the batch and the final error-budget tally.
    ///
    /// `jobs <= 1` *is* the sequential path. The parser's own metrics core
    /// is not carried into workers (handles are not `Send`) — use
    /// [`records_par_stream`](Self::records_par_stream) to observe a
    /// parallel parse.
    pub fn records_par_batched(
        &self,
        data: &[u8],
        name: &str,
        mask: &Mask,
        jobs: usize,
    ) -> (crate::batch::RecordBatch, ErrorBudget) {
        let mut batch = crate::batch::RecordBatch::new();
        let budget = self.records_par_stream(
            data,
            name,
            mask,
            jobs,
            DEFAULT_MAX_INFLIGHT,
            ResumePoint::default(),
            None::<&Unobserved>,
            |chunk, _harvest| chunk.iter().for_each(|parsed| batch.push(&parsed.item, &parsed.pd)),
        );
        (batch, budget)
    }

    /// The streaming sharded engine: parses `data` from `resume` (global
    /// source coordinates; [`ResumePoint::default`] for the start) on up
    /// to `jobs` workers, bounding each worker's lead over the in-order
    /// merge to `max_inflight` records, and lends every merged chunk to
    /// `consume` exactly once, in record order: the chunk's records, each
    /// with its [`Progress`](par::Progress) cursor in **global**
    /// coordinates — the committed byte offset, record index, and budget
    /// tally after that record, i.e. exactly what a checkpoint journal
    /// commits — and the observer harvest over exactly those records (when
    /// `observer` is given). `consume` reads the records in place, or
    /// drains the ones it keeps.
    ///
    /// Each worker thread (and the sequential-replay path, if taken) gets
    /// its own observation from the `observer` factory: the core to
    /// attach plus a closure that drains what it accumulated since the
    /// previous call (cores are plain data and cross threads; handles do
    /// not). It is called once per chunk, and a chunk is merged
    /// whole or replayed whole, so the harvests fold exactly in record
    /// order even when the merge diverts to sequential replay.
    ///
    /// Returns the final budget tally.
    #[allow(clippy::too_many_arguments)]
    pub fn records_par_stream<E, F, C>(
        &self,
        data: &[u8],
        name: &str,
        mask: &Mask,
        jobs: usize,
        max_inflight: usize,
        resume: ResumePoint,
        observer: Option<&F>,
        consume: C,
    ) -> ErrorBudget
    where
        E: Send,
        F: Fn() -> (MetricsHandle, Box<dyn FnMut() -> E>) + Sync,
        C: FnMut(&mut Vec<Parsed<Value>>, Option<E>),
    {
        let schema = self.schema();
        let registry = self.registry();
        let options = self.options();
        let job = Job {
            data,
            discipline: options.discipline,
            charset: options.charset,
            policy: options.policy,
            // Unknown names poison the iterator with a single error item,
            // which has no per-shard meaning: let one sequential "shard"
            // handle it.
            jobs: if schema.type_id(name).is_some() { jobs } else { 1 },
            max_inflight,
            resume,
        };
        // Harvest closures are not `Send`, so each reader's thread builds
        // its own parser and observation, and drains it after every chunk.
        let open = |slice, policy, start| {
            let mut parser =
                PadsParser::new(schema, registry).with_options(ParseOptions { policy, ..options });
            let mut harvest = None;
            if let Some(factory) = observer {
                let (core, h) = factory();
                parser = parser.with_metrics(core);
                harvest = Some(h);
            }
            (parser.into_records(slice, name, mask, start), move || harvest.as_mut().map(|h| h()))
        };
        par::drive(&job, open, consume)
    }
}

/// Type-anchoring alias for calls that pass no observer factory.
pub(crate) type Unobserved = fn() -> (MetricsHandle, Box<dyn FnMut()>);
