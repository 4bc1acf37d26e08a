//! The dense-ID observability core: flat, `Send`-able parse counters.
//!
//! A name-keyed event stream costs a string lookup per event — 40–50% on
//! generated parsers when this was a `BTreeMap<String, TypeStat>` behind a
//! trait object. This module pre-resolves the lookups the way the ASF+SDF
//! compiler resolves interpreted names: a per-schema [`ObsSchema`] interning table
//! assigns each named type a dense `u32` node id once, the hot path bumps
//! flat `Vec`-indexed slabs by id, and names are rejoined only at
//! exposition time.
//!
//! [`MetricsCore`] is a plain struct and is `Send`: one core per worker
//! shard crosses threads freely, and the shard merge folds them in order
//! ([`MetricsCore::merge`] is exact and order-independent for counters).
//! The `Rc<RefCell<..>>` only appears in [`MetricsHandle`], the thin
//! single-threaded adapter a [`Cursor`](crate::io::Cursor) holds — the one
//! observation attachment there is. Both engines feed it through the
//! cursor, and record boundaries, errors and recovery actions are emitted
//! from the shared budget-accounting path, so every engine produces the
//! same events for the same input.
//!
//! Two opt-in attachments ride on the same dense ids and the same hooks:
//! a per-schema-node cost profiler ([`MetricsCore::with_profile`]: byte
//! attribution per node, self vs cumulative and recursion-safe, error
//! density, batched-clock time sampling, folded-stack output for
//! `inferno` / flamegraph tooling) and a bounded span-tree trace
//! ([`MetricsCore::with_trace`]: which types were tried over which byte
//! ranges, failed union branches included, and what the recovery
//! machinery did in between). Either one needs the full enter/exit event
//! stream, so engines stand down their event-eliding fast paths while it
//! is on.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use crate::error::ErrorCode;
use crate::recovery::OnExhausted;
use crate::summary::{Histogram, Quantiles};

/// Number of error-code slots in the dense per-code counter slab.
const NCODES: usize = ErrorCode::ALL.len();

/// Records per wall-clock sample in the latency path (one clock read per
/// batch, the batch mean credited to each record in it).
const LATENCY_BATCH: u32 = 64;

/// Enter/exit events per clock read in the profiler's time sampler.
const PROFILE_TICK_EVERY: u32 = 1024;

/// Version tag leading a [`MetricsCore::snapshot`] payload. Kept at the
/// value the pre-dense `MetricsSink` codec used: the byte format is
/// unchanged, so journals written before the dense core restore here.
const SNAPSHOT_VERSION: u8 = 1;

/// A shared, single-threaded handle to a [`MetricsCore`], as attached to
/// a [`Cursor`](crate::io::Cursor). The core itself is `Send`; the handle
/// is the non-`Send` adapter for the one thread driving a parse.
pub type MetricsHandle = Rc<RefCell<MetricsCore>>;

/// A recovery action taken by the error-budget machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// Panic-mode resynchronisation discarded `bytes` bytes to reach the
    /// record boundary.
    PanicSkip {
        /// Bytes discarded between the failure point and the boundary.
        bytes: u64,
    },
    /// A whole record was framed and skipped without parsing
    /// ([`OnExhausted::SkipRecord`]).
    SkipRecord,
    /// The error budget just transitioned to exhausted under `mode`.
    BudgetExhausted {
        /// The degradation mode now in force.
        mode: OnExhausted,
    },
}

/// Per-type aggregate: how often a named type parsed and how many bytes
/// and errors its parses covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TypeStat {
    /// Completed parses of the type (failed attempts included).
    pub hits: u64,
    /// Total bytes spanned by those parses.
    pub bytes: u64,
    /// Total descriptor errors reported at those parses' exits.
    pub errors: u64,
}

/// The per-schema interning table mapping named types to dense node ids.
///
/// Built once — from the checked schema's type list (interpreter) or a
/// generated module's static `OBS_TYPES` table — so ids coincide with the
/// engine's own type indices and the hot path never touches a string.
/// [`MetricsCore::merge`] and [`MetricsCore::restore`] intern further
/// names as they meet them.
#[derive(Debug, Clone, Default)]
pub struct ObsSchema {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

impl ObsSchema {
    /// Builds the table from a schema's type names, in id order.
    pub fn from_names<I, S>(names: I) -> ObsSchema
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut s = ObsSchema::default();
        for n in names {
            s.intern(n.as_ref());
        }
        s
    }

    /// The id for `name`, interning it if new.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// The name for `id`, if assigned.
    pub fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no names are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// The `Send`-able aggregation core behind every observation surface:
/// flat dense-id counter slabs plus latency summaries, an optional
/// per-node cost profiler and an optional span-tree trace.
///
/// Counters are exact and deterministic for a given input; timings
/// (latency, the throughput clock) are wall-clock state and are excluded
/// from [`snapshot`](Self::snapshot) and from merge folding.
#[derive(Debug, Clone)]
pub struct MetricsCore {
    schema: ObsSchema,
    /// Whether incoming dense ids index `nodes` directly: true for cores
    /// built from an engine's own name table
    /// ([`with_names`](Self::with_names)). A core whose table came from
    /// anywhere else ([`new`](Self::new), [`restore`](Self::restore)) is
    /// in some other order, so it counts records, errors and recovery
    /// but drops type events rather than misattribute them — fold it into
    /// a `with_names` core with [`merge`](Self::merge) instead.
    trust_ids: bool,
    nodes: Vec<TypeStat>,
    errors_by_code: Vec<u64>,
    errors_total: u64,
    records: u64,
    records_with_errors: u64,
    records_skipped: u64,
    record_bytes: u64,
    panic_skip_events: u64,
    panic_skipped_bytes: u64,
    /// Indexed by [`budget_mode_index`]: Stop, SkipRecord, BestEffort.
    budget_exhausted: [u64; 3],
    start: Instant,
    last_record: Instant,
    latency_us: Histogram,
    latency_q: Quantiles,
    /// Records closed since the last latency sample was taken.
    batch_pending: u32,
    profile: Option<Box<ProfileCore>>,
    trace: Option<Box<TraceCore>>,
}

fn budget_mode_index(mode: OnExhausted) -> usize {
    match mode {
        OnExhausted::Stop => 0,
        OnExhausted::SkipRecord => 1,
        OnExhausted::BestEffort => 2,
    }
}

fn budget_mode_name(index: usize) -> &'static str {
    ["Stop", "SkipRecord", "BestEffort"][index]
}

impl Default for MetricsCore {
    fn default() -> MetricsCore {
        MetricsCore::new()
    }
}

impl MetricsCore {
    /// Creates an empty core with no type table; the throughput clock
    /// starts now. It is a merge target and the zero of a fold — to
    /// observe a parse, attach a [`with_names`](Self::with_names) core.
    pub fn new() -> MetricsCore {
        let now = Instant::now();
        MetricsCore {
            schema: ObsSchema::default(),
            trust_ids: false,
            nodes: Vec::new(),
            errors_by_code: vec![0; NCODES],
            errors_total: 0,
            records: 0,
            records_with_errors: 0,
            records_skipped: 0,
            record_bytes: 0,
            panic_skip_events: 0,
            panic_skipped_bytes: 0,
            budget_exhausted: [0; 3],
            start: now,
            last_record: now,
            latency_us: Histogram::new(32),
            latency_q: Quantiles::new(1024, 42),
            batch_pending: 0,
            profile: None,
            trace: None,
        }
    }

    /// Creates a core whose node table is pre-built from `names` in id
    /// order — the schema's type list, or a generated module's
    /// `OBS_TYPES`. Dense ids emitted by the matching engine then index
    /// the counter slab directly, with no string work per event.
    pub fn with_names<I, S>(names: I) -> MetricsCore
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut m = MetricsCore::new();
        m.schema = ObsSchema::from_names(names);
        m.nodes = vec![TypeStat::default(); m.schema.len()];
        m.trust_ids = true;
        m
    }

    /// Enables the per-node cost profiler (byte attribution, folded
    /// stacks, sampled time). Profiling needs the full enter/exit event
    /// stream, so engines disable event-eliding fast paths when it is on.
    pub fn with_profile(mut self) -> MetricsCore {
        self.profile = Some(Box::default());
        self
    }

    /// Enables the span-tree trace, keeping spans down to `max_depth`
    /// nesting levels and at most `max_spans` spans overall; deeper or
    /// later spans are counted ([`trace_truncated`](Self::trace_truncated))
    /// but not stored. Like the profiler, the trace needs the full
    /// enter/exit event stream.
    pub fn with_trace(mut self, max_depth: usize, max_spans: usize) -> MetricsCore {
        self.trace = Some(Box::new(TraceCore::new(max_depth, max_spans)));
        self
    }

    /// Whether the profiler or the trace is collecting, i.e. whether
    /// engines must emit every enter/exit event rather than feed the
    /// counters from their fast paths.
    pub fn wants_events(&self) -> bool {
        self.profile.is_some() || self.trace.is_some()
    }

    /// Wraps this core in a [`MetricsHandle`] for attachment to a cursor.
    pub fn into_handle(self) -> MetricsHandle {
        Rc::new(RefCell::new(self))
    }

    /// Whether `id` names a slot of this core's own table. An id from
    /// some other table — out of range, or any id at all on a core not
    /// built by [`with_names`](Self::with_names) — is never attributed.
    #[inline]
    fn owns(&self, id: u32) -> bool {
        self.trust_ids && (id as usize) < self.nodes.len()
    }

    /// A named type's parse began at `offset` — only the profiler and the
    /// trace care. The cursor skips the call entirely when neither is on.
    #[inline]
    pub fn enter_id(&mut self, id: u32, offset: usize) {
        if !self.owns(id) {
            return;
        }
        if let Some(p) = &mut self.profile {
            p.enter(id, offset);
        }
        if let Some(t) = &mut self.trace {
            t.enter(id, offset);
        }
    }

    /// A named type's parse finished: `[start_off, end_off)` with `nerr`
    /// descriptor errors. The dense hot path — one slab bump, kept small
    /// so it inlines into the generated call sites; the profiler's and the
    /// trace's frame pops are outlined.
    #[inline(always)]
    pub fn exit_id(&mut self, id: u32, start_off: usize, end_off: usize, nerr: u32) {
        if !self.owns(id) {
            return;
        }
        let t = &mut self.nodes[id as usize];
        t.hits = t.hits.saturating_add(1);
        t.bytes = t.bytes.saturating_add(end_off.saturating_sub(start_off) as u64);
        t.errors = t.errors.saturating_add(u64::from(nerr));
        if self.wants_events() {
            self.exit_events(id, end_off, nerr);
        }
    }

    #[inline(never)]
    fn exit_events(&mut self, id: u32, end_off: usize, nerr: u32) {
        if let Some(p) = &mut self.profile {
            p.exit(id, end_off, nerr);
        }
        if let Some(t) = &mut self.trace {
            t.exit(end_off, nerr);
        }
    }

    /// Counts one descriptor error, by dense code index.
    #[inline]
    pub fn note_error(&mut self, code: ErrorCode) {
        self.errors_total = self.errors_total.saturating_add(1);
        if let Some(n) = self.errors_by_code.get_mut(code as usize) {
            *n = n.saturating_add(1);
        }
    }

    /// Counts one descriptor error and, while tracing, records where it
    /// was: the dotted field path within the record type (`""` for a
    /// source-level root error) and the start offset of its location.
    /// Callers build paths only when [`tracing`](Self::tracing) says so
    /// and use [`note_error`](Self::note_error) otherwise.
    pub fn note_error_at(&mut self, path: &str, code: ErrorCode, offset: Option<usize>) {
        self.note_error(code);
        if let Some(t) = &mut self.trace {
            t.push(TraceNode::Error { path: path.to_owned(), code, offset });
        }
    }

    /// Whether the span-tree trace is collecting.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Counts one recovery event, completed at byte `offset`.
    pub fn note_recovery(&mut self, event: RecoveryEvent, offset: usize) {
        match event {
            RecoveryEvent::PanicSkip { bytes } => {
                self.panic_skip_events = self.panic_skip_events.saturating_add(1);
                self.panic_skipped_bytes = self.panic_skipped_bytes.saturating_add(bytes);
            }
            RecoveryEvent::SkipRecord => {
                self.records_skipped = self.records_skipped.saturating_add(1);
            }
            RecoveryEvent::BudgetExhausted { mode } => {
                let n = &mut self.budget_exhausted[budget_mode_index(mode)];
                *n = n.saturating_add(1);
            }
        }
        if let Some(t) = &mut self.trace {
            t.push(TraceNode::Recovery { event, offset });
        }
    }

    /// Closes record `index`, spanning `[start, end)` with `nerr` errors:
    /// throughput counters plus the batched-clock latency sample.
    pub fn note_record(&mut self, index: usize, start: usize, end: usize, nerr: u32) {
        self.records = self.records.saturating_add(1);
        if nerr > 0 {
            self.records_with_errors = self.records_with_errors.saturating_add(1);
        }
        self.record_bytes = self.record_bytes.saturating_add(end.saturating_sub(start) as u64);
        if let Some(t) = &mut self.trace {
            t.push(TraceNode::Record { index, start, end, nerr });
        }
        // Batched latency sampling: one clock read per LATENCY_BATCH
        // records, with the batch's mean credited to each record in it —
        // a single weighted add per summary, not LATENCY_BATCH bucket
        // searches and reservoir draws.
        self.batch_pending += 1;
        if self.batch_pending >= LATENCY_BATCH {
            let now = Instant::now();
            let us = now.duration_since(self.last_record).as_secs_f64() * 1e6
                / f64::from(self.batch_pending);
            self.last_record = now;
            self.latency_us.add_n(us, u64::from(self.batch_pending));
            self.latency_q.add_n(us, u64::from(self.batch_pending));
            self.batch_pending = 0;
        }
    }

    // ---- accessors -----------------------------------------------------

    /// Records closed (skipped records included).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Records closed with at least one error.
    pub fn records_with_errors(&self) -> u64 {
        self.records_with_errors
    }

    /// Records skipped wholesale by the budget machinery.
    pub fn records_skipped(&self) -> u64 {
        self.records_skipped
    }

    /// Total bytes covered by closed records.
    pub fn record_bytes(&self) -> u64 {
        self.record_bytes
    }

    /// Total descriptor errors observed.
    pub fn errors_total(&self) -> u64 {
        self.errors_total
    }

    /// Panic-mode resynchronisation events.
    pub fn panic_skip_events(&self) -> u64 {
        self.panic_skip_events
    }

    /// Total bytes discarded by panic-mode resynchronisation.
    pub fn panic_skipped_bytes(&self) -> u64 {
        self.panic_skipped_bytes
    }

    /// Seconds since the core's throughput clock started.
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Per-type aggregates with at least one event, sorted by name —
    /// exactly the entries the old name-keyed map would have held.
    pub fn sorted_types(&self) -> Vec<(&str, TypeStat)> {
        let mut out: Vec<(&str, TypeStat)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, t)| t.hits != 0 || t.bytes != 0 || t.errors != 0)
            .filter_map(|(i, t)| self.schema.name(i as u32).map(|n| (n, *t)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Nonzero error counts as `(variant name, count)`, sorted by name.
    pub fn sorted_error_codes(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = ErrorCode::ALL
            .iter()
            .filter_map(|&c| {
                let n = *self.errors_by_code.get(c as usize)?;
                (n != 0).then(|| (c.name(), n))
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Nonzero budget-exhaustion transitions as `(mode name, count)`,
    /// sorted by name.
    pub fn sorted_budget_modes(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = self
            .budget_exhausted
            .iter()
            .enumerate()
            .filter(|(_, &n)| n != 0)
            .map(|(i, &n)| (budget_mode_name(i), n))
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Estimated `q`-quantile of per-record latency, in microseconds.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.latency_q.quantile(q)
    }

    /// Records counted by the latency summary (sampled plus the tail of
    /// the current batch).
    pub fn latency_count(&self) -> u64 {
        self.latency_q.count() + u64::from(self.batch_pending)
    }

    // ---- merge / drain / snapshot --------------------------------------

    /// Folds another core's deterministic counters into this one — the
    /// merge step of a parallel record-sharded parse, where each worker
    /// thread aggregates into its own core. The fold is keyed by *name*,
    /// so cores built over differently-ordered (or restored)
    /// tables merge exactly; counter merging is order-independent.
    /// Latency summaries are wall-clock samples of the worker's cadence
    /// and are deliberately not folded in.
    pub fn merge(&mut self, other: &MetricsCore) {
        for (i, t) in other.nodes.iter().enumerate() {
            if t.hits == 0 && t.bytes == 0 && t.errors == 0 {
                continue;
            }
            if let Some(name) = other.schema.name(i as u32) {
                let idx = self.schema.intern(name) as usize;
                if idx >= self.nodes.len() {
                    self.nodes.resize(idx + 1, TypeStat::default());
                }
                let e = &mut self.nodes[idx];
                e.hits = e.hits.saturating_add(t.hits);
                e.bytes = e.bytes.saturating_add(t.bytes);
                e.errors = e.errors.saturating_add(t.errors);
            }
        }
        for (i, &n) in other.errors_by_code.iter().enumerate() {
            if let Some(e) = self.errors_by_code.get_mut(i) {
                *e = e.saturating_add(n);
            }
        }
        self.errors_total = self.errors_total.saturating_add(other.errors_total);
        self.records = self.records.saturating_add(other.records);
        self.records_with_errors =
            self.records_with_errors.saturating_add(other.records_with_errors);
        self.records_skipped = self.records_skipped.saturating_add(other.records_skipped);
        self.record_bytes = self.record_bytes.saturating_add(other.record_bytes);
        self.panic_skip_events = self.panic_skip_events.saturating_add(other.panic_skip_events);
        self.panic_skipped_bytes =
            self.panic_skipped_bytes.saturating_add(other.panic_skipped_bytes);
        for (e, &n) in self.budget_exhausted.iter_mut().zip(&other.budget_exhausted) {
            *e = e.saturating_add(n);
        }
    }

    /// Takes the accumulated counters out as a delta core, zeroing this
    /// one in place while *keeping* its interning table (and id trust) —
    /// the per-record harvest step of the parallel path, where the same
    /// worker core keeps collecting after each drain.
    pub fn drain(&mut self) -> MetricsCore {
        let mut delta = MetricsCore::new();
        delta.schema = self.schema.clone();
        delta.trust_ids = self.trust_ids;
        delta.nodes = std::mem::take(&mut self.nodes);
        self.nodes = vec![TypeStat::default(); delta.nodes.len()];
        delta.errors_by_code = std::mem::replace(&mut self.errors_by_code, vec![0; NCODES]);
        delta.errors_total = std::mem::take(&mut self.errors_total);
        delta.records = std::mem::take(&mut self.records);
        delta.records_with_errors = std::mem::take(&mut self.records_with_errors);
        delta.records_skipped = std::mem::take(&mut self.records_skipped);
        delta.record_bytes = std::mem::take(&mut self.record_bytes);
        delta.panic_skip_events = std::mem::take(&mut self.panic_skip_events);
        delta.panic_skipped_bytes = std::mem::take(&mut self.panic_skipped_bytes);
        delta.budget_exhausted = std::mem::take(&mut self.budget_exhausted);
        // Latency state stays with the live core (wall-clock cadence of
        // this worker); the delta carries counters only, like `snapshot`.
        delta
    }

    /// Serialises the deterministic counters to a compact binary payload
    /// for embedding in a checkpoint journal frame. The byte format is
    /// the original `MetricsSink` codec, unchanged: version tag, seven
    /// scalar counters, then name-sorted (string, count) sections for
    /// error codes, budget modes, and per-type stats — zero entries are
    /// skipped, exactly as the name-keyed maps only held touched keys.
    /// Timings are wall-clock state of *this* process and are excluded:
    /// a restored core reproduces the counters exactly and starts its
    /// clocks fresh.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut o = Vec::new();
        o.push(SNAPSHOT_VERSION);
        for v in [
            self.records,
            self.records_with_errors,
            self.records_skipped,
            self.record_bytes,
            self.errors_total,
            self.panic_skip_events,
            self.panic_skipped_bytes,
        ] {
            o.extend_from_slice(&v.to_le_bytes());
        }
        let put_str = |o: &mut Vec<u8>, s: &str| {
            o.extend_from_slice(&(s.len() as u16).to_le_bytes());
            o.extend_from_slice(s.as_bytes());
        };
        let codes = self.sorted_error_codes();
        o.extend_from_slice(&(codes.len() as u32).to_le_bytes());
        for (code, n) in codes {
            put_str(&mut o, code);
            o.extend_from_slice(&n.to_le_bytes());
        }
        let modes = self.sorted_budget_modes();
        o.extend_from_slice(&(modes.len() as u32).to_le_bytes());
        for (mode, n) in modes {
            put_str(&mut o, mode);
            o.extend_from_slice(&n.to_le_bytes());
        }
        let types = self.sorted_types();
        o.extend_from_slice(&(types.len() as u32).to_le_bytes());
        for (name, t) in types {
            put_str(&mut o, name);
            o.extend_from_slice(&t.hits.to_le_bytes());
            o.extend_from_slice(&t.bytes.to_le_bytes());
            o.extend_from_slice(&t.errors.to_le_bytes());
        }
        o
    }

    /// Rebuilds a core from a [`snapshot`](Self::snapshot) payload.
    /// Returns `None` on a malformed or wrong-version payload. Error-code
    /// keys that no longer name an [`ErrorCode`] variant are dropped
    /// (their counts stay in `errors_total` — forward compatibility with
    /// journals written by newer code); timings start fresh.
    pub fn restore(bytes: &[u8]) -> Option<MetricsCore> {
        let mut r = Reader { bytes, pos: 0 };
        if r.u8()? != SNAPSHOT_VERSION {
            return None;
        }
        let mut m = MetricsCore::new();
        m.records = r.u64()?;
        m.records_with_errors = r.u64()?;
        m.records_skipped = r.u64()?;
        m.record_bytes = r.u64()?;
        m.errors_total = r.u64()?;
        m.panic_skip_events = r.u64()?;
        m.panic_skipped_bytes = r.u64()?;
        for _ in 0..r.u32()? {
            let name = r.str()?;
            let n = r.u64()?;
            if let Some(code) = ErrorCode::from_name(&name) {
                if let Some(e) = m.errors_by_code.get_mut(code as usize) {
                    *e = e.saturating_add(n);
                }
            }
        }
        for _ in 0..r.u32()? {
            let name = r.str()?;
            let n = r.u64()?;
            let idx = match name.as_str() {
                "Stop" => 0,
                "SkipRecord" => 1,
                "BestEffort" => 2,
                _ => continue,
            };
            m.budget_exhausted[idx] = m.budget_exhausted[idx].saturating_add(n);
        }
        for _ in 0..r.u32()? {
            let name = r.str()?;
            let t = TypeStat { hits: r.u64()?, bytes: r.u64()?, errors: r.u64()? };
            let idx = m.schema.intern(&name) as usize;
            if idx >= m.nodes.len() {
                m.nodes.resize(idx + 1, TypeStat::default());
            }
            let e = &mut m.nodes[idx];
            e.hits = e.hits.saturating_add(t.hits);
            e.bytes = e.bytes.saturating_add(t.bytes);
            e.errors = e.errors.saturating_add(t.errors);
        }
        if r.pos != r.bytes.len() {
            return None;
        }
        Some(m)
    }

    // ---- profiler output ------------------------------------------------

    /// The per-node cost table, or `None` when profiling was off. The
    /// byte columns are deterministic for a given input; pass
    /// `with_times` to append the sampled (wall-clock, approximate) time
    /// column.
    pub fn profile_table(&self, with_times: bool) -> Option<String> {
        let p = self.profile.as_ref()?;
        let mut rows: Vec<(&str, &ProfNode)> = p
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.hits != 0)
            .filter_map(|(i, n)| self.schema.name(i as u32).map(|s| (s, n)))
            .collect();
        rows.sort_by(|a, b| b.1.cum_bytes.cmp(&a.1.cum_bytes).then(a.0.cmp(b.0)));
        let total_self: u64 = rows.iter().map(|(_, n)| n.self_bytes).sum();
        let denom = total_self.max(1) as f64;
        let total_ns: u64 = rows.iter().map(|(_, n)| n.self_ns).sum();
        let mut o = String::new();
        let _ = writeln!(
            o,
            "{:<24} {:>10} {:>12} {:>6} {:>12} {:>6} {:>8} {:>8}{}",
            "node",
            "hits",
            "cum_bytes",
            "cum%",
            "self_bytes",
            "self%",
            "errors",
            "err/hit",
            if with_times { "  ~self_time" } else { "" },
        );
        for (name, n) in rows {
            let err_rate = n.errors as f64 / n.hits.max(1) as f64;
            let _ = write!(
                o,
                "{:<24} {:>10} {:>12} {:>5.1}% {:>12} {:>5.1}% {:>8} {:>8.3}",
                name,
                n.hits,
                n.cum_bytes,
                n.cum_bytes as f64 * 100.0 / denom,
                n.self_bytes,
                n.self_bytes as f64 * 100.0 / denom,
                n.errors,
                err_rate,
            );
            if with_times {
                let share = if total_ns > 0 {
                    n.self_ns as f64 * 100.0 / total_ns as f64
                } else {
                    0.0
                };
                let _ = write!(o, "  {:>9.1}ms {share:>5.1}%", n.self_ns as f64 / 1e6);
            }
            o.push('\n');
        }
        Some(o)
    }

    /// Folded-stack lines (`root;child;leaf self_bytes`), one per
    /// distinct node path, sorted — the input format `inferno` and other
    /// flamegraph tools consume. Weights are self-attributed bytes, so
    /// the output is deterministic for a given input. `None` when
    /// profiling was off.
    pub fn profile_folded(&self) -> Option<String> {
        let p = self.profile.as_ref()?;
        let mut lines: Vec<String> = p
            .folded
            .iter()
            .map(|(path, &bytes)| {
                let names: Vec<&str> = path
                    .iter()
                    .map(|&id| self.schema.name(id).unwrap_or("?"))
                    .collect();
                format!("{} {bytes}", names.join(";"))
            })
            .collect();
        lines.sort();
        let mut o = lines.join("\n");
        if !o.is_empty() {
            o.push('\n');
        }
        Some(o)
    }

    // ---- trace output ----------------------------------------------------

    /// The trace tree's top-level nodes, in document order (spans still
    /// open are not included), or `None` when tracing was off. Spans
    /// carry dense node ids; [`type_name`](Self::type_name) resolves them
    /// at render time.
    pub fn trace_roots(&self) -> Option<&[TraceNode]> {
        self.trace.as_ref().map(|t| t.roots.as_slice())
    }

    /// Spans the trace dropped because of its depth/size bounds.
    pub fn trace_truncated(&self) -> u64 {
        self.trace.as_ref().map_or(0, |t| t.truncated)
    }

    /// The type name behind a dense node id.
    pub fn type_name(&self, id: u32) -> Option<&str> {
        self.schema.name(id)
    }
}

/// The opt-in per-schema-node cost profiler riding on the dense ids:
/// an explicit enter/exit stack attributing bytes to nodes (self vs
/// cumulative, recursion-safe via per-node active depth counts), folded
/// stack paths, and a batched-clock time sampler (one `Instant` read per
/// [`PROFILE_TICK_EVERY`] events, credited to the node on top of the
/// stack — an event-driven sampling profiler).
#[derive(Debug, Clone, Default)]
struct ProfileCore {
    stack: Vec<Frame>,
    nodes: Vec<ProfNode>,
    /// Self-bytes per distinct node path (ids root-first).
    folded: HashMap<Vec<u32>, u64>,
    events: u32,
    last_tick: Option<Instant>,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    id: u32,
    start: usize,
    child_bytes: u64,
}

/// Per-node profile aggregate.
#[derive(Debug, Clone, Copy, Default)]
struct ProfNode {
    hits: u64,
    errors: u64,
    /// Bytes spanned by outermost parses of the node (recursion counted
    /// once).
    cum_bytes: u64,
    /// Bytes spanned minus bytes attributed to named children.
    self_bytes: u64,
    /// Open frames of this node (recursion depth).
    active: u32,
    /// Sampled wall-clock self time.
    self_ns: u64,
}

impl ProfileCore {
    fn node_mut(&mut self, id: u32) -> &mut ProfNode {
        let idx = id as usize;
        if idx >= self.nodes.len() {
            self.nodes.resize(idx + 1, ProfNode::default());
        }
        &mut self.nodes[idx]
    }

    fn tick(&mut self) {
        self.events += 1;
        if self.events < PROFILE_TICK_EVERY {
            return;
        }
        self.events = 0;
        let now = Instant::now();
        if let (Some(last), Some(top)) = (self.last_tick, self.stack.last()) {
            let dt = now.duration_since(last).as_nanos() as u64;
            let id = top.id;
            let n = self.node_mut(id);
            n.self_ns = n.self_ns.saturating_add(dt);
        }
        self.last_tick = Some(now);
    }

    fn enter(&mut self, id: u32, offset: usize) {
        self.node_mut(id).active += 1;
        self.stack.push(Frame { id, start: offset, child_bytes: 0 });
        self.tick();
    }

    fn exit(&mut self, id: u32, end: usize, nerr: u32) {
        // Events are strictly nested by construction; an unmatched exit
        // (API misuse) is dropped rather than corrupting the stack.
        if self.stack.last().is_none_or(|f| f.id != id) {
            return;
        }
        let Some(frame) = self.stack.pop() else { return };
        let span = end.saturating_sub(frame.start) as u64;
        let self_bytes = span.saturating_sub(frame.child_bytes);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_bytes = parent.child_bytes.saturating_add(span);
        }
        let mut path: Vec<u32> = self.stack.iter().map(|f| f.id).collect();
        path.push(id);
        let cell = self.folded.entry(path).or_insert(0);
        *cell = cell.saturating_add(self_bytes);
        let n = self.node_mut(id);
        n.hits = n.hits.saturating_add(1);
        n.errors = n.errors.saturating_add(u64::from(nerr));
        n.self_bytes = n.self_bytes.saturating_add(self_bytes);
        n.active = n.active.saturating_sub(1);
        if n.active == 0 {
            n.cum_bytes = n.cum_bytes.saturating_add(span);
        }
        self.tick();
    }
}

/// One node of the trace tree, in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceNode {
    /// A completed type parse and everything observed inside it.
    Span(TraceSpan),
    /// A descriptor error surfaced at record close (or a source-level
    /// root error).
    Error {
        /// Dotted field path within the record type (`""` at the root).
        path: String,
        /// The error code.
        code: ErrorCode,
        /// Error location start offset, when the descriptor recorded one.
        offset: Option<usize>,
    },
    /// A recovery action.
    Recovery {
        /// What the budget machinery did.
        event: RecoveryEvent,
        /// Byte offset where the action completed.
        offset: usize,
    },
    /// A record boundary.
    Record {
        /// Zero-based record index.
        index: usize,
        /// First byte of the record.
        start: usize,
        /// One past the last byte of the record.
        end: usize,
        /// Errors charged to the record.
        nerr: u32,
    },
}

/// A completed type parse: byte range, outcome, and children. A span with
/// errors inside a union is an alternative the engine tried and abandoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Dense node id of the type parsed.
    pub id: u32,
    /// Byte offset where the parse began.
    pub start: usize,
    /// Byte offset where the parse ended.
    pub end: usize,
    /// Errors in the final descriptor (zero: the parse was ok).
    pub nerr: u32,
    /// Nested events, in order.
    pub children: Vec<TraceNode>,
}

/// The opt-in span-tree builder riding on the dense ids: a depth- and
/// size-bounded tree of type parses with the record, error and recovery
/// events that happened inside them.
#[derive(Debug, Clone)]
struct TraceCore {
    max_depth: usize,
    max_spans: usize,
    total_spans: usize,
    truncated: u64,
    /// Entered, not yet exited. `None` marks an unrecorded frame — beyond
    /// the depth/span bounds — kept only so enter/exit stay balanced.
    stack: Vec<Option<TraceSpan>>,
    roots: Vec<TraceNode>,
}

impl TraceCore {
    fn new(max_depth: usize, max_spans: usize) -> TraceCore {
        TraceCore {
            max_depth: max_depth.max(1),
            max_spans,
            total_spans: 0,
            truncated: 0,
            stack: Vec::new(),
            roots: Vec::new(),
        }
    }

    /// Attaches `node` to the innermost recorded open span, or the roots.
    fn push(&mut self, node: TraceNode) {
        match self.stack.iter_mut().rev().flatten().next() {
            Some(span) => span.children.push(node),
            None => self.roots.push(node),
        }
    }

    fn enter(&mut self, id: u32, offset: usize) {
        let parent_recorded = self.stack.last().is_none_or(Option::is_some);
        let record = parent_recorded
            && self.stack.len() < self.max_depth
            && self.total_spans < self.max_spans;
        if record {
            self.total_spans += 1;
        } else {
            self.truncated += 1;
        }
        self.stack.push(record.then(|| TraceSpan {
            id,
            start: offset,
            end: offset,
            nerr: 0,
            children: Vec::new(),
        }));
    }

    fn exit(&mut self, end: usize, nerr: u32) {
        if let Some(Some(mut span)) = self.stack.pop() {
            span.end = end;
            span.nerr = nerr;
            self.push(TraceNode::Span(span));
        }
    }
}

/// Bounds-checked little-endian reader over a snapshot payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)?.try_into().ok().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)?.try_into().ok().map(u64::from_le_bytes)
    }

    fn str(&mut self) -> Option<String> {
        let len = self.take(2)?.try_into().ok().map(u16::from_le_bytes)?;
        let s = self.take(len as usize)?;
        String::from_utf8(s.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compile-time assertion: `MetricsCore` crosses threads (one core
    /// per worker shard, merged in shard order).
    #[test]
    fn metrics_core_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<MetricsCore>();
        assert_send::<ObsSchema>();
        assert_send::<TypeStat>();
    }

    /// The dense error-code slab indexes by discriminant: `ALL` must be
    /// in declaration order so `code as usize` round-trips.
    #[test]
    fn error_code_discriminants_index_all() {
        for (i, &c) in ErrorCode::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?}");
        }
        assert_eq!(NCODES, ErrorCode::ALL.len());
    }

    #[test]
    fn dense_ids_and_interning_agree() {
        // Fed by id, or grown name by name through `merge`'s interning —
        // in another order — a core holds the same per-type stats.
        let mut dense = MetricsCore::with_names(["a_t", "b_t"]);
        dense.exit_id(1, 0, 4, 0);
        dense.exit_id(0, 4, 6, 1);
        let mut b_only = MetricsCore::with_names(["b_t"]);
        b_only.exit_id(0, 0, 4, 0);
        let mut a_only = MetricsCore::with_names(["a_t"]);
        a_only.exit_id(0, 4, 6, 1);
        let mut interned = MetricsCore::new();
        interned.merge(&b_only);
        interned.merge(&a_only);
        assert_eq!(dense.sorted_types(), interned.sorted_types());
    }

    #[test]
    fn ids_from_another_table_are_never_attributed() {
        // A core with no engine's table (new, restored) cannot tell which
        // type an id means: it drops type events and keeps the rest.
        let mut m = MetricsCore::new();
        m.exit_id(0, 0, 3, 0);
        m.note_record(0, 0, 3, 0);
        assert!(m.sorted_types().is_empty());
        assert_eq!(m.records(), 1);
        let mut restored = MetricsCore::restore(&{
            let mut src = MetricsCore::with_names(["b_t", "a_t"]);
            src.exit_id(0, 0, 4, 0);
            src.snapshot()
        })
        .expect("restores");
        restored.exit_id(0, 0, 9, 0);
        assert_eq!(restored.sorted_types(), [("b_t", TypeStat { hits: 1, bytes: 4, errors: 0 })]);
        // An out-of-range id on a trusted core is dropped, not resized for.
        let mut dense = MetricsCore::with_names(["only_t"]).with_profile().with_trace(8, 100);
        dense.enter_id(7, 0);
        dense.exit_id(7, 0, 5, 1);
        assert!(dense.sorted_types().is_empty());
        assert_eq!(dense.trace_roots(), Some(&[][..]));
    }

    #[test]
    fn drain_keeps_schema_and_zeroes_counters() {
        let mut m = MetricsCore::with_names(["t"]);
        m.exit_id(0, 0, 4, 0);
        m.note_record(0, 0, 4, 0);
        let delta = m.drain();
        assert_eq!(delta.records(), 1);
        assert_eq!(delta.sorted_types()[0].1.bytes, 4);
        assert_eq!(m.records(), 0);
        assert!(m.sorted_types().is_empty());
        // Ids still resolve densely after the drain.
        m.exit_id(0, 4, 8, 0);
        assert_eq!(m.sorted_types()[0].1.bytes, 4);
    }

    #[test]
    fn merge_is_name_keyed_across_different_orders() {
        let mut a = MetricsCore::with_names(["x_t", "y_t"]);
        a.exit_id(0, 0, 2, 0);
        let mut b = MetricsCore::with_names(["y_t", "x_t"]);
        b.exit_id(1, 0, 3, 1);
        b.exit_id(0, 3, 4, 0);
        a.merge(&b);
        let types = a.sorted_types();
        assert_eq!(types[0], ("x_t", TypeStat { hits: 2, bytes: 5, errors: 1 }));
        assert_eq!(types[1], ("y_t", TypeStat { hits: 1, bytes: 1, errors: 0 }));
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut a = MetricsCore::with_names(["t"]);
        a.exit_id(0, 0, usize::MAX - 1, 0);
        let mut b = MetricsCore::with_names(["t"]);
        b.exit_id(0, 0, 5, 0);
        a.merge(&b);
        assert_eq!(a.sorted_types()[0].1.bytes, u64::MAX);
        a.exit_id(0, 0, 9, 0);
        assert_eq!(a.sorted_types()[0].1.bytes, u64::MAX);
    }

    #[test]
    fn snapshot_roundtrips_through_restore() {
        let mut m = MetricsCore::with_names(["b_t", "a_t"]);
        m.exit_id(0, 0, 4, 0);
        m.exit_id(1, 4, 6, 1);
        m.note_error(ErrorCode::LitMismatch);
        m.note_recovery(RecoveryEvent::PanicSkip { bytes: 7 }, 6);
        m.note_recovery(RecoveryEvent::BudgetExhausted { mode: OnExhausted::Stop }, 6);
        m.note_record(0, 0, 6, 1);
        let r = MetricsCore::restore(&m.snapshot()).expect("roundtrips");
        assert_eq!(r.sorted_types(), m.sorted_types());
        assert_eq!(r.sorted_error_codes(), m.sorted_error_codes());
        assert_eq!(r.sorted_budget_modes(), m.sorted_budget_modes());
        assert_eq!(r.records(), m.records());
        assert_eq!(r.panic_skipped_bytes(), 7);
    }

    #[test]
    fn profile_attributes_self_and_cumulative_bytes() {
        let mut m = MetricsCore::with_names(["rec_t", "field_t"]).with_profile();
        // rec_t spans [0, 10); field_t spans [2, 6) inside it.
        m.enter_id(0, 0);
        m.enter_id(1, 2);
        m.exit_id(1, 2, 6, 0);
        m.exit_id(0, 0, 10, 0);
        let table = m.profile_table(false).expect("profiling on");
        assert!(table.contains("rec_t"), "{table}");
        let folded = m.profile_folded().expect("profiling on");
        // rec_t self = 10 - 4 (child) = 6; field_t self = 4.
        assert!(folded.contains("rec_t 6"), "{folded}");
        assert!(folded.contains("rec_t;field_t 4"), "{folded}");
    }

    #[test]
    fn profile_is_recursion_safe() {
        let mut m = MetricsCore::with_names(["list_t"]).with_profile();
        // list_t parses itself recursively: [0, 8) containing [2, 8).
        m.enter_id(0, 0);
        m.enter_id(0, 2);
        m.exit_id(0, 2, 8, 0);
        m.exit_id(0, 0, 8, 0);
        let table = m.profile_table(false).expect("profiling on");
        // Cumulative counts the outermost span once, not 8 + 6.
        let row = table.lines().find(|l| l.starts_with("list_t")).expect("row");
        assert!(row.contains(" 8 "), "{row}");
        let folded = m.profile_folded().expect("profiling on");
        assert!(folded.contains("list_t;list_t 6"), "{folded}");
    }

    #[test]
    fn profile_folded_is_deterministic() {
        let run = || {
            let mut m = MetricsCore::with_names(["a", "b"]).with_profile();
            for i in 0..100usize {
                m.enter_id(0, i * 10);
                m.enter_id(1, i * 10 + 1);
                m.exit_id(1, i * 10 + 1, i * 10 + 4, 0);
                m.exit_id(0, i * 10, (i + 1) * 10, 0);
                m.note_record(i, i * 10, (i + 1) * 10, 0);
            }
            (m.profile_folded().expect("on"), m.profile_table(false).expect("on"))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_nests_events_under_the_innermost_recorded_span() {
        let mut m = MetricsCore::with_names(["outer_t", "inner_t"]).with_trace(1, 100);
        m.enter_id(0, 0);
        m.enter_id(1, 0); // beyond depth 1: counted, not stored
        m.note_error_at("f", ErrorCode::LitMismatch, Some(2));
        m.exit_id(1, 0, 4, 1);
        m.note_record(0, 0, 5, 1);
        m.exit_id(0, 0, 5, 1);
        assert_eq!(m.trace_truncated(), 1);
        let [TraceNode::Span(outer)] = m.trace_roots().expect("tracing on") else {
            panic!("one root span");
        };
        assert_eq!((outer.id, outer.start, outer.end, outer.nerr), (0, 0, 5, 1));
        assert_eq!(
            outer.children,
            [
                TraceNode::Error {
                    path: "f".into(),
                    code: ErrorCode::LitMismatch,
                    offset: Some(2),
                },
                TraceNode::Record { index: 0, start: 0, end: 5, nerr: 1 },
            ]
        );
        // The counters saw the same events.
        assert_eq!((m.errors_total(), m.records()), (1, 1));
    }

    #[test]
    fn latency_counts_every_record() {
        let mut m = MetricsCore::new();
        for i in 0..(LATENCY_BATCH as usize * 2 + 5) {
            m.note_record(i, 0, 1, 0);
        }
        assert_eq!(m.latency_count(), u64::from(LATENCY_BATCH) * 2 + 5);
        assert_eq!(m.latency_q.count(), u64::from(LATENCY_BATCH) * 2);
    }
}
