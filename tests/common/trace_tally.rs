//! An independent reading of an observed run, shared by the equivalence
//! suites (`#[path]`-included, so each test crate compiles its own copy):
//! the counters a [`MetricsCore`] *should* hold, re-derived from nothing but
//! the unbounded trace tree the same core collected. The slabs are bumped
//! on the hot path and the tree is built by the trace attachment, so the two
//! agree only if every event reached both.
#![allow(dead_code)]

use std::collections::BTreeMap;

use pads_runtime::metrics::{MetricsCore, RecoveryEvent, TraceNode, TraceSpan, TypeStat};

/// Every trace bound lifted: the tree then holds the whole event stream.
pub fn unbounded(core: MetricsCore) -> MetricsCore {
    core.with_trace(usize::MAX, usize::MAX)
}

/// Calls `f` on every node of `core`'s trace tree, in document order.
pub fn walk(core: &MetricsCore, f: &mut dyn FnMut(&TraceNode)) {
    fn go(nodes: &[TraceNode], f: &mut dyn FnMut(&TraceNode)) {
        for node in nodes {
            f(node);
            if let TraceNode::Span(span) = node {
                go(&span.children, f);
            }
        }
    }
    go(core.trace_roots().expect("the core was tracing"), f);
}

/// Every span of the tree, by type name, in document order.
pub fn spans(core: &MetricsCore) -> Vec<(&str, &TraceSpan)> {
    fn go<'c>(
        core: &'c MetricsCore,
        nodes: &'c [TraceNode],
        out: &mut Vec<(&'c str, &'c TraceSpan)>,
    ) {
        for node in nodes {
            if let TraceNode::Span(span) = node {
                out.push((
                    core.type_name(span.id).expect("span ids are in the table"),
                    span,
                ));
                go(core, &span.children, out);
            }
        }
    }
    let mut out = Vec::new();
    go(
        core,
        core.trace_roots().expect("the core was tracing"),
        &mut out,
    );
    out
}

/// The deterministic counters of one run, keyed by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Per type name: spans, bytes spanned, errors at exit.
    pub types: BTreeMap<String, TypeStat>,
    /// Per `ErrorCode` name: errors surfaced at record close or the root.
    pub errors_by_code: BTreeMap<&'static str, u64>,
    pub records: u64,
    pub records_with_errors: u64,
    pub record_bytes: u64,
    pub records_skipped: u64,
    pub panic_skip_events: u64,
    pub panic_skipped_bytes: u64,
    /// Per `OnExhausted` mode name: exhaustion transitions.
    pub budget_exhausted: BTreeMap<String, u64>,
}

impl Tally {
    /// What the counter slabs hold.
    pub fn of_counters(core: &MetricsCore) -> Tally {
        Tally {
            types: core
                .sorted_types()
                .into_iter()
                .map(|(n, t)| (n.to_owned(), t))
                .collect(),
            errors_by_code: core.sorted_error_codes().into_iter().collect(),
            records: core.records(),
            records_with_errors: core.records_with_errors(),
            record_bytes: core.record_bytes(),
            records_skipped: core.records_skipped(),
            panic_skip_events: core.panic_skip_events(),
            panic_skipped_bytes: core.panic_skipped_bytes(),
            budget_exhausted: (core.sorted_budget_modes().into_iter())
                .map(|(mode, n)| (mode.to_owned(), n))
                .collect(),
        }
    }

    /// What the trace tree says they should hold.
    pub fn of_trace(core: &MetricsCore) -> Tally {
        let mut t = Tally::default();
        walk(core, &mut |node| match node {
            TraceNode::Span(span) => {
                let name = core.type_name(span.id).expect("span ids are in the table");
                let stat = t.types.entry(name.to_owned()).or_default();
                stat.hits += 1;
                stat.bytes += (span.end - span.start) as u64;
                stat.errors += u64::from(span.nerr);
            }
            TraceNode::Error { code, .. } => *t.errors_by_code.entry(code.name()).or_default() += 1,
            TraceNode::Record {
                start, end, nerr, ..
            } => {
                t.records += 1;
                t.records_with_errors += u64::from(*nerr > 0);
                t.record_bytes += (end - start) as u64;
            }
            TraceNode::Recovery { event, .. } => match event {
                RecoveryEvent::PanicSkip { bytes } => {
                    t.panic_skip_events += 1;
                    t.panic_skipped_bytes += bytes;
                }
                RecoveryEvent::SkipRecord => t.records_skipped += 1,
                RecoveryEvent::BudgetExhausted { mode } => {
                    *t.budget_exhausted.entry(format!("{mode:?}")).or_default() += 1;
                }
            },
        });
        t
    }
}
