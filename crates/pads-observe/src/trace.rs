//! Trace exposition: renders the depth-bounded span tree a tracing
//! [`MetricsCore`] collected — which types were tried, over which byte
//! ranges, and what the recovery machinery did in between — as indented
//! text or JSONL.
//!
//! Union backtracking means failed attempts appear too: a span whose
//! descriptor is not ok is an alternative the engine tried and
//! abandoned, which is precisely the information grammar debugging
//! needs (cf. Saggitarius's "which alternatives were tried" traces).
//!
//! The tree is built in [`pads_runtime::metrics`] on dense node ids; type
//! names are rejoined here, at render time.

use std::fmt::Write as _;

use pads_runtime::metrics::MetricsCore;
pub use pads_runtime::metrics::{TraceNode, TraceSpan};

use crate::util::esc;

/// The nesting depth `pads parse --trace` keeps spans down to.
pub const DEFAULT_DEPTH: usize = 8;

/// The number of spans `pads parse --trace` keeps.
pub const DEFAULT_SPANS: usize = 10_000;

fn name<'c>(core: &'c MetricsCore, span: &TraceSpan) -> &'c str {
    core.type_name(span.id).unwrap_or("?")
}

/// Renders `core`'s trace tree as indented text, one node per line;
/// `None` when the core was not tracing.
pub fn render(core: &MetricsCore) -> Option<String> {
    fn go(core: &MetricsCore, out: &mut String, nodes: &[TraceNode], depth: usize) {
        for node in nodes {
            let pad = "  ".repeat(depth);
            match node {
                TraceNode::Span(s) => {
                    let status = if s.nerr == 0 {
                        "ok".to_owned()
                    } else {
                        format!("FAILED nerr={}", s.nerr)
                    };
                    let _ = writeln!(
                        out,
                        "{pad}{} [{}..{}) {status}",
                        name(core, s),
                        s.start,
                        s.end
                    );
                    go(core, out, &s.children, depth + 1);
                }
                TraceNode::Error { path, code, offset } => {
                    let at = offset.map(|o| format!(" @{o}")).unwrap_or_default();
                    let p = if path.is_empty() {
                        "<root>"
                    } else {
                        path.as_str()
                    };
                    let _ = writeln!(out, "{pad}! {p}: {}{at}", code.name());
                }
                TraceNode::Recovery { event, offset } => {
                    let _ = writeln!(out, "{pad}~ recovery {event:?} @{offset}");
                }
                TraceNode::Record {
                    index,
                    start,
                    end,
                    nerr,
                } => {
                    let _ = writeln!(out, "{pad}= record {index} [{start}..{end}) nerr={nerr}");
                }
            }
        }
    }
    let mut out = String::new();
    go(core, &mut out, core.trace_roots()?, 0);
    if core.trace_truncated() > 0 {
        let _ = writeln!(
            out,
            "({} spans beyond bounds not shown)",
            core.trace_truncated()
        );
    }
    Some(out)
}

/// Dumps `core`'s trace tree as JSONL: one JSON object per node in
/// document order, each carrying its nesting `depth`; `None` when the
/// core was not tracing.
pub fn jsonl(core: &MetricsCore) -> Option<String> {
    fn go(core: &MetricsCore, out: &mut String, nodes: &[TraceNode], depth: usize) {
        for node in nodes {
            match node {
                TraceNode::Span(s) => {
                    let _ = writeln!(
                        out,
                        "{{\"ev\":\"span\",\"name\":\"{}\",\"depth\":{depth},\"start\":{},\"end\":{},\"nerr\":{},\"ok\":{}}}",
                        esc(name(core, s)), s.start, s.end, s.nerr, s.nerr == 0
                    );
                    go(core, out, &s.children, depth + 1);
                }
                TraceNode::Error { path, code, offset } => {
                    let at = offset
                        .map(|o| o.to_string())
                        .unwrap_or_else(|| "null".into());
                    let _ = writeln!(
                        out,
                        "{{\"ev\":\"error\",\"depth\":{depth},\"path\":\"{}\",\"code\":\"{}\",\"offset\":{at}}}",
                        esc(path), code.name()
                    );
                }
                TraceNode::Recovery { event, offset } => {
                    let _ = writeln!(
                        out,
                        "{{\"ev\":\"recovery\",\"depth\":{depth},\"action\":\"{}\",\"offset\":{offset}}}",
                        esc(&format!("{event:?}"))
                    );
                }
                TraceNode::Record {
                    index,
                    start,
                    end,
                    nerr,
                } => {
                    let _ = writeln!(
                        out,
                        "{{\"ev\":\"record\",\"depth\":{depth},\"index\":{index},\"start\":{start},\"end\":{end},\"nerr\":{nerr}}}"
                    );
                }
            }
        }
    }
    let mut out = String::new();
    go(core, &mut out, core.trace_roots()?, 0);
    if core.trace_truncated() > 0 {
        let _ = writeln!(
            out,
            "{{\"ev\":\"truncated\",\"spans\":{}}}",
            core.trace_truncated()
        );
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render() {
        let mut m = MetricsCore::with_names(["outer_t", "inner_t"]).with_trace(8, 100);
        m.enter_id(0, 0);
        m.enter_id(1, 0);
        m.exit_id(1, 0, 4, 0);
        m.note_record(0, 0, 5, 0);
        m.exit_id(0, 0, 5, 0);
        assert_eq!(m.trace_roots().map(<[_]>::len), Some(1));
        let text = render(&m).expect("tracing on");
        assert!(text.contains("outer_t [0..5) ok"), "{text}");
        assert!(text.contains("  inner_t [0..4) ok"), "{text}");
        assert!(text.contains("  = record 0 [0..5) nerr=0"), "{text}");
        let jsonl = jsonl(&m).expect("tracing on");
        assert!(
            jsonl.contains("\"ev\":\"span\",\"name\":\"inner_t\",\"depth\":1"),
            "{jsonl}"
        );
    }

    #[test]
    fn depth_bound_truncates_but_stays_balanced() {
        let mut m = MetricsCore::with_names(["a", "b"]).with_trace(1, 100);
        m.enter_id(0, 0);
        m.enter_id(1, 0); // beyond depth 1 — dropped
        m.exit_id(1, 0, 1, 0);
        m.exit_id(0, 0, 1, 0);
        assert_eq!(m.trace_truncated(), 1);
        assert_eq!(m.trace_roots().map(<[_]>::len), Some(1));
        assert!(render(&m).expect("tracing on").contains("not shown"));
    }

    #[test]
    fn span_cap_stops_recording() {
        let mut m = MetricsCore::with_names(["x"]).with_trace(8, 1);
        for i in 0..3 {
            m.enter_id(0, i);
            m.exit_id(0, i, i + 1, 0);
        }
        assert_eq!(m.trace_roots().map(<[_]>::len), Some(1));
        assert_eq!(m.trace_truncated(), 2);
    }

    #[test]
    fn a_core_that_is_not_tracing_renders_nothing() {
        let m = MetricsCore::with_names(["x"]);
        assert_eq!((render(&m), jsonl(&m)), (None, None));
    }
}
