//! In-memory spans around the harness's calls into each layer.
//!
//! A span is (name, start, end, parent); all spans of one tracer share its
//! workload id. Spans stay in memory until [`Tracer::to_json`] renders
//! them at exit. Self time is a span's duration minus its children's.

use std::time::Instant;

use crate::json;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects the spans of one traced run.
#[derive(Debug)]
pub struct Tracer {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_owned(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span with explicit times; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span { name, start_ns, end_ns, parent });
        self.spans.len() - 1
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        let id = self.record(name, now, now, self.open.last().copied());
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` minus the durations of its children.
    /// [`Tracer::end`] closes spans innermost first, so the children of a
    /// span neither overlap each other nor leave its interval.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::duration_ns).sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// Seconds of every span named `name` whose parent is named `parent`,
    /// in recording order.
    pub fn seconds_of(&self, parent: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| self.spans[p].name == parent))
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }

    /// Total seconds of the direct children of span `id`.
    pub fn children_seconds(&self, id: usize) -> f64 {
        (self.spans[id].duration_ns() - self.self_ns(id)) as f64 / 1e9
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"workload\": ");
        json::push_str(&mut out, &self.workload);
        out.push_str(", \"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!("{{\"id\": {id}, \"name\": "));
            json::push_str(&mut out, s.name);
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                ", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {}}}",
                s.start_ns,
                s.end_ns,
                self.self_ns(id)
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root 0..1000 with children 100..300 and 350..600 and a grandchild
    /// 120..200 under the first child.
    fn hand_built() -> Tracer {
        let mut t = Tracer::new("w");
        let root = t.record("root", 0, 1000, None);
        let a = t.record("a", 100, 300, Some(root));
        t.record("b", 350, 600, Some(root));
        t.record("a.inner", 120, 200, Some(a));
        t
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = hand_built();
        assert_eq!(t.self_ns(0), 1000 - 200 - 250);
        assert_eq!(t.self_ns(1), 200 - 80);
        assert_eq!(t.self_ns(2), 250);
        assert_eq!(t.self_ns(3), 80);
        assert_eq!(t.children_seconds(0), 450e-9);
    }

    #[test]
    fn begin_end_nest_and_render() {
        let mut t = Tracer::new("nest");
        let outer = t.begin("outer");
        t.span("inner", || std::hint::black_box(1 + 1));
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(outer));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.seconds_of("outer", "inner").len(), 1);
        assert_eq!(t.seconds_of("elsewhere", "inner").len(), 0);
        let doc = t.to_json();
        assert!(doc.contains("\"workload\": \"nest\""), "{doc}");
        assert!(doc.contains("\"name\": \"inner\""), "{doc}");
        assert!(doc.contains("\"parent\": 0"), "{doc}");
    }
}
