//! Accumulators: per-type statistical profiles (§5.2 of the paper).
//!
//! For every type in a description an accumulator tracks the number of good
//! values, the number of bad values, and the distribution of legal values —
//! by default the first 1000 distinct values, reporting the top 10. The
//! report format follows the paper's `<top>.length` sample closely,
//! including the `tracked %` line and the `SUMMING` row.

use std::collections::HashMap;

use pads::{PdKind, Prim, Progress, RecordSink, Schema, Value};
use pads_check::ir::{MemberIr, TypeId, TypeKind, TyUse};
use pads_runtime::ParseDesc;

use crate::summary::{Histogram, Quantiles};

/// Accumulator construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccConfig {
    /// Distinct values tracked per field (paper default: 1000).
    pub tracked: usize,
    /// Top values printed per field (paper default: 10).
    pub top_k: usize,
    /// When set, numeric leaves also maintain the §9 small-space summaries:
    /// `(histogram_buckets, quantile_sample_size)`.
    pub summaries: Option<(usize, usize)>,
}

impl Default for AccConfig {
    fn default() -> AccConfig {
        AccConfig { tracked: DEFAULT_TRACKED, top_k: DEFAULT_TOP, summaries: None }
    }
}

/// Default number of distinct values tracked per field.
pub const DEFAULT_TRACKED: usize = 1000;
/// Default number of top values printed per field.
pub const DEFAULT_TOP: usize = 10;

/// Numeric running statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NumStats {
    /// Smallest good value.
    pub min: f64,
    /// Largest good value.
    pub max: f64,
    /// Sum of good values.
    pub sum: f64,
    /// Number of good values folded in.
    pub count: u64,
}

impl NumStats {
    fn add(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.sum += v;
        self.count += 1;
    }

    /// Mean of the folded values.
    pub fn avg(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Statistics for one base-type (or enum/union-tag/array-length) node.
#[derive(Debug, Clone)]
pub struct BaseAcc {
    /// Values whose subtree parsed without error.
    pub good: u64,
    /// Values whose subtree contained at least one error.
    pub bad: u64,
    /// Numeric stats, when the values are numeric.
    pub num: NumStats,
    tracked: HashMap<String, u64>,
    tracked_count: u64,
    limit: usize,
    type_label: String,
    summary: Option<Box<(Histogram, Quantiles)>>,
}

impl BaseAcc {
    fn new(cfg: &AccConfig, type_label: impl Into<String>) -> BaseAcc {
        BaseAcc {
            good: 0,
            bad: 0,
            num: NumStats::default(),
            tracked: HashMap::new(),
            tracked_count: 0,
            limit: cfg.tracked,
            type_label: type_label.into(),
            summary: cfg
                .summaries
                .map(|(bins, cap)| Box::new((Histogram::new(bins), Quantiles::new(cap, 0x5EED)))),
        }
    }

    /// The §9 histogram summary, when enabled and the field is numeric.
    pub fn histogram(&self) -> Option<&Histogram> {
        self.summary.as_ref().map(|s| &s.0)
    }

    /// The §9 quantile summary, when enabled and the field is numeric.
    pub fn quantiles(&self) -> Option<&Quantiles> {
        self.summary.as_ref().map(|s| &s.1)
    }

    fn add_good(&mut self, rendered: String, numeric: Option<f64>) {
        self.good += 1;
        if let Some(v) = numeric {
            self.num.add(v);
            if let Some(s) = &mut self.summary {
                s.0.add(v);
                s.1.add(v);
            }
        }
        if let Some(count) = self.tracked.get_mut(&rendered) {
            *count += 1;
            self.tracked_count += 1;
        } else if self.tracked.len() < self.limit {
            self.tracked.insert(rendered, 1);
            self.tracked_count += 1;
        }
    }

    fn add_bad(&mut self) {
        self.bad += 1;
    }

    /// Fraction of values that were bad, as a percentage.
    pub fn pcnt_bad(&self) -> f64 {
        let total = self.good + self.bad;
        if total == 0 {
            0.0
        } else {
            self.bad as f64 * 100.0 / total as f64
        }
    }

    /// Number of distinct values tracked.
    pub fn distinct(&self) -> usize {
        self.tracked.len()
    }

    /// The `k` most frequent tracked values, most frequent first (ties
    /// broken by value for determinism).
    pub fn top(&self, k: usize) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> = self.tracked.iter().map(|(s, &c)| (s.as_str(), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v.truncate(k);
        v
    }

    fn report(&self, path: &str, top_k: usize, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(out, "{path} : {}", self.type_label);
        let _ = writeln!(out, "+++++++++++++++++++++++++++++++++++++++++++");
        let _ = writeln!(
            out,
            "good: {} bad: {} pcnt-bad: {:.3}",
            self.good,
            self.bad,
            self.pcnt_bad()
        );
        if self.num.count > 0 {
            let _ = writeln!(
                out,
                "min: {} max: {} avg: {:.3}",
                fmt_num(self.num.min),
                fmt_num(self.num.max),
                self.num.avg()
            );
            if let Some(s) = &self.summary {
                if let (Some(p25), Some(p50), Some(p75), Some(p95)) = (
                    s.1.quantile(0.25),
                    s.1.quantile(0.5),
                    s.1.quantile(0.75),
                    s.1.quantile(0.95),
                ) {
                    let _ = writeln!(
                        out,
                        "p25: {} p50: {} p75: {} p95: {}",
                        fmt_num(p25),
                        fmt_num(p50),
                        fmt_num(p75),
                        fmt_num(p95)
                    );
                }
                out.push_str(&s.0.render());
            }
        }
        let top = self.top(top_k);
        let _ = writeln!(
            out,
            "top {} values out of {} distinct values:",
            top.len(),
            self.distinct()
        );
        if self.good > 0 {
            let _ = writeln!(
                out,
                "tracked {:.3}% of values",
                self.tracked_count as f64 * 100.0 / self.good as f64
            );
        }
        let mut summing = 0u64;
        for (val, count) in &top {
            summing += count;
            let _ = writeln!(
                out,
                " val: {:>12} count: {:>8} %-of-good: {:.3}",
                val,
                count,
                *count as f64 * 100.0 / self.good.max(1) as f64
            );
        }
        let _ = writeln!(out, " . . . . . . . . . . . . . . . . . . . . . .");
        let _ = writeln!(
            out,
            " SUMMING count: {:>8} %-of-good: {:.3}",
            summing,
            summing as f64 * 100.0 / self.good.max(1) as f64
        );
        let _ = writeln!(out);
    }
}

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// One node of the accumulator tree.
#[derive(Debug, Clone)]
enum Node {
    Base(BaseAcc),
    Struct { fields: Vec<(String, Node)> },
    Union { tag: BaseAcc, branches: Vec<(String, Node)> },
    Array { length: BaseAcc, elem: Box<Node> },
    Enum(BaseAcc),
    Opt { presence: BaseAcc, inner: Box<Node> },
    Typedef(Box<Node>),
}

/// A structure-mirroring statistical accumulator for one described type.
///
/// # Examples
///
/// ```
/// use pads::{compile, PadsParser};
/// use pads_runtime::{BaseMask, Mask, Registry};
/// use pads_tools::acc::Accumulator;
///
/// let registry = Registry::standard();
/// let schema = compile(
///     "Precord Pstruct r_t { Puint32 n; };",
///     &registry,
/// ).unwrap();
/// let parser = PadsParser::new(&schema, &registry);
/// let mask = Mask::all(BaseMask::CheckAndSet);
/// let mut acc = Accumulator::new(&schema, "r_t");
/// for (value, pd) in parser.records(b"1\n2\n2\n", "r_t", &mask) {
///     acc.add(&value, &pd);
/// }
/// let report = acc.report("<top>");
/// assert!(report.contains("good: 3 bad: 0"));
/// ```
#[derive(Debug, Clone)]
pub struct Accumulator<'s> {
    schema: &'s Schema,
    root: Node,
    top_k: usize,
    /// Total records added.
    pub records: u64,
    /// Records containing at least one error.
    pub bad_records: u64,
    /// Records skipped wholesale because the error budget was exhausted
    /// (their values are defaults, not data — see
    /// [`RecoveryPolicy`](pads_runtime::RecoveryPolicy)).
    pub skipped_records: u64,
    /// Records where panic-mode recovery skipped bytes to resynchronise.
    pub panicked_records: u64,
}

impl<'s> Accumulator<'s> {
    /// Creates an accumulator for the named type with default tracking
    /// limits.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in `schema`.
    pub fn new(schema: &'s Schema, name: &str) -> Accumulator<'s> {
        Accumulator::with_config(schema, name, AccConfig::default())
    }

    /// Creates an accumulator tracking up to `tracked` distinct values and
    /// reporting the top `top_k` (§5.2: both are user-settable).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in `schema`.
    pub fn with_limits(
        schema: &'s Schema,
        name: &str,
        tracked: usize,
        top_k: usize,
    ) -> Accumulator<'s> {
        Accumulator::with_config(schema, name, AccConfig { tracked, top_k, summaries: None })
    }

    /// Creates an accumulator with full configuration, including the §9
    /// histogram/quantile summaries on numeric fields.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in `schema`.
    #[allow(clippy::expect_used)] // the documented contract: callers validate the name
    pub fn with_config(schema: &'s Schema, name: &str, cfg: AccConfig) -> Accumulator<'s> {
        let id = schema.type_id(name).expect("type not declared in schema");
        let root = build_def(schema, id, &cfg);
        Accumulator {
            schema,
            root,
            top_k: cfg.top_k,
            records: 0,
            bad_records: 0,
            skipped_records: 0,
            panicked_records: 0,
        }
    }

    /// Folds one parsed value (with its parse descriptor) into the profile.
    /// Budget-skipped records carry default values, not data, so they count
    /// in [`skipped_records`](Accumulator::skipped_records) but do not
    /// pollute the per-field distributions.
    pub fn add(&mut self, value: &Value, pd: &ParseDesc) {
        self.records += 1;
        if !pd.is_ok() {
            self.bad_records += 1;
        }
        if pd.err_code == pads_runtime::ErrorCode::BudgetExhausted {
            // Budget-skipped records are framed in panic mode too; count
            // them once, as skipped, not also as resynchronised.
            self.skipped_records += 1;
            return;
        }
        if pd.state == pads_runtime::ParseState::Panic {
            self.panicked_records += 1;
        }
        add_node(&mut self.root, value, Some(pd));
    }

    /// Folds every row of a batch into the profile: [`add`](Accumulator::add)
    /// of row `i` and its descriptor, for `i` in order.
    pub fn add_batch(&mut self, batch: &pads::RecordBatch) {
        for i in 0..batch.len() {
            self.add(&batch.row(i), &batch.pd(i));
        }
    }

    /// Renders the full report, one section per leaf, with paths prefixed
    /// by `prefix` (the paper uses `<top>`).
    pub fn report(&self, prefix: &str) -> String {
        let mut out = String::new();
        if self.skipped_records > 0 || self.panicked_records > 0 {
            out.push_str(&format!(
                "{prefix} : recovery: {} record(s) skipped on exhausted error budget, \
                 {} record(s) resynchronised in panic mode\n",
                self.skipped_records, self.panicked_records
            ));
        }
        report_node(&self.root, prefix, self.top_k, &mut out);
        out
    }

    /// Looks up the leaf statistics at a dotted path (e.g. `"length"`,
    /// `"request.meth"`, array elements as `"events.elt.tstamp"`).
    /// Typedef and `Popt` layers are transparent; an option's inner value
    /// statistics are returned.
    pub fn stats_at(&self, path: &str) -> Option<&BaseAcc> {
        fn unwrap_transparent(mut node: &Node) -> &Node {
            loop {
                match node {
                    Node::Typedef(inner) => node = inner,
                    Node::Opt { inner, .. } => node = inner,
                    other => return other,
                }
            }
        }
        let mut node = &self.root;
        for part in path.split('.').filter(|p| !p.is_empty()) {
            node = match unwrap_transparent(node) {
                Node::Struct { fields } => &fields.iter().find(|(n, _)| n == part)?.1,
                Node::Union { branches, .. } => {
                    &branches.iter().find(|(n, _)| n == part)?.1
                }
                Node::Array { elem, .. } if part == pads_runtime::mask::ELT => elem,
                _ => return None,
            };
        }
        match unwrap_transparent(node) {
            Node::Base(b) | Node::Enum(b) => Some(b),
            _ => None,
        }
    }

    /// The schema this accumulator profiles.
    pub fn schema(&self) -> &'s Schema {
        self.schema
    }
}

fn build_def(schema: &Schema, id: TypeId, cfg: &AccConfig) -> Node {
    let def = schema.def(id);
    match &def.kind {
        TypeKind::Struct { members } => Node::Struct {
            fields: members
                .iter()
                .filter_map(|m| match m {
                    MemberIr::Field(f) => {
                        Some((f.name.clone(), build_tyuse(schema, &f.ty, cfg)))
                    }
                    MemberIr::Lit(_) => None,
                })
                .collect(),
        },
        TypeKind::Union { branches, .. } => Node::Union {
            tag: BaseAcc::new(cfg, "union tag"),
            branches: branches
                .iter()
                .map(|b| (b.field.name.clone(), build_tyuse(schema, &b.field.ty, cfg)))
                .collect(),
        },
        TypeKind::Array { elem, .. } => Node::Array {
            length: BaseAcc::new(cfg, "array length"),
            elem: Box::new(build_tyuse(schema, elem, cfg)),
        },
        TypeKind::Enum { .. } => Node::Enum(BaseAcc::new(cfg, format!("enum {}", def.name))),
        TypeKind::Typedef { base, .. } => {
            Node::Typedef(Box::new(build_tyuse(schema, base, cfg)))
        }
    }
}

fn build_tyuse(schema: &Schema, ty: &TyUse, cfg: &AccConfig) -> Node {
    match ty {
        TyUse::Base { name, .. } => Node::Base(BaseAcc::new(cfg, base_label(name))),
        TyUse::Named { id, .. } => build_def(schema, *id, cfg),
        TyUse::Opt(inner) => Node::Opt {
            presence: BaseAcc::new(cfg, "opt presence"),
            inner: Box::new(build_tyuse(schema, inner, cfg)),
        },
    }
}

/// Paper-style type labels: `Puint32` reports as `uint32`.
fn base_label(name: &str) -> String {
    name.strip_prefix('P').unwrap_or(name).to_string()
}

fn child_pd<'p>(pd: Option<&'p ParseDesc>, name: &str) -> Option<&'p ParseDesc> {
    pd.and_then(|pd| match &pd.kind {
        PdKind::Struct { fields } => fields.iter().find(|(n, _)| n == name).map(|(_, p)| p),
        PdKind::Typedef { inner } => child_pd(inner.as_deref(), name),
        _ => None,
    })
}

fn add_node(node: &mut Node, value: &Value, pd: Option<&ParseDesc>) {
    let bad = pd.is_some_and(|p| !p.is_ok());
    match (node, value) {
        (Node::Base(acc), Value::Prim(p)) => {
            if bad {
                acc.add_bad();
            } else {
                acc.add_good(p.to_string(), numeric(p));
            }
        }
        (Node::Enum(acc), Value::Enum { variant, .. }) => {
            if bad {
                acc.add_bad();
            } else {
                acc.add_good(variant.as_str().to_owned(), None);
            }
        }
        (Node::Struct { fields }, Value::Struct { fields: vfields }) => {
            for (name, child) in fields {
                if let Some((_, v)) = vfields.iter().find(|(n, _)| n == name) {
                    add_node(child, v, child_pd(pd, name));
                }
            }
        }
        (Node::Union { tag, branches }, Value::Union { branch, value, .. }) => {
            if bad {
                tag.add_bad();
            } else {
                tag.add_good(branch.as_str().to_owned(), None);
            }
            if let Some((_, child)) = branches.iter_mut().find(|(n, _)| n == branch) {
                let bpd = pd.and_then(|p| match &p.kind {
                    PdKind::Union { pd, .. } => pd.as_deref(),
                    _ => None,
                });
                add_node(child, value, bpd);
            }
        }
        (Node::Array { length, elem }, Value::Array(elts)) => {
            if bad {
                length.add_bad();
            } else {
                length.add_good(elts.len().to_string(), Some(elts.len() as f64));
            }
            for (i, v) in elts.iter().enumerate() {
                let epd = pd.and_then(|p| match &p.kind {
                    PdKind::Array { elts, .. } => elts.get(i),
                    _ => None,
                });
                add_node(elem, v, epd);
            }
        }
        (Node::Opt { presence, inner }, Value::Opt(opt)) => {
            if bad {
                presence.add_bad();
            } else {
                presence.add_good(
                    if opt.is_some() { "SOME" } else { "NONE" }.to_string(),
                    None,
                );
            }
            if let Some(v) = opt {
                let ipd = pd.and_then(|p| match &p.kind {
                    PdKind::Opt { inner: Some(i) } => Some(i.as_ref()),
                    _ => None,
                });
                add_node(inner, v, ipd);
            }
        }
        (Node::Typedef(inner), v) => add_node(inner, v, pd),
        _ => {}
    }
}

fn numeric(p: &Prim) -> Option<f64> {
    match p {
        Prim::Int(_) | Prim::Uint(_) | Prim::Float(_) => p.as_f64(),
        Prim::Date(d) => Some(d.epoch as f64),
        _ => None,
    }
}

fn report_node(node: &Node, path: &str, top_k: usize, out: &mut String) {
    match node {
        Node::Base(acc) | Node::Enum(acc) => acc.report(path, top_k, out),
        Node::Struct { fields } => {
            for (name, child) in fields {
                report_node(child, &format!("{path}.{name}"), top_k, out);
            }
        }
        Node::Union { tag, branches } => {
            tag.report(&format!("{path}.<tag>"), top_k, out);
            for (name, child) in branches {
                report_node(child, &format!("{path}.{name}"), top_k, out);
            }
        }
        Node::Array { length, elem } => {
            length.report(&format!("{path}.<length>"), top_k, out);
            report_node(elem, &format!("{path}.elt"), top_k, out);
        }
        Node::Opt { presence, inner } => {
            presence.report(&format!("{path}.<opt>"), top_k, out);
            report_node(inner, path, top_k, out);
        }
        Node::Typedef(inner) => report_node(inner, path, top_k, out),
    }
}

/// An accumulator is a sink of the source driver: every record is folded
/// into the profile and dropped (the header, if any, is not profiled).
impl RecordSink for Accumulator<'_> {
    fn record(&mut self, _index: usize, value: &Value, pd: &ParseDesc, _progress: &Progress) {
        self.add(value, pd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ties must break by value (ascending) so reports are deterministic —
    /// `tracked` is a `HashMap` and would otherwise leak iteration order.
    #[test]
    fn top_breaks_count_ties_by_value_regardless_of_insertion_order() {
        let cfg = AccConfig::default();
        let mut fwd = BaseAcc::new(&cfg, "Puint32");
        let mut rev = BaseAcc::new(&cfg, "Puint32");
        let vals = ["delta", "alpha", "charlie", "bravo"];
        for v in vals {
            fwd.add_good(v.to_owned(), None);
        }
        for v in vals.iter().rev() {
            rev.add_good((*v).to_owned(), None);
        }
        // Everything ties at count 1: the order is value-ascending however
        // the values arrived.
        let want = vec![("alpha", 1), ("bravo", 1), ("charlie", 1), ("delta", 1)];
        assert_eq!(fwd.top(10), want);
        assert_eq!(rev.top(10), want);
        // Higher counts still dominate the tie-broken tail.
        fwd.add_good("delta".to_owned(), None);
        assert_eq!(fwd.top(2), vec![("delta", 2), ("alpha", 1)]);
        // The rendered report is byte-identical across insertion orders.
        let (mut a, mut b) = (String::new(), String::new());
        rev.report("x", 10, &mut a);
        let mut rev2 = BaseAcc::new(&cfg, "Puint32");
        for v in vals {
            rev2.add_good(v.to_owned(), None);
        }
        rev2.report("x", 10, &mut b);
        assert_eq!(a, b);
    }
}
