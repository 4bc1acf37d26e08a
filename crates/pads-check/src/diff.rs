//! Schema-evolution diffing (`pads diff old.pads new.pads`).
//!
//! Compares two checked schemas *structurally* — starting at the two
//! source types and matching fields by name, so type renames alone never
//! count as a change — and classifies every difference on the evolution
//! lattice:
//!
//! ```text
//! compatible  <  widens  <  narrows  <  breaks
//! ```
//!
//! * **compatible** — every datum the old description accepts parses
//!   identically under the new one (e.g. an added `Popt` field).
//! * **widens** — the new description accepts a superset of the old data
//!   language (wider value range, new union arm, field became optional).
//! * **narrows** — some old-valid data is now rejected (tightened
//!   constraint, optional field became required); readers keep working,
//!   in-flight data may not.
//! * **breaks** — the framing itself changed (field removed or
//!   reordered, literal changed, shape changed): old data misparses.
//!
//! Every finding carries a stable `PD0xx` code and a field-path
//! provenance (`entry_t.response`). Width/value claims are queries of
//! each side's [fact base](crate::facts): `widens` and `narrows` are only
//! reported when the direction is *provable*; a changed constraint the
//! intervals cannot decide is conservatively `breaks`
//! ([`PD307`](CODES)).
//!
//! This is the static-safety gate for hot-reloading schema registries
//! (docs/EVOLUTION.md): a daemon may swap in a replacement description
//! only when the verdict is `compatible` or `widens`.

use std::collections::HashSet;

use pads_syntax::ast::Expr;

use crate::facts::{refine_value, FactBase, ValueInterval};
use crate::ir::{BranchIr, FieldIr, MemberIr, Schema, TypeId, TypeKind, TyUse};

/// Overall compatibility class of a change, ordered from harmless to
/// fatal; a report's verdict is the maximum over its findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Old data parses identically under the new description.
    Compatible,
    /// The new description accepts a superset of the old data language.
    Widens,
    /// Some old-valid data is rejected by the new description.
    Narrows,
    /// Old data misparses: the framing or shape changed.
    Breaks,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Compatible => "compatible",
            Verdict::Widens => "widens",
            Verdict::Narrows => "narrows",
            Verdict::Breaks => "breaks",
        })
    }
}

/// The catalogue of evolution codes: `(code, verdict, summary)`.
/// `docs/EVOLUTION.md` documents each with an example.
pub const CODES: &[(&str, Verdict, &str)] = &[
    ("PD101", Verdict::Compatible, "added field is optional; old data parses unchanged"),
    ("PD102", Verdict::Widens, "value range widened"),
    ("PD103", Verdict::Widens, "union arm or enum variant added"),
    ("PD104", Verdict::Widens, "field became optional"),
    ("PD201", Verdict::Narrows, "value range narrowed"),
    ("PD202", Verdict::Narrows, "optional field became required"),
    ("PD301", Verdict::Breaks, "field removed"),
    ("PD302", Verdict::Breaks, "fields or alternatives reordered"),
    ("PD303", Verdict::Breaks, "union arm or enum variant removed"),
    ("PD304", Verdict::Breaks, "required field added"),
    ("PD305", Verdict::Breaks, "type shape or framing changed"),
    ("PD306", Verdict::Breaks, "literal sequence changed"),
    ("PD307", Verdict::Breaks, "constraint changed with unprovable effect"),
];

/// The verdict class of an evolution code.
///
/// # Panics
///
/// Panics if `code` is not in [`CODES`] (the differ only emits registered
/// codes; this is checked by tests).
#[allow(clippy::expect_used)]
pub fn code_verdict(code: &str) -> Verdict {
    CODES
        .iter()
        .find(|(c, _, _)| *c == code)
        .map(|(_, v, _)| *v)
        .expect("evolution code is registered in CODES")
}

/// One classified difference between the two schemas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable evolution code (`"PD101"`, …).
    pub code: &'static str,
    /// The code's verdict class.
    pub verdict: Verdict,
    /// Field-path provenance in the *new* schema's names
    /// (`entry_t.response`).
    pub path: String,
    /// What changed.
    pub message: String,
}

/// Every classified difference, plus the overall verdict.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiffReport {
    /// Findings sorted by (path, code).
    pub findings: Vec<Finding>,
}

impl DiffReport {
    /// The maximum verdict over all findings ([`Verdict::Compatible`]
    /// when the schemas match).
    pub fn verdict(&self) -> Verdict {
        self.findings.iter().map(|f| f.verdict).max().unwrap_or(Verdict::Compatible)
    }

    /// Whether the change is unsafe to hot-reload (verdict `breaks`).
    pub fn breaks(&self) -> bool {
        self.verdict() == Verdict::Breaks
    }

    /// Renders one `CODE verdict path: message` line per finding plus a
    /// final `verdict:` line — the stable text format golden tests and
    /// the CLI print.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{} {} {}: {}\n", f.code, f.verdict, f.path, f.message));
        }
        out.push_str(&format!("verdict: {}\n", self.verdict()));
        out
    }
}

/// Diffs two checked schemas, matching structurally from their source
/// types.
pub fn diff_schemas(old: &Schema, new: &Schema) -> DiffReport {
    let mut d = Differ {
        old: FactBase::of(old),
        new: FactBase::of(new),
        visited: HashSet::new(),
        findings: Vec::new(),
    };
    d.diff_funcs();
    d.diff_def(old.source(), new.source(), &new.source_def().name);
    d.findings.sort_by(|a, b| (&a.path, a.code).cmp(&(&b.path, b.code)));
    DiffReport { findings: d.findings }
}

struct Differ<'a> {
    old: FactBase<'a>,
    new: FactBase<'a>,
    visited: HashSet<(TypeId, TypeId)>,
    findings: Vec<Finding>,
}

impl Differ<'_> {
    fn push(&mut self, code: &'static str, path: &str, message: impl Into<String>) {
        self.findings.push(Finding {
            code,
            verdict: code_verdict(code),
            path: path.to_owned(),
            message: message.into(),
        });
    }

    /// Predicate functions feed constraints; a changed body silently
    /// changes which data passes, and the intervals cannot see through
    /// calls — conservatively a break.
    fn diff_funcs(&mut self) {
        let (old, new) = (self.old.schema(), self.new.schema());
        let mut names: Vec<&String> =
            old.funcs.keys().filter(|n| new.funcs.contains_key(*n)).collect();
        names.sort();
        for name in names {
            let (o, n) = (&old.funcs[name], &new.funcs[name]);
            if (&o.ret, &o.params, &o.body) != (&n.ret, &n.params, &n.body) {
                self.push(
                    "PD307",
                    name,
                    "predicate function body changed: the effect on accepted data \
                     cannot be proved",
                );
            }
        }
    }

    fn diff_def(&mut self, old_id: TypeId, new_id: TypeId, path: &str) {
        if !self.visited.insert((old_id, new_id)) {
            return;
        }
        let (od, nd) = (self.old.schema().def(old_id), self.new.schema().def(new_id));
        if od.is_record != nd.is_record {
            self.push(
                "PD305",
                path,
                if nd.is_record {
                    "type gained a Precord annotation: record framing changed"
                } else {
                    "type lost its Precord annotation: record framing changed"
                },
            );
        }
        if od.params != nd.params {
            self.push("PD305", path, "type parameter list changed");
        }
        if od.where_clause != nd.where_clause {
            self.push(
                "PD307",
                path,
                "Pwhere clause changed: the effect on accepted data cannot be proved",
            );
        }
        match (&od.kind, &nd.kind) {
            (TypeKind::Struct { members: om }, TypeKind::Struct { members: nm }) => {
                self.diff_struct(om, nm, path);
            }
            (
                TypeKind::Union { switch: os, branches: ob },
                TypeKind::Union { switch: ns, branches: nb },
            ) => {
                if os != ns {
                    self.push("PD305", path, "Pswitch selector changed");
                }
                self.diff_union(ob, nb, path);
            }
            (
                TypeKind::Array { elem: oe, sep: osep, term: oterm, ended: oend, size: osz },
                TypeKind::Array { elem: ne, sep: nsep, term: nterm, ended: nend, size: nsz },
            ) => {
                self.diff_tyuse(oe, ne, &format!("{path}[]"));
                if osep != nsep {
                    self.push("PD305", path, "array separator changed");
                }
                if oterm != nterm {
                    self.push("PD305", path, "array terminator changed");
                }
                if osz != nsz {
                    self.push("PD305", path, "array size expression changed");
                }
                if oend != nend {
                    self.push(
                        "PD307",
                        path,
                        "Pended predicate changed: the effect on accepted data cannot be proved",
                    );
                }
            }
            (TypeKind::Enum { variants: ov }, TypeKind::Enum { variants: nv }) => {
                self.diff_enum(ov, nv, path);
            }
            (
                TypeKind::Typedef { base: ob, var: ovar, pred: op },
                TypeKind::Typedef { base: nb, var: nvar, pred: np },
            ) => {
                self.diff_tyuse(ob, nb, path);
                if (ovar, op) != (nvar, np) {
                    let o = refined(self.old.of_use(ob).value, ovar.as_deref(), op.as_ref());
                    let n = refined(self.new.of_use(nb).value, nvar.as_deref(), np.as_ref());
                    self.diff_constraint(o, n, path);
                }
            }
            (ok, nk) => {
                self.push(
                    "PD305",
                    path,
                    format!("type shape changed from {} to {}", kind_name(ok), kind_name(nk)),
                );
            }
        }
    }

    fn diff_struct(&mut self, om: &[MemberIr], nm: &[MemberIr], path: &str) {
        let (of, nf) = (fields(om), fields(nm));
        let fields = Lineup::new(&of, &nf, |f| f.name.as_str());
        for f in &fields.removed {
            self.push(
                "PD301",
                &format!("{path}.{}", f.name),
                "field removed: data containing it no longer parses",
            );
        }
        for f in &fields.added {
            let at = format!("{path}.{}", f.name);
            if matches!(f.ty, TyUse::Opt(_)) {
                self.push("PD101", &at, "added field is optional (Popt): old data parses unchanged");
            } else {
                self.push("PD304", &at, "required field added: old data lacks it and misparses");
            }
        }
        if let Some((o, n)) = fields.reordered() {
            self.push("PD302", path, format!("fields reordered: old order [{o}], new order [{n}]"));
            return; // field-by-field comparison is meaningless once reordered
        }
        for (o, n) in fields.kept() {
            self.diff_field(o, n, &format!("{path}.{}", n.name));
        }
        let is_lit = |m: &&MemberIr| matches!(m, MemberIr::Lit(_));
        if !om.iter().filter(is_lit).eq(nm.iter().filter(is_lit)) {
            self.push(
                "PD306",
                path,
                "literal sequence changed: old data is framed differently",
            );
        }
    }

    fn diff_union(&mut self, ob: &[BranchIr], nb: &[BranchIr], path: &str) {
        let arms = Lineup::new(ob, nb, |b| b.field.name.as_str());
        for b in &arms.removed {
            self.push(
                "PD303",
                &format!("{path}.{}", b.field.name),
                "union arm removed: data matching it no longer parses",
            );
        }
        for b in &arms.added {
            self.push(
                "PD103",
                &format!("{path}.{}", b.field.name),
                "union arm added: the new description accepts more shapes",
            );
        }
        if let Some((o, n)) = arms.reordered() {
            self.push(
                "PD302",
                path,
                format!(
                    "union arms reordered: old order [{o}], new order [{n}] — arm \
                     order decides ambiguous inputs"
                ),
            );
            return;
        }
        for (o, n) in arms.kept() {
            let arm_path = format!("{path}.{}", n.field.name);
            if o.case != n.case {
                self.push("PD305", &arm_path, "Pcase label changed");
            }
            self.diff_field(&o.field, &n.field, &arm_path);
        }
    }

    fn diff_enum(&mut self, ov: &[String], nv: &[String], path: &str) {
        let variants = Lineup::new(ov, nv, |v| v.as_str());
        for v in &variants.removed {
            self.push(
                "PD303",
                &format!("{path}.{v}"),
                "enum variant removed: data matching it no longer parses",
            );
        }
        for v in &variants.added {
            self.push(
                "PD103",
                &format!("{path}.{v}"),
                "enum variant added: the new description accepts more values",
            );
        }
        if variants.reordered().is_some() {
            self.push(
                "PD302",
                path,
                "enum variants reordered: match priority on shared prefixes changed",
            );
        }
    }

    fn diff_field(&mut self, o: &FieldIr, n: &FieldIr, path: &str) {
        self.diff_tyuse(&o.ty, &n.ty, path);
        if o.constraint != n.constraint {
            let ov = refined(self.old.of_use(&o.ty).value, Some(&o.name), o.constraint.as_ref());
            let nv = refined(self.new.of_use(&n.ty).value, Some(&n.name), n.constraint.as_ref());
            self.diff_constraint(ov, nv, path);
        }
    }

    fn diff_tyuse(&mut self, o: &TyUse, n: &TyUse, path: &str) {
        match (o, n) {
            (TyUse::Opt(oi), TyUse::Opt(ni)) => self.diff_tyuse(oi, ni, path),
            (_, TyUse::Opt(ni)) => {
                self.push(
                    "PD104",
                    path,
                    "field became optional: old data parses, absence is now legal",
                );
                self.diff_tyuse(o, ni, path);
            }
            (TyUse::Opt(oi), _) => {
                self.push(
                    "PD202",
                    path,
                    "optional field became required: old data without it no longer parses",
                );
                self.diff_tyuse(oi, n, path);
            }
            (
                TyUse::Named { id: oid, args: oa },
                TyUse::Named { id: nid, args: na },
            ) => {
                if oa != na {
                    self.push("PD305", path, "type arguments changed");
                }
                self.diff_def(*oid, *nid, path);
            }
            (
                TyUse::Base { name: on, args: oa },
                TyUse::Base { name: nn, args: na },
            ) => {
                if on == nn && oa == na {
                    return;
                }
                self.diff_base(o, n, on, nn, path);
            }
            _ => {
                self.push("PD305", path, "type shape changed");
            }
        }
    }

    /// A changed base type can still be a provable widening/narrowing:
    /// same byte-width interval and comparable integer value ranges
    /// (e.g. `Puint8` → `Puint16`, both variable-width ASCII).
    fn diff_base(&mut self, o: &TyUse, n: &TyUse, on: &str, nn: &str, path: &str) {
        let (of, nf) = (self.old.of_use(o), self.new.of_use(n));
        if let (true, Some(ov), Some(nv)) = (of.width == nf.width, of.value, nf.value) {
            if nv == ov {
                return; // spelled differently, provably the same values
            }
            if nv.exact && nv.contains(ov) {
                self.push(
                    "PD102",
                    path,
                    format!(
                        "base type changed from {on} to {nn}: value range widened \
                         from {} to {}",
                        ov.describe(),
                        nv.describe()
                    ),
                );
                return;
            }
            if ov.exact && ov.contains(nv) {
                self.push(
                    "PD201",
                    path,
                    format!(
                        "base type changed from {on} to {nn}: value range narrowed \
                         from {} to {}",
                        ov.describe(),
                        nv.describe()
                    ),
                );
                return;
            }
        }
        self.push("PD305", path, format!("base type changed from {on} to {nn}"));
    }

    /// Called when the predicates differ syntactically; decides widens /
    /// narrows / breaks from the refined value intervals (`None` for a
    /// non-integer type).
    fn diff_constraint(&mut self, old: Option<ValueInterval>, new: Option<ValueInterval>, path: &str) {
        let (Some(oi), Some(ni)) = (old, new) else {
            self.push(
                "PD307",
                path,
                "constraint changed on a non-integer type: the effect on accepted \
                 data cannot be proved",
            );
            return;
        };
        // a ⊆ b, treating the empty interval as a subset of everything.
        let subset = |a: ValueInterval, b: ValueInterval| a.is_empty() || b.contains(a);
        if ni.exact && oi == ni {
            return; // reformulated but provably identical
        }
        if ni.exact && subset(oi, ni) {
            self.push(
                "PD102",
                path,
                format!("value range widened from {} to {}", oi.describe(), ni.describe()),
            );
        } else if oi.exact && subset(ni, oi) {
            self.push(
                "PD201",
                path,
                format!("value range narrowed from {} to {}", oi.describe(), ni.describe()),
            );
        } else {
            self.push(
                "PD307",
                path,
                format!(
                    "constraint changed but neither direction is provable ({} vs {})",
                    oi.describe(),
                    ni.describe()
                ),
            );
        }
    }
}

/// A base value interval under a constraint, if there is one.
fn refined(base: Option<ValueInterval>, var: Option<&str>, pred: Option<&Expr>) -> Option<ValueInterval> {
    base.map(|b| pred.map_or(b, |p| refine_value(b, var, p)))
}

/// Two by-name sequences (struct fields, union arms, enum variants) lined
/// up: the items only the old side has, the items only the new side has,
/// and the items both keep, in each side's order.
struct Lineup<'a, T> {
    removed: Vec<&'a T>,
    added: Vec<&'a T>,
    kept_old: Vec<&'a T>,
    kept_new: Vec<&'a T>,
    name: fn(&T) -> &str,
}

impl<'a, T> Lineup<'a, T> {
    fn new(old: &'a [T], new: &'a [T], name: fn(&T) -> &str) -> Lineup<'a, T> {
        let absent = |side: &[T], x: &T| !side.iter().any(|y| name(y) == name(x));
        let (removed, kept_old) = old.iter().partition(|x| absent(new, x));
        let (added, kept_new) = new.iter().partition(|x| absent(old, x));
        Lineup { removed, added, kept_old, kept_new, name }
    }

    /// The kept names in old and in new order, when the orders differ.
    fn reordered(&self) -> Option<(String, String)> {
        let names = |side: &[&'a T]| side.iter().map(|x| (self.name)(x)).collect::<Vec<_>>();
        let (o, n) = (names(&self.kept_old), names(&self.kept_new));
        (o != n).then(|| (o.join(", "), n.join(", ")))
    }

    /// The kept items paired by name (sides in the same order).
    fn kept(&self) -> impl Iterator<Item = (&'a T, &'a T)> + '_ {
        self.kept_old.iter().copied().zip(self.kept_new.iter().copied())
    }
}

fn fields(members: &[MemberIr]) -> Vec<&FieldIr> {
    members
        .iter()
        .filter_map(|m| match m {
            MemberIr::Field(f) => Some(f),
            MemberIr::Lit(_) => None,
        })
        .collect()
}

fn kind_name(k: &TypeKind) -> &'static str {
    match k {
        TypeKind::Struct { .. } => "Pstruct",
        TypeKind::Union { .. } => "Punion",
        TypeKind::Array { .. } => "Parray",
        TypeKind::Enum { .. } => "Penum",
        TypeKind::Typedef { .. } => "Ptypedef",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pads_runtime::Registry;

    fn diff(old: &str, new: &str) -> DiffReport {
        let old = crate::compile(old, &Registry::standard()).expect("old compiles");
        let new = crate::compile(new, &Registry::standard()).expect("new compiles");
        diff_schemas(&old, &new)
    }

    fn codes(r: &DiffReport) -> Vec<&'static str> {
        r.findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn identical_schemas_are_compatible() {
        let src = "Psource Pstruct t { Puint8 a; ','; Puint8 b; };";
        let r = diff(src, src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.verdict(), Verdict::Compatible);
    }

    #[test]
    fn type_rename_alone_is_compatible() {
        let r = diff(
            "Pstruct inner_t { Puint8 x; };\nPsource Pstruct t { inner_t i; };",
            "Pstruct renamed_t { Puint8 x; };\nPsource Pstruct t { renamed_t i; };",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn added_optional_field_is_compatible() {
        let r = diff(
            "Psource Pstruct t { Puint8 a; ','; Puint8 b; };",
            "Psource Pstruct t { Puint8 a; ','; Puint8 b; Popt Pchar flag; };",
        );
        assert_eq!(codes(&r), vec!["PD101"]);
        assert_eq!(r.verdict(), Verdict::Compatible);
    }

    #[test]
    fn widened_range_widens() {
        let r = diff(
            "Ptypedef Puint16_FW(:3:) resp_t : resp_t x => { 100 <= x && x < 600 };\n\
             Psource Pstruct t { resp_t r; };",
            "Ptypedef Puint16_FW(:3:) resp_t : resp_t x => { 100 <= x && x < 700 };\n\
             Psource Pstruct t { resp_t r; };",
        );
        assert_eq!(codes(&r), vec!["PD102"]);
        assert_eq!(r.verdict(), Verdict::Widens);
    }

    #[test]
    fn wider_base_type_widens() {
        let r = diff(
            "Psource Pstruct t { Puint8 n; };",
            "Psource Pstruct t { Puint16 n; };",
        );
        assert_eq!(codes(&r), vec!["PD102"]);
        assert_eq!(r.verdict(), Verdict::Widens);
    }

    #[test]
    fn tightened_constraint_narrows() {
        let r = diff(
            "Psource Pstruct t { Puint8 n : n < 100; };",
            "Psource Pstruct t { Puint8 n : n < 50; };",
        );
        assert_eq!(codes(&r), vec!["PD201"]);
        assert_eq!(r.verdict(), Verdict::Narrows);
    }

    #[test]
    fn removed_union_arm_breaks() {
        let r = diff(
            "Psource Punion u_t { Pip ip; Phostname host; };",
            "Psource Punion u_t { Pip ip; };",
        );
        assert_eq!(codes(&r), vec!["PD303"]);
        assert_eq!(r.verdict(), Verdict::Breaks);
        assert!(r.breaks());
    }

    #[test]
    fn reordered_fields_break() {
        let r = diff(
            "Psource Pstruct t { Puint8 a; ','; Puint8 b; };",
            "Psource Pstruct t { Puint8 b; ','; Puint8 a; };",
        );
        assert_eq!(codes(&r), vec!["PD302"]);
        assert_eq!(r.verdict(), Verdict::Breaks);
    }

    #[test]
    fn changed_literal_breaks() {
        let r = diff(
            "Psource Pstruct t { Puint8 a; ','; Puint8 b; };",
            "Psource Pstruct t { Puint8 a; '|'; Puint8 b; };",
        );
        assert_eq!(codes(&r), vec!["PD306"]);
    }

    #[test]
    fn binary_width_change_is_a_break_not_a_widening() {
        // Pb_uint16 holds a superset of Pb_uint8's values, but the field
        // is one byte wider: every later field misframes.
        let r = diff(
            "Psource Pstruct t { Pb_uint8 n; };",
            "Psource Pstruct t { Pb_uint16 n; };",
        );
        assert_eq!(codes(&r), vec!["PD305"]);
        assert_eq!(r.verdict(), Verdict::Breaks);
    }

    #[test]
    fn changed_function_body_breaks() {
        let r = diff(
            "bool chk(int v) { return v < 10; };\n\
             Psource Pstruct t { Puint8 n : chk(n); };",
            "bool chk(int v) { return v < 20; };\n\
             Psource Pstruct t { Puint8 n : chk(n); };",
        );
        assert_eq!(codes(&r), vec!["PD307"]);
        assert_eq!(r.verdict(), Verdict::Breaks);
    }

    #[test]
    fn enum_variant_added_widens_removed_breaks() {
        let r = diff(
            "Penum m_t { GET, PUT };\nPsource Pstruct t { m_t m; };",
            "Penum m_t { GET, PUT, POST };\nPsource Pstruct t { m_t m; };",
        );
        assert_eq!(codes(&r), vec!["PD103"]);
        assert_eq!(r.verdict(), Verdict::Widens);
        let r = diff(
            "Penum m_t { GET, PUT };\nPsource Pstruct t { m_t m; };",
            "Penum m_t { GET };\nPsource Pstruct t { m_t m; };",
        );
        assert_eq!(codes(&r), vec!["PD303"]);
    }

    #[test]
    fn optionality_changes_classify() {
        let r = diff(
            "Psource Pstruct t { Puint8 a; Popt Pchar f; };",
            "Psource Pstruct t { Puint8 a; Pchar f; };",
        );
        assert_eq!(codes(&r), vec!["PD202"]);
        assert_eq!(r.verdict(), Verdict::Narrows);
        let r = diff(
            "Psource Pstruct t { Puint8 a; Pchar f; };",
            "Psource Pstruct t { Puint8 a; Popt Pchar f; };",
        );
        assert_eq!(codes(&r), vec!["PD104"]);
        assert_eq!(r.verdict(), Verdict::Widens);
    }

    #[test]
    fn every_emitted_code_is_registered() {
        for (code, _, _) in CODES {
            let _ = code_verdict(code);
        }
    }

    #[test]
    fn verdict_lattice_orders() {
        assert!(Verdict::Compatible < Verdict::Widens);
        assert!(Verdict::Widens < Verdict::Narrows);
        assert!(Verdict::Narrows < Verdict::Breaks);
    }
}
