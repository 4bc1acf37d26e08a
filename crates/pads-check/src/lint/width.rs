//! Width/value lints over the fact base (`PL301`–`PL303`).
//!
//! These query the byte-width intervals, value ranges and follow sets of
//! [`crate::facts`] and flag problems the purely syntactic passes cannot
//! see:
//!
//! * **PL301** — ordered union arms that overlap on their admissible
//!   first bytes while *both* have unbounded width: no finite lookahead
//!   separates them, so arm order silently decides every ambiguous input.
//! * **PL302** — a terminated string whose terminator byte can never
//!   occur where the field ends: the scan runs past the intended
//!   boundary and captures the real delimiter as content.
//! * **PL303** — a constraint whose value interval is empty over the base
//!   type's range: no parseable value can ever satisfy it. The semantic
//!   sharpening of `PL205` (which only catches constraints that
//!   constant-fold to `false`).
//!
//! `PL304` (array progress proven by width analysis) lives in
//! [`super::progress`], next to the `PL101`/`PL102` logic it refines.

use pads_syntax::ast::Expr;
use pads_syntax::Span;

use crate::facts::{refine_value, ByteSet, FactBase, Facts, ValueInterval};
use crate::ir::{BranchIr, MemberIr, TypeId, TypeKind, TyUse};
use crate::lint::ambiguity::shadows;
use crate::lint::Diagnostics;

/// The width/value lints: `PL301`–`PL303`.
pub(crate) fn lint_width(facts: &FactBase<'_>, diags: &mut Diagnostics) {
    for (id, def) in facts.schema().types.iter().enumerate() {
        match &def.kind {
            TypeKind::Union { switch: None, branches } => {
                lint_unbounded_overlap(facts, &def.name, branches, diags);
            }
            TypeKind::Struct { members } => {
                lint_uncapturable_terminator(facts, id, members, diags);
                for m in members {
                    let MemberIr::Field(f) = m else { continue };
                    if let Some(c) = &f.constraint {
                        let owner = format!("field `{}`", f.name);
                        let base = facts.of_use(&f.ty).value;
                        lint_unsat_constraint(base, Some(&f.name), c, f.span, &owner, diags);
                    }
                }
            }
            TypeKind::Typedef { base, var, pred: Some(p) } => {
                let owner = format!("typedef `{}`", def.name);
                let base = facts.of_use(base).value;
                lint_unsat_constraint(base, var.as_deref(), p, def.span, &owner, diags);
            }
            _ => {}
        }
    }
}

/// PL301: union arms whose first-byte sets overlap while both widths are
/// unbounded. Pairs already covered by `PL001` (first-set shadowing) or
/// `PL201` (always-succeeding earlier arm) are skipped.
fn lint_unbounded_overlap(
    facts: &FactBase<'_>,
    union_name: &str,
    branches: &[BranchIr],
    diags: &mut Diagnostics,
) {
    let arms: Vec<(&BranchIr, Facts)> = branches.iter().map(|b| (b, facts.of_branch(b))).collect();
    for (i, &(bi, fi)) in arms.iter().enumerate() {
        if fi.always_succeeds() || fi.width.max.is_some() {
            continue;
        }
        // Opaque ALL-byte sets would fire on everything; require real
        // first-byte evidence of the overlap.
        let overlaps = |fj: Facts| {
            fj.width.max.is_none()
                && fi.first != ByteSet::ALL
                && fj.first != ByteSet::ALL
                && fi.first.intersects(fj.first)
                && !shadows(fi, fj)
        };
        // One report per earlier arm is enough.
        let Some(&(bj, fj)) = arms[i + 1..].iter().find(|(_, fj)| overlaps(*fj)) else {
            continue;
        };
        diags.push(
            "PL301",
            bj.field.span,
            format!(
                "arms `{}` and `{}` of union `{union_name}` are indistinguishable \
                 within any finite lookahead: their first bytes overlap and both \
                 widths are unbounded ({} vs {})",
                bi.field.name,
                bj.field.name,
                fi.width.describe(),
                fj.width.describe(),
            ),
            Some(format!(
                "arm order silently decides every overlapping input; bound one arm's \
                 width, or add a constraint or leading literal that separates \
                 `{}` from `{}`",
                bi.field.name, bj.field.name
            )),
        );
    }
}

/// PL302: a terminated string field whose terminator byte is not in the
/// (precise) set of bytes that can follow the field — the scan runs past
/// the intended field boundary.
fn lint_uncapturable_terminator(
    facts: &FactBase<'_>,
    id: TypeId,
    members: &[MemberIr],
    diags: &mut Diagnostics,
) {
    for (i, m) in members.iter().enumerate() {
        let MemberIr::Field(f) = m else { continue };
        let Some(term) = string_terminator(&f.ty) else { continue };
        let fol = facts.follow_after(&members[i + 1..], facts.of_type(id).follow);
        // A field that can legally sit at a record/source boundary scans
        // to the boundary instead — idiomatic for trailing fields.
        if !fol.precise || fol.at_end || fol.set.is_empty() || fol.set.contains(term) {
            continue;
        }
        diags.push(
            "PL302",
            f.span,
            format!(
                "field `{}` scans for terminator {} but the data that follows starts \
                 with {}: the scan will run past the field and capture the real \
                 delimiter as content",
                f.name,
                ByteSet::of(&[term]).describe(),
                fol.set.describe(),
            ),
            Some(format!(
                "terminate the string with {} (the byte that actually follows it)",
                fol.set.describe()
            )),
        );
    }
}

/// The constant terminator byte of a `Pstring(:c:)` use, looking through
/// `Popt`.
fn string_terminator(ty: &TyUse) -> Option<u8> {
    match ty {
        TyUse::Base { name, args } if name == "Pstring" => match args.first() {
            Some(Expr::Char(c)) => Some(*c),
            _ => None,
        },
        TyUse::Opt(inner) => string_terminator(inner),
        _ => None,
    }
}

/// PL303: the constraint's value interval is empty over the base type's
/// range. Refinement only intersects with recognised conjuncts, so an
/// empty result is a sound unsatisfiability proof even when other
/// conjuncts were not understood.
fn lint_unsat_constraint(
    base: Option<ValueInterval>,
    var: Option<&str>,
    pred: &Expr,
    span: Span,
    owner: &str,
    diags: &mut Diagnostics,
) {
    // An already-empty base interval was flagged at its own declaration.
    let Some(base) = base.filter(|b| !b.is_empty()) else { return };
    if !refine_value(base, var, pred).is_empty() {
        return;
    }
    diags.push(
        "PL303",
        span,
        format!(
            "constraint on {owner} is unsatisfiable: the base type only produces \
             values in {} and no such value passes the constraint",
            ValueInterval { exact: true, ..base }.describe(),
        ),
        Some("every parse will fail the constraint; fix the bounds or widen the base type".to_owned()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pads_runtime::Registry;

    fn lint(src: &str) -> Vec<&'static str> {
        let schema = crate::compile(src, &Registry::standard()).expect("compiles");
        let mut diags = Diagnostics::default();
        lint_width(&FactBase::of(&schema), &mut diags);
        diags.into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn unbounded_overlapping_arms_warn() {
        // Both arms are unbounded strings; every byte except the two
        // terminators is admissible in both.
        let codes = lint(
            "Ptypedef Pstring(:'|':) aw_t : aw_t x => { x != \"\" };\n\
             Ptypedef Pstring(:';':) bw_t : bw_t y => { y != \"\" };\n\
             Psource Punion u_t { aw_t a; bw_t b; };",
        );
        assert_eq!(codes, vec!["PL301"]);
    }

    #[test]
    fn bounded_arm_stays_clean() {
        // Pip is width-bounded: 16 bytes of lookahead always decide.
        let codes = lint("Psource Punion client_t { Pip ip; Phostname host; };");
        assert!(codes.is_empty(), "{codes:?}");
    }

    #[test]
    fn wrong_terminator_warns() {
        let codes =
            lint("Psource Pstruct t { Pstring(:'|':) s; ','; Puint8 n; };");
        assert_eq!(codes, vec!["PL302"]);
    }

    #[test]
    fn matching_terminator_is_clean() {
        let codes =
            lint("Psource Pstruct t { Pstring(:',':) s; ','; Puint8 n; };");
        assert!(codes.is_empty(), "{codes:?}");
    }

    #[test]
    fn trailing_string_at_record_end_is_clean() {
        let codes = lint(
            "Precord Pstruct rec_t { Puint8 n; ' '; Pstring(:' ':) rest; };\n\
             Psource Parray t { rec_t[] : Pterm(Peof); };",
        );
        assert!(codes.is_empty(), "{codes:?}");
    }

    #[test]
    fn unsatisfiable_typedef_constraint_errors() {
        let codes = lint(
            "Ptypedef Puint8 odd_t : odd_t x => { x > 300 };\n\
             Psource Pstruct t { odd_t o; };",
        );
        assert_eq!(codes, vec!["PL303"]);
    }

    #[test]
    fn unsatisfiable_field_constraint_errors() {
        let codes = lint("Psource Pstruct t { Puint8 n : n > 300; };");
        assert_eq!(codes, vec!["PL303"]);
    }

    #[test]
    fn satisfiable_constraints_are_clean() {
        let codes = lint(
            "Ptypedef Puint16_FW(:3:) response_t : response_t x => { 100 <= x && x < 600 };\n\
             Psource Pstruct t { response_t r; ' '; Puint8 k : k <= 2; };",
        );
        assert!(codes.is_empty(), "{codes:?}");
    }
}
