//! Ambiguity lints over first sets (`PL001`–`PL004`): union arms shadowed
//! by an earlier arm whose admissible first bytes cover them, `Pswitch`
//! unions with duplicate case values or no `Pdefault`, and `Popt`
//! wrappers whose inner type always succeeds.

use pads_runtime::ops::Scalar;
use pads_syntax::ast::CaseLabel;
use pads_syntax::Span;

use crate::facts::{FactBase, Facts, Nullability};
use crate::ir::{BranchIr, MemberIr, TypeKind, TyUse};
use crate::lint::{const_fold, Diagnostics};

/// The ambiguity lints: `PL001` (shadowed arm), `PL002` (duplicate case),
/// `PL003` (missing default), `PL004` (`Popt` that is always present).
pub(crate) fn lint_ambiguity(facts: &FactBase<'_>, diags: &mut Diagnostics) {
    for def in &facts.schema().types {
        let uses: Vec<(&TyUse, Span)> = match &def.kind {
            TypeKind::Union { switch, branches } => {
                match switch {
                    None => lint_ordered_union(facts, &def.name, branches, diags),
                    Some(_) => lint_switched_union(&def.name, branches, def.span, diags),
                }
                branches.iter().map(|b| (&b.field.ty, b.field.span)).collect()
            }
            TypeKind::Struct { members } => members
                .iter()
                .filter_map(|m| match m {
                    MemberIr::Field(f) => Some((&f.ty, f.span)),
                    MemberIr::Lit(_) => None,
                })
                .collect(),
            TypeKind::Array { elem: ty, .. } | TypeKind::Typedef { base: ty, .. } => {
                vec![(ty, def.span)]
            }
            TypeKind::Enum { .. } => Vec::new(),
        };
        for (ty, span) in uses {
            let TyUse::Opt(inner) = ty else { continue };
            let mut inner: &TyUse = inner;
            while let TyUse::Opt(next) = inner {
                inner = next;
            }
            if facts.of_use(inner).always_succeeds() {
                diags.push(
                    "PL004",
                    span,
                    "`Popt` of a type that can match empty input is always present",
                    Some(
                        "the absent case can never be taken; drop the `Popt` or constrain \
                         the inner type"
                            .to_owned(),
                    ),
                );
            }
        }
    }
}

/// Whether an earlier arm shadows a later one at the first-byte level: its
/// exact first set covers every byte the later arm can start with, and it
/// always consumes input. Both are arm facts ([`FactBase::of_branch`]), so
/// a constrained earlier arm, whose first set is inexact, shadows nothing.
pub(super) fn shadows(earlier: Facts, later: Facts) -> bool {
    earlier.precise
        && earlier.null == Nullability::NonEmpty
        && !later.first.is_empty()
        && later.first.is_subset(earlier.first)
}

fn lint_ordered_union(
    facts: &FactBase<'_>,
    union_name: &str,
    branches: &[BranchIr],
    diags: &mut Diagnostics,
) {
    let arms: Vec<(&BranchIr, Facts)> = branches.iter().map(|b| (b, facts.of_branch(b))).collect();
    for (i, &(bi, fi)) in arms.iter().enumerate() {
        // One shadow report per earlier arm is enough. Always-succeeding
        // earlier arms are PL201's finding.
        let Some(&(bj, fj)) = arms[i + 1..].iter().find(|(_, fj)| shadows(fi, *fj)) else {
            continue;
        };
        diags.push(
            "PL001",
            bj.field.span,
            format!(
                "arm `{}` of union `{union_name}` is shadowed by earlier arm `{}`: \
                 every input it accepts starts with {} already admissible there",
                bj.field.name,
                bi.field.name,
                fj.first.describe(),
            ),
            Some(format!(
                "move `{}` before `{}`, or add a constraint that distinguishes them",
                bj.field.name, bi.field.name
            )),
        );
    }
}

fn lint_switched_union(
    union_name: &str,
    branches: &[BranchIr],
    union_span: Span,
    diags: &mut Diagnostics,
) {
    let mut seen: Vec<(i64, &str)> = Vec::new();
    let mut has_default = false;
    for b in branches {
        match &b.case {
            Some(CaseLabel::Default) => has_default = true,
            Some(CaseLabel::Expr(e)) => {
                let Some(v) = const_fold(e).and_then(Scalar::as_i64) else { continue };
                match seen.iter().find(|(x, _)| *x == v) {
                    Some((_, prev)) => diags.push(
                        "PL002",
                        b.field.span,
                        format!(
                            "duplicate `Pcase {v}` in union `{union_name}`: \
                             already handled by arm `{prev}`"
                        ),
                        Some(format!("remove arm `{}` or change its case value", b.field.name)),
                    ),
                    None => seen.push((v, &b.field.name)),
                }
            }
            None => {}
        }
    }
    if !has_default {
        diags.push(
            "PL003",
            union_span,
            format!(
                "switched union `{union_name}` has no `Pdefault` arm: selector values \
                 outside its cases make the whole union fail"
            ),
            Some("add a `Pdefault: Pvoid other;` arm (or cover every selector value)".to_owned()),
        );
    }
}
