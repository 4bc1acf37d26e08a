//! Reachability and dead-description analysis (`PL201`–`PL206`).
//!
//! Finds description text that can never matter at parse time: union arms
//! behind an arm that always succeeds, declarations no path from the
//! `Psource` type reaches, parameters nothing reads, and constraints that
//! constant-fold to `true` or `false`.

use std::collections::HashSet;

use pads_syntax::ast::Expr;

use crate::facts::FactBase;
use crate::ir::{MemberIr, Schema, TypeId, TypeKind};
use crate::lint::{const_fold, Const, Diagnostics};

/// The reachability lints.
pub(crate) fn lint_reachability(facts: &FactBase<'_>, diags: &mut Diagnostics) {
    lint_unreachable_arms(facts, diags);
    lint_unreachable_types(facts, diags);
    lint_unused_params(facts, diags);
    lint_trivial_constraints(facts.schema(), diags);
    lint_unconstrained_fields(facts, diags);
}

/// `PL201`: arms after an always-succeeding arm (no constraint, can match
/// empty input, nothing inside can reject) in an ordered union.
fn lint_unreachable_arms(facts: &FactBase<'_>, diags: &mut Diagnostics) {
    for def in &facts.schema().types {
        let TypeKind::Union { switch: None, branches } = &def.kind else { continue };
        let Some(catch_all) = branches.iter().position(|b| facts.of_branch(b).always_succeeds())
        else {
            continue;
        };
        for dead in &branches[catch_all + 1..] {
            diags.push(
                "PL201",
                dead.field.span,
                format!(
                    "arm `{}` of union `{}` is unreachable: earlier arm `{}` always \
                     succeeds (it can match empty input and has no constraint)",
                    dead.field.name,
                    def.name,
                    branches[catch_all].field.name
                ),
                Some(format!(
                    "move `{}` last or constrain it so it can fail",
                    branches[catch_all].field.name
                )),
            );
        }
    }
}

/// `PL202`: declarations not reachable from the `Psource` type.
fn lint_unreachable_types(facts: &FactBase<'_>, diags: &mut Diagnostics) {
    let schema = facts.schema();
    let mut reachable: HashSet<TypeId> = HashSet::new();
    let mut stack = vec![schema.source()];
    while let Some(id) = stack.pop() {
        if reachable.insert(id) {
            stack.extend(&facts.of_type(id).refs);
        }
    }
    for (id, def) in schema.types.iter().enumerate() {
        if !reachable.contains(&id) {
            diags.push(
                "PL202",
                def.span,
                format!(
                    "type `{}` is never reached from source type `{}`",
                    def.name,
                    schema.source_def().name
                ),
                Some("remove the declaration or reference it from a reachable type".to_owned()),
            );
        }
    }
}

/// `PL203`: declaration parameters no expression reads.
fn lint_unused_params(facts: &FactBase<'_>, diags: &mut Diagnostics) {
    for (id, def) in facts.schema().types.iter().enumerate() {
        let used = &facts.of_type(id).idents;
        for p in def.params.iter().filter(|p| !used.contains(&p.name.as_str())) {
            diags.push(
                "PL203",
                def.span,
                format!("parameter `{}` of `{}` is never used", p.name, def.name),
                Some("remove the parameter (and the argument at every use site)".to_owned()),
            );
        }
    }
}

/// `PL204`/`PL205`: constraints that constant-fold.
fn lint_trivial_constraints(schema: &Schema, diags: &mut Diagnostics) {
    let check = |e: &Expr, span: pads_syntax::Span, what: &str, diags: &mut Diagnostics| {
        match const_fold(e).and_then(Const::as_bool) {
            Some(true) => diags.push(
                "PL204",
                span,
                format!("{what} is always true: it never rejects anything"),
                Some("remove the constraint or reference the parsed value".to_owned()),
            ),
            Some(false) => diags.push(
                "PL205",
                span,
                format!("{what} is always false: no input can ever satisfy it"),
                Some("fix the condition; as written every parse fails here".to_owned()),
            ),
            None => {}
        }
    };
    for def in &schema.types {
        match &def.kind {
            TypeKind::Struct { members } => {
                for m in members {
                    if let MemberIr::Field(f) = m {
                        if let Some(c) = &f.constraint {
                            check(c, f.span, &format!("constraint on field `{}`", f.name), diags);
                        }
                    }
                }
            }
            TypeKind::Union { branches, .. } => {
                for b in branches {
                    if let Some(c) = &b.field.constraint {
                        check(
                            c,
                            b.field.span,
                            &format!("constraint on arm `{}`", b.field.name),
                            diags,
                        );
                    }
                }
            }
            TypeKind::Array { ended: Some(e), .. } => {
                check(e, def.span, &format!("`Pended` predicate of `{}`", def.name), diags);
            }
            TypeKind::Typedef { pred: Some(p), .. } => {
                check(p, def.span, &format!("predicate of typedef `{}`", def.name), diags);
            }
            _ => {}
        }
        if let Some(w) = &def.where_clause {
            check(w, def.span, &format!("`Pwhere` clause of `{}`", def.name), diags);
        }
    }
}

/// `PL206` (allow-level): struct fields no constraint anywhere mentions.
fn lint_unconstrained_fields(facts: &FactBase<'_>, diags: &mut Diagnostics) {
    // Any expression in the schema may reference a field by name (scoping
    // rules keep this sound enough for an allow-level note).
    let schema = facts.schema();
    let mentioned: HashSet<&str> =
        (0..schema.types.len()).flat_map(|id| facts.of_type(id).idents.iter().copied()).collect();
    for def in &schema.types {
        let TypeKind::Struct { members } = &def.kind else { continue };
        for m in members {
            let MemberIr::Field(f) = m else { continue };
            if f.constraint.is_none() && !mentioned.contains(f.name.as_str()) {
                diags.push(
                    "PL206",
                    f.span,
                    format!(
                        "field `{}` of `{}` is referenced by no constraint",
                        f.name, def.name
                    ),
                    None,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Level;
    use pads_runtime::Registry;

    fn reach_lints(src: &str) -> Vec<(String, Level)> {
        let schema = crate::compile(src, &Registry::standard()).expect("compiles");
        let mut diags = Diagnostics::default();
        lint_reachability(&FactBase::of(&schema), &mut diags);
        diags.iter().map(|d| (d.code.to_owned(), d.level)).collect()
    }

    #[test]
    fn arm_after_always_succeeding_arm_is_dead() {
        let lints = reach_lints("Punion u_t { Pstring(:'|':) text; Puint32 num; };");
        assert_eq!(lints, vec![("PL201".to_owned(), Level::Deny)]);
    }

    #[test]
    fn constrained_nullable_arm_keeps_later_arms_alive() {
        let lints =
            reach_lints("Punion u_t { Pstring(:'|':) text : text != \"\"; Puint32 num; };");
        assert!(lints.is_empty(), "{lints:?}");
    }

    #[test]
    fn unreachable_type_and_unused_param() {
        let lints = reach_lints(
            r#"
            Pstruct orphan_t { Puint8 x; };
            Pstruct keep_t (:Puint8 n:) { Puint8 y; };
            Psource Pstruct top_t { keep_t(:3:) k; };
            "#,
        );
        assert!(lints.contains(&("PL202".to_owned(), Level::Warn)), "{lints:?}");
        assert!(lints.contains(&("PL203".to_owned(), Level::Warn)), "{lints:?}");
    }

    #[test]
    fn enum_used_only_in_constraint_is_reachable() {
        let lints = reach_lints(
            r#"
            Penum sev_t { LOW, MED, HIGH };
            Psource Pstruct t { Puint8 code : code != LOW; };
            "#,
        );
        assert!(lints.is_empty(), "{lints:?}");
    }

    #[test]
    fn trivial_constraints_fold_both_ways() {
        let lints = reach_lints("Pstruct t { Puint8 a : 1 < 2; Puint8 b : 2 < 1; };");
        assert!(lints.contains(&("PL204".to_owned(), Level::Warn)), "{lints:?}");
        assert!(lints.contains(&("PL205".to_owned(), Level::Deny)), "{lints:?}");
    }

    #[test]
    fn unconstrained_field_note_is_allow_level() {
        let schema =
            crate::compile("Pstruct t { Puint8 a; };", &Registry::standard()).expect("compiles");
        let mut diags = Diagnostics::default();
        lint_reachability(&FactBase::of(&schema), &mut diags);
        // Not in the default iteration…
        assert_eq!(diags.iter().count(), 0);
        // …but present for explicit consumers.
        assert!(diags.iter_all().any(|d| d.code == "PL206"));
    }
}
