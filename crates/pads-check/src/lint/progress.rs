//! Progress/termination analysis for arrays (`PL101`–`PL103`).
//!
//! An unsized array keeps reading elements until a separator mismatch, a
//! terminator, or its `Pended` predicate stops it. If the element itself
//! can match *empty* input and nothing else forces the cursor forward, the
//! loop only ends because the runtime carries a zero-width guard — the
//! description is almost certainly wrong. This pass flags those arrays.
//! Every engine keeps the guard whatever it finds: the analysis informs the
//! author, it does not specialise a parser.

use pads_syntax::ast::{BinOp, Expr};

use crate::facts::{FactBase, Nullability};
use crate::ir::{TyUse, TypeId, TypeKind};
use crate::lint::{const_fold, Const, Diagnostics};

/// What the analysis can prove about an unsized array's read loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Progress {
    /// Every iteration consumes at least one byte: the element is proven
    /// non-empty. The runtime's zero-width guard never fires.
    Proven,
    /// A separator or termination condition bounds the loop, but a single
    /// iteration may be zero-width; the guard stays live.
    Guarded,
    /// Nothing bounds a zero-width element: only the guard stops the loop.
    Stuck,
}

/// Classifies the read loop of array declaration `id`.
///
/// Sized arrays (`[n]` with a size expression) iterate a bounded count and
/// are always [`Progress::Proven`] for the purpose of loop termination.
pub(crate) fn array_progress(facts: &FactBase<'_>, id: TypeId) -> Progress {
    let TypeKind::Array { elem, sep, term, ended, size } = &facts.schema().def(id).kind else {
        return Progress::Proven;
    };
    if size.is_some() {
        return Progress::Proven;
    }
    match facts.of_use(elem).null {
        Nullability::NonEmpty => Progress::Proven,
        Nullability::MaybeEmpty | Nullability::Unknown => {
            // A separator forces consumption *between* elements, any
            // termination condition can still stop the loop, and a record
            // element ends at its record's boundary (past its newline or
            // length header) — but none guarantees the first iteration
            // moves (a zero-width discipline does not), so the guard is live.
            let record =
                matches!(elem, TyUse::Named { id, .. } if facts.schema().def(*id).is_record);
            if sep.is_some() || term.is_some() || ended.is_some() || record {
                Progress::Guarded
            } else {
                Progress::Stuck
            }
        }
    }
}

/// The progress lints: `PL101` (array can never make progress), `PL102`
/// (progress unprovable), `PL103` (vacuous `Pforall` range), and `PL304`
/// (width analysis proves every *successful* element parse consumes at
/// least one byte, so the zero-width guard only matters on error paths —
/// the sharpened, note-level form of `PL102`).
pub(crate) fn lint_progress(facts: &FactBase<'_>, diags: &mut Diagnostics) {
    for (id, def) in facts.schema().types.iter().enumerate() {
        if let TypeKind::Array { elem, .. } = &def.kind {
            let ef = facts.of_use(elem);
            // Width analysis can prove progress the nullability lattice
            // cannot: a constrained element whose successful matches all
            // consume input (e.g. `Pwhere x != ""` on a terminated
            // string) loops only while the data actually moves.
            let width_proven = ef.width.nonzero();
            let progress = array_progress(facts, id);
            if width_proven && progress != Progress::Proven {
                diags.push(
                    "PL304",
                    def.span,
                    format!(
                        "array `{}` is safe despite its possibly-empty element: width \
                         analysis proves every successful element parse consumes at \
                         least one byte (zero width only occurs on the error path)",
                        def.name
                    ),
                    None,
                );
            }
            match progress {
                _ if width_proven => {}
                Progress::Proven => {}
                Progress::Stuck if ef.null == Nullability::MaybeEmpty => diags.push(
                    "PL101",
                    def.span,
                    format!(
                        "array `{}` cannot make progress: its element can match empty \
                         input and no separator, terminator, or size bounds the loop",
                        def.name
                    ),
                    Some(
                        "add `Psep`/`Pterm`, a size, or make the element consume at \
                         least one byte"
                            .to_owned(),
                    ),
                ),
                Progress::Stuck => diags.push(
                    "PL102",
                    def.span,
                    format!(
                        "array `{}` may not make progress: the element's minimum width \
                         is unknown and nothing else bounds the loop",
                        def.name
                    ),
                    Some(
                        "add `Psep`/`Pterm`/a size, or use an element type with a \
                         known non-zero width"
                            .to_owned(),
                    ),
                ),
                Progress::Guarded if ef.null == Nullability::MaybeEmpty => diags.push(
                    "PL102",
                    def.span,
                    format!(
                        "array `{}` relies on the runtime zero-width guard: its element \
                         can match empty input, so an iteration may consume nothing",
                        def.name
                    ),
                    Some("make the element consume at least one byte".to_owned()),
                ),
                Progress::Guarded => {}
            }
        }
        // Vacuous Pforall ranges: `Pforall (i Pin [lo..hi] : …)` where the
        // constant bounds are empty. The checker lowers Pforall into the
        // where-clause as a call; we look for range comparisons that fold.
        if let Some(w) = &def.where_clause {
            check_vacuous_ranges(w, def.span, &def.name, diags);
        }
    }
}

/// Flags `lo <= x && x <= hi`-shaped conjunctions (and `Pforall` lowered
/// ranges) whose constant bounds exclude every value.
fn check_vacuous_ranges(e: &Expr, span: pads_syntax::Span, owner: &str, diags: &mut Diagnostics) {
    match e {
        Expr::Forall { lo, hi, body, .. } => {
            if let (Some(l), Some(h)) = (
                const_fold(lo).and_then(Const::as_int),
                const_fold(hi).and_then(Const::as_int),
            ) {
                if l > h {
                    diags.push(
                        "PL103",
                        span,
                        format!(
                            "`Pforall` range `[{l}..{h}]` in `{owner}` is empty: the \
                             constraint never checks anything"
                        ),
                        Some("fix the bounds (low must not exceed high)".to_owned()),
                    );
                }
            }
            check_vacuous_ranges(body, span, owner, diags);
        }
        Expr::Binary(BinOp::And | BinOp::Or, a, b) => {
            check_vacuous_ranges(a, span, owner, diags);
            check_vacuous_ranges(b, span, owner, diags);
        }
        Expr::Unary(_, a) => check_vacuous_ranges(a, span, owner, diags),
        Expr::Ternary(c, t, f) => {
            check_vacuous_ranges(c, span, owner, diags);
            check_vacuous_ranges(t, span, owner, diags);
            check_vacuous_ranges(f, span, owner, diags);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pads_runtime::Registry;

    fn progress_of(src: &str) -> (Progress, Diagnostics) {
        let schema = crate::compile(src, &Registry::standard()).expect("compiles");
        let facts = FactBase::of(&schema);
        let mut diags = Diagnostics::default();
        lint_progress(&facts, &mut diags);
        (array_progress(&facts, schema.source()), diags)
    }

    #[test]
    fn nonempty_element_proves_progress() {
        let (p, diags) = progress_of("Parray t { Puint32[] : Psep(',') && Pterm(Peor); };");
        assert_eq!(p, Progress::Proven);
        assert_eq!(diags.iter().count(), 0);
    }

    #[test]
    fn empty_capable_element_without_bounds_is_stuck() {
        let (p, diags) = progress_of("Parray t { Pstring(:'|':)[]; };");
        assert_eq!(p, Progress::Stuck);
        assert_eq!(diags.iter().map(|d| d.code).collect::<Vec<_>>(), vec!["PL101"]);
    }

    #[test]
    fn separator_demotes_to_guarded() {
        let (p, diags) =
            progress_of("Parray t { Pstring(:',':)[] : Psep(',') && Pterm(Peor); };");
        assert_eq!(p, Progress::Guarded);
        assert_eq!(diags.iter().map(|d| d.code).collect::<Vec<_>>(), vec!["PL102"]);
    }

    #[test]
    fn record_element_demotes_to_guarded() {
        // An empty record still ends at its boundary: the nibbles of one
        // record each, to the end of the source.
        let (p, diags) = progress_of(
            "Precord Parray r_t { Pbits(:4:)[] : Pterm(Peor); };\nPsource Parray t { r_t[]; };",
        );
        assert_eq!(p, Progress::Guarded);
        assert_eq!(diags.iter().map(|d| d.code).collect::<Vec<_>>(), vec!["PL102"]);
    }

    #[test]
    fn width_proven_element_downgrades_to_note() {
        // The element can match empty input syntactically, but the
        // constraint rejects empty matches: PL102 is replaced by the
        // note-level PL304.
        let (p, diags) = progress_of(
            "Ptypedef Pstring(:',':) word_t : word_t w => { w != \"\" };\n\
             Psource Parray t { word_t[] : Psep(',') && Pterm(Peor); };",
        );
        assert_eq!(p, Progress::Guarded);
        assert_eq!(diags.iter().count(), 0, "no warnings");
        assert_eq!(diags.iter_all().map(|d| d.code).collect::<Vec<_>>(), vec!["PL304"]);
    }

    #[test]
    fn nullable_regex_terminator_keeps_guard() {
        // `inner_t` can match zero bytes: its element list may be empty and
        // `Pre "a*"` matches the empty string, so the outer array over it
        // cannot prove progress.
        let (p, _) = progress_of(
            r#"Parray inner_t { Puint8[] : Pterm(Pre "a*"); };
               Psource Parray outer_t { inner_t[]; };"#,
        );
        assert_ne!(p, Progress::Proven);
    }

    #[test]
    fn sized_arrays_always_terminate() {
        let (p, diags) = progress_of("Parray t { Pstring(:'|':)[4] : Psep('|'); };");
        assert_eq!(p, Progress::Proven);
        assert_eq!(diags.iter().count(), 0);
    }
}
