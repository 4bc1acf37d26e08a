//! Static-analysis lints over checked schemas.
//!
//! The checker ([`crate::check`]) rejects ill-formed descriptions; these
//! passes go further and flag descriptions that are *well-formed but
//! operationally suspect* — the mistakes that otherwise only surface at
//! parse time on real data:
//!
//! * **Ambiguity** ([`ambiguity`]): union arms shadowed by an earlier arm
//!   whose admissible first bytes cover them, `Pswitch` unions with
//!   duplicate case values or no `Pdefault`, and `Popt` wrappers whose
//!   inner type always succeeds.
//! * **Progress** ([`progress`]): arrays whose element can match empty
//!   input with nothing else forcing consumption — the potential infinite
//!   loops the runtime only escapes via its zero-width guard.
//! * **Reachability** ([`reach`]): unreachable union arms, type
//!   declarations never reached from the source type, unused parameters,
//!   and constraints that constant-fold to `true`/`false`.
//! * **Width/value** ([`width`]): union arms indistinguishable within any
//!   finite lookahead, string terminators the following data can never
//!   produce, and constraints whose value interval is empty over the base
//!   type's range.
//!
//! Each pass is a query over one [`FactBase`], computed once per run.
//!
//! Every finding is a [`Diagnostic`] with a stable `PLxxx` code, a default
//! [`Level`], a source span, and a fix hint; [`render`] prints them in
//! rustc style with underlined source snippets. Run everything with
//! [`lint_schema`] (or [`crate::compile_with_lints`]).
//!
//! # Examples
//!
//! ```
//! use pads_runtime::Registry;
//!
//! let (schema, diags) = pads_check::compile_with_lints(
//!     "Punion u_t { Pstring(:'|':) text; Puint32 num; };",
//!     &Registry::standard(),
//! )?;
//! assert_eq!(schema.source_def().name, "u_t");
//! // `text` can match the empty string, so `num` is unreachable.
//! assert!(diags.iter().any(|d| d.code == "PL201"));
//! # Ok::<(), pads_check::CompileError>(())
//! ```

pub mod ambiguity;
pub mod progress;
pub mod reach;
pub mod render;
pub mod width;

use pads_syntax::ast::{BinOp, Expr, UnOp};
use pads_syntax::Span;

use crate::facts::FactBase;
use crate::ir::Schema;

/// Severity a lint fires at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Informational; suppressed unless explicitly requested.
    Allow,
    /// Suspicious but plausibly intentional.
    Warn,
    /// Almost certainly a bug in the description.
    Deny,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Level::Allow => f.write_str("note"),
            Level::Warn => f.write_str("warning"),
            Level::Deny => f.write_str("error"),
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code (`"PL001"`, …).
    pub code: &'static str,
    /// Severity.
    pub level: Level,
    /// Where in the description the finding anchors.
    pub span: Span,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the lint knows.
    pub hint: Option<String>,
}

/// The catalogue of lint codes: `(code, default level, summary)`.
/// `docs/LINTS.md` documents each with a triggering example.
pub const CODES: &[(&str, Level, &str)] = &[
    ("PL001", Level::Warn, "union arm shadowed by an earlier arm's first-set"),
    ("PL002", Level::Deny, "duplicate Pswitch case value"),
    ("PL003", Level::Warn, "Pswitch union without a Pdefault arm"),
    ("PL004", Level::Warn, "Popt of a type that always succeeds"),
    ("PL101", Level::Deny, "array over a possibly-empty element cannot make progress"),
    ("PL102", Level::Warn, "array progress depends on unprovable element consumption"),
    ("PL103", Level::Warn, "Pforall range is vacuously empty"),
    ("PL201", Level::Deny, "union arm unreachable after an always-succeeding arm"),
    ("PL202", Level::Warn, "type declaration never reached from the source type"),
    ("PL203", Level::Warn, "unused type parameter"),
    ("PL204", Level::Warn, "constraint is trivially true"),
    ("PL205", Level::Deny, "constraint is trivially false"),
    ("PL206", Level::Allow, "field referenced by no constraint"),
    ("PL301", Level::Warn, "union arms indistinguishable within any finite lookahead"),
    ("PL302", Level::Warn, "field terminator capturable by the field's own content"),
    ("PL303", Level::Deny, "constraint value interval is unsatisfiable"),
    ("PL304", Level::Allow, "array element width is zero only on the error path"),
];

/// The default level of a lint code.
///
/// # Panics
///
/// Panics if `code` is not in [`CODES`] (lint passes only emit registered
/// codes; this is checked by tests).
#[allow(clippy::expect_used)]
pub fn default_level(code: &str) -> Level {
    CODES
        .iter()
        .find(|(c, _, _)| *c == code)
        .map(|(_, l, _)| *l)
        .expect("lint code is registered in CODES")
}

/// An ordered collection of lint findings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    diags: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Adds a finding at its code's default level.
    pub(crate) fn push(
        &mut self,
        code: &'static str,
        span: Span,
        message: impl Into<String>,
        hint: Option<String>,
    ) {
        self.diags.push(Diagnostic {
            code,
            level: default_level(code),
            span,
            message: message.into(),
            hint,
        });
    }

    /// Sorts findings by (span start, code) for stable output.
    pub(crate) fn sort(&mut self) {
        self.diags
            .sort_by(|a, b| (a.span.start, a.code, a.span.end).cmp(&(b.span.start, b.code, b.span.end)));
    }

    /// Iterates over findings at [`Level::Warn`] and above.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(|d| d.level > Level::Allow)
    }

    /// Iterates over every finding, including [`Level::Allow`] notes.
    pub fn iter_all(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter()
    }

    /// Number of findings at `level` or above.
    pub fn count_at(&self, level: Level) -> usize {
        self.diags.iter().filter(|d| d.level >= level).count()
    }

    /// Whether any finding reaches `level`.
    pub fn any_at(&self, level: Level) -> bool {
        self.count_at(level) > 0
    }

    /// Whether no findings above [`Level::Allow`] were produced.
    pub fn is_clean(&self) -> bool {
        !self.any_at(Level::Warn)
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;

    fn into_iter(self) -> Self::IntoIter {
        self.diags.into_iter()
    }
}

/// Runs every lint pass over a checked schema.
pub fn lint_schema(schema: &Schema) -> Diagnostics {
    let facts = FactBase::of(schema);
    let mut diags = Diagnostics::default();
    ambiguity::lint_ambiguity(&facts, &mut diags);
    progress::lint_progress(&facts, &mut diags);
    reach::lint_reachability(&facts, &mut diags);
    width::lint_width(&facts, &mut diags);
    diags.sort();
    diags
}

/// A constant an expression folds to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Const {
    /// Integer (also chars and folded comparisons of numbers).
    Int(i64),
    /// Boolean.
    Bool(bool),
}

impl Const {
    pub(crate) fn as_int(self) -> Option<i64> {
        match self {
            Const::Int(v) => Some(v),
            Const::Bool(_) => None,
        }
    }

    pub(crate) fn as_bool(self) -> Option<bool> {
        match self {
            Const::Bool(v) => Some(v),
            Const::Int(_) => None,
        }
    }
}

/// Best-effort constant folding over the constraint language: literals and
/// arithmetic/logic over them. Anything touching parsed data, parameters,
/// floats, or strings folds to `None`.
pub(crate) fn const_fold(e: &Expr) -> Option<Const> {
    match e {
        Expr::Int(v) => Some(Const::Int(*v)),
        Expr::Char(c) => Some(Const::Int(*c as i64)),
        Expr::Bool(b) => Some(Const::Bool(*b)),
        Expr::Unary(UnOp::Not, a) => Some(Const::Bool(!const_fold(a)?.as_bool()?)),
        Expr::Unary(UnOp::Neg, a) => Some(Const::Int(const_fold(a)?.as_int()?.checked_neg()?)),
        Expr::Binary(op, a, b) => {
            // Short-circuit forms first: `false && x` folds without `x`.
            if let BinOp::And | BinOp::Or = op {
                let la = const_fold(a).and_then(Const::as_bool);
                let lb = const_fold(b).and_then(Const::as_bool);
                return match (op, la, lb) {
                    (BinOp::And, Some(false), _) | (BinOp::And, _, Some(false)) => {
                        Some(Const::Bool(false))
                    }
                    (BinOp::Or, Some(true), _) | (BinOp::Or, _, Some(true)) => {
                        Some(Const::Bool(true))
                    }
                    (_, Some(x), Some(y)) => Some(Const::Bool(match op {
                        BinOp::And => x && y,
                        _ => x || y,
                    })),
                    _ => None,
                };
            }
            let ca = const_fold(a)?;
            let cb = const_fold(b)?;
            if let (BinOp::Eq | BinOp::Ne, Some(x), Some(y)) = (*op, ca.as_bool(), cb.as_bool()) {
                return Some(Const::Bool(if *op == BinOp::Eq { x == y } else { x != y }));
            }
            let x = ca.as_int()?;
            let y = cb.as_int()?;
            Some(match op {
                BinOp::Add => Const::Int(x.checked_add(y)?),
                BinOp::Sub => Const::Int(x.checked_sub(y)?),
                BinOp::Mul => Const::Int(x.checked_mul(y)?),
                BinOp::Div => Const::Int(x.checked_div(y)?),
                BinOp::Rem => Const::Int(x.checked_rem(y)?),
                BinOp::Eq => Const::Bool(x == y),
                BinOp::Ne => Const::Bool(x != y),
                BinOp::Lt => Const::Bool(x < y),
                BinOp::Le => Const::Bool(x <= y),
                BinOp::Gt => Const::Bool(x > y),
                BinOp::Ge => Const::Bool(x >= y),
                BinOp::And | BinOp::Or => return None, // handled above
            })
        }
        Expr::Ternary(c, t, f) => {
            let cond = const_fold(c)?.as_bool()?;
            const_fold(if cond { t } else { f })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pads_syntax::parse_expr;

    fn fold_src(src: &str) -> Option<Const> {
        const_fold(&parse_expr(src).expect("parses"))
    }

    #[test]
    fn folds_arithmetic_and_logic() {
        assert_eq!(fold_src("1 + 2 * 3"), Some(Const::Int(7)));
        assert_eq!(fold_src("1 < 2 && 3 != 3"), Some(Const::Bool(false)));
        assert_eq!(fold_src("false && nosuch"), Some(Const::Bool(false)));
        assert_eq!(fold_src("true || nosuch"), Some(Const::Bool(true)));
        assert_eq!(fold_src("'a' == 97"), Some(Const::Bool(true)));
        assert_eq!(fold_src("1 ? 2 : x"), None); // non-bool condition
        assert_eq!(fold_src("x + 1"), None);
    }

    #[test]
    fn every_emitted_code_is_registered() {
        // `default_level` panics on unregistered codes; exercise the table.
        for (code, _, _) in CODES {
            let _ = default_level(code);
        }
    }

    #[test]
    fn division_by_zero_does_not_fold() {
        assert_eq!(fold_src("1 / 0"), None);
        assert_eq!(fold_src("1 % 0"), None);
    }
}
