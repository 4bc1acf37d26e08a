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

use pads_runtime::ops::{self, Scalar};
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

/// Best-effort constant folding with the runtime's operators
/// ([`crate::apply`]): literals and operators over them, so a constraint
/// folds to the verdict every tier reaches. Anything touching parsed data
/// or parameters, or failing to evaluate, folds to `None`; `&&` and `||`
/// fold when either side decides them.
pub(crate) fn const_fold(e: &Expr) -> Option<Scalar<'_>> {
    let truth = |e| const_fold(e).and_then(|c| ops::truth(c).ok());
    Some(match e {
        Expr::Int(v) => Scalar::Int(*v),
        Expr::Char(c) => Scalar::Char(*c),
        Expr::Bool(b) => Scalar::Bool(*b),
        Expr::Float(f) => Scalar::Float(*f),
        Expr::Str(s) => Scalar::Str(s),
        Expr::Unary(UnOp::Not, a) => Scalar::Bool(!truth(a)?),
        Expr::Unary(UnOp::Neg, a) => ops::neg(const_fold(a)?).ok()?,
        Expr::Binary(op @ (BinOp::And | BinOp::Or), a, b) => {
            // `false && x` and `true || x` fold without `x`, from either side.
            let decisive = *op == BinOp::Or;
            match (truth(a), truth(b)) {
                (Some(x), _) | (_, Some(x)) if x == decisive => Scalar::Bool(decisive),
                (Some(_), Some(_)) => Scalar::Bool(!decisive),
                _ => return None,
            }
        }
        Expr::Binary(op, a, b) => crate::apply(*op, const_fold(a)?, const_fold(b)?).ok()?,
        Expr::Ternary(c, t, f) => const_fold(if truth(c)? { t } else { f })?,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pads_syntax::parse_expr;

    fn fold_src(src: &str) -> Option<Scalar<'static>> {
        const_fold(Box::leak(Box::new(parse_expr(src).expect("parses"))))
    }

    #[test]
    fn folds_arithmetic_and_logic() {
        assert_eq!(fold_src("1 + 2 * 3"), Some(Scalar::Int(7)));
        assert_eq!(fold_src("1 < 2 && 3 != 3"), Some(Scalar::Bool(false)));
        assert_eq!(fold_src("false && nosuch"), Some(Scalar::Bool(false)));
        assert_eq!(fold_src("true || nosuch"), Some(Scalar::Bool(true)));
        assert_eq!(fold_src("'a' == 97"), Some(Scalar::Bool(true)));
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
