//! Parse descriptors: the error side of every parse result.
//!
//! A PADS parse returns a *pair*: the in-memory representation and a parse
//! descriptor that mirrors its structure (paper §1, §4, Figure 6). The
//! descriptor records, per node, the parse state, the number of errors in
//! the subtree, the first error's code, and its location — enough for an
//! application to halt, discard, or repair in whatever way it needs.

use crate::error::{ErrorCode, Loc, ParseState};
use crate::name::Name;

/// Structure-specific payload of a [`ParseDesc`].
#[derive(Debug, Clone, PartialEq, Default)]
pub enum PdKind {
    /// Base types, enums, literals.
    #[default]
    Base,
    /// One descriptor per named field, in declaration order.
    Struct {
        /// `(field name, descriptor)` pairs.
        fields: Vec<(Name, ParseDesc)>,
    },
    /// Descriptor of the branch that was taken.
    Union {
        /// Name of the branch taken.
        branch: Name,
        /// Descriptor of the taken branch's value; `None` when the branch
        /// parsed clean (the descriptor would be [`ParseDesc::CLEAN`]), so
        /// the hot path never boxes an all-ok child.
        pd: Option<Box<ParseDesc>>,
    },
    /// One descriptor per element, plus element-error aggregates
    /// (`neerr` / `firstError` in the paper's generated XML Schema).
    Array {
        /// Per-element descriptors.
        elts: Vec<ParseDesc>,
        /// Number of elements containing errors.
        neerr: u32,
        /// Index of the first erroneous element.
        first_error: Option<usize>,
    },
    /// `Popt`: descriptor of the present value, if any.
    Opt {
        /// Descriptor for the value when present.
        inner: Option<Box<ParseDesc>>,
    },
    /// Descriptor of the underlying type of a `Ptypedef`; `None` when the
    /// underlying parse was clean (same elision as `Union`).
    ///
    /// Every engine — interpreter, VM and generated code — nests the same
    /// way, whether the underlying type is a base type or a named one: an
    /// underlying error stays on the underlying descriptor, and the
    /// typedef's own node absorbs it (its `nerr`, its state, and
    /// `NestedError` at the underlying error's location). The typedef's
    /// own code is set only when its constraint fails on a clean
    /// underlying value (`ConstraintViolation`).
    Typedef {
        /// Underlying descriptor.
        inner: Option<Box<ParseDesc>>,
    },
}

impl PdKind {
    /// A union descriptor payload; a trivially-clean branch descriptor is
    /// elided to `None` so both engines produce identical (and unboxed)
    /// clean-path descriptors.
    pub fn union(branch: impl Into<Name>, pd: ParseDesc) -> PdKind {
        PdKind::Union { branch: branch.into(), pd: boxed_unless_clean(pd) }
    }

    /// A union descriptor payload with a clean (elided) branch descriptor.
    pub fn union_ok(branch: impl Into<Name>) -> PdKind {
        PdKind::Union { branch: branch.into(), pd: None }
    }

    /// A typedef descriptor payload with the same clean-elision rule as
    /// [`PdKind::union`].
    pub fn typedef(inner: ParseDesc) -> PdKind {
        PdKind::Typedef { inner: boxed_unless_clean(inner) }
    }

    /// A present-optional descriptor payload. A trivially-clean inner
    /// descriptor is elided — consumers must use the *value* to decide
    /// presence (`Value::Opt`), never `inner.is_some()`.
    pub fn opt(inner: ParseDesc) -> PdKind {
        PdKind::Opt { inner: boxed_unless_clean(inner) }
    }
}

/// Boxes `pd` unless it is trivially clean ([`ParseDesc::is_clean`]).
fn boxed_unless_clean(pd: ParseDesc) -> Option<Box<ParseDesc>> {
    if pd.is_clean() {
        None
    } else {
        Some(Box::new(pd))
    }
}

/// Builder for array element descriptors with clean-elision: while every
/// element is clean nothing is stored (an all-clean array descriptor has
/// empty `elts`, the dominant case, costing zero allocations), and once
/// any element carries an error the vector is backfilled with
/// [`ParseDesc::CLEAN`] so positional `elts.get(i)` lookups still line up
/// with the value array. Stored clean elements are normalised to `CLEAN`,
/// which keeps the representation canonical across both engines.
#[derive(Debug, Default)]
pub struct SparseElts {
    pds: Vec<ParseDesc>,
    elided: usize,
}

impl SparseElts {
    /// An empty builder.
    pub fn new() -> SparseElts {
        SparseElts::default()
    }

    /// Appends the next element's descriptor.
    pub fn push(&mut self, pd: ParseDesc) {
        if pd.is_clean() {
            if self.pds.is_empty() {
                self.elided += 1;
            } else {
                self.pds.push(ParseDesc::CLEAN);
            }
        } else {
            if self.pds.is_empty() && self.elided > 0 {
                self.pds.reserve(self.elided + 1);
                self.pds.resize(self.elided, ParseDesc::CLEAN);
            }
            self.pds.push(pd);
        }
    }

    /// The per-element descriptors: empty when every element was clean.
    pub fn finish(self) -> Vec<ParseDesc> {
        self.pds
    }
}

/// A parse descriptor node (`*_pd` in the paper's generated C).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParseDesc {
    /// Overall state of this node's parse.
    pub state: ParseState,
    /// Total number of errors detected in this subtree.
    pub nerr: u32,
    /// Code of the first error detected in this subtree.
    pub err_code: ErrorCode,
    /// Location of the first error.
    pub loc: Option<Loc>,
    /// Structure-shaped children.
    pub kind: PdKind,
}

impl ParseDesc {
    /// The canonical clean leaf descriptor. Clean-elided `Union`/`Typedef`
    /// children (`pd: None`) stand for exactly this value.
    pub const CLEAN: ParseDesc = ParseDesc {
        state: ParseState::Ok,
        nerr: 0,
        err_code: ErrorCode::Good,
        loc: None,
        kind: PdKind::Base,
    };

    /// A clean descriptor for a leaf value.
    pub fn ok() -> ParseDesc {
        ParseDesc::default()
    }

    /// A leaf descriptor carrying one error.
    pub fn error(code: ErrorCode, loc: Loc) -> ParseDesc {
        ParseDesc {
            state: ParseState::Ok,
            nerr: 1,
            err_code: code,
            loc: Some(loc),
            kind: PdKind::Base,
        }
    }

    /// Whether this subtree is error-free.
    pub fn is_ok(&self) -> bool {
        self.nerr == 0
    }

    /// Whether this descriptor is *trivially* clean — no errors, `Ok`
    /// state, no location, and no structure worth keeping (`Base`, a
    /// sparse `Struct` with no error children, or a `Typedef` whose inner
    /// descriptor was itself elided). This is the predicate behind every
    /// clean-elision site: a `None`/absent child descriptor stands for
    /// exactly such a value.
    pub fn is_clean(&self) -> bool {
        let clean_kind = match &self.kind {
            PdKind::Base => true,
            PdKind::Struct { fields } => fields.is_empty(),
            PdKind::Typedef { inner } => inner.is_none(),
            _ => false,
        };
        clean_kind
            && self.nerr == 0
            && self.state == ParseState::Ok
            && self.err_code == ErrorCode::Good
            && self.loc.is_none()
    }

    /// Records an error on this node (first error wins for code/location).
    pub fn add_error(&mut self, code: ErrorCode, loc: Loc) {
        self.nerr += 1;
        if self.err_code == ErrorCode::Good {
            self.err_code = code;
            self.loc = Some(loc);
        }
    }

    /// Records a predicate's verdict: `false` as `violation`, an evaluation
    /// error as its own code.
    pub fn add_verdict(
        &mut self,
        verdict: Result<bool, ErrorCode>,
        violation: ErrorCode,
        loc: Loc,
    ) {
        match verdict {
            Ok(true) => {}
            Ok(false) => self.add_error(violation, loc),
            Err(code) => self.add_error(code, loc),
        }
    }

    /// Records a source-level condition (budget exhaustion, trailing data)
    /// that must stay visible at the root of the descriptor tree: unlike
    /// [`add_error`](ParseDesc::add_error), the code also replaces the
    /// synthetic `NestedError` placeholder so [`errors`](ParseDesc::errors)
    /// reports it even when nested components failed first.
    pub fn add_root_error(&mut self, code: ErrorCode, loc: Loc) {
        self.nerr += 1;
        if matches!(self.err_code, ErrorCode::Good | ErrorCode::NestedError) {
            self.err_code = code;
            self.loc = Some(loc);
        }
    }

    /// Records a panic-mode resynchronisation that skipped the byte span
    /// `loc`. The node is marked [`ParseState::Panic`] and the skip is kept
    /// observable in [`errors`](ParseDesc::errors) even when the node
    /// already carries other errors: struct descriptors get a synthetic
    /// `(panic)` child, other shapes promote `PanicSkipped` over the
    /// synthetic `NestedError` placeholder.
    pub fn note_panic_skip(&mut self, loc: Loc) {
        self.state = ParseState::Panic;
        self.nerr += 1;
        if let PdKind::Struct { fields } = &mut self.kind {
            fields.push((Name::from_static("(panic)"), ParseDesc::error(ErrorCode::PanicSkipped, loc)));
            if self.err_code == ErrorCode::Good {
                self.err_code = ErrorCode::NestedError;
                self.loc = Some(loc);
            }
        } else if matches!(self.err_code, ErrorCode::Good | ErrorCode::NestedError) {
            self.err_code = ErrorCode::PanicSkipped;
            self.loc = Some(loc);
        }
    }

    /// Folds a child's errors into this node. The child keeps its own
    /// detail; the parent's `nerr` aggregates and its first error becomes
    /// `NestedError` if it had none of its own.
    pub fn absorb(&mut self, child: &ParseDesc) {
        if child.nerr > 0 {
            self.nerr += child.nerr;
            if self.err_code == ErrorCode::Good {
                self.err_code = ErrorCode::NestedError;
                self.loc = child.loc;
            }
        }
        if child.state != ParseState::Ok && self.state == ParseState::Ok {
            self.state = child.state;
        }
    }

    /// Walks the subtree yielding `(path, code, loc)` for every node whose
    /// own error code is set (excluding the synthetic `NestedError`).
    pub fn errors(&self) -> Vec<(String, ErrorCode, Option<Loc>)> {
        let mut out = Vec::new();
        fn go(pd: &ParseDesc, path: &str, out: &mut Vec<(String, ErrorCode, Option<Loc>)>) {
            if pd.err_code.is_error() && pd.err_code != ErrorCode::NestedError {
                out.push((path.to_owned(), pd.err_code, pd.loc));
            }
            let join = |name: &str| {
                if path.is_empty() {
                    name.to_owned()
                } else {
                    format!("{path}.{name}")
                }
            };
            match &pd.kind {
                PdKind::Base => {}
                PdKind::Struct { fields } => {
                    for (name, child) in fields {
                        go(child, &join(name), out);
                    }
                }
                PdKind::Union { branch, pd } => {
                    if let Some(pd) = pd {
                        go(pd, &join(branch), out);
                    }
                }
                PdKind::Array { elts, .. } => {
                    for (i, child) in elts.iter().enumerate() {
                        go(child, &join(&format!("[{i}]")), out);
                    }
                }
                PdKind::Opt { inner } => {
                    if let Some(inner) = inner {
                        go(inner, path, out);
                    }
                }
                PdKind::Typedef { inner } => {
                    if let Some(inner) = inner {
                        go(inner, path, out);
                    }
                }
            }
        }
        go(self, "", &mut out);
        out
    }

    /// Walks the subtree calling `f` with every error code [`errors`]
    /// would report, in the same order — but without building path
    /// strings or collecting. This is the metrics hot path's view of a
    /// closed record: per-code counters need the codes only, so the walk
    /// allocates nothing.
    ///
    /// [`errors`]: ParseDesc::errors
    pub fn visit_error_codes(&self, f: &mut dyn FnMut(ErrorCode)) {
        if self.err_code.is_error() && self.err_code != ErrorCode::NestedError {
            f(self.err_code);
        }
        match &self.kind {
            PdKind::Base => {}
            PdKind::Struct { fields } => {
                for (_, child) in fields {
                    child.visit_error_codes(f);
                }
            }
            PdKind::Union { pd, .. } => {
                if let Some(pd) = pd {
                    pd.visit_error_codes(f);
                }
            }
            PdKind::Array { elts, .. } => {
                for child in elts {
                    child.visit_error_codes(f);
                }
            }
            PdKind::Opt { inner } => {
                if let Some(inner) = inner {
                    inner.visit_error_codes(f);
                }
            }
            PdKind::Typedef { inner } => {
                if let Some(inner) = inner {
                    inner.visit_error_codes(f);
                }
            }
        }
    }

    /// Whether this descriptor records any *syntactic* problem (as opposed
    /// to constraint violations, which leave the physical parse intact).
    /// Engines test this after every nested read, so the clean and
    /// state-only answers inline at the call site and the code walk
    /// ([`visit_error_codes`](ParseDesc::visit_error_codes): no path
    /// strings, no collecting) runs only for descriptors that carry errors.
    #[inline]
    pub fn has_syntax_error(&self) -> bool {
        if self.state != ParseState::Ok {
            return true;
        }
        self.nerr != 0 && self.any_syntax_code()
    }

    fn any_syntax_code(&self) -> bool {
        let mut found = false;
        self.visit_error_codes(&mut |code| found |= !code.is_semantic());
        found
    }

    /// Drops per-node error detail, flattening this descriptor to a leaf
    /// carrying only the aggregates (`state`, `nerr`, first error, its
    /// location). Used when a [`RecoveryPolicy`](crate::recovery::RecoveryPolicy)
    /// caps per-record error detail or degrades to best-effort parsing:
    /// error *counts* stay truthful while descriptor memory becomes O(1).
    ///
    /// When the first error is the synthetic `NestedError`, the first real
    /// child error is promoted first so the flattened node still names a
    /// concrete problem.
    pub fn truncate_detail(&mut self) {
        if self.err_code == ErrorCode::NestedError {
            if let Some((_, code, loc)) = self.errors().into_iter().next() {
                self.err_code = code;
                self.loc = loc;
            }
        }
        self.kind = PdKind::Base;
    }

    /// The descriptor of a child of this node, seen through any
    /// `Ptypedef` around it: a typedef's value is its underlying type's, so
    /// a field, branch, element or present option of that value finds its
    /// descriptor under the typedef's. `None` where the child's descriptor
    /// was elided as clean (or the node has no such child).
    pub fn child(&self, child: PdChild<'_>) -> Option<&ParseDesc> {
        match (&self.kind, child) {
            (PdKind::Typedef { inner }, PdChild::Underlying) => inner.as_deref(),
            (PdKind::Typedef { inner }, child) => inner.as_deref()?.child(child),
            (PdKind::Struct { fields }, PdChild::Field(name)) => {
                fields.iter().find(|(n, _)| n == name).map(|(_, pd)| pd)
            }
            (PdKind::Union { pd, .. }, PdChild::Branch) => pd.as_deref(),
            (PdKind::Array { elts, .. }, PdChild::Elt(i)) => elts.get(i),
            (PdKind::Opt { inner }, PdChild::Present) => inner.as_deref(),
            _ => None,
        }
    }
}

/// Which child [`ParseDesc::child`] looks up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PdChild<'n> {
    /// A struct's named field.
    Field(&'n str),
    /// The union branch taken.
    Branch,
    /// An array's element.
    Elt(usize),
    /// A present option's value.
    Present,
    /// A typedef's underlying type (of a typedef itself, not seen through).
    Underlying,
}

impl std::fmt::Display for ParseDesc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pstate={} nerr={} errCode={}", self.state, self.nerr, self.err_code)?;
        if let Some(loc) = self.loc {
            write!(f, " loc={loc}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Pos;

    fn loc(offset: usize) -> Loc {
        Loc::at(Pos { offset, record: 0, byte: offset })
    }

    #[test]
    fn first_error_wins() {
        let mut pd = ParseDesc::ok();
        pd.add_error(ErrorCode::LitMismatch, loc(3));
        pd.add_error(ErrorCode::RangeError, loc(9));
        assert_eq!(pd.nerr, 2);
        assert_eq!(pd.err_code, ErrorCode::LitMismatch);
        assert_eq!(pd.loc, Some(loc(3)));
    }

    #[test]
    fn absorb_aggregates_and_marks_nested() {
        let mut parent = ParseDesc::ok();
        let child = ParseDesc::error(ErrorCode::RangeError, loc(5));
        parent.absorb(&child);
        assert_eq!(parent.nerr, 1);
        assert_eq!(parent.err_code, ErrorCode::NestedError);
        assert_eq!(parent.loc, Some(loc(5)));
    }

    #[test]
    fn absorb_propagates_state() {
        let mut parent = ParseDesc::ok();
        let mut child = ParseDesc::ok();
        child.state = ParseState::Panic;
        parent.absorb(&child);
        assert_eq!(parent.state, ParseState::Panic);
    }

    #[test]
    fn truncate_detail_flattens_and_promotes_first_real_error() {
        let bad = ParseDesc::error(ErrorCode::RangeError, loc(7));
        let mut pd = ParseDesc {
            nerr: 2,
            err_code: ErrorCode::NestedError,
            loc: Some(loc(7)),
            state: ParseState::Partial,
            kind: PdKind::Struct {
                fields: vec![
                    ("a".into(), bad),
                    ("b".into(), ParseDesc::error(ErrorCode::LitMismatch, loc(9))),
                ],
            },
        };
        pd.truncate_detail();
        assert_eq!(pd.kind, PdKind::Base);
        assert_eq!(pd.nerr, 2);
        assert_eq!(pd.err_code, ErrorCode::RangeError);
        assert_eq!(pd.loc, Some(loc(7)));
        assert_eq!(pd.state, ParseState::Partial);
    }

    #[test]
    fn note_panic_skip_stays_observable_on_structs() {
        let mut pd = ParseDesc {
            nerr: 1,
            err_code: ErrorCode::LitMismatch,
            loc: Some(loc(2)),
            state: ParseState::Ok,
            kind: PdKind::Struct {
                fields: vec![("a".into(), ParseDesc::ok())],
            },
        };
        pd.note_panic_skip(Loc::new(loc(4).begin, loc(9).begin));
        assert_eq!(pd.state, ParseState::Panic);
        assert_eq!(pd.nerr, 2);
        // First error wins on the node itself…
        assert_eq!(pd.err_code, ErrorCode::LitMismatch);
        // …but the skipped span is still reported by the error walk.
        let errs = pd.errors();
        assert!(errs
            .iter()
            .any(|(path, code, _)| path == "(panic)" && *code == ErrorCode::PanicSkipped));
    }

    #[test]
    fn note_panic_skip_promotes_on_leaves() {
        let mut pd = ParseDesc::ok();
        pd.note_panic_skip(loc(3));
        assert_eq!(pd.state, ParseState::Panic);
        assert_eq!(pd.nerr, 1);
        assert_eq!(pd.err_code, ErrorCode::PanicSkipped);
        assert_eq!(pd.loc, Some(loc(3)));
    }

    #[test]
    fn error_walk_builds_paths() {
        let bad = ParseDesc::error(ErrorCode::RangeError, loc(7));
        let pd = ParseDesc {
            nerr: 1,
            err_code: ErrorCode::NestedError,
            loc: Some(loc(7)),
            state: ParseState::Ok,
            kind: PdKind::Struct {
                fields: vec![
                    ("h".into(), ParseDesc::ok()),
                    (
                        "events".into(),
                        ParseDesc {
                            nerr: 1,
                            err_code: ErrorCode::NestedError,
                            loc: Some(loc(7)),
                            state: ParseState::Ok,
                            kind: PdKind::Array { elts: vec![ParseDesc::ok(), bad], neerr: 1, first_error: Some(1) },
                        },
                    ),
                ],
            },
        };
        let errs = pd.errors();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].0, "events.[1]");
        assert_eq!(errs[0].1, ErrorCode::RangeError);
    }
}
