//! The fact base: what `pads-check` knows about every declared type,
//! computed once per [`Schema`] and queried by the lints
//! ([`crate::lint`]) and by the schema-evolution checker ([`crate::diff`]).
//! No parse engine reads it.
//!
//! [`FactBase::of`] stores one [`TypeFacts`] record per [`TypeId`]:
//!
//! * `first` — a superset of the bytes a successful non-empty match can
//!   start with (in the decoded/logical byte domain), and `precise`,
//!   whether it is exactly the admissible set (what lets a shadowing
//!   claim be sound at the first-byte level);
//! * `null` — whether the type can succeed without consuming input;
//! * `may_reject` — whether a constraint anywhere inside the type can
//!   reject a syntactically valid match;
//! * `width` ([`WidthInterval`]) — how many bytes a successful parse
//!   consumes; record framing (the trailing boundary) is not counted;
//! * `value` ([`ValueInterval`]) — for integer-valued types, the values a
//!   successful parse can produce, refined through typedef constraints;
//! * `follow` ([`FollowFacts`]) — the bytes that may come right after the
//!   type, gathered from every use site;
//! * `refs` and `idents` — the declared types the body uses and the names
//!   its expressions read.
//!
//! Types are declared before use and the language has no recursion, so
//! one forward sweep in declaration order computes every fact but
//! `follow`, and one reverse sweep over the use sites computes `follow`.
//! There is no fixpoint iteration.

use pads_syntax::ast::{BinOp, CaseLabel, Expr, Literal};

use crate::ir::{BranchIr, MemberIr, Schema, TypeDef, TypeId, TypeKind, TyUse};
use crate::lint::{const_fold, Const};

/// A set of byte values, one bit per value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteSet([u64; 4]);

impl ByteSet {
    /// The empty set.
    pub const EMPTY: ByteSet = ByteSet([0; 4]);
    /// Every byte value.
    pub const ALL: ByteSet = ByteSet([u64::MAX; 4]);

    /// Inserts one byte.
    pub fn insert(&mut self, b: u8) {
        self.0[(b >> 6) as usize] |= 1u64 << (b & 63);
    }

    /// Whether `b` is in the set.
    pub fn contains(self, b: u8) -> bool {
        self.0[(b >> 6) as usize] & (1u64 << (b & 63)) != 0
    }

    /// Set union.
    pub fn union(self, other: ByteSet) -> ByteSet {
        ByteSet(std::array::from_fn(|i| self.0[i] | other.0[i]))
    }

    /// Whether the sets share any byte.
    pub fn intersects(self, other: ByteSet) -> bool {
        (0..4).any(|i| self.0[i] & other.0[i] != 0)
    }

    /// Whether every byte of `self` is in `other`.
    pub fn is_subset(self, other: ByteSet) -> bool {
        (0..4).all(|i| self.0[i] & !other.0[i] == 0)
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self == ByteSet::EMPTY
    }

    /// A set from explicit byte values.
    pub fn of(bytes: &[u8]) -> ByteSet {
        let mut s = ByteSet::EMPTY;
        for &b in bytes {
            s.insert(b);
        }
        s
    }

    /// ASCII decimal digits.
    pub fn digits() -> ByteSet {
        ByteSet::of(b"0123456789")
    }

    /// ASCII letters, digits, and `-` (hostname label bytes).
    pub fn alnum_dash() -> ByteSet {
        let mut s = ByteSet::digits().union(ByteSet::of(b"-"));
        for b in (b'a'..=b'z').chain(b'A'..=b'Z') {
            s.insert(b);
        }
        s
    }

    /// All bytes except `b`.
    pub fn all_except(b: u8) -> ByteSet {
        let mut s = ByteSet::ALL;
        s.0[(b >> 6) as usize] &= !(1u64 << (b & 63));
        s
    }

    /// A short human-readable description of the set for diagnostics.
    pub fn describe(self) -> String {
        if self == ByteSet::ALL {
            return "any byte".to_owned();
        }
        if self.is_empty() {
            return "no byte".to_owned();
        }
        let listed: Vec<u8> = (0u16..=255).map(|b| b as u8).filter(|&b| self.contains(b)).collect();
        if listed.len() > 12 {
            return format!("{} byte values", listed.len());
        }
        let parts: Vec<String> = listed
            .iter()
            .map(|&b| match b {
                0x21..=0x7E => format!("'{}'", b as char),
                b' ' => "' '".to_owned(),
                other => format!("0x{other:02x}"),
            })
            .collect();
        parts.join(", ")
    }
}

/// Whether a type can succeed without consuming any input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Nullability {
    /// Every successful match consumes at least one byte.
    NonEmpty,
    /// The type provably accepts the empty input.
    MaybeEmpty,
    /// The analysis cannot tell (opaque base type, non-constant width, …).
    Unknown,
}

/// How many bytes a successful parse consumes: `[min, max]`, with
/// `max = None` for unbounded (⊤).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidthInterval {
    /// Fewest bytes any successful parse consumes.
    pub min: u64,
    /// Most bytes any successful parse consumes; `None` is unbounded.
    pub max: Option<u64>,
}

impl WidthInterval {
    /// The unbounded interval `[0, ⊤]`.
    pub const TOP: WidthInterval = WidthInterval { min: 0, max: None };

    /// Exactly `n` bytes.
    pub fn exact(n: u64) -> WidthInterval {
        WidthInterval { min: n, max: Some(n) }
    }

    /// `[min, max]` with both bounds known.
    pub fn new(min: u64, max: u64) -> WidthInterval {
        WidthInterval { min, max: Some(max) }
    }

    /// `[min, ⊤]`.
    pub fn at_least(min: u64) -> WidthInterval {
        WidthInterval { min, max: None }
    }

    /// Sequential composition: widths add.
    pub fn then(self, other: WidthInterval) -> WidthInterval {
        WidthInterval {
            min: self.min.saturating_add(other.min),
            max: self.max.zip(other.max).and_then(|(a, b)| a.checked_add(b)),
        }
    }

    /// Alternation: the interval hull.
    pub fn hull(self, other: WidthInterval) -> WidthInterval {
        WidthInterval {
            min: self.min.min(other.min),
            max: self.max.zip(other.max).map(|(a, b)| a.max(b)),
        }
    }

    /// `n` repetitions.
    pub fn repeat(self, n: u64) -> WidthInterval {
        WidthInterval {
            min: self.min.saturating_mul(n),
            max: self.max.and_then(|m| m.checked_mul(n)),
        }
    }

    /// Whether every successful parse consumes at least one byte.
    pub fn nonzero(self) -> bool {
        self.min >= 1
    }

    /// Renders as `[min, max]` or `[min, ⊤]`.
    pub fn describe(self) -> String {
        match self.max {
            Some(mx) => format!("[{}, {}]", self.min, mx),
            None => format!("[{}, ⊤]", self.min),
        }
    }
}

/// An inclusive integer value range, with a flag recording whether the
/// refinement understood every conjunct of the constraint it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueInterval {
    /// Smallest producible value.
    pub lo: i128,
    /// Largest producible value.
    pub hi: i128,
    /// Whether every constraint conjunct was recognised (interval is the
    /// true range, not just a sound superset).
    pub exact: bool,
}

impl ValueInterval {
    /// `[lo, hi]`, exact.
    pub fn new(lo: i128, hi: i128) -> ValueInterval {
        ValueInterval { lo, hi, exact: true }
    }

    /// Whether no value satisfies the interval.
    pub fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    /// Whether `self` contains every value of `other`.
    pub fn contains(self, other: ValueInterval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Intersection (exactness intersects too).
    pub fn intersect(self, other: ValueInterval) -> ValueInterval {
        ValueInterval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
            exact: self.exact && other.exact,
        }
    }

    /// Renders as `[lo, hi]` (with `~` marking inexact refinements).
    pub fn describe(self) -> String {
        let approx = if self.exact { "" } else { "~" };
        format!("{approx}[{}, {}]", self.lo, self.hi)
    }
}

/// Bytes that may legally follow a type, unioned over its use sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FollowFacts {
    /// Superset of bytes that can appear immediately after the type.
    pub set: ByteSet,
    /// Whether `set` is exact rather than an over-approximation.
    pub precise: bool,
    /// Whether the type can be followed by a record/source boundary.
    pub at_end: bool,
}

impl FollowFacts {
    const EMPTY: FollowFacts = FollowFacts { set: ByteSet::EMPTY, precise: true, at_end: false };

    fn merge(&mut self, other: FollowFacts) {
        self.set = self.set.union(other.set);
        self.precise &= other.precise;
        self.at_end |= other.at_end;
    }

    /// Adds the first bytes of a match that may come next.
    fn add_first(&mut self, f: Facts) {
        self.set = self.set.union(f.first);
        self.precise &= f.precise;
    }
}

/// The forward facts of a type or of a type use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Facts {
    /// Superset of admissible first bytes of non-empty matches.
    pub first: ByteSet,
    /// Whether `first` is exact rather than an over-approximation.
    pub precise: bool,
    /// Whether the type can match empty input.
    pub null: Nullability,
    /// Whether a constraint inside the type can reject a syntactic match.
    pub may_reject: bool,
    /// Bytes a successful parse consumes.
    pub width: WidthInterval,
    /// Values a successful parse produces (integer-valued types only).
    pub value: Option<ValueInterval>,
}

impl Facts {
    /// Nothing known: an unrecognised (user-registered) base type.
    const UNKNOWN: Facts = Facts {
        first: ByteSet::ALL,
        precise: false,
        null: Nullability::Unknown,
        may_reject: true,
        width: WidthInterval::TOP,
        value: None,
    };

    /// An always-succeeding, nothing-consuming match (`Pvoid`, `Peof`, an
    /// empty struct).
    const VOID: Facts = Facts {
        first: ByteSet::EMPTY,
        precise: true,
        null: Nullability::MaybeEmpty,
        may_reject: false,
        width: WidthInterval { min: 0, max: Some(0) },
        value: None,
    };

    /// A match that consumes input and starts with a byte of `first`.
    fn non_empty(first: ByteSet, precise: bool, width: WidthInterval) -> Facts {
        Facts { first, precise, null: Nullability::NonEmpty, may_reject: false, width, value: None }
    }

    /// A match that may start with any byte.
    fn opaque(null: Nullability, width: WidthInterval) -> Facts {
        Facts { first: ByteSet::ALL, precise: false, null, may_reject: false, width, value: None }
    }

    /// Whether the match always succeeds: it can match empty input and
    /// nothing inside it can reject.
    pub fn always_succeeds(self) -> bool {
        self.null == Nullability::MaybeEmpty && !self.may_reject
    }

    /// Under a constraint: it may reject, and may exclude some first
    /// bytes, so the first set is no longer exact.
    fn constrained(self) -> Facts {
        Facts { may_reject: true, precise: false, ..self }
    }

    /// `self` followed by `next`.
    fn then(self, next: Facts) -> Facts {
        use Nullability::*;
        // While `self` can be empty, `next` can still supply the first byte.
        let (first, precise) = if self.null == NonEmpty {
            (self.first, self.precise)
        } else {
            (self.first.union(next.first), self.precise && next.precise)
        };
        let null = match (self.null, next.null) {
            (NonEmpty, _) | (_, NonEmpty) => NonEmpty,
            (MaybeEmpty, MaybeEmpty) => MaybeEmpty,
            _ => Unknown,
        };
        Facts {
            first,
            precise,
            null,
            may_reject: self.may_reject || next.may_reject,
            width: self.width.then(next.width),
            value: None,
        }
    }

    /// `self` or `other`.
    fn or(self, other: Facts) -> Facts {
        use Nullability::*;
        let null = match (self.null, other.null) {
            (MaybeEmpty, _) | (_, MaybeEmpty) => MaybeEmpty,
            (Unknown, _) | (_, Unknown) => Unknown,
            _ => NonEmpty,
        };
        Facts {
            first: self.first.union(other.first),
            precise: self.precise && other.precise,
            null,
            may_reject: self.may_reject || other.may_reject,
            width: self.width.hull(other.width),
            value: None,
        }
    }
}

/// One declared type's record in the [`FactBase`].
#[derive(Debug, Clone)]
pub struct TypeFacts<'s> {
    /// What the forward sweep computed.
    pub facts: Facts,
    /// What may follow the type, from the reverse sweep.
    pub follow: FollowFacts,
    /// Declared types the body uses, including the enums whose variants
    /// its expressions name.
    pub refs: Vec<TypeId>,
    /// Free identifiers of the body's expressions (arguments, sizes,
    /// constraints, the `Pwhere` clause).
    pub idents: Vec<&'s str>,
}

/// Every fact of every type of one schema.
#[derive(Debug, Clone)]
pub struct FactBase<'s> {
    schema: &'s Schema,
    types: Vec<TypeFacts<'s>>,
}

impl<'s> FactBase<'s> {
    /// Computes every fact: one forward sweep in declaration order, then
    /// one reverse sweep for follow sets.
    pub fn of(schema: &'s Schema) -> FactBase<'s> {
        let mut types: Vec<TypeFacts<'s>> = Vec::with_capacity(schema.types.len());
        for def in &schema.types {
            let facts = forward(&types, def);
            let (refs, idents) = references(schema, def);
            types.push(TypeFacts { facts, follow: FollowFacts::EMPTY, refs, idents });
        }
        let mut base = FactBase { schema, types };
        base.reverse();
        base
    }

    /// The schema the facts describe.
    pub fn schema(&self) -> &'s Schema {
        self.schema
    }

    /// The record of a declared type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids only come from the schema).
    pub fn of_type(&self, id: TypeId) -> &TypeFacts<'s> {
        &self.types[id]
    }

    /// Facts of a resolved type use.
    pub fn of_use(&self, ty: &TyUse) -> Facts {
        use_facts(&self.types, ty)
    }

    /// Facts of a union arm: its type under its constraint.
    pub fn of_branch(&self, b: &BranchIr) -> Facts {
        branch_facts(&self.types, b)
    }

    /// First bytes of the member chain after an occurrence; falls back to
    /// the container's own follow facts when every remaining member can be
    /// empty.
    pub fn follow_after(&self, rest: &[MemberIr], container: FollowFacts) -> FollowFacts {
        let mut fol = FollowFacts::EMPTY;
        for m in rest {
            let f = match m {
                MemberIr::Lit(Literal::Eor | Literal::Eof) => {
                    fol.at_end = true;
                    return fol;
                }
                MemberIr::Lit(l) => literal(l),
                MemberIr::Field(f) => self.of_use(&f.ty),
            };
            fol.add_first(f);
            match f.null {
                Nullability::NonEmpty => return fol,
                Nullability::MaybeEmpty => {}
                Nullability::Unknown => fol.precise = false,
            }
        }
        fol.merge(container);
        fol
    }

    /// The reverse sweep: containers are declared after their members, so
    /// by the time a definition is visited every one of its use sites has
    /// already contributed.
    fn reverse(&mut self) {
        let schema = self.schema;
        // The source type (and every record) ends at a record/source boundary.
        self.types[schema.source()].follow.at_end = true;
        for (t, def) in self.types.iter_mut().zip(&schema.types) {
            t.follow.at_end |= def.is_record;
        }
        for id in (0..schema.types.len()).rev() {
            let here = self.types[id].follow;
            let mut uses: Vec<(&TyUse, FollowFacts)> = Vec::new();
            match &schema.def(id).kind {
                TypeKind::Struct { members } => {
                    for (i, m) in members.iter().enumerate() {
                        if let MemberIr::Field(f) = m {
                            uses.push((&f.ty, self.follow_after(&members[i + 1..], here)));
                        }
                    }
                }
                TypeKind::Union { branches, .. } => {
                    uses.extend(branches.iter().map(|b| (&b.field.ty, here)));
                }
                TypeKind::Array { elem, sep, term, .. } => {
                    // An element may be followed by the separator, the
                    // terminator, the next element, or whatever follows
                    // the array.
                    let mut fol = here;
                    fol.add_first(self.of_use(elem));
                    for l in [sep, term].into_iter().flatten() {
                        fol.add_first(literal(l));
                        fol.at_end |= matches!(l, Literal::Eor | Literal::Eof);
                    }
                    uses.push((elem, fol));
                }
                TypeKind::Typedef { base, .. } => uses.push((base, here)),
                TypeKind::Enum { .. } => {}
            }
            for (ty, fol) in uses {
                if let Some(target) = named_target(ty) {
                    self.types[target].follow.merge(fol);
                }
            }
        }
    }
}

/// The declared type a use resolves to, looking through `Popt`.
fn named_target(ty: &TyUse) -> Option<TypeId> {
    match ty {
        TyUse::Named { id, .. } => Some(*id),
        TyUse::Opt(inner) => named_target(inner),
        TyUse::Base { .. } => None,
    }
}

/// The forward facts of one definition, from those of earlier ones.
fn forward(types: &[TypeFacts<'_>], def: &TypeDef) -> Facts {
    let facts = match &def.kind {
        TypeKind::Struct { members } => members.iter().fold(Facts::VOID, |acc, m| {
            acc.then(match m {
                MemberIr::Lit(l) => literal(l),
                MemberIr::Field(f) => {
                    let mut mf = use_facts(types, &f.ty);
                    mf.may_reject |= f.constraint.is_some();
                    mf
                }
            })
        }),
        TypeKind::Union { branches, .. } => {
            let arms = branches.iter().map(|b| branch_facts(types, b)).reduce(Facts::or);
            Facts { value: None, ..arms.unwrap_or(Facts::UNKNOWN) }
        }
        TypeKind::Array { elem, sep, term, ended, size } => {
            let ef = use_facts(types, elem);
            let tf = term.as_ref().map(literal);
            let (mut first, mut precise, mut term_null) = (ef.first, ef.precise, Nullability::MaybeEmpty);
            // A data terminator is consumed even by an empty sequence, so
            // it both contributes first bytes and — when it cannot match
            // empty input — forces consumption. A nullable regex terminator
            // (`Pre "a*"`) consumes nothing on empty sequences, so it must
            // not promote the array to `NonEmpty`.
            if let (Some(t), false) = (tf, matches!(term, Some(Literal::Eor | Literal::Eof))) {
                first = first.union(t.first);
                precise &= t.precise;
                term_null = t.null;
            }
            let count = size.as_ref().and_then(const_fold).and_then(Const::as_int);
            let null = match (term_null, count, ef.null) {
                (Nullability::NonEmpty, _, _) => Nullability::NonEmpty,
                (_, Some(n), Nullability::NonEmpty) if n > 0 => Nullability::NonEmpty,
                _ => Nullability::MaybeEmpty,
            };
            let sep_w = sep.as_ref().map_or(WidthInterval::exact(0), |s| literal(s).width);
            let term_w = tf.map_or(WidthInterval::exact(0), |t| t.width);
            let width = match count {
                Some(n) if n >= 0 && ended.is_none() => {
                    let n = n as u64;
                    let body = match n {
                        0 => WidthInterval::exact(0),
                        _ => ef.width.repeat(n).then(sep_w.repeat(n - 1)),
                    };
                    body.then(term_w)
                }
                // An `ended` predicate or an unknown size leaves only the
                // terminator as a lower bound.
                _ => WidthInterval::at_least(term_w.min),
            };
            Facts { first, precise, null, may_reject: ef.may_reject, width, value: None }
        }
        TypeKind::Enum { variants } => {
            let first = ByteSet::of(&variants.iter().filter_map(|v| v.bytes().next()).collect::<Vec<_>>());
            let widths = variants.iter().map(|v| WidthInterval::exact(v.len() as u64));
            let width = widths.reduce(WidthInterval::hull).unwrap_or(WidthInterval::exact(0));
            // Enums parse to a variant index.
            let value = ValueInterval::new(0, variants.len().saturating_sub(1) as i128);
            Facts { value: Some(value), ..Facts::non_empty(first, true, width) }
        }
        TypeKind::Typedef { base, var, pred } => {
            let f = use_facts(types, base);
            match pred {
                Some(p) => {
                    let mut f = f.constrained();
                    // `x != ""` proves non-empty successful matches: a
                    // zero-width parse only happens on the error path.
                    if var.as_deref().is_some_and(|v| pred_implies_nonempty(v, p)) {
                        f.width.min = f.width.min.max(1);
                    }
                    f.value = f.value.map(|iv| refine_value(iv, var.as_deref(), p));
                    f
                }
                None => f,
            }
        }
    };
    if def.where_clause.is_some() {
        facts.constrained()
    } else {
        facts
    }
}

fn use_facts(types: &[TypeFacts<'_>], ty: &TyUse) -> Facts {
    match ty {
        TyUse::Base { name, args } => base(name, args),
        TyUse::Named { id, .. } => types.get(*id).map_or(Facts::UNKNOWN, |t| t.facts),
        TyUse::Opt(inner) => {
            // `Popt T` succeeds with nothing when T fails.
            let f = use_facts(types, inner);
            Facts {
                null: Nullability::MaybeEmpty,
                may_reject: false,
                width: WidthInterval { min: 0, max: f.width.max },
                value: None,
                ..f
            }
        }
    }
}

fn branch_facts(types: &[TypeFacts<'_>], b: &BranchIr) -> Facts {
    let f = use_facts(types, &b.field.ty);
    if b.field.constraint.is_some() {
        f.constrained()
    } else {
        f
    }
}

/// The facts of a data literal match.
fn literal(lit: &Literal) -> Facts {
    match lit {
        Literal::Char(b) => Facts::non_empty(ByteSet::of(&[*b]), true, WidthInterval::exact(1)),
        Literal::Str(s) => match s.as_bytes().first() {
            Some(&b) => Facts::non_empty(ByteSet::of(&[b]), true, WidthInterval::exact(s.len() as u64)),
            // Rejected by the checker anyway.
            None => Facts { width: WidthInterval::exact(0), ..Facts::UNKNOWN },
        },
        Literal::Regex(pat) => regex(Some(pat.as_str())),
        // Peor consumes the record boundary in most disciplines but can
        // match zero-width at end of input; Peof is always zero-width.
        Literal::Eor => Facts::opaque(Nullability::Unknown, WidthInterval::new(0, 1)),
        Literal::Eof => Facts::VOID,
    }
}

/// A regex match (a `Pre` literal, `Pstring_ME`/`_SE`): empty exactly when
/// the pattern matches the empty string; an unknown pattern may be.
fn regex(pattern: Option<&str>) -> Facts {
    let nullable = pattern
        .and_then(|p| pads_regex::Regex::new(p).ok())
        .is_none_or(|re| re.match_at(b"", 0).is_some());
    let null = if nullable { Nullability::MaybeEmpty } else { Nullability::NonEmpty };
    Facts::opaque(null, WidthInterval::at_least(u64::from(!nullable)))
}

/// The facts of a base-type reference, keyed on the standard registry's
/// names. Unknown (user-registered) names get [`Facts::UNKNOWN`].
fn base(name: &str, args: &[Expr]) -> Facts {
    // The width argument of fixed-width forms, when it is a constant.
    let width_arg = args.first().and_then(const_fold).and_then(Const::as_int);
    let fixed_width = width_arg.filter(|w| *w >= 0).map_or(WidthInterval::TOP, |w| WidthInterval::exact(w as u64));
    if let Some(f) = int(name, width_arg, fixed_width) {
        return f;
    }
    match name {
        "Pvoid" => Facts::VOID,
        "Pchar" | "Pa_char" | "Pe_char" => Facts {
            value: Some(ValueInterval::new(0, 255)),
            ..Facts::non_empty(ByteSet::ALL, true, WidthInterval::exact(1))
        },
        // "0.0.0.0" through "255.255.255.255".
        "Pip" => Facts::non_empty(ByteSet::digits(), true, WidthInterval::new(7, 15)),
        "Phostname" => Facts::non_empty(ByteSet::alnum_dash(), true, WidthInterval::at_least(1)),
        "Pzip" => Facts::non_empty(ByteSet::digits(), true, WidthInterval::at_least(1)),
        "Pdate" | "Pfloat32" | "Pfloat64" => {
            Facts::non_empty(ByteSet::ALL, false, WidthInterval::at_least(1))
        }
        "Pstring" => {
            // Terminated string: anything up to the terminator, possibly
            // empty; a non-empty match cannot start with a constant
            // terminator.
            let term = match args.first() {
                Some(Expr::Char(c)) => Some(*c),
                _ => None,
            };
            Facts {
                first: term.map_or(ByteSet::ALL, ByteSet::all_except),
                precise: term.is_some(),
                ..Facts::opaque(Nullability::MaybeEmpty, WidthInterval::TOP)
            }
        }
        "Pstring_FW" => match width_arg {
            Some(w) if w > 0 => Facts::non_empty(ByteSet::ALL, false, fixed_width),
            Some(_) => Facts { first: ByteSet::EMPTY, ..Facts::opaque(Nullability::MaybeEmpty, fixed_width) },
            None => Facts::opaque(Nullability::Unknown, fixed_width),
        },
        "Pstring_ME" | "Pstring_SE" => regex(match args.first() {
            Some(Expr::Str(pat)) => Some(pat.as_str()),
            _ => None,
        }),
        // Bit and packed-decimal widths count digits or bits, not bytes.
        "Pbits" | "Pebc_zoned" | "Ppacked" => match width_arg {
            Some(w) if w > 0 => Facts::non_empty(ByteSet::ALL, false, WidthInterval::TOP),
            _ => Facts::opaque(Nullability::Unknown, WidthInterval::TOP),
        },
        _ => Facts::UNKNOWN,
    }
}

/// The integer families: `<prefix><int|uint><bits>[_FW]`, with prefix
/// `Pb_` (binary), `Pa_` (ASCII), `Pe_` (EBCDIC) or `P` (ambient coding).
fn int(name: &str, width_arg: Option<i64>, fixed_width: WidthInterval) -> Option<Facts> {
    let (prefix, rest) = ["Pb_", "Pa_", "Pe_", "P"].into_iter().find_map(|p| Some((p, name.strip_prefix(p)?)))?;
    let (signed, rest) = match rest.strip_prefix("uint") {
        Some(r) => (false, r),
        None => (true, rest.strip_prefix("int")?),
    };
    let (bits, fixed) = match rest.strip_suffix("_FW") {
        Some(b) => (b, true),
        None => (rest, false),
    };
    let bits: u32 = match bits {
        "8" => 8,
        "16" => 16,
        "32" => 32,
        "64" => 64,
        _ => return None,
    };
    let mut value = if signed {
        ValueInterval::new(-(1i128 << (bits - 1)), (1i128 << (bits - 1)) - 1)
    } else {
        ValueInterval::new(0, (1i128 << bits) - 1)
    };
    let facts = if prefix == "Pb_" {
        // Binary integers: exactly bits/8 bytes, any first byte.
        Facts::non_empty(ByteSet::ALL, true, WidthInterval::exact(u64::from(bits / 8)))
    } else if fixed {
        // A w-character field holds at most w digits, so the magnitude is
        // below 10^w.
        if let Some(w) = width_arg.filter(|w| (0..=19).contains(w)) {
            let mag = 10i128.pow(w as u32) - 1;
            value = value.intersect(ValueInterval::new(if signed { -mag } else { 0 }, mag));
        }
        // Fixed-width text ints consume exactly `width` bytes; zoned and
        // padded forms make the first byte hard to pin down.
        match width_arg {
            Some(w) if w > 0 => Facts::non_empty(ByteSet::ALL, false, fixed_width),
            Some(_) => Facts { width: fixed_width, ..Facts::UNKNOWN },
            None => Facts::opaque(Nullability::Unknown, fixed_width),
        }
    } else if prefix == "Pe_" {
        // EBCDIC digits live at other byte values: imprecise, but every
        // match still consumes a digit.
        Facts::non_empty(ByteSet::ALL, false, WidthInterval::at_least(1))
    } else {
        // Variable-width ASCII ints start with a digit (or sign); leading
        // zeros leave the width unbounded.
        let mut first = ByteSet::digits();
        if signed {
            first = first.union(ByteSet::of(b"-+"));
        }
        Facts::non_empty(first, true, WidthInterval::at_least(1))
    };
    Some(Facts { value: Some(value), ..facts })
}

/// The declared types a definition's body uses and the free identifiers
/// its expressions read. Enum variants are global names: a constraint
/// mentioning one keeps its enum alive even without a field of that type.
fn references<'s>(schema: &'s Schema, def: &'s TypeDef) -> (Vec<TypeId>, Vec<&'s str>) {
    let mut uses: Vec<&TyUse> = Vec::new();
    let mut exprs: Vec<&Expr> = Vec::new();
    match &def.kind {
        TypeKind::Struct { members } => {
            for m in members {
                if let MemberIr::Field(f) = m {
                    uses.push(&f.ty);
                    exprs.extend(&f.constraint);
                }
            }
        }
        TypeKind::Union { switch, branches } => {
            exprs.extend(switch);
            for b in branches {
                uses.push(&b.field.ty);
                exprs.extend(&b.field.constraint);
                if let Some(CaseLabel::Expr(e)) = &b.case {
                    exprs.push(e);
                }
            }
        }
        TypeKind::Array { elem, size, ended, .. } => {
            uses.push(elem);
            exprs.extend(size);
            exprs.extend(ended);
        }
        TypeKind::Enum { .. } => {}
        TypeKind::Typedef { base, pred, .. } => {
            uses.push(base);
            exprs.extend(pred);
        }
    }
    exprs.extend(&def.where_clause);
    let mut refs = Vec::new();
    for mut ty in uses {
        while let TyUse::Opt(inner) = ty {
            ty = inner;
        }
        match ty {
            TyUse::Named { id, args } => {
                refs.push(*id);
                exprs.extend(args);
            }
            TyUse::Base { args, .. } => exprs.extend(args),
            TyUse::Opt(_) => {}
        }
    }
    let idents: Vec<&str> = exprs.iter().flat_map(|e| e.free_idents()).collect();
    refs.extend(idents.iter().filter_map(|n| schema.enum_variants.get(*n)).map(|(id, _)| *id));
    (refs, idents)
}

/// Whether a constraint conjunction implies the bound string is non-empty
/// (a `var != ""` conjunct).
fn pred_implies_nonempty(var: &str, pred: &Expr) -> bool {
    match pred {
        Expr::Binary(BinOp::And, a, b) => {
            pred_implies_nonempty(var, a) || pred_implies_nonempty(var, b)
        }
        Expr::Binary(BinOp::Ne, a, b) => {
            matches!((a.as_ref(), b.as_ref()),
                (Expr::Ident(v), Expr::Str(s)) | (Expr::Str(s), Expr::Ident(v))
                    if v == var && s.is_empty())
        }
        _ => false,
    }
}

/// Intersects `iv` with every recognised conjunct of `pred` comparing
/// `var` against a constant. Unrecognised conjuncts clear `exact` but are
/// otherwise ignored — sound for emptiness, since dropping a conjunct only
/// widens the result.
pub(crate) fn refine_value(iv: ValueInterval, var: Option<&str>, pred: &Expr) -> ValueInterval {
    let mut out = iv;
    refine_walk(&mut out, var, pred);
    out
}

fn refine_walk(iv: &mut ValueInterval, var: Option<&str>, e: &Expr) {
    let Expr::Binary(op, a, b) = e else {
        iv.exact = false;
        return;
    };
    if *op == BinOp::And {
        refine_walk(iv, var, a);
        refine_walk(iv, var, b);
        return;
    }
    // Normalise `k op var` to `var op' k`.
    let (cmp, k) = match (var_side(a, var), var_side(b, var)) {
        (true, false) => (*op, b),
        (false, true) => match op {
            BinOp::Lt => (BinOp::Gt, a),
            BinOp::Le => (BinOp::Ge, a),
            BinOp::Gt => (BinOp::Lt, a),
            BinOp::Ge => (BinOp::Le, a),
            other => (*other, a),
        },
        _ => {
            iv.exact = false;
            return;
        }
    };
    let Some(k) = const_fold(k).and_then(Const::as_int).map(i128::from) else {
        iv.exact = false;
        return;
    };
    let bound = match cmp {
        BinOp::Eq => ValueInterval::new(k, k),
        BinOp::Lt => ValueInterval::new(i128::MIN, k - 1),
        BinOp::Le => ValueInterval::new(i128::MIN, k),
        BinOp::Gt => ValueInterval::new(k + 1, i128::MAX),
        BinOp::Ge => ValueInterval::new(k, i128::MAX),
        // `!=` punches a hole an interval cannot represent.
        _ => {
            iv.exact = false;
            return;
        }
    };
    *iv = iv.intersect(bound);
}

/// Whether `e` is a bare reference to the constrained value: the bound
/// variable itself, or (when the typedef binds no name) any single
/// identifier.
fn var_side(e: &Expr, var: Option<&str>) -> bool {
    match (e, var) {
        (Expr::Ident(n), Some(v)) => n == v,
        (Expr::Ident(_), None) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pads_runtime::Registry;

    fn facts_for(src: &str, name: &str, test: impl FnOnce(&TypeFacts<'_>)) {
        let schema = crate::compile(src, &Registry::standard()).expect("compiles");
        let facts = FactBase::of(&schema);
        let id = schema.type_id(name).expect("declared");
        test(facts.of_type(id));
    }

    #[test]
    fn byteset_basics() {
        let d = ByteSet::digits();
        assert!(d.contains(b'0') && d.contains(b'9') && !d.contains(b'a'));
        assert!(d.is_subset(ByteSet::alnum_dash()));
        assert!(!ByteSet::alnum_dash().is_subset(d));
        assert!(d.intersects(ByteSet::alnum_dash()));
        assert!(!d.intersects(ByteSet::of(b" |")));
        assert_eq!(ByteSet::of(b"ab").describe(), "'a', 'b'");
        assert_eq!(ByteSet::ALL.describe(), "any byte");
    }

    #[test]
    fn struct_facts_chain_through_nullable_members() {
        // Pstring can be empty, so the literal supplies progress and the
        // first set unions both.
        facts_for("Pstruct t { Pstring(:'|':) s; '|'; Puint8 n; };", "t", |t| {
            assert_eq!(t.facts.null, Nullability::NonEmpty);
            assert!(t.facts.first.contains(b'a') && t.facts.first.contains(b'|'));
        });
    }

    #[test]
    fn int_first_sets_are_signed_aware() {
        let u = base("Puint32", &[]);
        assert!(u.precise && !u.first.contains(b'-'));
        let i = base("Pint32", &[]);
        assert!(i.precise && i.first.contains(b'-'));
        assert_eq!(u.null, Nullability::NonEmpty);
    }

    #[test]
    fn width_interval_algebra() {
        let a = WidthInterval::exact(3);
        let b = WidthInterval::new(1, 5);
        assert_eq!(a.then(b), WidthInterval::new(4, 8));
        assert_eq!(a.hull(b), WidthInterval::new(1, 5));
        assert_eq!(b.repeat(3), WidthInterval::new(3, 15));
        assert_eq!(a.then(WidthInterval::TOP), WidthInterval::at_least(3));
        assert_eq!(WidthInterval::TOP.describe(), "[0, ⊤]");
    }

    #[test]
    fn fixed_width_struct_is_fixed() {
        facts_for("Psource Pstruct t { Puint16_FW(:4:) code; '|'; Pb_uint32 n; };", "t", |t| {
            assert_eq!(t.facts.width, WidthInterval::exact(9));
        });
    }

    #[test]
    fn variable_members_make_width_top() {
        facts_for("Psource Pstruct t { Puint32 n; ' '; Pstring(:'|':) s; };", "t", |t| {
            // One digit and the space.
            assert_eq!(t.facts.width, WidthInterval::at_least(2));
        });
    }

    #[test]
    fn value_ranges_refine_through_typedefs() {
        let src = "Ptypedef Puint16_FW(:3:) response_t : response_t x => { 100 <= x && x < 600 };\n\
                   Psource Pstruct t { response_t r; };";
        facts_for(src, "response_t", |t| {
            assert_eq!(t.facts.value, Some(ValueInterval::new(100, 599)));
        });
    }

    #[test]
    fn unsatisfiable_constraint_yields_empty_interval() {
        let src = "Ptypedef Puint8 odd_t : odd_t x => { x > 300 };\nPsource Pstruct t { odd_t o; };";
        facts_for(src, "odd_t", |t| assert!(t.facts.value.expect("int-valued").is_empty()));
    }

    #[test]
    fn unrecognised_conjuncts_stay_sound() {
        // The arithmetic conjunct is unknown: the interval keeps the
        // recognised bound but is marked inexact.
        let src = "Ptypedef Puint8 t_t : t_t x => { x >= 10 && x % 2 == 0 };\n\
                   Psource Pstruct t { t_t f; };";
        facts_for(src, "t_t", |t| {
            assert_eq!(t.facts.value, Some(ValueInterval { lo: 10, hi: 255, exact: false }));
        });
    }

    #[test]
    fn nonempty_string_constraint_bumps_min_width() {
        let src = "Ptypedef Pstring(:'|':) word_t : word_t w => { w != \"\" };\n\
                   Psource Pstruct t { word_t w; };";
        facts_for(src, "word_t", |t| assert_eq!(t.facts.width, WidthInterval::at_least(1)));
    }

    #[test]
    fn follow_sets_cross_member_boundaries() {
        let src = "Pstruct inner_t { Puint8 n; };\nPsource Pstruct t { inner_t i; ';'; Puint8 k; };";
        facts_for(src, "inner_t", |t| {
            assert_eq!(t.follow, FollowFacts { set: ByteSet::of(b";"), precise: true, at_end: false });
        });
    }

    #[test]
    fn follow_of_last_member_inherits_container_end() {
        let src = "Pstruct inner_t { Puint8 n; };\n\
                   Precord Pstruct rec_t { ':'; inner_t i; };\n\
                   Psource Parray t { rec_t[] : Pterm(Peof); };";
        facts_for(src, "inner_t", |t| assert!(t.follow.at_end));
    }
}
