//! The parsing rule of each type kind, written once for both compiled
//! tiers: the bytecode VM (`pads::vm`) calls these with closures over its
//! compiled definitions, and generated modules call them with closures over
//! their typed representations. A rule owns the control flow and the
//! descriptor it builds; its caller supplies what differs between the tiers,
//! which is how an element, branch or underlying value is read and how a
//! predicate is evaluated. Every flag a rule takes is a fact of the schema.
//!
//! Literals, array terminators and the natural end of an unsized array are
//! matched by the [`Cursor`] methods below, in the cursor's charset with no
//! allocation. Record framing and its recovery policy is
//! [`Cursor::open_record`] / [`Cursor::close_record`].
//!
//! One kind stays per tier: structs. A struct's fields are values the VM
//! pushes into a vector that later constraints index, but typed locals in
//! generated code that constraints name, so a shared loop would have to
//! hand each member back to the tier. A switched union's selector is
//! evaluated by each tier (over [`ops`](crate::ops), as every predicate
//! is), which picks the branch; [`read_switched`] reads it. The interpreter
//! (`pads::PadsParser`) keeps its own copy of every rule: it is the
//! reference the contract matrix compares both compiled tiers against.

use crate::encoding::Charset;
use crate::error::{ErrorCode, Loc, ParseState, Pos};
use crate::io::Cursor;
use crate::mask::{Mask, ELT};
use crate::name::Name;
use crate::pd::{ParseDesc, PdKind, SparseElts};

/// A literal of a description: a character or string as written (ASCII,
/// matched in the cursor's charset), a regular expression, or the end of
/// the record or of the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lit<'a> {
    Char(u8),
    Str(&'a [u8]),
    Regex(&'a str),
    Eor,
    Eof,
}

impl Cursor<'_> {
    /// Whether the ASCII `text`, encoded in the cursor's charset, comes
    /// next. Nothing is consumed.
    #[inline]
    pub(crate) fn looking_at(&self, text: &[u8]) -> bool {
        let rest = self.rest();
        match self.charset() {
            Charset::Ascii => rest.starts_with(text),
            cs => {
                rest.len() >= text.len() && text.iter().zip(rest).all(|(&t, &r)| cs.encode(t) == r)
            }
        }
    }

    /// Consumes `lit`. On a mismatch the cursor does not move.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::RegexMismatch`] for a regular expression that does not
    /// match (or does not compile), [`ErrorCode::LitMismatch`] otherwise.
    #[inline]
    pub fn match_lit(&mut self, lit: &Lit<'_>) -> Result<(), ErrorCode> {
        let text: &[u8] = match lit {
            Lit::Char(c) => std::slice::from_ref(c),
            Lit::Str(s) => s,
            Lit::Regex(pat) => {
                let re = self.regex(pat)?;
                return self.match_regex(&re).map(drop).ok_or(ErrorCode::RegexMismatch);
            }
            Lit::Eor => return self.at_eor().then_some(()).ok_or(ErrorCode::LitMismatch),
            Lit::Eof => return self.at_eof().then_some(()).ok_or(ErrorCode::LitMismatch),
        };
        if !self.looking_at(text) {
            return Err(ErrorCode::LitMismatch);
        }
        self.advance(text.len());
        Ok(())
    }

    /// Whether the array terminator `term` comes next. Nothing is consumed.
    /// The record or source end holds off while a byte is partly read: its
    /// unread bits may hold further sub-byte elements.
    #[inline]
    pub(crate) fn term_ahead(&mut self, term: &Lit<'_>) -> bool {
        match term {
            Lit::Char(c) => self.looking_at(std::slice::from_ref(c)),
            Lit::Str(s) => self.looking_at(s),
            Lit::Regex(_) => {
                let cp = self.checkpoint();
                let ok = self.match_lit(term).is_ok();
                self.restore(cp);
                ok
            }
            Lit::Eor => !self.mid_byte() && self.at_eor(),
            Lit::Eof => !self.mid_byte() && self.at_eof(),
        }
    }

    /// Where an array with neither size nor terminator ends: the end of the
    /// record inside one, of the source outside, on a byte boundary.
    #[inline]
    pub(crate) fn at_natural_end(&self) -> bool {
        !self.mid_byte() && if self.in_record() { self.at_eor() } else { self.at_eof() }
    }
}

/// The schema facts of an array type that its loop reads.
#[derive(Debug, Clone, Copy)]
pub struct ArrayShape<'a> {
    /// `Psep`.
    pub sep: Option<Lit<'a>>,
    /// `Pterm`.
    pub term: Option<Lit<'a>>,
    /// Whether elements are records: they resynchronise at the record
    /// boundary themselves, so the array survives their syntax errors.
    pub elem_recovers: bool,
    /// Whether the `Pwhere` clause is a `Pforall`, whose violation is
    /// `ForallViolation` rather than `WhereViolation`.
    pub forall: bool,
}

/// Reads an array: before each element the size, the terminator or the
/// natural end may stop the loop, then the separator must match; each
/// element is read under the mask's `elt` child. A syntax error in an
/// element that does not recover stops the loop, as does an element of an
/// unsized array that consumed nothing (`ArrayTermMismatch`: the loop would
/// never end); after each element `ended` (`Pended`) may stop it, the
/// terminator still consumed (a predicate that fails to evaluate stops
/// nothing). Then the size is checked and, on a clean
/// read whose mask checks compound predicates, `holds` (`Pwhere`).
///
/// `size` is `None` for an unsized array, `Some(None)` when the size
/// expression has no unsigned value (recorded as `EvalError`, size 0).
#[inline]
pub fn read_array<'d, T>(
    cur: &mut Cursor<'d>,
    mask: &Mask,
    shape: &ArrayShape<'_>,
    size: Option<Option<usize>>,
    mut elem: impl FnMut(&mut Cursor<'d>, &Mask) -> (T, ParseDesc),
    mut ended: impl FnMut(&mut Vec<T>) -> Result<bool, ErrorCode>,
    holds: impl FnOnce(&mut Vec<T>) -> Result<bool, ErrorCode>,
) -> (Vec<T>, ParseDesc) {
    let mut elts = Vec::new();
    let mut elt_pds = SparseElts::new();
    let mut pd = ParseDesc::ok();
    let (mut neerr, mut first_error) = (0u32, None);
    let elem_mask = mask.child_cow(ELT);
    let want = size.map(|n| {
        n.unwrap_or_else(|| {
            pd.add_error(ErrorCode::EvalError, Loc::at(cur.position()));
            0
        })
    });
    loop {
        match (want, &shape.term) {
            (Some(n), _) if elts.len() >= n => break,
            (Some(_), _) => {}
            (None, Some(t)) if cur.term_ahead(t) => {
                let _ = cur.match_lit(t);
                break;
            }
            (None, None) if cur.at_natural_end() => break,
            (None, _) => {}
        }
        if let (false, Some(s)) = (elts.is_empty(), &shape.sep) {
            if cur.match_lit(s).is_err() {
                pd.add_error(ErrorCode::ArraySepMismatch, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break;
            }
        }
        let before = cur.bit_offset();
        let (v, epd) = elem(cur, &elem_mask);
        let syntax_fail = epd.has_syntax_error();
        if !epd.is_ok() {
            neerr += 1;
            first_error.get_or_insert(elts.len());
        }
        pd.absorb(&epd);
        elts.push(v);
        elt_pds.push(epd);
        if syntax_fail && !shape.elem_recovers {
            pd.state = ParseState::Partial;
            break;
        }
        if want.is_none() && cur.bit_offset() == before {
            pd.add_error(ErrorCode::ArrayTermMismatch, Loc::at(cur.position()));
            break;
        }
        if ended(&mut elts) == Ok(true) {
            if let Some(t) = &shape.term {
                if cur.term_ahead(t) {
                    let _ = cur.match_lit(t);
                }
            }
            break;
        }
    }
    if want.is_some_and(|n| elts.len() != n) {
        pd.add_error(ErrorCode::ArraySizeMismatch, Loc::at(cur.position()));
    }
    if mask.compound().checks() && pd.state == ParseState::Ok {
        let violation =
            if shape.forall { ErrorCode::ForallViolation } else { ErrorCode::WhereViolation };
        pd.add_verdict(holds(&mut elts), violation, Loc::at(cur.position()));
    }
    pd.kind = PdKind::Array { elts: elt_pds.finish(), neerr, first_error };
    (elts, pd)
}

/// Reads an ordered union: each branch in turn from the same position,
/// under its name's mask. `branch` reads branch `i` and returns it only if
/// it parsed without error and its constraint holds; the first it returns
/// wins. When none does: `UnionNoBranch` and `fallback`, the first branch's
/// default.
#[inline]
pub fn read_union<'d, T>(
    cur: &mut Cursor<'d>,
    mask: &Mask,
    names: &[Name],
    mut branch: impl FnMut(&mut Cursor<'d>, usize, &Mask) -> Option<(T, ParseDesc)>,
    fallback: impl FnOnce() -> T,
) -> (T, ParseDesc) {
    let start = cur.position();
    for (i, name) in names.iter().enumerate() {
        let cp = cur.checkpoint();
        if let Some((v, bpd)) = branch(cur, i, &mask.child_cow(name)) {
            let mut pd = ParseDesc::ok();
            pd.kind = PdKind::union(*name, bpd);
            return (v, pd);
        }
        cur.restore(cp);
    }
    (fallback(), unread(ErrorCode::UnionNoBranch, start, names))
}

/// Reads a switched union. `chosen` is the branch its selector picked (the
/// first case equal to it, else the default case), `None` when none did
/// (`SwitchNoMatch`), or the selector's evaluation error; on either of
/// those: `fallback`, the first branch's default. `branch` reads branch `i`
/// under its name's mask and returns its constraint's verdict, which is
/// checked whatever the read and recorded on the union.
#[inline]
pub fn read_switched<'d, T>(
    cur: &mut Cursor<'d>,
    mask: &Mask,
    names: &[Name],
    chosen: Result<Option<usize>, ErrorCode>,
    branch: impl FnOnce(&mut Cursor<'d>, usize, &Mask) -> (T, ParseDesc, Result<bool, ErrorCode>),
    fallback: impl FnOnce() -> T,
) -> (T, ParseDesc) {
    let (i, name) = match chosen.map(|i| i.and_then(|i| Some((i, *names.get(i)?)))) {
        Ok(Some(chosen)) => chosen,
        Ok(None) => return (fallback(), unread(ErrorCode::SwitchNoMatch, cur.position(), names)),
        Err(code) => return (fallback(), unread(code, cur.position(), names)),
    };
    let (v, bpd, verdict) = branch(cur, i, &mask.child_cow(&name));
    let mut pd = ParseDesc::ok();
    pd.absorb(&bpd);
    pd.add_verdict(verdict, ErrorCode::ConstraintViolation, Loc::at(cur.position()));
    pd.kind = PdKind::union(name, bpd);
    (v, pd)
}

/// The descriptor of a union no branch was read for: `code` at `at`,
/// naming the first branch.
fn unread(code: ErrorCode, at: Pos, names: &[Name]) -> ParseDesc {
    let mut pd = ParseDesc::error(code, Loc::at(at));
    pd.state = ParseState::Partial;
    match names.first() {
        Some(first) => pd.kind = PdKind::union_ok(*first),
        // A checked schema never produces an empty union.
        None => pd.err_code = ErrorCode::InternalError,
    }
    pd
}

/// Reads a typedef: the underlying type (`base`, under the typedef's own
/// mask), then, on a clean read whose mask checks, the predicate `holds`.
/// The underlying descriptor nests under the typedef's unless `nest` is
/// false: a `Popt`, which keeps only a clean read's value, then allocates
/// nothing for a failed one.
#[inline]
pub fn read_typedef<'d, T>(
    cur: &mut Cursor<'d>,
    mask: &Mask,
    nest: bool,
    base: impl FnOnce(&mut Cursor<'d>) -> (T, ParseDesc),
    holds: impl FnOnce(&T) -> Result<bool, ErrorCode>,
) -> (T, ParseDesc) {
    let start = cur.position();
    let (v, bpd) = base(cur);
    let mut pd = ParseDesc::ok();
    pd.absorb(&bpd);
    if mask.base().checks() && pd.is_ok() {
        let loc = Loc::new(start, cur.position());
        pd.add_verdict(holds(&v), ErrorCode::ConstraintViolation, loc);
    }
    if nest {
        pd.kind = PdKind::typedef(bpd);
    }
    (v, pd)
}

/// Reads an enum: the longest variant that comes next (the first of equal
/// length), by index; `EnumNoMatch` and index 0 when none does.
#[inline]
pub fn read_enum(cur: &mut Cursor<'_>, variants: &[Name]) -> (usize, ParseDesc) {
    let mut best: Option<(usize, usize)> = None; // (len, index)
    for (i, v) in variants.iter().enumerate() {
        if best.is_none_or(|(len, _)| v.len() > len) && cur.looking_at(v.as_bytes()) {
            best = Some((v.len(), i));
        }
    }
    match best {
        Some((len, i)) => {
            cur.advance(len);
            (i, ParseDesc::ok())
        }
        None => (0, ParseDesc::error(ErrorCode::EnumNoMatch, Loc::at(cur.position()))),
    }
}
