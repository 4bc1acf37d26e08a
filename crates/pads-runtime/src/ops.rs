//! The operators of the description language's expressions, written once
//! for every tier.
//!
//! The interpreter and the VM evaluate an expression over `Value`s
//! (`pads::eval`), generated code over its typed representations; each
//! lowers the expression its own way, and both hand every operand to the
//! functions here as a [`Scalar`], a borrowed view of one value. So `==`,
//! ordering, arithmetic, negation, truthiness, `e[i]` and the `Pforall`
//! loop give one verdict, and one [`ErrorCode::EvalError`], whichever tier
//! runs them.
//!
//! Integers compute as `i64` when both operands fit and as `f64`
//! otherwise; characters, booleans, dates (their epoch) and enum variants
//! (their index) are integers but not floats. Strings compare as strings.
//! `EvalError` is division or remainder by zero in the integer domain, an
//! index outside the array, an absent `Popt` where a number or an order
//! is needed, and operands of kinds the operator does not take.
//!
//! Every function is `#[inline]`: a constraint over two integers compiles
//! to the integer comparison it always was.

use std::cmp::Ordering;

use crate::date::PDate;
use crate::error::ErrorCode;
use crate::prim::Prim;

/// One value as an operator sees it, borrowed from wherever it lives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar<'a> {
    Unit,
    Bool(bool),
    Char(u8),
    /// Signed integers, and unsigned ones of 32 bits or fewer.
    Int(i64),
    Uint(u64),
    Float(f64),
    Str(&'a str),
    Bytes(&'a [u8]),
    Ip([u8; 4]),
    Date(PDate),
    /// An enum value, by variant index.
    Enum(u64),
    /// An absent `Popt`; a present one is viewed as its value.
    Absent,
}

impl<'a> From<&'a Prim> for Scalar<'a> {
    #[inline]
    fn from(p: &'a Prim) -> Scalar<'a> {
        match p {
            Prim::Unit => Scalar::Unit,
            Prim::Bool(b) => Scalar::Bool(*b),
            Prim::Char(c) => Scalar::Char(*c),
            Prim::Int(i) => Scalar::Int(*i),
            Prim::Uint(u) => Scalar::Uint(*u),
            Prim::Float(f) => Scalar::Float(*f),
            Prim::String(s) => Scalar::Str(s),
            Prim::Bytes(b) => Scalar::Bytes(b),
            Prim::Ip(ip) => Scalar::Ip(*ip),
            Prim::Date(d) => Scalar::Date(*d),
        }
    }
}

impl Scalar<'_> {
    /// The integer reading.
    #[inline]
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Scalar::Int(i) => Some(i),
            Scalar::Uint(u) | Scalar::Enum(u) => i64::try_from(u).ok(),
            Scalar::Char(c) => Some(c.into()),
            Scalar::Bool(b) => Some(b.into()),
            Scalar::Date(d) => Some(d.epoch),
            _ => None,
        }
    }

    /// The unsigned reading (sizes, enum comparison).
    #[inline]
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Scalar::Uint(u) | Scalar::Enum(u) => Some(u),
            Scalar::Int(i) => u64::try_from(i).ok(),
            Scalar::Char(c) => Some(c.into()),
            Scalar::Bool(b) => Some(b.into()),
            _ => None,
        }
    }

    /// The floating-point reading.
    #[inline]
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Scalar::Float(f) => Some(f),
            Scalar::Int(i) => Some(i as f64),
            Scalar::Uint(u) | Scalar::Enum(u) => Some(u as f64),
            _ => None,
        }
    }

    /// The integer reading, or `EvalError` (type arguments, `Pforall` bounds).
    #[inline]
    pub fn int(self) -> Result<i64, ErrorCode> {
        self.as_i64().ok_or(ErrorCode::EvalError)
    }

    #[inline]
    fn float(self) -> Result<f64, ErrorCode> {
        self.as_f64().ok_or(ErrorCode::EvalError)
    }

    /// The primitive a base type takes as an argument: an enum as its
    /// index, an absent `Popt` as `EvalError`.
    pub fn to_prim(self) -> Result<Prim, ErrorCode> {
        Ok(match self {
            Scalar::Unit => Prim::Unit,
            Scalar::Bool(b) => Prim::Bool(b),
            Scalar::Char(c) => Prim::Char(c),
            Scalar::Int(i) => Prim::Int(i),
            Scalar::Uint(u) | Scalar::Enum(u) => Prim::Uint(u),
            Scalar::Float(f) => Prim::Float(f),
            Scalar::Str(s) => Prim::String(s.to_owned()),
            Scalar::Bytes(b) => Prim::Bytes(b.to_vec()),
            Scalar::Ip(ip) => Prim::Ip(ip),
            Scalar::Date(d) => Prim::Date(d),
            Scalar::Absent => return Err(ErrorCode::EvalError),
        })
    }
}

/// `==`: numbers by value across kinds, an enum against any unsigned
/// reading (`EvalError` against none), anything else structurally.
#[inline]
pub fn eq(a: Scalar<'_>, b: Scalar<'_>) -> Result<bool, ErrorCode> {
    Ok(match (a, b) {
        (Scalar::Enum(i), other) | (other, Scalar::Enum(i)) => {
            other.as_u64().ok_or(ErrorCode::EvalError)? == i
        }
        _ => match (a.as_i64(), b.as_i64()) {
            (Some(x), Some(y)) => x == y,
            _ => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x == y,
                _ => a == b,
            },
        },
    })
}

/// `!=`.
#[inline]
pub fn ne(a: Scalar<'_>, b: Scalar<'_>) -> Result<bool, ErrorCode> {
    eq(a, b).map(|eq| !eq)
}

/// The order `<`, `<=`, `>`, `>=` read: strings by their bytes, numbers
/// by value; `EvalError` for anything else and for NaN.
#[inline]
fn order(a: Scalar<'_>, b: Scalar<'_>) -> Result<Ordering, ErrorCode> {
    if let (Scalar::Str(x), Scalar::Str(y)) = (a, b) {
        return Ok(x.cmp(y));
    }
    match (a.as_i64(), b.as_i64()) {
        (Some(x), Some(y)) => Ok(x.cmp(&y)),
        _ => a.float()?.partial_cmp(&b.float()?).ok_or(ErrorCode::EvalError),
    }
}

macro_rules! ordering {
    ($($op:literal $name:ident $is:ident),*) => {$(
        #[doc = concat!("`", $op, "`.")]
        #[inline]
        pub fn $name(a: Scalar<'_>, b: Scalar<'_>) -> Result<bool, ErrorCode> {
            order(a, b).map(Ordering::$is)
        }
    )*};
}
ordering!("<" lt is_lt, "<=" le is_le, ">" gt is_gt, ">=" ge is_ge);

/// An arithmetic operator: `int` when both operands read as `i64` (its
/// `None` is `EvalError`: a division or remainder by zero, or overflow),
/// else `float`.
macro_rules! arithmetic {
    ($($op:literal $name:ident $int:expr, $float:expr;)*) => {$(
        #[doc = concat!("`", $op, "`.")]
        #[inline]
        pub fn $name(a: Scalar<'_>, b: Scalar<'_>) -> Result<Scalar<'static>, ErrorCode> {
            match (a.as_i64(), b.as_i64()) {
                (Some(x), Some(y)) => $int(x, y).map(Scalar::Int).ok_or(ErrorCode::EvalError),
                _ => Ok(Scalar::Float($float(a.float()?, b.float()?))),
            }
        }
    )*};
}
arithmetic! {
    "+" add |x: i64, y| Some(x.wrapping_add(y)), |x, y| x + y;
    "-" sub |x: i64, y| Some(x.wrapping_sub(y)), |x, y| x - y;
    "*" mul |x: i64, y| Some(x.wrapping_mul(y)), |x, y| x * y;
    "/" div i64::checked_div, |x, y| x / y;
    "%" rem i64::checked_rem, |x, y| x % y;
}

/// Unary `-`, of integers and floats.
#[inline]
pub fn neg(a: Scalar<'_>) -> Result<Scalar<'static>, ErrorCode> {
    match a {
        Scalar::Int(i) => i.checked_neg().map(Scalar::Int),
        Scalar::Uint(u) => i64::try_from(u).ok().map(|i| Scalar::Int(-i)),
        Scalar::Float(f) => Some(Scalar::Float(-f)),
        _ => None,
    }
    .ok_or(ErrorCode::EvalError)
}

/// What a condition (`&&`, `||`, `!`, `?:`, a constraint) reads: only a
/// boolean is one.
#[inline]
pub fn truth(a: Scalar<'_>) -> Result<bool, ErrorCode> {
    match a {
        Scalar::Bool(b) => Ok(b),
        _ => Err(ErrorCode::EvalError),
    }
}

/// `e[i]`: `EvalError` for an index that is no integer or is outside `elts`.
#[inline]
pub fn index<'e, T>(elts: &'e [T], i: Scalar<'_>) -> Result<&'e T, ErrorCode> {
    usize::try_from(i.int()?).ok().and_then(|i| elts.get(i)).ok_or(ErrorCode::EvalError)
}

/// A field of a `Popt` that is absent is `EvalError`.
#[inline]
pub fn present<T>(opt: &Option<T>) -> Result<&T, ErrorCode> {
    opt.as_ref().ok_or(ErrorCode::EvalError)
}

/// `Pforall (i Pin [lo..hi] : body)`: whether `body` holds of every `i`
/// in turn, stopping at the first that does not or fails.
#[inline]
pub fn forall(
    lo: Scalar<'_>,
    hi: Scalar<'_>,
    mut body: impl FnMut(i64) -> Result<bool, ErrorCode>,
) -> Result<bool, ErrorCode> {
    for i in lo.int()?..=hi.int()? {
        if !body(i)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Whether a switch selector picks a case, as the interpreter and the VM
/// match one over `Value`s: integers by value, anything else structurally.
#[inline]
pub fn case_eq(sel: Scalar<'_>, case: Scalar<'_>) -> bool {
    match (sel.as_i64(), case.as_i64()) {
        (Some(a), Some(b)) => a == b,
        _ => sel == case,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Scalar::{Absent, Bool, Char, Enum, Float, Int, Str, Uint};

    #[test]
    fn loose_equality_crosses_numeric_kinds() {
        assert_eq!(eq(Int(3), Uint(3)), Ok(true));
        assert_eq!(eq(Char(b'a'), Uint(97)), Ok(true));
        assert_eq!(eq(Float(2.5), Float(2.5)), Ok(true));
        assert_eq!(eq(Uint(3), Float(3.0)), Ok(true));
        assert_eq!(eq(Int(3), Uint(4)), Ok(false));
        assert_eq!(eq(Str("3"), Uint(3)), Ok(false));
        assert_eq!(eq(Enum(2), Uint(2)), Ok(true));
        assert_eq!(eq(Bool(true), Int(1)), Ok(true));
    }

    #[test]
    fn integers_compute_as_i64_and_fall_back_to_f64() {
        assert_eq!(gt(Uint(1 << 63), Int(0)), Ok(true));
        assert_eq!(eq(Uint(1 << 63), Uint(1 << 63)), Ok(true));
        assert_eq!(gt(Float(0.75), Float(0.5)), Ok(true));
        assert_eq!(add(Int(2), Float(0.5)), Ok(Float(2.5)));
        assert_eq!(add(Int(i64::MAX), Int(1)), Ok(Int(i64::MIN)));
        assert_eq!(lt(Char(b'a'), Float(1.0)), Err(ErrorCode::EvalError));
        assert_eq!(lt(Str("abc"), Str("abd")), Ok(true));
    }

    #[test]
    fn evaluation_errors() {
        assert_eq!(div(Int(1), Int(0)), Err(ErrorCode::EvalError));
        assert_eq!(rem(Int(1), Uint(0)), Err(ErrorCode::EvalError));
        assert_eq!(div(Float(1.0), Int(0)), Ok(Float(f64::INFINITY)));
        assert_eq!(gt(Int(1), Absent), Err(ErrorCode::EvalError));
        assert_eq!(eq(Int(1), Absent), Ok(false));
        assert_eq!(eq(Enum(1), Str("x")), Err(ErrorCode::EvalError));
        assert_eq!(truth(Int(1)), Err(ErrorCode::EvalError));
        assert_eq!(index(&[1, 2], Int(2)), Err(ErrorCode::EvalError));
        assert_eq!(index(&[1, 2], Int(-1)), Err(ErrorCode::EvalError));
        assert_eq!(neg(Int(i64::MIN)), Err(ErrorCode::EvalError));
    }

    #[test]
    fn forall_stops_at_the_first_failure() {
        let elts = [1, 2, 5];
        let sorted = |i| le(Int(*index(&elts, Int(i))?), Int(*index(&elts, Int(i + 1))?));
        assert_eq!(forall(Int(0), Int(1), sorted), Ok(true));
        assert_eq!(forall(Int(0), Int(2), sorted), Err(ErrorCode::EvalError));
        assert_eq!(forall(Int(2), Int(1), sorted), Ok(true));
        assert!(case_eq(Uint(1), Int(1)) && !case_eq(Str("a"), Str("b")));
    }
}
