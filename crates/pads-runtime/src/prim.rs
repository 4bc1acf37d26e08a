//! Primitive values produced by base types.
//!
//! [`Prim`] is the atomic layer of the in-memory representation: every PADS
//! base type parses to exactly one `Prim`. Compound values (structs, unions,
//! arrays) live in the `pads` core crate and embed `Prim` at the leaves.

use crate::date::PDate;
use crate::ops::Scalar;

/// The category of value a base type produces, used by the checker (for
/// expression typing) and by accumulators (to pick a statistics kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimKind {
    /// No value (matched literals, `Pvoid`).
    Unit,
    /// Boolean.
    Bool,
    /// A single character (logical ASCII).
    Char,
    /// Signed integer.
    Int,
    /// Unsigned integer.
    Uint,
    /// Floating point.
    Float,
    /// Text.
    String,
    /// Raw bytes.
    Bytes,
    /// IPv4 address.
    Ip,
    /// Date/time.
    Date,
}

/// A primitive (base-type) value.
#[derive(Debug, Clone, PartialEq)]
pub enum Prim {
    /// No value.
    Unit,
    /// Boolean.
    Bool(bool),
    /// One logical-ASCII character.
    Char(u8),
    /// Signed integer (all `PintN` widths normalise to `i64`).
    Int(i64),
    /// Unsigned integer (all `PuintN` widths normalise to `u64`).
    Uint(u64),
    /// Floating point.
    Float(f64),
    /// Text (decoded to logical ASCII / UTF-8).
    String(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// IPv4 address octets.
    Ip([u8; 4]),
    /// Date/time.
    Date(PDate),
}

impl Prim {
    /// The kind of this value.
    pub fn kind(&self) -> PrimKind {
        match self {
            Prim::Unit => PrimKind::Unit,
            Prim::Bool(_) => PrimKind::Bool,
            Prim::Char(_) => PrimKind::Char,
            Prim::Int(_) => PrimKind::Int,
            Prim::Uint(_) => PrimKind::Uint,
            Prim::Float(_) => PrimKind::Float,
            Prim::String(_) => PrimKind::String,
            Prim::Bytes(_) => PrimKind::Bytes,
            Prim::Ip(_) => PrimKind::Ip,
            Prim::Date(_) => PrimKind::Date,
        }
    }

    /// Numeric view as `i64` (integers, chars, bools, dates-as-epoch), the
    /// reading [`ops`](crate::ops) computes with.
    pub fn as_i64(&self) -> Option<i64> {
        Scalar::from(self).as_i64()
    }

    /// Numeric view as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        Scalar::from(self).as_u64()
    }

    /// Numeric view as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        Scalar::from(self).as_f64()
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Prim::String(s) => Some(s),
            _ => None,
        }
    }
}

impl std::fmt::Display for Prim {
    /// The text [`render::prim`](crate::render::prim) appends.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        crate::render::display(f, |out| crate::render::prim(out, self))
    }
}

impl Default for Prim {
    /// The unit primitive.
    fn default() -> Prim {
        Prim::Unit
    }
}

impl From<bool> for Prim {
    fn from(v: bool) -> Prim {
        Prim::Bool(v)
    }
}

impl From<i64> for Prim {
    fn from(v: i64) -> Prim {
        Prim::Int(v)
    }
}

impl From<u64> for Prim {
    fn from(v: u64) -> Prim {
        Prim::Uint(v)
    }
}

impl From<f64> for Prim {
    fn from(v: f64) -> Prim {
        Prim::Float(v)
    }
}

impl From<String> for Prim {
    fn from(v: String) -> Prim {
        Prim::String(v)
    }
}

impl From<&str> for Prim {
    fn from(v: &str) -> Prim {
        Prim::from(std::borrow::Cow::Borrowed(v))
    }
}

impl From<std::borrow::Cow<'_, str>> for Prim {
    fn from(v: std::borrow::Cow<'_, str>) -> Prim {
        // `into_owned` moves when the cow already owns — the only copy
        // left is the unavoidable one for genuinely borrowed text.
        Prim::String(v.into_owned())
    }
}

impl From<PDate> for Prim {
    fn from(v: PDate) -> Prim {
        Prim::Date(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Prim::Ip([135, 207, 23, 32]).to_string(), "135.207.23.32");
        assert_eq!(Prim::Char(b'-').to_string(), "-");
        assert_eq!(Prim::Bytes(vec![0xde, 0xad]).to_string(), "\\xde\\xad");
        assert_eq!(Prim::Uint(30).to_string(), "30");
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Prim::Uint(u64::MAX).as_i64(), None);
        assert_eq!(Prim::Int(-1).as_u64(), None);
        assert_eq!(Prim::Bool(true).as_i64(), Some(1));
        assert_eq!(Prim::Int(-2).as_f64(), Some(-2.0));
    }
}
