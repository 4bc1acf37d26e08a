//! The in-memory representation of parsed data.
//!
//! Every PADS type maps to a [`Value`] shape, mirroring the C mapping of §4:
//! `Pstruct`s to field lists, `Punion`s to tagged values, `Parray`s to
//! element vectors, `Penum`s to variant indices, `Popt`s to options, and
//! base types to [`Prim`]s.

use pads_runtime::ops::Scalar;
use pads_runtime::{Name, Prim};

/// A parsed value.
///
/// Structure names are interned [`Name`]s: carrying a field, branch, or
/// variant name costs a pointer copy in every engine, never a per-record
/// heap `String` or refcount.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A base-type value.
    Prim(Prim),
    /// A `Pstruct`: named fields in declaration order (literal members do
    /// not appear — they are part of the physical syntax only).
    Struct {
        /// `(name, value)` pairs.
        fields: Vec<(Name, Value)>,
    },
    /// A `Punion`: the branch that parsed.
    Union {
        /// Name of the taken branch.
        branch: Name,
        /// Declaration index of the taken branch.
        index: usize,
        /// The branch's value.
        value: Box<Value>,
    },
    /// A `Parray`.
    Array(Vec<Value>),
    /// A `Penum` variant.
    Enum {
        /// Variant name.
        variant: Name,
        /// Declaration index of the variant.
        index: usize,
    },
    /// A `Popt`: present or absent (`NONE` in the paper's terminology).
    Opt(Option<Box<Value>>),
}

impl Value {
    /// The unit value (used for `Pvoid` and ignored members).
    pub fn unit() -> Value {
        Value::Prim(Prim::Unit)
    }

    /// The primitive inside, if this is a base value.
    pub fn as_prim(&self) -> Option<&Prim> {
        match self {
            Value::Prim(p) => Some(p),
            _ => None,
        }
    }

    /// Looks up a struct field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Struct { fields } => {
                fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Mutable struct field lookup.
    pub fn field_mut(&mut self, name: &str) -> Option<&mut Value> {
        match self {
            Value::Struct { fields } => {
                fields.iter_mut().find(|(n, _)| n == name).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Array element by index.
    pub fn index(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Array(elts) => elts.get(i),
            _ => None,
        }
    }

    /// Number of array elements (`None` for non-arrays).
    pub fn len(&self) -> Option<usize> {
        match self {
            Value::Array(elts) => Some(elts.len()),
            _ => None,
        }
    }

    /// Whether this is an empty array.
    pub fn is_empty(&self) -> Option<bool> {
        self.len().map(|n| n == 0)
    }

    /// The value as an operator sees it ([`pads_runtime::ops`]): a
    /// primitive, an enum's index, an optional's content or its absence;
    /// `None` for an aggregate.
    pub fn scalar(&self) -> Option<Scalar<'_>> {
        match self {
            Value::Prim(p) => Some(Scalar::from(p)),
            Value::Enum { index, .. } => Some(Scalar::Enum(*index as u64)),
            Value::Opt(None) => Some(Scalar::Absent),
            Value::Opt(Some(inner)) => inner.scalar(),
            _ => None,
        }
    }

    /// Unsigned-integer view through prim/enum/present-option layers.
    pub fn as_u64(&self) -> Option<u64> {
        self.scalar()?.as_u64()
    }

    /// Signed-integer view through prim/enum/present-option layers.
    pub fn as_i64(&self) -> Option<i64> {
        self.scalar()?.as_i64()
    }

    /// String view (strings and present options of strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Prim(p) => p.as_str(),
            Value::Opt(Some(inner)) => inner.as_str(),
            _ => None,
        }
    }

    /// Traverses a dot/bracket path like `"header.order_num"` or
    /// `"events.[0].tstamp"`.
    pub fn at_path(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for part in path.split('.') {
            if part.is_empty() {
                continue;
            }
            cur = if let Some(idx) = part.strip_prefix('[').and_then(|p| p.strip_suffix(']')) {
                cur.index(idx.parse().ok()?)?
            } else {
                match cur {
                    Value::Union { branch, value, .. } if branch == part => value,
                    Value::Opt(Some(inner)) => inner.field(part).or_else(|| {
                        if let Value::Union { branch, value, .. } = inner.as_ref() {
                            (branch == part).then_some(value.as_ref())
                        } else {
                            None
                        }
                    })?,
                    other => other.field(part)?,
                }
            };
        }
        Some(cur)
    }
}

impl From<Prim> for Value {
    fn from(p: Prim) -> Value {
        Value::Prim(p)
    }
}

impl std::fmt::Display for Value {
    /// Renders a debugging view (`{a: 1, b: [2, 3]}`); for faithful output
    /// use the writer or the formatting tool.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Prim(p) => write!(f, "{p}"),
            Value::Struct { fields } => {
                f.write_str("{")?;
                for (i, (n, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{n}: {v}")?;
                }
                f.write_str("}")
            }
            Value::Union { branch, value, .. } => write!(f, "{branch}({value})"),
            Value::Array(elts) => {
                f.write_str("[")?;
                for (i, v) in elts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Enum { variant, .. } => f.write_str(variant),
            Value::Opt(None) => f.write_str("NONE"),
            Value::Opt(Some(v)) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::Struct {
            fields: vec![
                ("n".into(), Value::Prim(Prim::Uint(7))),
                (
                    "events".into(),
                    Value::Array(vec![
                        Value::Struct {
                            fields: vec![("tstamp".into(), Value::Prim(Prim::Uint(10)))],
                        },
                        Value::Struct {
                            fields: vec![("tstamp".into(), Value::Prim(Prim::Uint(20)))],
                        },
                    ]),
                ),
                (
                    "ramp".into(),
                    Value::Union {
                        branch: "genRamp".into(),
                        index: 1,
                        value: Box::new(Value::Prim(Prim::Uint(152_272))),
                    },
                ),
            ],
        }
    }

    #[test]
    fn path_traversal() {
        let v = sample();
        assert_eq!(v.at_path("n").and_then(Value::as_u64), Some(7));
        assert_eq!(v.at_path("events.[1].tstamp").and_then(Value::as_u64), Some(20));
        assert_eq!(v.at_path("ramp.genRamp").and_then(Value::as_u64), Some(152_272));
        assert!(v.at_path("missing").is_none());
        assert!(v.at_path("events.[9]").is_none());
    }

    #[test]
    fn display_shape() {
        assert_eq!(
            sample().at_path("events").unwrap().to_string(),
            "[{tstamp: 10}, {tstamp: 20}]"
        );
        assert_eq!(Value::Opt(None).to_string(), "NONE");
    }

    #[test]
    fn enum_coerces_to_index() {
        let v = Value::Enum { variant: "PUT".into(), index: 1 };
        assert_eq!(v.as_u64(), Some(1));
    }
}
