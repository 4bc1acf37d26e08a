//! Owned-[`Value`] bridge for the [`pads_runtime::arena`] tier.
//!
//! The arena itself lives in `pads-runtime` so generated parsers can
//! lower into it directly (borrowed `PStr` leaves stay borrowed, field
//! names are compile-time [`NameId`]s). This module supplies the two
//! conversions the interpreter side needs:
//!
//! * [`push_value`] — bridge an owned [`Value`] tree into the arena
//!   (string leaves spill into the arena text heap: the owned tree has
//!   already paid for them, so nothing borrows);
//! * [`to_value`] — convert an arena value back to an owned [`Value`]
//!   that is byte-identical to what the owned path would have produced
//!   for the same input. This is the equivalence the batch writers,
//!   accumulators, and the round-trip tests rely on.

use pads_runtime::{AShape, AVal, AValRef, NameId, NameTable, ValueArena};

use crate::value::Value;

/// Bridges an owned [`Value`] into `arena`, interning any names it
/// carries into `names`, and returns the handle.
pub fn push_value(arena: &mut ValueArena<'_>, v: &Value, names: &mut NameTable) -> AVal {
    match v {
        Value::Prim(p) => arena.prim(p),
        Value::Struct { fields } => {
            let pairs: Vec<(NameId, AVal)> = fields
                .iter()
                .map(|(n, v)| (names.intern(*n), push_value(arena, v, names)))
                .collect();
            arena.strct(&pairs)
        }
        Value::Union { branch, index, value } => {
            let inner = push_value(arena, value, names);
            let name = names.intern(*branch);
            arena.union(name, *index, inner)
        }
        Value::Array(elts) => {
            let kids: Vec<AVal> = elts.iter().map(|e| push_value(arena, e, names)).collect();
            arena.array(&kids)
        }
        Value::Enum { variant, index } => {
            let name = names.intern(*variant);
            arena.enumv(name, *index)
        }
        Value::Opt(None) => arena.opt_none(),
        Value::Opt(Some(inner)) => {
            let v = push_value(arena, inner, names);
            arena.opt_some(v)
        }
    }
}

/// Converts an arena value back to the owned representation —
/// byte-identical to the [`Value`] the owned path builds for the same
/// input.
pub fn to_value(r: AValRef<'_, '_>, names: &NameTable) -> Value {
    match r.shape() {
        AShape::Prim => Value::Prim(r.prim().unwrap_or(pads_runtime::Prim::Unit)),
        AShape::Struct(_) => Value::Struct {
            fields: r
                .fields()
                .map(|(n, v)| (*names.name(n), to_value(v, names)))
                .collect(),
        },
        AShape::Union => {
            // Shape guarantees the branch exists; the fallback never runs.
            match r.branch() {
                Some((name, index, value)) => Value::Union {
                    branch: *names.name(name),
                    index,
                    value: Box::new(to_value(value, names)),
                },
                None => Value::Prim(pads_runtime::Prim::Unit),
            }
        }
        AShape::Array(n) => {
            Value::Array((0..n).filter_map(|i| r.index(i)).map(|e| to_value(e, names)).collect())
        }
        AShape::Enum => match r.variant() {
            Some((name, index)) => Value::Enum { variant: *names.name(name), index },
            None => Value::Prim(pads_runtime::Prim::Unit),
        },
        AShape::Opt(false) => Value::Opt(None),
        AShape::Opt(true) => {
            Value::Opt(r.opt_inner().map(|v| Box::new(to_value(v, names))))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pads_runtime::Prim;

    fn sample_owned() -> Value {
        Value::Struct {
            fields: vec![
                ("n".into(), Value::Prim(Prim::Uint(7))),
                ("s".into(), Value::Prim(Prim::String("GET".into()))),
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
                ("maybe".into(), Value::Opt(None)),
                ("tag".into(), Value::Enum { variant: "PUT".into(), index: 1 }),
            ],
        }
    }

    #[test]
    fn owned_round_trips_byte_identical() {
        let owned = sample_owned();
        let mut arena = ValueArena::new();
        let mut names = NameTable::new();
        let h = push_value(&mut arena, &owned, &mut names);
        assert_eq!(to_value(arena.get(h), &names), owned);
    }

    #[test]
    fn borrowed_leaves_convert_to_owned_strings() {
        let data = b"GET /index.html HTTP/1.1";
        let s = std::str::from_utf8(&data[0..3]).unwrap();
        let mut arena = ValueArena::new();
        let mut names = NameTable::new();
        let method = names.intern("method");
        let sv = arena.str_borrowed(s);
        let rec = arena.strct(&[(method, sv)]);
        assert_eq!(
            to_value(arena.get(rec), &names),
            Value::Struct {
                fields: vec![("method".into(), Value::Prim(Prim::String("GET".into())))]
            }
        );
    }

    #[test]
    fn navigation_matches_value_api() {
        let owned = sample_owned();
        let mut arena = ValueArena::new();
        let mut names = NameTable::new();
        let h = push_value(&mut arena, &owned, &mut names);
        let r = arena.get(h);
        assert_eq!(r.shape(), AShape::Struct(6));
        assert_eq!(r.field("n", &names).unwrap().as_u64(), owned.field("n").unwrap().as_u64());
        assert_eq!(r.field("s", &names).unwrap().as_str(), owned.field("s").unwrap().as_str());
        let events = r.field("events", &names).unwrap();
        assert_eq!(events.shape(), AShape::Array(2));
        assert_eq!(
            events.index(1).unwrap().field("tstamp", &names).unwrap().as_u64(),
            owned.at_path("events.[1].tstamp").and_then(|v| v.as_u64())
        );
        let (bname, bidx, bval) = r.field("ramp", &names).unwrap().branch().unwrap();
        assert_eq!(names.name(bname), "genRamp");
        assert_eq!(bidx, 1);
        assert_eq!(bval.as_u64(), Some(152_272));
        assert_eq!(r.field("maybe", &names).unwrap().shape(), AShape::Opt(false));
        assert_eq!(r.field("tag", &names).unwrap().as_u64(), Some(1));
    }

    #[test]
    fn arena_reuse_across_batches() {
        let mut arena = ValueArena::new();
        let mut names = NameTable::new();
        let owned = sample_owned();
        for _ in 0..3 {
            let mut handles = Vec::new();
            for _ in 0..50 {
                handles.push(push_value(&mut arena, &owned, &mut names));
            }
            for h in handles {
                assert_eq!(to_value(arena.get(h), &names), owned);
            }
            arena.reset();
        }
        // Names persist across batches: interning is per-schema.
        assert!(names.lookup("events").is_some());
    }
}
