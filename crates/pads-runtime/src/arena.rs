//! Arena-backed borrowed values: the zero-copy record tier.
//!
//! The owned `Value` tree (in `pads-core`) heap-allocates every string
//! leaf, every struct field list, every union box. That is the right
//! shape for long-lived results, but a batch pipeline that inspects each
//! record and moves on pays the full allocation cost for values that live
//! microseconds. [`ValueArena`] is the alternative: one bump arena holds a
//! whole batch of records as flat index-linked nodes, string leaves borrow
//! directly from the input buffer whenever decoding is the identity
//! (ASCII charset, pure-ASCII bytes — the same rule as
//! [`Charset::decode_text_cow`](crate::Charset::decode_text_cow)), and
//! structure names are dense per-schema [`NameId`]s interned once in a
//! [`NameTable`] (the `ObsSchema` dense-id pattern) so no per-record name
//! `String` or `Arc` traffic exists at all. Between batches
//! [`ValueArena::reset`] is O(1): the backing vectors are truncated, their
//! capacity retained.
//!
//! The arena is the meeting point of both engines: generated parsers
//! lower their typed values into it without allocating (borrowed `PStr`
//! leaves stay borrowed), and the interpreter bridges owned `Value` trees
//! in (`pads-core`'s `arena` module). [`AValRef`] exposes enough structure
//! for a byte-identical conversion back to the owned representation — the
//! equivalence the batch writers and accumulators rely on.

use crate::date::PDate;
use crate::name::Name;
use crate::prim::Prim;

/// Dense identifier for an interned structure name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NameId(pub u32);

/// Per-schema name interning table: every field, branch, and variant name
/// the schema can produce, mapped to a dense id exactly once. Records then
/// carry `u32`s, never name strings.
#[derive(Debug, Default)]
pub struct NameTable {
    names: Vec<Name>,
}

impl NameTable {
    /// An empty table.
    pub fn new() -> NameTable {
        NameTable::default()
    }

    /// Interns `name`, returning its dense id (existing id if already
    /// present). Linear scan: tables hold a schema's worth of names
    /// (dozens), and interning happens at table build, never per record.
    pub fn intern(&mut self, name: impl Into<Name>) -> NameId {
        let name = name.into();
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return NameId(i as u32);
        }
        self.names.push(name);
        NameId((self.names.len() - 1) as u32)
    }

    /// The interned name for `id`.
    pub fn name(&self, id: NameId) -> &Name {
        &self.names[id.0 as usize]
    }

    /// Looks up a name's id without interning.
    pub fn lookup(&self, name: &str) -> Option<NameId> {
        self.names.iter().position(|n| n == name).map(|i| NameId(i as u32))
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Handle to a value stored in a [`ValueArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AVal(u32);

/// A string leaf: borrowed from the input when decoding was the identity,
/// spilled into the arena's own text heap otherwise. Either way, no
/// per-record `String` exists.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AStr<'d> {
    Borrowed(&'d str),
    Spilled { start: u32, len: u32 },
}

/// One arena node. Structural nodes reference contiguous spans of the
/// side tables (`named` for struct fields, `kids` for array elements), so
/// a node is a fixed-size entry and a record is a cache-friendly cluster
/// of adjacent entries.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ANode<'d> {
    Unit,
    Bool(bool),
    Char(u8),
    Int(i64),
    Uint(u64),
    Float(f64),
    Str(AStr<'d>),
    Bytes { start: u32, len: u32 },
    Ip([u8; 4]),
    Date(PDate),
    Struct { start: u32, len: u32 },
    Union { name: NameId, index: u32, value: AVal },
    Array { start: u32, len: u32 },
    Enum { name: NameId, index: u32 },
    OptNone,
    OptSome(AVal),
}

/// The per-batch bump arena. See the module docs for the design.
#[derive(Debug, Default)]
pub struct ValueArena<'d> {
    nodes: Vec<ANode<'d>>,
    /// Struct field lists: `(name, value)` spans referenced by `Struct`.
    named: Vec<(NameId, AVal)>,
    /// Array element lists referenced by `Array`.
    kids: Vec<AVal>,
    /// Spill heap for strings that had to be decoded (non-identity
    /// charsets). Amortised: grows to the high-water mark, then stops.
    text: String,
    /// Spill heap for byte leaves.
    bytes: Vec<u8>,
    /// Reusable handle stack for building arrays without a caller-side
    /// `Vec` (see [`ValueArena::array_from_scratch`]).
    scratch: Vec<AVal>,
}

impl<'d> ValueArena<'d> {
    /// An empty arena.
    pub fn new() -> ValueArena<'d> {
        ValueArena::default()
    }

    /// Forgets every value in O(1), retaining all capacity. Handles
    /// (`AVal`) from before the reset must not be used afterwards.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.named.clear();
        self.kids.clear();
        self.text.clear();
        self.bytes.clear();
        self.scratch.clear();
    }

    /// Number of live nodes (diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena holds no values.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, node: ANode<'d>) -> AVal {
        self.nodes.push(node);
        AVal((self.nodes.len() - 1) as u32)
    }

    /// A primitive leaf from an owned [`Prim`] (strings spill).
    pub fn prim(&mut self, p: &Prim) -> AVal {
        match p {
            Prim::Unit => self.unit(),
            Prim::Bool(b) => self.bool(*b),
            Prim::Char(c) => self.char(*c),
            Prim::Int(i) => self.int(*i),
            Prim::Uint(u) => self.uint(*u),
            Prim::Float(f) => self.float(*f),
            Prim::String(s) => self.str_spilled(s),
            Prim::Bytes(b) => self.bytes(b),
            Prim::Ip(ip) => self.ip(*ip),
            Prim::Date(d) => self.date(*d),
        }
    }

    /// A unit leaf.
    pub fn unit(&mut self) -> AVal {
        self.push(ANode::Unit)
    }

    /// An unsigned-integer leaf.
    pub fn uint(&mut self, v: u64) -> AVal {
        self.push(ANode::Uint(v))
    }

    /// A signed-integer leaf.
    pub fn int(&mut self, v: i64) -> AVal {
        self.push(ANode::Int(v))
    }

    /// A float leaf.
    pub fn float(&mut self, v: f64) -> AVal {
        self.push(ANode::Float(v))
    }

    /// A boolean leaf.
    pub fn bool(&mut self, v: bool) -> AVal {
        self.push(ANode::Bool(v))
    }

    /// A character leaf.
    pub fn char(&mut self, v: u8) -> AVal {
        self.push(ANode::Char(v))
    }

    /// An IPv4 leaf.
    pub fn ip(&mut self, v: [u8; 4]) -> AVal {
        self.push(ANode::Ip(v))
    }

    /// A date leaf.
    pub fn date(&mut self, v: PDate) -> AVal {
        self.push(ANode::Date(v))
    }

    /// A string leaf borrowing from the input buffer — the zero-copy hot
    /// path for every identity-decodable text field.
    pub fn str_borrowed(&mut self, s: &'d str) -> AVal {
        self.push(ANode::Str(AStr::Borrowed(s)))
    }

    /// A string leaf copied into the arena's text heap (non-identity
    /// decodes). Amortised — no per-record allocation once the heap has
    /// grown to its high-water mark.
    pub fn str_spilled(&mut self, s: &str) -> AVal {
        let start = self.text.len() as u32;
        self.text.push_str(s);
        self.push(ANode::Str(AStr::Spilled { start, len: s.len() as u32 }))
    }

    /// A string leaf from a [`Cow`](std::borrow::Cow): borrowed stays
    /// borrowed, owned spills.
    pub fn str_cow(&mut self, s: std::borrow::Cow<'d, str>) -> AVal {
        match s {
            std::borrow::Cow::Borrowed(b) => self.str_borrowed(b),
            std::borrow::Cow::Owned(o) => self.str_spilled(&o),
        }
    }

    /// A bytes leaf (always spilled; byte leaves are rare).
    pub fn bytes(&mut self, b: &[u8]) -> AVal {
        let start = self.bytes.len() as u32;
        self.bytes.extend_from_slice(b);
        self.push(ANode::Bytes { start, len: b.len() as u32 })
    }

    /// A struct node over `(name, value)` pairs.
    pub fn strct(&mut self, fields: &[(NameId, AVal)]) -> AVal {
        let start = self.named.len() as u32;
        self.named.extend_from_slice(fields);
        self.push(ANode::Struct { start, len: fields.len() as u32 })
    }

    /// A union node.
    pub fn union(&mut self, name: NameId, index: usize, value: AVal) -> AVal {
        self.push(ANode::Union { name, index: index as u32, value })
    }

    /// An array node over element handles.
    pub fn array(&mut self, elts: &[AVal]) -> AVal {
        let start = self.kids.len() as u32;
        self.kids.extend_from_slice(elts);
        self.push(ANode::Array { start, len: elts.len() as u32 })
    }

    /// An enum node.
    pub fn enumv(&mut self, name: NameId, index: usize) -> AVal {
        self.push(ANode::Enum { name, index: index as u32 })
    }

    /// Current scratch depth; pass back to
    /// [`array_from_scratch`](Self::array_from_scratch). Scratch marks
    /// nest, so recursive lowerings (arrays of arrays) compose.
    pub fn scratch_mark(&self) -> usize {
        self.scratch.len()
    }

    /// Pushes an element handle for the array being built.
    pub fn scratch_push(&mut self, v: AVal) {
        self.scratch.push(v);
    }

    /// An array node over the handles pushed since `mark` — the
    /// allocation-free alternative to [`array`](Self::array): the scratch
    /// stack lives in the arena and amortises like everything else.
    pub fn array_from_scratch(&mut self, mark: usize) -> AVal {
        let start = self.kids.len() as u32;
        let len = (self.scratch.len() - mark) as u32;
        self.kids.extend(self.scratch.drain(mark..));
        self.push(ANode::Array { start, len })
    }

    /// An absent optional.
    pub fn opt_none(&mut self) -> AVal {
        self.push(ANode::OptNone)
    }

    /// A present optional.
    pub fn opt_some(&mut self, value: AVal) -> AVal {
        self.push(ANode::OptSome(value))
    }

    /// A read-only reference to a stored value.
    pub fn get<'a>(&'a self, v: AVal) -> AValRef<'a, 'd> {
        AValRef { arena: self, val: v }
    }
}

/// Navigable view of an arena value, mirroring the owned `Value` API.
#[derive(Debug, Clone, Copy)]
pub struct AValRef<'a, 'd> {
    arena: &'a ValueArena<'d>,
    val: AVal,
}

/// Shape of an arena value, as seen through [`AValRef::shape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AShape {
    /// A primitive leaf.
    Prim,
    /// A struct with N fields.
    Struct(usize),
    /// A union (taken branch inside).
    Union,
    /// An array with N elements.
    Array(usize),
    /// An enum variant.
    Enum,
    /// An optional (present or absent).
    Opt(bool),
}

impl<'a, 'd> AValRef<'a, 'd> {
    fn node(&self) -> &'a ANode<'d> {
        &self.arena.nodes[self.val.0 as usize]
    }

    /// The value's structural shape.
    pub fn shape(&self) -> AShape {
        match self.node() {
            ANode::Struct { len, .. } => AShape::Struct(*len as usize),
            ANode::Union { .. } => AShape::Union,
            ANode::Array { len, .. } => AShape::Array(*len as usize),
            ANode::Enum { .. } => AShape::Enum,
            ANode::OptNone => AShape::Opt(false),
            ANode::OptSome(_) => AShape::Opt(true),
            _ => AShape::Prim,
        }
    }

    /// Owned primitive for a leaf node (string/bytes copy out; this is
    /// the owned-conversion path, not the zero-copy one).
    pub fn prim(&self) -> Option<Prim> {
        Some(match self.node() {
            ANode::Unit => Prim::Unit,
            ANode::Bool(b) => Prim::Bool(*b),
            ANode::Char(c) => Prim::Char(*c),
            ANode::Int(i) => Prim::Int(*i),
            ANode::Uint(u) => Prim::Uint(*u),
            ANode::Float(f) => Prim::Float(*f),
            ANode::Str(_) => Prim::String(self.as_str()?.to_owned()),
            ANode::Bytes { .. } => Prim::Bytes(self.as_bytes()?.to_vec()),
            ANode::Ip(ip) => Prim::Ip(*ip),
            ANode::Date(d) => Prim::Date(*d),
            _ => return None,
        })
    }

    /// String view of a text leaf (borrowed or spilled).
    pub fn as_str(&self) -> Option<&'a str> {
        match self.node() {
            ANode::Str(AStr::Borrowed(s)) => Some(s),
            ANode::Str(AStr::Spilled { start, len }) => {
                Some(&self.arena.text[*start as usize..(*start + *len) as usize])
            }
            ANode::OptSome(v) => self.arena.get(*v).as_str(),
            _ => None,
        }
    }

    /// Byte view of a bytes leaf.
    pub fn as_bytes(&self) -> Option<&'a [u8]> {
        match self.node() {
            ANode::Bytes { start, len } => {
                Some(&self.arena.bytes[*start as usize..(*start + *len) as usize])
            }
            _ => None,
        }
    }

    /// Unsigned view through prim/enum/present-option layers.
    pub fn as_u64(&self) -> Option<u64> {
        match self.node() {
            ANode::Uint(v) => Some(*v),
            ANode::Int(v) => u64::try_from(*v).ok(),
            ANode::Char(c) => Some(*c as u64),
            ANode::Bool(b) => Some(*b as u64),
            ANode::Enum { index, .. } => Some(*index as u64),
            ANode::OptSome(v) => self.arena.get(*v).as_u64(),
            _ => None,
        }
    }

    /// Struct field by name.
    pub fn field(&self, name: &str, names: &NameTable) -> Option<AValRef<'a, 'd>> {
        let id = names.lookup(name)?;
        match self.node() {
            ANode::Struct { start, len } => self.arena.named
                [*start as usize..(*start + *len) as usize]
                .iter()
                .find(|(n, _)| *n == id)
                .map(|(_, v)| self.arena.get(*v)),
            _ => None,
        }
    }

    /// Struct fields in declaration order.
    pub fn fields(&self) -> impl Iterator<Item = (NameId, AValRef<'a, 'd>)> + 'a {
        let arena = self.arena;
        let range = match self.node() {
            ANode::Struct { start, len } => *start as usize..(*start + *len) as usize,
            _ => 0..0,
        };
        arena.named[range].iter().map(move |(n, v)| (*n, arena.get(*v)))
    }

    /// Struct field by position — random access for columnar appenders
    /// that must not allocate an intermediate field list per row.
    pub fn field_at(&self, i: usize) -> Option<(NameId, AValRef<'a, 'd>)> {
        match self.node() {
            ANode::Struct { start, len } if i < *len as usize => {
                let (n, v) = self.arena.named[*start as usize + i];
                Some((n, self.arena.get(v)))
            }
            _ => None,
        }
    }

    /// Array element by index.
    pub fn index(&self, i: usize) -> Option<AValRef<'a, 'd>> {
        match self.node() {
            ANode::Array { start, len } if i < *len as usize => {
                Some(self.arena.get(self.arena.kids[*start as usize + i]))
            }
            _ => None,
        }
    }

    /// The taken union branch: `(name, index, value)`.
    pub fn branch(&self) -> Option<(NameId, usize, AValRef<'a, 'd>)> {
        match self.node() {
            ANode::Union { name, index, value } => {
                Some((*name, *index as usize, self.arena.get(*value)))
            }
            _ => None,
        }
    }

    /// The enum variant: `(name, index)`.
    pub fn variant(&self) -> Option<(NameId, usize)> {
        match self.node() {
            ANode::Enum { name, index } => Some((*name, *index as usize)),
            _ => None,
        }
    }

    /// The optional's inner value, when this is a present optional.
    /// Distinguish "absent" from "not an optional" via [`shape`](Self::shape).
    pub fn opt_inner(&self) -> Option<AValRef<'a, 'd>> {
        match self.node() {
            ANode::OptSome(v) => Some(self.arena.get(*v)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_table_dedupes() {
        let mut names = NameTable::new();
        let a = names.intern("host");
        let b = names.intern("host");
        assert_eq!(a, b);
        assert_eq!(names.len(), 1);
        assert_eq!(names.name(a), "host");
        assert_eq!(names.lookup("host"), Some(a));
        assert_eq!(names.lookup("nope"), None);
    }

    #[test]
    fn borrowed_and_spilled_strings_read_identically() {
        let data = b"GET /index.html";
        let s = std::str::from_utf8(&data[0..3]).unwrap();
        let mut arena = ValueArena::new();
        let b = arena.str_borrowed(s);
        let sp = arena.str_spilled("GET");
        assert_eq!(arena.get(b).as_str(), Some("GET"));
        assert_eq!(arena.get(sp).as_str(), Some("GET"));
        let cow_b = arena.str_cow(std::borrow::Cow::Borrowed(s));
        let cow_o = arena.str_cow(std::borrow::Cow::Owned("GET".to_owned()));
        assert_eq!(arena.get(cow_b).as_str(), Some("GET"));
        assert_eq!(arena.get(cow_o).as_str(), Some("GET"));
    }

    #[test]
    fn navigation_over_nested_structure() {
        let mut arena = ValueArena::new();
        let mut names = NameTable::new();
        let n_ts = names.intern("tstamp");
        let n_events = names.intern("events");
        let n_ramp = names.intern("ramp");
        let n_gen = names.intern("genRamp");

        let t1 = arena.uint(10);
        let e1 = arena.strct(&[(n_ts, t1)]);
        let t2 = arena.uint(20);
        let e2 = arena.strct(&[(n_ts, t2)]);
        let arr = arena.array(&[e1, e2]);
        let rampv = arena.uint(152_272);
        let ramp = arena.union(n_gen, 1, rampv);
        let rec = arena.strct(&[(n_events, arr), (n_ramp, ramp)]);

        let r = arena.get(rec);
        assert_eq!(r.shape(), AShape::Struct(2));
        let events = r.field("events", &names).unwrap();
        assert_eq!(events.shape(), AShape::Array(2));
        assert_eq!(
            events.index(1).unwrap().field("tstamp", &names).unwrap().as_u64(),
            Some(20)
        );
        let (bn, bi, bv) = r.field("ramp", &names).unwrap().branch().unwrap();
        assert_eq!(names.name(bn), "genRamp");
        assert_eq!(bi, 1);
        assert_eq!(bv.as_u64(), Some(152_272));
    }

    #[test]
    fn optionals_and_enums() {
        let mut arena = ValueArena::new();
        let mut names = NameTable::new();
        let n_put = names.intern("PUT");
        let e = arena.enumv(n_put, 1);
        let inner = arena.uint(5);
        let some = arena.opt_some(inner);
        let none = arena.opt_none();
        assert_eq!(arena.get(e).variant().map(|(_, i)| i), Some(1));
        assert_eq!(arena.get(e).as_u64(), Some(1));
        assert_eq!(arena.get(some).shape(), AShape::Opt(true));
        assert_eq!(arena.get(some).as_u64(), Some(5));
        assert_eq!(arena.get(some).opt_inner().unwrap().as_u64(), Some(5));
        assert_eq!(arena.get(none).shape(), AShape::Opt(false));
        assert!(arena.get(none).opt_inner().is_none());
    }

    #[test]
    fn reset_is_o1_and_retains_capacity() {
        let mut arena = ValueArena::new();
        for i in 0..100 {
            let v = arena.uint(i);
            let s = arena.str_spilled("xyz");
            arena.strct(&[(NameId(0), v), (NameId(1), s)]);
        }
        let nodes_cap = arena.nodes.capacity();
        let text_cap = arena.text.capacity();
        assert!(nodes_cap > 0 && text_cap > 0);
        arena.reset();
        assert!(arena.is_empty());
        assert_eq!(arena.nodes.capacity(), nodes_cap);
        assert_eq!(arena.text.capacity(), text_cap);
    }
}
