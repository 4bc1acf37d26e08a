//! Record batches: many parsed records in one columnar store.
//!
//! A [`RecordBatch`] holds parsed records in Arrow-style columns — one
//! value vector per leaf, offset arrays for nested arrays and string
//! heaps, dense child columns for unions and optionals, and per-row
//! validity/error bitmaps — instead of one [`Value`] tree per record.
//! Appending a row amortises to zero allocations once the column vectors
//! have grown to their high-water mark.
//!
//! The batch is a pinned shim: no CLI path builds one. It is what
//! [`PadsParser::records_batched`](crate::parse::PadsParser) and
//! [`PadsParser::records_par_batched`](crate::parse::PadsParser) return,
//! and what the benchmark's generated tier fills with
//! [`RecordBatch::push_arena`] (borrowed string leaves are copied once,
//! into the column heap) before handing it to the accumulator. Its
//! consumers read it a row at a time.
//!
//! Equivalence is the design invariant: [`RecordBatch::row`] reconstructs
//! a [`Value`] byte-identical to what the per-record path produced, and
//! [`RecordBatch::pd`] returns the record's parse descriptor (stored
//! sparsely — clean rows cost one bitmap bit).
//!
//! Schema drift inside a batch (a column seeing a differently-shaped
//! value, e.g. under aggressive error recovery) does not lose data: the
//! affected column *promotes* to a row-major spill vector. Promotion is
//! rare and per-column; the rest of the batch stays columnar.

use pads_runtime::date::PDate;
use pads_runtime::{AShape, AValRef, Name, NameTable, ParseDesc, Prim};

use crate::value::Value;

/// Packed row bitmap (validity / error flags).
#[derive(Debug, Default)]
struct Bitmap {
    bits: Vec<u64>,
    len: usize,
}

impl Bitmap {
    fn push(&mut self, b: bool) {
        let word = self.len / 64;
        if word == self.bits.len() {
            self.bits.push(0);
        }
        if b {
            self.bits[word] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Bit `i`.
    fn get(&self, i: usize) -> bool {
        i < self.len && self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits strictly before `i`.
    fn rank(&self, i: usize) -> usize {
        let full = i / 64;
        let mut n: usize =
            self.bits[..full.min(self.bits.len())].iter().map(|w| w.count_ones() as usize).sum();
        if full < self.bits.len() && !i.is_multiple_of(64) {
            n += (self.bits[full] & ((1u64 << (i % 64)) - 1)).count_ones() as usize;
        }
        n
    }

    fn clear(&mut self) {
        self.bits.clear();
        self.len = 0;
    }
}

/// Borrowed view of one primitive leaf — the common currency of the
/// owned and arena producers, so neither allocates to append.
enum PrimView<'x> {
    Unit,
    Bool(bool),
    Char(u8),
    Int(i64),
    Uint(u64),
    Float(f64),
    Str(&'x str),
    Bytes(&'x [u8]),
    Ip([u8; 4]),
    Date(PDate),
}

impl<'x> PrimView<'x> {
    fn of(p: &'x Prim) -> PrimView<'x> {
        match p {
            Prim::Unit => PrimView::Unit,
            Prim::Bool(b) => PrimView::Bool(*b),
            Prim::Char(c) => PrimView::Char(*c),
            Prim::Int(i) => PrimView::Int(*i),
            Prim::Uint(u) => PrimView::Uint(*u),
            Prim::Float(f) => PrimView::Float(*f),
            Prim::String(s) => PrimView::Str(s),
            Prim::Bytes(b) => PrimView::Bytes(b),
            Prim::Ip(ip) => PrimView::Ip(*ip),
            Prim::Date(d) => PrimView::Date(*d),
        }
    }

    /// Fixed-size arena scalars (everything but str/bytes, which the
    /// caller has already tried zero-copy).
    fn of_arena_scalar(r: &AValRef<'_, '_>) -> Option<PrimView<'static>> {
        Some(match r.prim()? {
            Prim::Unit => PrimView::Unit,
            Prim::Bool(b) => PrimView::Bool(b),
            Prim::Char(c) => PrimView::Char(c),
            Prim::Int(i) => PrimView::Int(i),
            Prim::Uint(u) => PrimView::Uint(u),
            Prim::Float(f) => PrimView::Float(f),
            Prim::Ip(ip) => PrimView::Ip(ip),
            Prim::Date(d) => PrimView::Date(d),
            // Str/Bytes handled zero-copy by the caller.
            Prim::String(_) | Prim::Bytes(_) => return None,
        })
    }

    fn to_prim(&self) -> Prim {
        match self {
            PrimView::Unit => Prim::Unit,
            PrimView::Bool(b) => Prim::Bool(*b),
            PrimView::Char(c) => Prim::Char(*c),
            PrimView::Int(i) => Prim::Int(*i),
            PrimView::Uint(u) => Prim::Uint(*u),
            PrimView::Float(f) => Prim::Float(*f),
            PrimView::Str(s) => Prim::String((*s).to_owned()),
            PrimView::Bytes(b) => Prim::Bytes(b.to_vec()),
            PrimView::Ip(ip) => Prim::Ip(*ip),
            PrimView::Date(d) => Prim::Date(*d),
        }
    }
}

/// One leaf column: a typed value vector. String/bytes columns are a
/// shared heap plus end-offset array (Arrow variable-length layout).
#[derive(Debug)]
enum PrimCol {
    Unit(usize),
    Bool(Vec<bool>),
    Char(Vec<u8>),
    Int(Vec<i64>),
    Uint(Vec<u64>),
    Float(Vec<f64>),
    Str { offsets: Vec<u32>, heap: String },
    Bytes { offsets: Vec<u32>, heap: Vec<u8> },
    Ip(Vec<[u8; 4]>),
    Date(Vec<PDate>),
    /// Kind-drift spill: row-major primitives.
    Mixed(Vec<Prim>),
}

impl PrimCol {
    fn new(v: &PrimView<'_>) -> PrimCol {
        match v {
            PrimView::Unit => PrimCol::Unit(0),
            PrimView::Bool(_) => PrimCol::Bool(Vec::new()),
            PrimView::Char(_) => PrimCol::Char(Vec::new()),
            PrimView::Int(_) => PrimCol::Int(Vec::new()),
            PrimView::Uint(_) => PrimCol::Uint(Vec::new()),
            PrimView::Float(_) => PrimCol::Float(Vec::new()),
            PrimView::Str(_) => PrimCol::Str { offsets: Vec::new(), heap: String::new() },
            PrimView::Bytes(_) => PrimCol::Bytes { offsets: Vec::new(), heap: Vec::new() },
            PrimView::Ip(_) => PrimCol::Ip(Vec::new()),
            PrimView::Date(_) => PrimCol::Date(Vec::new()),
        }
    }

    fn slots(&self) -> usize {
        match self {
            PrimCol::Unit(n) => *n,
            PrimCol::Bool(v) => v.len(),
            PrimCol::Char(v) => v.len(),
            PrimCol::Int(v) => v.len(),
            PrimCol::Uint(v) => v.len(),
            PrimCol::Float(v) => v.len(),
            PrimCol::Str { offsets, .. } => offsets.len(),
            PrimCol::Bytes { offsets, .. } => offsets.len(),
            PrimCol::Ip(v) => v.len(),
            PrimCol::Date(v) => v.len(),
            PrimCol::Mixed(v) => v.len(),
        }
    }

    fn push(&mut self, v: &PrimView<'_>) {
        match (&mut *self, v) {
            (PrimCol::Unit(n), PrimView::Unit) => *n += 1,
            (PrimCol::Bool(c), PrimView::Bool(b)) => c.push(*b),
            (PrimCol::Char(c), PrimView::Char(b)) => c.push(*b),
            (PrimCol::Int(c), PrimView::Int(b)) => c.push(*b),
            (PrimCol::Uint(c), PrimView::Uint(b)) => c.push(*b),
            (PrimCol::Float(c), PrimView::Float(b)) => c.push(*b),
            (PrimCol::Str { offsets, heap }, PrimView::Str(s)) => {
                heap.push_str(s);
                offsets.push(heap.len() as u32);
            }
            (PrimCol::Bytes { offsets, heap }, PrimView::Bytes(b)) => {
                heap.extend_from_slice(b);
                offsets.push(heap.len() as u32);
            }
            (PrimCol::Ip(c), PrimView::Ip(b)) => c.push(*b),
            (PrimCol::Date(c), PrimView::Date(b)) => c.push(*b),
            (PrimCol::Mixed(c), v) => c.push(v.to_prim()),
            // Kind drift: spill the whole column to row-major and retry.
            (col, v) => {
                let spilled: Vec<Prim> = (0..col.slots()).map(|i| col.slot_prim(i)).collect();
                *col = PrimCol::Mixed(spilled);
                col.push(v);
            }
        }
    }

    fn slot_prim(&self, i: usize) -> Prim {
        match self {
            PrimCol::Unit(_) => Prim::Unit,
            PrimCol::Bool(v) => Prim::Bool(v[i]),
            PrimCol::Char(v) => Prim::Char(v[i]),
            PrimCol::Int(v) => Prim::Int(v[i]),
            PrimCol::Uint(v) => Prim::Uint(v[i]),
            PrimCol::Float(v) => Prim::Float(v[i]),
            PrimCol::Str { offsets, heap } => {
                let start = if i == 0 { 0 } else { offsets[i - 1] as usize };
                Prim::String(heap[start..offsets[i] as usize].to_owned())
            }
            PrimCol::Bytes { offsets, heap } => {
                let start = if i == 0 { 0 } else { offsets[i - 1] as usize };
                Prim::Bytes(heap[start..offsets[i] as usize].to_vec())
            }
            PrimCol::Ip(v) => Prim::Ip(v[i]),
            PrimCol::Date(v) => Prim::Date(v[i]),
            PrimCol::Mixed(v) => v[i].clone(),
        }
    }

    fn clear(&mut self) {
        match self {
            PrimCol::Unit(n) => *n = 0,
            PrimCol::Bool(v) => v.clear(),
            PrimCol::Char(v) => v.clear(),
            PrimCol::Int(v) => v.clear(),
            PrimCol::Uint(v) => v.clear(),
            PrimCol::Float(v) => v.clear(),
            PrimCol::Str { offsets, heap } => {
                offsets.clear();
                heap.clear();
            }
            PrimCol::Bytes { offsets, heap } => {
                offsets.clear();
                heap.clear();
            }
            PrimCol::Ip(v) => v.clear(),
            PrimCol::Date(v) => v.clear(),
            PrimCol::Mixed(v) => v.clear(),
        }
    }
}

/// Borrowed view of one record — the owned tree and the arena value
/// present the same face to the column tree, so the batch has exactly
/// one append path.
#[derive(Clone, Copy)]
enum VV<'x, 'a, 'd> {
    Owned(&'x Value),
    Arena(AValRef<'a, 'd>, &'x NameTable),
}

impl<'x, 'a: 'x, 'd> VV<'x, 'a, 'd> {
    fn shape(&self) -> AShape {
        match self {
            VV::Owned(v) => match v {
                Value::Prim(_) => AShape::Prim,
                Value::Struct { fields } => AShape::Struct(fields.len()),
                Value::Union { .. } => AShape::Union,
                Value::Array(e) => AShape::Array(e.len()),
                Value::Enum { .. } => AShape::Enum,
                Value::Opt(o) => AShape::Opt(o.is_some()),
            },
            VV::Arena(r, _) => r.shape(),
        }
    }

    fn prim(&self) -> Option<PrimView<'x>> {
        match self {
            VV::Owned(Value::Prim(p)) => Some(PrimView::of(p)),
            VV::Owned(_) => None,
            VV::Arena(r, _) => {
                if r.shape() != AShape::Prim {
                    return None;
                }
                if let Some(s) = r.as_str() {
                    return Some(PrimView::Str(s));
                }
                if let Some(b) = r.as_bytes() {
                    return Some(PrimView::Bytes(b));
                }
                PrimView::of_arena_scalar(r)
            }
        }
    }

    /// Struct field by position, allocation-free — the per-row append
    /// path must not build an intermediate field list.
    fn field_at(&self, i: usize) -> Option<(&'x Name, VV<'x, 'a, 'd>)> {
        match self {
            VV::Owned(Value::Struct { fields }) => {
                fields.get(i).map(|(n, v)| (n, VV::Owned(v)))
            }
            VV::Arena(r, names) => {
                r.field_at(i).map(|(id, v)| (names.name(id), VV::Arena(v, names)))
            }
            _ => None,
        }
    }

    /// Array element by index, allocation-free.
    fn element_at(&self, i: usize) -> Option<VV<'x, 'a, 'd>> {
        match self {
            VV::Owned(Value::Array(elts)) => elts.get(i).map(VV::Owned),
            VV::Arena(r, names) => r.index(i).map(|v| VV::Arena(v, names)),
            _ => None,
        }
    }

    fn fields(&self) -> Vec<(&'x Name, VV<'x, 'a, 'd>)> {
        match self {
            VV::Owned(Value::Struct { fields }) => {
                fields.iter().map(|(n, v)| (n, VV::Owned(v))).collect()
            }
            VV::Arena(r, names) => {
                r.fields().map(|(id, v)| (names.name(id), VV::Arena(v, names))).collect()
            }
            _ => Vec::new(),
        }
    }

    fn branch(&self) -> Option<(&'x Name, usize, VV<'x, 'a, 'd>)> {
        match self {
            VV::Owned(Value::Union { branch, index, value }) => {
                Some((branch, *index, VV::Owned(value)))
            }
            VV::Arena(r, names) => {
                let (id, index, v) = r.branch()?;
                Some((names.name(id), index, VV::Arena(v, names)))
            }
            _ => None,
        }
    }

    fn variant(&self) -> Option<(&'x Name, usize)> {
        match self {
            VV::Owned(Value::Enum { variant, index }) => Some((variant, *index)),
            VV::Arena(r, names) => {
                let (id, index) = r.variant()?;
                Some((names.name(id), index))
            }
            _ => None,
        }
    }

    fn opt_inner(&self) -> Option<VV<'x, 'a, 'd>> {
        match self {
            VV::Owned(Value::Opt(Some(v))) => Some(VV::Owned(v)),
            VV::Arena(r, names) => r.opt_inner().map(|v| VV::Arena(v, names)),
            _ => None,
        }
    }

    fn to_owned_value(self) -> Value {
        match self {
            VV::Owned(v) => v.clone(),
            VV::Arena(r, names) => crate::arena::to_value(r, names),
        }
    }
}

/// A column in the nested (Arrow-style) column tree. Slot counts differ
/// from the batch row count below arrays (expansion), unions, and
/// optionals (dense children hold only taken/present slots).
#[derive(Debug)]
enum Col {
    /// No slot appended yet; adopts the shape of the first value.
    Empty,
    Prim(PrimCol),
    Struct { fields: Vec<(Name, Col)>, slots: usize },
    Union { tags: Vec<u32>, child_rows: Vec<u32>, names: Vec<Name>, children: Vec<Col> },
    Array { offsets: Vec<u32>, elem: Box<Col> },
    Enum { indices: Vec<u32>, names: Vec<Name> },
    Opt { validity: Bitmap, inner: Box<Col> },
    /// Shape-drift spill: row-major values.
    Mixed(Vec<Value>),
}

impl Col {
    fn new_for(v: &VV<'_, '_, '_>) -> Col {
        match v.shape() {
            AShape::Prim => match v.prim() {
                Some(p) => Col::Prim(PrimCol::new(&p)),
                None => Col::Mixed(Vec::new()),
            },
            AShape::Struct(_) => Col::Struct {
                fields: v.fields().iter().map(|(n, _)| ((*n).clone(), Col::Empty)).collect(),
                slots: 0,
            },
            AShape::Union => Col::Union {
                tags: Vec::new(),
                child_rows: Vec::new(),
                names: Vec::new(),
                children: Vec::new(),
            },
            AShape::Array(_) => Col::Array { offsets: Vec::new(), elem: Box::new(Col::Empty) },
            AShape::Enum => Col::Enum { indices: Vec::new(), names: Vec::new() },
            AShape::Opt(_) => {
                Col::Opt { validity: Bitmap::default(), inner: Box::new(Col::Empty) }
            }
        }
    }

    fn slots(&self) -> usize {
        match self {
            Col::Empty => 0,
            Col::Prim(p) => p.slots(),
            Col::Struct { slots, .. } => *slots,
            Col::Union { tags, .. } => tags.len(),
            Col::Array { offsets, .. } => offsets.len(),
            Col::Enum { indices, .. } => indices.len(),
            Col::Opt { validity, .. } => validity.len,
            Col::Mixed(v) => v.len(),
        }
    }

    fn push(&mut self, v: &VV<'_, '_, '_>) {
        if matches!(self, Col::Empty) {
            *self = Col::new_for(v);
        }
        let shape = v.shape();
        match (&mut *self, shape) {
            (Col::Prim(col), AShape::Prim) => match v.prim() {
                Some(p) => col.push(&p),
                None => self.spill_and_push(v),
            },
            (Col::Struct { fields, slots }, AShape::Struct(n)) if fields.len() == n => {
                let matches = (0..n)
                    .all(|j| v.field_at(j).is_some_and(|(vname, _)| fields[j].0 == *vname));
                if matches {
                    for (j, (_, col)) in fields.iter_mut().enumerate() {
                        if let Some((_, val)) = v.field_at(j) {
                            col.push(&val);
                        }
                    }
                    *slots += 1;
                } else {
                    self.spill_and_push(v);
                }
            }
            (Col::Union { tags, child_rows, names, children }, AShape::Union) => {
                // The shape check above guarantees the branch exists.
                let Some((name, index, inner)) = v.branch() else {
                    return self.spill_and_push(v);
                };
                while children.len() <= index {
                    children.push(Col::Empty);
                    names.push(Name::EMPTY);
                }
                if names[index].is_empty() {
                    names[index] = name.clone();
                }
                tags.push(index as u32);
                child_rows.push(children[index].slots() as u32);
                children[index].push(&inner);
            }
            (Col::Array { offsets, elem }, AShape::Array(n)) => {
                for j in 0..n {
                    if let Some(e) = v.element_at(j) {
                        elem.push(&e);
                    }
                }
                offsets.push(elem.slots() as u32);
            }
            (Col::Enum { indices, names }, AShape::Enum) => {
                let Some((name, index)) = v.variant() else {
                    return self.spill_and_push(v);
                };
                while names.len() <= index {
                    names.push(Name::EMPTY);
                }
                if names[index].is_empty() {
                    names[index] = name.clone();
                }
                indices.push(index as u32);
            }
            (Col::Opt { validity, inner }, AShape::Opt(present)) => {
                validity.push(present);
                if present {
                    if let Some(iv) = v.opt_inner() {
                        inner.push(&iv);
                    }
                }
            }
            (Col::Mixed(rows), _) => rows.push(v.to_owned_value()),
            _ => self.spill_and_push(v),
        }
    }

    /// Shape drift: spill every existing slot to row-major and append.
    fn spill_and_push(&mut self, v: &VV<'_, '_, '_>) {
        let spilled: Vec<Value> = (0..self.slots()).map(|i| self.slot_value(i)).collect();
        *self = Col::Mixed(spilled);
        self.push(v);
    }

    /// Reconstructs slot `i` as an owned value — byte-identical to what
    /// the per-record path produced.
    fn slot_value(&self, i: usize) -> Value {
        match self {
            Col::Empty => Value::Prim(Prim::Unit),
            Col::Prim(p) => Value::Prim(p.slot_prim(i)),
            Col::Struct { fields, .. } => Value::Struct {
                fields: fields.iter().map(|(n, c)| (n.clone(), c.slot_value(i))).collect(),
            },
            Col::Union { tags, child_rows, names, children } => {
                let tag = tags[i] as usize;
                Value::Union {
                    branch: names[tag].clone(),
                    index: tag,
                    value: Box::new(children[tag].slot_value(child_rows[i] as usize)),
                }
            }
            Col::Array { offsets, elem } => {
                let start = if i == 0 { 0 } else { offsets[i - 1] as usize };
                Value::Array((start..offsets[i] as usize).map(|j| elem.slot_value(j)).collect())
            }
            Col::Enum { indices, names } => {
                let index = indices[i] as usize;
                Value::Enum { variant: names[index].clone(), index }
            }
            Col::Opt { validity, inner } => {
                if validity.get(i) {
                    Value::Opt(Some(Box::new(inner.slot_value(validity.rank(i)))))
                } else {
                    Value::Opt(None)
                }
            }
            Col::Mixed(rows) => rows[i].clone(),
        }
    }

    fn clear(&mut self) {
        match self {
            Col::Empty => {}
            Col::Prim(p) => p.clear(),
            Col::Struct { fields, slots } => {
                for (_, c) in fields {
                    c.clear();
                }
                *slots = 0;
            }
            Col::Union { tags, child_rows, children, .. } => {
                tags.clear();
                child_rows.clear();
                for c in children {
                    c.clear();
                }
            }
            Col::Array { offsets, elem } => {
                offsets.clear();
                elem.clear();
            }
            Col::Enum { indices, .. } => indices.clear(),
            Col::Opt { validity, inner } => {
                validity.clear();
                inner.clear();
            }
            Col::Mixed(rows) => rows.clear(),
        }
    }

}

/// A batch of parsed records in columnar (struct-of-arrays) layout.
/// See the module docs.
#[derive(Debug)]
pub struct RecordBatch {
    root: Col,
    rows: usize,
    /// Rows whose parse descriptor is not clean.
    errors: Bitmap,
    /// The non-clean descriptors, aligned with the set bits of `errors`.
    dirty: Vec<ParseDesc>,
}

impl Default for RecordBatch {
    fn default() -> RecordBatch {
        RecordBatch::new()
    }
}

impl RecordBatch {
    /// An empty batch; columns adopt the shape of the first record.
    pub fn new() -> RecordBatch {
        RecordBatch { root: Col::Empty, rows: 0, errors: Bitmap::default(), dirty: Vec::new() }
    }

    /// Appends one owned record (the interpreter producer).
    pub fn push(&mut self, v: &Value, pd: &ParseDesc) {
        self.root.push(&VV::Owned(v));
        self.push_pd(pd);
    }

    /// Appends one arena record (the generated/parallel producer).
    /// Borrowed string leaves are copied once into the column heap —
    /// no intermediate `String` is ever built.
    pub fn push_arena(&mut self, r: AValRef<'_, '_>, names: &NameTable, pd: &ParseDesc) {
        self.root.push(&VV::Arena(r, names));
        self.push_pd(pd);
    }

    fn push_pd(&mut self, pd: &ParseDesc) {
        let clean = pd.is_clean();
        self.errors.push(!clean);
        if !clean {
            self.dirty.push(pd.clone());
        }
        self.rows += 1;
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of rows whose descriptor is not clean.
    pub fn error_rows(&self) -> usize {
        self.dirty.len()
    }

    /// Reconstructs row `i` as an owned [`Value`] — byte-identical to
    /// what the per-record path produced for the same input.
    pub fn row(&self, i: usize) -> Value {
        self.root.slot_value(i)
    }

    /// Row `i`'s parse descriptor ([`ParseDesc::CLEAN`] for clean rows).
    pub fn pd(&self, i: usize) -> ParseDesc {
        if self.errors.get(i) {
            self.dirty[self.errors.rank(i)].clone()
        } else {
            ParseDesc::CLEAN
        }
    }

    /// All rows with their descriptors, in record order.
    pub fn rows(&self) -> impl Iterator<Item = (Value, ParseDesc)> + '_ {
        (0..self.rows).map(|i| (self.row(i), self.pd(i)))
    }

    /// Forgets all rows, retaining every column's capacity — the O(1)
    /// between-batches reset.
    pub fn clear(&mut self) {
        self.root.clear();
        self.rows = 0;
        self.errors.clear();
        self.dirty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::push_value;
    use pads_runtime::{ErrorCode, ParseState, ValueArena};

    fn rec(n: u64, s: &str, tags: &[u64]) -> Value {
        Value::Struct {
            fields: vec![
                ("n".into(), Value::Prim(Prim::Uint(n))),
                ("s".into(), Value::Prim(Prim::String(s.into()))),
                (
                    "events".into(),
                    Value::Array(
                        tags.iter()
                            .map(|t| Value::Struct {
                                fields: vec![("tstamp".into(), Value::Prim(Prim::Uint(*t)))],
                            })
                            .collect(),
                    ),
                ),
                (
                    "maybe".into(),
                    if n % 2 == 0 {
                        Value::Opt(Some(Box::new(Value::Prim(Prim::Uint(n * 10)))))
                    } else {
                        Value::Opt(None)
                    },
                ),
                (
                    "ramp".into(),
                    if n % 3 == 0 {
                        Value::Union {
                            branch: "genRamp".into(),
                            index: 1,
                            value: Box::new(Value::Prim(Prim::Uint(n))),
                        }
                    } else {
                        Value::Union {
                            branch: "ramp".into(),
                            index: 0,
                            value: Box::new(Value::Prim(Prim::Int(-(n as i64)))),
                        }
                    },
                ),
            ],
        }
    }

    fn dirty_pd() -> ParseDesc {
        let mut pd = ParseDesc::CLEAN;
        pd.nerr = 1;
        pd.state = ParseState::Partial;
        pd.err_code = ErrorCode::UnexpectedEof;
        pd
    }

    #[test]
    fn rows_round_trip_byte_identical() {
        let mut batch = RecordBatch::new();
        let recs: Vec<Value> =
            (0..20).map(|i| rec(i, &format!("msg{i}"), &[i, i + 1, i + 2])).collect();
        for (i, r) in recs.iter().enumerate() {
            let pd = if i == 7 { dirty_pd() } else { ParseDesc::CLEAN };
            batch.push(r, &pd);
        }
        assert_eq!(batch.len(), 20);
        assert_eq!(batch.error_rows(), 1);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(&batch.row(i), r, "row {i}");
        }
        assert!(batch.pd(6).is_clean());
        assert_eq!(batch.pd(7), dirty_pd());
        assert!(batch.pd(8).is_clean());
    }

    #[test]
    fn arena_and_owned_producers_agree() {
        let mut owned_batch = RecordBatch::new();
        let mut arena_batch = RecordBatch::new();
        let mut arena = ValueArena::new();
        let mut names = NameTable::new();
        for i in 0..10 {
            let r = rec(i, "x", &[i]);
            owned_batch.push(&r, &ParseDesc::CLEAN);
            let h = push_value(&mut arena, &r, &mut names);
            arena_batch.push_arena(arena.get(h), &names, &ParseDesc::CLEAN);
        }
        for i in 0..10 {
            assert_eq!(owned_batch.row(i), arena_batch.row(i), "row {i}");
        }
    }

    #[test]
    fn clear_retains_shape_and_reuses_capacity() {
        let mut batch = RecordBatch::new();
        for i in 0..50 {
            batch.push(&rec(i, "abc", &[i]), &ParseDesc::CLEAN);
        }
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.error_rows(), 0);
        for i in 0..3 {
            batch.push(&rec(i, "abc", &[i]), &ParseDesc::CLEAN);
        }
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.row(2), rec(2, "abc", &[2]));
    }

    #[test]
    fn shape_drift_spills_without_losing_rows() {
        let mut batch = RecordBatch::new();
        batch.push(&Value::Prim(Prim::Uint(1)), &ParseDesc::CLEAN);
        batch.push(&Value::Prim(Prim::String("two".into())), &ParseDesc::CLEAN);
        batch.push(
            &Value::Struct { fields: vec![("x".into(), Value::Prim(Prim::Unit))] },
            &ParseDesc::CLEAN,
        );
        assert_eq!(batch.row(0), Value::Prim(Prim::Uint(1)));
        assert_eq!(batch.row(1), Value::Prim(Prim::String("two".into())));
        assert_eq!(
            batch.row(2),
            Value::Struct { fields: vec![("x".into(), Value::Prim(Prim::Unit))] }
        );
    }
}
