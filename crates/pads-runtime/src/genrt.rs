//! The runtime library generated parsers link against.
//!
//! The paper's compiler emits a small `.h`/`.c` pair per description *on
//! top of* a fixed runtime library; this module is that library's
//! generated-code-facing half. A module emitted by `pads-codegen` opens
//! with `pub use pads_runtime::genrt::*;` and gets, from that one line:
//! the runtime types its code names ([`Cursor`], [`ParseDesc`], [`Mask`],
//! …), the borrowed string leaf [`PStr`], the constraint coercions
//! ([`PcVal`], [`pc_eq`], [`pc_cmp`]), base-type readers and writers
//! (`rd_*` / `wr_*`) mirroring the interpreting parser's semantics over one
//! shared base-type registry, and [`CursorRecords`], the [`RecordReader`]
//! that puts a generated record `read` under the sharded driver
//! [`par::drive`](crate::par::drive).
//!
//! The rules a generated `read` follows are not here but in
//! [`rules`](crate::rules), shared with the bytecode VM: the array loop,
//! union branch trial, the switched-union read, the typedef rule, enum
//! longest match and literal matching (`Lit`, [`Cursor::match_lit`]).
//! Record open/skip/close policy is [`Cursor::open_record`] /
//! [`Cursor::close_record`]. Generated code spells out only its struct
//! reads and switch selection.
//!
//! The hot helpers are `#[inline]`: they are called once per field from
//! another crate, and a generated `read`/`write` must not pay a call for
//! a digit fold or a one-byte match.

use std::borrow::Cow;
use std::sync::OnceLock;

pub use crate::arena::{AVal, NameId, NameTable, ValueArena};
pub use crate::date::PDate;
pub use crate::encoding::{Charset, Endian};
pub use crate::error::{ErrorCode, Loc, ParseState};
pub use crate::io::{Cursor, RecordOpen};
pub use crate::mask::Mask;
pub use crate::metrics::MetricsCore;
pub use crate::name::Name;
pub use crate::pd::{ParseDesc, PdKind, SparseElts};
pub use crate::prim::Prim;
pub use crate::rules::{
    read_array, read_enum, read_switched, read_typedef, read_union, ArrayShape, Lit,
};

use crate::base::{PrimView, Registry};
use crate::error::Pos;
use crate::par::RecordReader;
use crate::recovery::ErrorBudget;
use crate::scan;

// ---- borrowed string leaves --------------------------------------------------

/// A parsed string leaf. On the ASCII fast path it borrows directly from
/// the input buffer (zero copies, zero allocations); it owns a heap
/// `String` only when decoding had to rewrite bytes (EBCDIC input,
/// non-UTF-8 content) or when the value came through the dynamic registry.
///
/// `PStr` dereferences to `str`, so consumers treat it as a plain string;
/// call [`PStr::into_owned`] to detach it from the buffer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PStr<'s>(pub Cow<'s, str>);

impl<'s> PStr<'s> {
    /// Borrows a slice of the input buffer.
    #[inline]
    pub fn borrowed(s: &'s str) -> PStr<'s> {
        PStr(Cow::Borrowed(s))
    }

    /// Wraps an owned (decoded) string.
    #[inline]
    pub fn owned(s: String) -> PStr<'static> {
        PStr(Cow::Owned(s))
    }

    /// The string content.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Detaches the value from the input buffer.
    pub fn into_owned(self) -> String {
        self.0.into_owned()
    }
}

impl Default for PStr<'_> {
    #[inline]
    fn default() -> Self {
        PStr(Cow::Borrowed(""))
    }
}

impl std::ops::Deref for PStr<'_> {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for PStr<'_> {
    #[inline]
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for PStr<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl PartialEq<str> for PStr<'_> {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for PStr<'_> {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for PStr<'_> {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<PStr<'_>> for str {
    fn eq(&self, other: &PStr<'_>) -> bool {
        self == other.as_str()
    }
}

impl<'s> From<&'s str> for PStr<'s> {
    fn from(s: &'s str) -> PStr<'s> {
        PStr::borrowed(s)
    }
}

impl From<String> for PStr<'static> {
    fn from(s: String) -> PStr<'static> {
        PStr::owned(s)
    }
}

/// The standard base-type registry behind every dynamic `rd_*`/`wr_*`
/// fallback, built once per process.
fn registry() -> &'static Registry {
    static R: OnceLock<Registry> = OnceLock::new();
    R.get_or_init(Registry::standard)
}

// ---- value coercions for compiled constraints -------------------------------

/// How a representation reads inside a compiled constraint: as a number,
/// or as a string when it has one.
pub trait PcVal {
    /// The numeric reading (0 for strings).
    fn pc_num(&self) -> i64;
    /// The string reading, for string-kinded values.
    #[inline]
    fn pc_str(&self) -> Option<&str> {
        None
    }
}

macro_rules! pc_num_impl {
    ($($t:ty),*) => {$(
        impl PcVal for $t {
            #[inline]
            fn pc_num(&self) -> i64 { *self as i64 }
        }
    )*};
}
pc_num_impl!(u8, u16, u32, u64, i8, i16, i32, i64, bool, f32, f64);

macro_rules! pc_str_impl {
    ($($t:ty),*) => {$(
        impl PcVal for $t {
            #[inline]
            fn pc_num(&self) -> i64 { 0 }
            #[inline]
            fn pc_str(&self) -> Option<&str> { Some(self) }
        }
    )*};
}
pc_str_impl!(String, PStr<'_>, str);

impl PcVal for PDate {
    #[inline]
    fn pc_num(&self) -> i64 {
        self.epoch
    }
}

impl PcVal for [u8; 4] {
    #[inline]
    fn pc_num(&self) -> i64 {
        u32::from_be_bytes(*self) as i64
    }
}

impl PcVal for Prim {
    fn pc_num(&self) -> i64 {
        self.as_i64().unwrap_or(0)
    }
    fn pc_str(&self) -> Option<&str> {
        self.as_str()
    }
}

impl<T: PcVal> PcVal for Option<T> {
    #[inline]
    fn pc_num(&self) -> i64 {
        self.as_ref().map(PcVal::pc_num).unwrap_or(0)
    }
    #[inline]
    fn pc_str(&self) -> Option<&str> {
        self.as_ref().and_then(PcVal::pc_str)
    }
}

/// `==` of the constraint language: strings compare as strings, numbers
/// as `i64`, and a string never equals a number.
#[inline]
pub fn pc_eq<A: PcVal + ?Sized, B: PcVal + ?Sized>(a: &A, b: &B) -> bool {
    match (a.pc_str(), b.pc_str()) {
        (Some(x), Some(y)) => x == y,
        (None, None) => a.pc_num() == b.pc_num(),
        _ => false,
    }
}

/// Ordering of the constraint language (see [`pc_eq`]).
#[inline]
pub fn pc_cmp<A: PcVal + ?Sized, B: PcVal + ?Sized>(a: &A, b: &B) -> std::cmp::Ordering {
    match (a.pc_str(), b.pc_str()) {
        (Some(x), Some(y)) => x.cmp(y),
        _ => a.pc_num().cmp(&b.pc_num()),
    }
}

// ---- base-type readers ---------------------------------------------------------

/// Dynamic fallback through the registry; restores the cursor on error.
pub fn rd_prim(cur: &mut Cursor<'_>, name: &str, args: &[Prim]) -> Result<Prim, ErrorCode> {
    let bt = registry().get(name).ok_or(ErrorCode::EvalError)?;
    let cp = cur.checkpoint();
    bt.parse(cur, args).inspect_err(|_| cur.restore(cp))
}

/// A base-type read with its descriptor: the value, or on an error the
/// default and an error spanning the attempt.
#[inline]
pub fn rd_pd<'d, T: Default>(
    cur: &mut Cursor<'d>,
    read: impl FnOnce(&mut Cursor<'d>) -> Result<T, ErrorCode>,
) -> (T, ParseDesc) {
    let start = cur.position();
    match read(cur) {
        Ok(v) => (v, ParseDesc::ok()),
        Err(e) => (T::default(), ParseDesc::error(e, Loc::new(start, cur.position()))),
    }
}

/// The registry name of the `bits`-wide member of an integer family.
fn sized(bits: u32, names: [&'static str; 4]) -> &'static str {
    match bits {
        8 => names[0],
        16 => names[1],
        32 => names[2],
        _ => names[3],
    }
}

/// Inline decimal reader (`Puint*`; `forced` pins `Pa_`/`Pe_` variants to
/// their charset): on ASCII the scan kernel's decimal, consuming nothing
/// on error; other charsets go through the registry.
#[inline]
pub fn rd_uint(cur: &mut Cursor<'_>, bits: u32, forced: Option<Charset>) -> Result<u64, ErrorCode> {
    if forced.unwrap_or(cur.charset()) != Charset::Ascii {
        let name = sized(bits, ["Pe_uint8", "Pe_uint16", "Pe_uint32", "Pe_uint64"]);
        return rd_u64_dyn(cur, name, &[]);
    }
    let (_, val, len) = scan::decimal(cur.rest(), false).map_err(|(code, _)| code)?;
    if bits < 64 && val >= 1u64 << bits {
        return Err(ErrorCode::RangeError);
    }
    cur.advance(len);
    Ok(val)
}

/// Inline signed decimal reader (`Pint*`); see [`rd_uint`].
#[inline]
pub fn rd_int(cur: &mut Cursor<'_>, bits: u32, forced: Option<Charset>) -> Result<i64, ErrorCode> {
    if forced.unwrap_or(cur.charset()) != Charset::Ascii {
        let name = sized(bits, ["Pe_int8", "Pe_int16", "Pe_int32", "Pe_int64"]);
        return rd_i64_dyn(cur, name, &[]);
    }
    let (neg, mag, len) = scan::decimal(cur.rest(), true).map_err(|(code, _)| code)?;
    // `0 - mag`, not `-(mag as i64)`: i64::MIN has no positive counterpart.
    let val = if neg { 0i64.checked_sub_unsigned(mag) } else { i64::try_from(mag).ok() }
        .ok_or(ErrorCode::RangeError)?;
    if bits < 64 {
        let max = (1i64 << (bits - 1)) - 1;
        if !(-max - 1..=max).contains(&val) {
            return Err(ErrorCode::RangeError);
        }
    }
    cur.advance(len);
    Ok(val)
}

/// `Pstring(:term:)`: everything up to (not including) `term`, or to the
/// end of the record.
#[inline]
pub fn rd_string_term<'d>(cur: &mut Cursor<'d>, term: u8) -> Result<PStr<'d>, ErrorCode> {
    let cs = cur.charset();
    let raw_term = cs.encode(term);
    let len = cur.find_byte(raw_term).unwrap_or(cur.remaining());
    let raw = cur.take(len)?;
    if cs == Charset::Ascii {
        // Pure ASCII is valid UTF-8, so the leaf borrows the buffer.
        if let Ok(s) = std::str::from_utf8(raw) {
            if s.is_ascii() {
                return Ok(PStr::borrowed(s));
            }
        }
    }
    Ok(PStr::owned(cs.decode_text(raw)))
}

/// `Pchar` (and its `Pa_`/`Pe_` variants via `forced`).
#[inline]
pub fn rd_char(cur: &mut Cursor<'_>, forced: Option<Charset>) -> Result<u8, ErrorCode> {
    let cs = forced.unwrap_or(cur.charset());
    let b = cur.next_byte().ok_or(if cur.in_record() {
        ErrorCode::UnexpectedEor
    } else {
        ErrorCode::UnexpectedEof
    })?;
    Ok(cs.decode(b))
}

/// Registry read for string-kinded base types through the zero-copy
/// `parse_view` tier: `Phostname`, `Pzip`, and friends hand back a slice
/// of the input buffer on the ASCII identity path, so the leaf borrows
/// instead of allocating. Owned fallback otherwise (EBCDIC, rewriting
/// decoders). Restores the cursor on error, like [`rd_prim`].
pub fn rd_string<'d>(
    cur: &mut Cursor<'d>,
    name: &str,
    args: &[Prim],
) -> Result<PStr<'d>, ErrorCode> {
    let bt = registry().get(name).ok_or(ErrorCode::EvalError)?;
    let cp = cur.checkpoint();
    let parsed = match bt.parse_view(cur, args) {
        Ok(PrimView::Str(s)) => Ok(PStr::borrowed(s)),
        Ok(PrimView::Owned(Prim::String(s))) => Ok(PStr::owned(s)),
        Ok(_) => Err(ErrorCode::EvalError),
        Err(e) => Err(e),
    };
    parsed.inspect_err(|_| cur.restore(cp))
}

/// `Pdate`, optionally terminated.
pub fn rd_date(cur: &mut Cursor<'_>, term: Option<u8>) -> Result<PDate, ErrorCode> {
    // The terminator rides in a stack buffer: no per-call Vec.
    let buf = [Prim::Char(term.unwrap_or(0))];
    let args: &[Prim] = if term.is_some() { &buf } else { &[] };
    match rd_prim(cur, "Pdate", args)? {
        Prim::Date(d) => Ok(d),
        _ => Err(ErrorCode::EvalError),
    }
}

/// `Pip`.
pub fn rd_ip(cur: &mut Cursor<'_>) -> Result<[u8; 4], ErrorCode> {
    match rd_prim(cur, "Pip", &[])? {
        Prim::Ip(o) => Ok(o),
        _ => Err(ErrorCode::EvalError),
    }
}

/// `Pfloat32` / `Pfloat64`.
pub fn rd_float(cur: &mut Cursor<'_>, name: &str) -> Result<f64, ErrorCode> {
    match rd_prim(cur, name, &[])? {
        Prim::Float(v) => Ok(v),
        _ => Err(ErrorCode::EvalError),
    }
}

/// Any integer-kinded registry type, as `i64`.
pub fn rd_i64_dyn(cur: &mut Cursor<'_>, name: &str, args: &[Prim]) -> Result<i64, ErrorCode> {
    match rd_prim(cur, name, args)? {
        Prim::Int(v) => Ok(v),
        Prim::Uint(v) => i64::try_from(v).map_err(|_| ErrorCode::RangeError),
        _ => Err(ErrorCode::EvalError),
    }
}

/// Any integer-kinded registry type, as `u64`.
pub fn rd_u64_dyn(cur: &mut Cursor<'_>, name: &str, args: &[Prim]) -> Result<u64, ErrorCode> {
    match rd_prim(cur, name, args)? {
        Prim::Uint(v) => Ok(v),
        Prim::Int(v) => u64::try_from(v).map_err(|_| ErrorCode::RangeError),
        _ => Err(ErrorCode::EvalError),
    }
}

// ---- writers ---------------------------------------------------------------------

/// Writes text in `charset`.
#[inline]
pub fn wr_text(out: &mut Vec<u8>, s: &str, charset: Charset) {
    if charset == Charset::Ascii {
        out.extend_from_slice(s.as_bytes());
    } else {
        out.extend(s.bytes().map(|b| charset.encode(b)));
    }
}

/// Writes an unsigned decimal in `charset`.
#[inline]
pub fn wr_u64(out: &mut Vec<u8>, v: u64, charset: Charset) {
    let from = out.len();
    crate::render::uint(out, v, 0);
    encode_from(out, from, charset);
}

/// Writes a signed decimal in `charset`.
#[inline]
pub fn wr_i64(out: &mut Vec<u8>, v: i64, charset: Charset) {
    let from = out.len();
    crate::render::int(out, v, 0);
    encode_from(out, from, charset);
}

/// Re-encodes the ASCII text written since `from` in `charset`.
#[inline]
fn encode_from(out: &mut [u8], from: usize, charset: Charset) {
    if charset != Charset::Ascii {
        for b in &mut out[from..] {
            *b = charset.encode(*b);
        }
    }
}

/// Dynamic writer through the registry.
pub fn wr_prim(
    out: &mut Vec<u8>,
    name: &str,
    v: &Prim,
    args: &[Prim],
    charset: Charset,
    endian: Endian,
) -> Result<(), ErrorCode> {
    let bt = registry().get(name).ok_or(ErrorCode::EvalError)?;
    bt.write(out, v, args, charset, endian)
}

// ---- record reader -----------------------------------------------------------------

/// A generated `read` looped over a cursor until the source is exhausted:
/// the generated engine's [`RecordReader`], which a caller opens under
/// [`par::drive`](crate::par::drive) to shard a source.
pub struct CursorRecords<'d, 'r, F> {
    cur: Cursor<'d>,
    read: &'r F,
    done: bool,
}

impl<'d, 'r, F> CursorRecords<'d, 'r, F> {
    /// Reads records with `read` (a generated `read` method, one record
    /// per call) from wherever `cur` stands.
    pub fn new(cur: Cursor<'d>, read: &'r F) -> Self {
        CursorRecords { cur, read, done: false }
    }
}

impl<'d, T, F> RecordReader for CursorRecords<'d, '_, F>
where
    F: for<'b> Fn(&'b mut Cursor<'d>) -> (T, ParseDesc),
{
    type Item = T;

    fn next_record(&mut self) -> Option<(T, ParseDesc)> {
        if self.done || self.cur.at_eof() {
            return None;
        }
        let mark = self.cur.offset();
        let item = (self.read)(&mut self.cur);
        // A reader that consumed nothing would loop forever.
        self.done = self.cur.offset() == mark;
        Some(item)
    }

    fn position(&self) -> Pos {
        self.cur.position()
    }

    fn budget(&self) -> ErrorBudget {
        self.cur.budget()
    }

    fn seek(&mut self, offset: usize, record: usize) {
        self.cur.seek(offset, record);
        self.done = false;
    }
}
