//! Bulk byte-scanning kernels.
//!
//! The paper's PADS systems ingest multi-gigabyte daily feeds (§1: Sirius
//! call detail, web logs at 300 M calls/day), so the inner loops that find
//! record boundaries, literal delimiters, and character-class runs must not
//! go byte-at-a-time. This module provides SWAR (SIMD-within-a-register)
//! kernels in the style of `memchr`: each processes a word of input per
//! step using only portable integer arithmetic, so it is fast everywhere
//! without depending on platform intrinsics.
//!
//! All kernels operate on a plain `&[u8]` slice. Callers that must respect
//! a record boundary (the cursor's `limit()`) slice the haystack *once*
//! before calling, replacing the per-byte limit checks of the old loops
//! with a single precomputed bound.
//!
//! Every kernel is paired with property tests asserting byte-for-byte
//! equivalence with the naive loop it replaces.

const WORD: usize = core::mem::size_of::<usize>();
const LO: usize = usize::from_ne_bytes([0x01; WORD]);
const HI: usize = usize::from_ne_bytes([0x80; WORD]);

/// Reads a native-endian word from `s` at `i` (caller guarantees bounds).
#[inline(always)]
fn load_word(s: &[u8], i: usize) -> usize {
    let mut w = [0u8; WORD];
    // Always in bounds: callers only invoke with `i + WORD <= s.len()`.
    // The copy compiles to a single unaligned word load.
    if let Some(chunk) = s.get(i..i + WORD) {
        w.copy_from_slice(chunk);
    }
    usize::from_ne_bytes(w)
}

/// SWAR trick: a word whose high bit is set in every byte of `w` that is
/// zero (Mycroft's "has zero byte" test).
#[inline(always)]
fn zero_bytes(w: usize) -> usize {
    w.wrapping_sub(LO) & !w & HI
}

/// Index of the first zero-byte marker in `m` (native endianness).
#[inline(always)]
fn first_marker(m: usize) -> usize {
    debug_assert!(m != 0);
    if cfg!(target_endian = "little") {
        (m.trailing_zeros() / 8) as usize
    } else {
        (m.leading_zeros() / 8) as usize
    }
}

/// Offset of the first occurrence of `needle` in `hay`, or `None`.
///
/// Replaces `hay.iter().position(|&b| b == needle)` in the cursor's
/// newline/terminator discovery.
#[inline]
pub fn find_byte(hay: &[u8], needle: u8) -> Option<usize> {
    let splat = usize::from_ne_bytes([needle; WORD]);
    let mut i = 0;
    while i + WORD <= hay.len() {
        let m = zero_bytes(load_word(hay, i) ^ splat);
        if m != 0 {
            return Some(i + first_marker(m));
        }
        i += WORD;
    }
    while i < hay.len() {
        if hay[i] == needle {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Offset of the first occurrence of the literal `needle` in `hay`.
///
/// Skips to candidate positions with [`find_byte`] on the first needle
/// byte, then verifies the remainder — the classic two-phase substring
/// search that is fast when the first byte is rare (delimiters are).
#[inline]
pub fn find_literal(hay: &[u8], needle: &[u8]) -> Option<usize> {
    let (&first, rest) = needle.split_first()?;
    if hay.len() < needle.len() {
        return None;
    }
    let mut base = 0;
    let last_start = hay.len() - needle.len();
    while base <= last_start {
        match find_byte(&hay[base..=last_start + rest.len()], first) {
            Some(off) => {
                let cand = base + off;
                if cand > last_start {
                    return None;
                }
                if &hay[cand + 1..cand + needle.len()] == rest {
                    return Some(cand);
                }
                base = cand + 1;
            }
            None => return None,
        }
    }
    None
}

/// Number of occurrences of `needle` in `hay`.
///
/// Used by the shard planner to count record boundaries without
/// materialising their positions: each SWAR step counts all matches in a
/// word at once (one high-bit marker per matching byte).
#[inline]
pub fn count_byte(hay: &[u8], needle: u8) -> usize {
    let splat = usize::from_ne_bytes([needle; WORD]);
    let mut count = 0;
    let mut i = 0;
    while i + WORD <= hay.len() {
        count += zero_bytes(load_word(hay, i) ^ splat).count_ones() as usize;
        i += WORD;
    }
    while i < hay.len() {
        count += (hay[i] == needle) as usize;
        i += 1;
    }
    count
}

/// A 256-bit membership bitmap over byte values, laid out exactly like
/// `pads-regex`'s `ByteSet`: bit `b` lives at `bits[b >> 6] & (1 << (b & 63))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassBitmap {
    /// The four 64-bit words of the bitmap.
    pub bits: [u64; 4],
}

impl ClassBitmap {
    /// The empty class.
    pub const fn new() -> ClassBitmap {
        ClassBitmap { bits: [0; 4] }
    }

    /// Builds a class from raw bitmap words (e.g. a regex `ByteSet`).
    pub const fn from_bits(bits: [u64; 4]) -> ClassBitmap {
        ClassBitmap { bits }
    }

    /// A class holding the given bytes.
    pub fn of(bytes: &[u8]) -> ClassBitmap {
        let mut c = ClassBitmap::new();
        for &b in bytes {
            c.insert(b);
        }
        c
    }

    /// The ASCII digit class `[0-9]`.
    pub fn ascii_digits() -> ClassBitmap {
        let mut c = ClassBitmap::new();
        let mut b = b'0';
        while b <= b'9' {
            c.insert(b);
            b += 1;
        }
        c
    }

    /// Adds `b` to the class.
    #[inline]
    pub fn insert(&mut self, b: u8) {
        self.bits[(b >> 6) as usize] |= 1u64 << (b & 63);
    }

    /// Whether `b` is in the class.
    #[inline(always)]
    pub fn contains(&self, b: u8) -> bool {
        self.bits[(b >> 6) as usize] & (1u64 << (b & 63)) != 0
    }
}

/// Length of the longest prefix of `hay` whose bytes are all members of
/// `class`.
///
/// Replaces per-byte `is_ascii_digit()`-style loops in the integer readers
/// and the single-class star loops in the regex VM. The bitmap lookup is a
/// shift/mask pair with no branches besides the loop itself; unrolling four
/// bytes per iteration keeps the loop-carried work down without the
/// precomputation cost a full SWAR class test would need.
#[inline]
pub fn skip_class(hay: &[u8], class: &ClassBitmap) -> usize {
    let mut i = 0;
    while i + 4 <= hay.len() {
        if !class.contains(hay[i]) {
            return i;
        }
        if !class.contains(hay[i + 1]) {
            return i + 1;
        }
        if !class.contains(hay[i + 2]) {
            return i + 2;
        }
        if !class.contains(hay[i + 3]) {
            return i + 3;
        }
        i += 4;
    }
    while i < hay.len() {
        if !class.contains(hay[i]) {
            return i;
        }
        i += 1;
    }
    hay.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::{collection, sample};

    #[test]
    fn find_byte_basics() {
        assert_eq!(find_byte(b"", b'x'), None);
        assert_eq!(find_byte(b"x", b'x'), Some(0));
        assert_eq!(find_byte(b"abcdef", b'f'), Some(5));
        assert_eq!(find_byte(b"abcdefgh_ijklmnop", b'_'), Some(8));
        assert_eq!(find_byte(b"abcdefghijklmnopqrstuvwx\n", b'\n'), Some(24));
        assert_eq!(find_byte(b"abcdefghijklmnop", b'z'), None);
        assert_eq!(find_byte(&[0u8; 40], 0), Some(0));
    }

    #[test]
    fn find_literal_basics() {
        assert_eq!(find_literal(b"hello world", b"world"), Some(6));
        assert_eq!(find_literal(b"hello world", b"wards"), None);
        assert_eq!(find_literal(b"aaab", b"aab"), Some(1));
        assert_eq!(find_literal(b"abc", b""), None);
        assert_eq!(find_literal(b"ab", b"abc"), None);
        assert_eq!(find_literal(b"abcabcabd", b"abd"), Some(6));
        assert_eq!(find_literal(b"xyz", b"xyz"), Some(0));
    }

    #[test]
    fn count_byte_basics() {
        assert_eq!(count_byte(b"", b'\n'), 0);
        assert_eq!(count_byte(b"a\nb\nc", b'\n'), 2);
        assert_eq!(count_byte(b"\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n", b'\n'), 17);
        assert_eq!(count_byte(b"no newline at all....", b'\n'), 0);
    }

    #[test]
    fn skip_class_basics() {
        let digits = ClassBitmap::ascii_digits();
        assert_eq!(skip_class(b"12345x", &digits), 5);
        assert_eq!(skip_class(b"", &digits), 0);
        assert_eq!(skip_class(b"x123", &digits), 0);
        assert_eq!(skip_class(b"123456789012345678", &digits), 18);
        let high = ClassBitmap::of(&[0xFF, 0xFE]);
        assert_eq!(skip_class(&[0xFF, 0xFE, 0xFF, 0x00], &high), 3);
    }

    #[test]
    fn class_bitmap_layout_matches_regex_byteset() {
        // bit b lives at bits[b >> 6] & (1 << (b & 63)), same as ByteSet.
        let c = ClassBitmap::of(&[0, 63, 64, 127, 128, 255]);
        assert_eq!(c.bits[0], 1 | 1 << 63);
        assert_eq!(c.bits[1], 1 | 1 << 63);
        assert_eq!(c.bits[2], 1);
        assert_eq!(c.bits[3], 1 << 63);
        for b in 0..=255u8 {
            assert_eq!(
                c.contains(b),
                matches!(b, 0 | 63 | 64 | 127 | 128 | 255),
                "byte {b}"
            );
        }
    }

    // ---- property tests: kernels == naive loops ------------------------

    fn bytes_strategy() -> BoxedStrategy<Vec<u8>> {
        // Bias toward a tiny alphabet so needles actually occur, mixed
        // with full-range bytes to exercise the SWAR carry paths.
        collection::vec(sample::select(vec![b'a', b'b', b'\n', 0u8, 0x7F, 0x80, 0xFF]), 0..64)
            .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn find_byte_matches_naive(hay in bytes_strategy(), needle in sample::select(vec![b'a', b'\n', 0u8, 0x80u8, 0xFFu8])) {
            let naive = hay.iter().position(|&b| b == needle);
            prop_assert_eq!(find_byte(&hay, needle), naive);
        }

        #[test]
        fn count_byte_matches_naive(hay in bytes_strategy(), needle in sample::select(vec![b'a', b'\n', 0u8, 0x80u8, 0xFFu8])) {
            let naive = hay.iter().filter(|&&b| b == needle).count();
            prop_assert_eq!(count_byte(&hay, needle), naive);
        }

        #[test]
        fn find_literal_matches_naive(hay in bytes_strategy(), needle in collection::vec(sample::select(vec![b'a', b'b', b'\n']), 1..4)) {
            let naive = if hay.len() >= needle.len() {
                (0..=hay.len() - needle.len()).find(|&i| hay[i..i + needle.len()] == needle[..])
            } else {
                None
            };
            prop_assert_eq!(find_literal(&hay, &needle), naive);
        }

        #[test]
        fn skip_class_matches_naive(hay in bytes_strategy(), members in collection::vec(sample::select(vec![b'a', b'b', b'\n', 0u8, 0xFFu8]), 0..4)) {
            let class = ClassBitmap::of(&members);
            let naive = hay.iter().position(|&b| !class.contains(b)).unwrap_or(hay.len());
            prop_assert_eq!(skip_class(&hay, &class), naive);
        }
    }
}
