//! Character encodings and byte orders — the "ambient coding" of §3.
//!
//! PADS base types are coding-ambiguous until a coding is chosen: `Puint32`
//! uses the *ambient* coding (ASCII by default), while prefixed families
//! (`Pa_`, `Pe_`, `Pb_`) pin a coding explicitly. This module provides the
//! [`Charset`] ambient-coding switch, EBCDIC (code page 037) translation
//! tables, and the [`Endian`] ambient byte order for binary base types.

/// Ambient character coding for text-like base types and literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Charset {
    /// ASCII (the PADS default).
    #[default]
    Ascii,
    /// EBCDIC code page 037 (Cobol data sources).
    Ebcdic,
}

/// Ambient byte order for binary (`Pb_`) base types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Endian {
    /// Most-significant byte first (network order; the PADS default for
    /// binary telecom formats).
    #[default]
    Big,
    /// Least-significant byte first.
    Little,
}

/// EBCDIC→ASCII translation table (code page 037, Latin-1 subset folded to
/// ASCII). Unmapped code points become ASCII SUB (0x1A).
pub static EBCDIC_TO_ASCII: [u8; 256] = build_e2a();

/// ASCII→EBCDIC translation table (inverse of [`EBCDIC_TO_ASCII`] on the
/// mapped range). Unmapped bytes become EBCDIC SUB (0x3F).
pub static ASCII_TO_EBCDIC: [u8; 256] = build_a2e();

const fn pairs() -> [(u8, u8); 95 + 8] {
    // (ebcdic, ascii) for the printable ASCII range plus common controls.
    [
        (0x00, 0x00), // NUL
        (0x05, 0x09), // HT
        (0x25, 0x0A), // LF
        (0x0D, 0x0D), // CR
        (0x0C, 0x0C), // FF
        (0x0B, 0x0B), // VT
        (0x16, 0x08), // BS
        (0x2F, 0x07), // BEL
        (0x40, b' '),
        (0x5A, b'!'),
        (0x7F, b'"'),
        (0x7B, b'#'),
        (0x5B, b'$'),
        (0x6C, b'%'),
        (0x50, b'&'),
        (0x7D, b'\''),
        (0x4D, b'('),
        (0x5D, b')'),
        (0x5C, b'*'),
        (0x4E, b'+'),
        (0x6B, b','),
        (0x60, b'-'),
        (0x4B, b'.'),
        (0x61, b'/'),
        (0xF0, b'0'),
        (0xF1, b'1'),
        (0xF2, b'2'),
        (0xF3, b'3'),
        (0xF4, b'4'),
        (0xF5, b'5'),
        (0xF6, b'6'),
        (0xF7, b'7'),
        (0xF8, b'8'),
        (0xF9, b'9'),
        (0x7A, b':'),
        (0x5E, b';'),
        (0x4C, b'<'),
        (0x7E, b'='),
        (0x6E, b'>'),
        (0x6F, b'?'),
        (0x7C, b'@'),
        (0xC1, b'A'),
        (0xC2, b'B'),
        (0xC3, b'C'),
        (0xC4, b'D'),
        (0xC5, b'E'),
        (0xC6, b'F'),
        (0xC7, b'G'),
        (0xC8, b'H'),
        (0xC9, b'I'),
        (0xD1, b'J'),
        (0xD2, b'K'),
        (0xD3, b'L'),
        (0xD4, b'M'),
        (0xD5, b'N'),
        (0xD6, b'O'),
        (0xD7, b'P'),
        (0xD8, b'Q'),
        (0xD9, b'R'),
        (0xE2, b'S'),
        (0xE3, b'T'),
        (0xE4, b'U'),
        (0xE5, b'V'),
        (0xE6, b'W'),
        (0xE7, b'X'),
        (0xE8, b'Y'),
        (0xE9, b'Z'),
        (0xBA, b'['),
        (0xE0, b'\\'),
        (0xBB, b']'),
        (0x5F, b'^'), // EBCDIC NOT SIGN folded to caret
        (0x6D, b'_'),
        (0x79, b'`'),
        (0x81, b'a'),
        (0x82, b'b'),
        (0x83, b'c'),
        (0x84, b'd'),
        (0x85, b'e'),
        (0x86, b'f'),
        (0x87, b'g'),
        (0x88, b'h'),
        (0x89, b'i'),
        (0x91, b'j'),
        (0x92, b'k'),
        (0x93, b'l'),
        (0x94, b'm'),
        (0x95, b'n'),
        (0x96, b'o'),
        (0x97, b'p'),
        (0x98, b'q'),
        (0x99, b'r'),
        (0xA2, b's'),
        (0xA3, b't'),
        (0xA4, b'u'),
        (0xA5, b'v'),
        (0xA6, b'w'),
        (0xA7, b'x'),
        (0xA8, b'y'),
        (0xA9, b'z'),
        (0xC0, b'{'),
        (0x4F, b'|'),
        (0xD0, b'}'),
        (0xA1, b'~'),
    ]
}

const fn build_e2a() -> [u8; 256] {
    let mut t = [0x1Au8; 256];
    let ps = pairs();
    let mut i = 0;
    while i < ps.len() {
        t[ps[i].0 as usize] = ps[i].1;
        i += 1;
    }
    t
}

const fn build_a2e() -> [u8; 256] {
    let mut t = [0x3Fu8; 256];
    let ps = pairs();
    let mut i = 0;
    while i < ps.len() {
        t[ps[i].1 as usize] = ps[i].0;
        i += 1;
    }
    t
}

impl Charset {
    /// Decodes one raw input byte to its logical ASCII value.
    pub fn decode(self, b: u8) -> u8 {
        match self {
            Charset::Ascii => b,
            Charset::Ebcdic => EBCDIC_TO_ASCII[b as usize],
        }
    }

    /// Encodes one logical ASCII byte to the raw on-disk byte.
    pub fn encode(self, b: u8) -> u8 {
        match self {
            Charset::Ascii => b,
            Charset::Ebcdic => ASCII_TO_EBCDIC[b as usize],
        }
    }

    /// Decodes a raw byte slice into a `String`, treating each decoded
    /// byte as one `char` (Latin-1 style for bytes above 0x7F). Pure-ASCII
    /// input in the ASCII charset is copied in bulk instead of pushed
    /// char-by-char — the hot case for every text field in a log record.
    pub fn decode_text(self, raw: &[u8]) -> String {
        self.decode_text_cow(raw).into_owned()
    }

    /// Like [`decode_text`](Self::decode_text), but borrows the input when
    /// decoding is the identity: ASCII charset, pure-ASCII bytes. This is
    /// the zero-copy tier — callers that only inspect the text (date
    /// parsing, constraint checks) never allocate on the clean path, and
    /// `Cow::into_owned` reproduces `decode_text` byte for byte.
    pub fn decode_text_cow(self, raw: &[u8]) -> std::borrow::Cow<'_, str> {
        if self == Charset::Ascii && raw.is_ascii() {
            if let Ok(s) = std::str::from_utf8(raw) {
                return std::borrow::Cow::Borrowed(s);
            }
        }
        std::borrow::Cow::Owned(raw.iter().map(|&b| self.decode(b) as char).collect())
    }

    /// The raw byte representing the ASCII digit value `d` (0–9).
    pub fn digit(self, d: u8) -> u8 {
        debug_assert!(d < 10);
        self.encode(b'0' + d)
    }

    /// Decodes a raw byte as a decimal digit if it is one in this charset.
    pub fn digit_value(self, raw: u8) -> Option<u8> {
        let a = self.decode(raw);
        a.is_ascii_digit().then(|| a - b'0')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_is_identity() {
        for b in 0..=255u8 {
            assert_eq!(Charset::Ascii.decode(b), b);
            assert_eq!(Charset::Ascii.encode(b), b);
        }
    }

    #[test]
    fn ebcdic_round_trips_printable_ascii() {
        for a in 0x20..=0x7Eu8 {
            let e = Charset::Ebcdic.encode(a);
            assert_ne!(e, 0x3F, "printable {a:#x} should be mapped");
            assert_eq!(Charset::Ebcdic.decode(e), a, "round trip for {:?}", a as char);
        }
    }

    #[test]
    fn ebcdic_digits_are_f0_to_f9() {
        for d in 0..10u8 {
            assert_eq!(Charset::Ebcdic.digit(d), 0xF0 + d);
            assert_eq!(Charset::Ebcdic.digit_value(0xF0 + d), Some(d));
        }
        assert_eq!(Charset::Ebcdic.digit_value(b'5'), None);
    }

    #[test]
    fn ebcdic_known_letters() {
        assert_eq!(Charset::Ebcdic.decode(0xC1), b'A');
        assert_eq!(Charset::Ebcdic.decode(0x81), b'a');
        assert_eq!(Charset::Ebcdic.decode(0x40), b' ');
        assert_eq!(Charset::Ebcdic.encode(b'|'), 0x4F);
    }

    #[test]
    fn unmapped_ebcdic_becomes_sub() {
        assert_eq!(Charset::Ebcdic.decode(0x04), 0x1A);
    }
}
