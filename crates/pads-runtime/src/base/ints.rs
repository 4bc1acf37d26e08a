//! Integer base-type families.
//!
//! Three orthogonal axes, as in the paper (§3): signedness × width (8–64
//! bits) × coding. The coding is either *ambient* (`Pint32` uses the
//! cursor's charset), explicit ASCII (`Pa_int32`), explicit EBCDIC
//! (`Pe_int32`), or binary (`Pb_int32`, using the cursor's ambient byte
//! order). Text codings additionally come in fixed-width variants
//! (`Puint16_FW(:3:)` is an unsigned 16-bit number written in exactly three
//! characters).

use std::sync::Arc;

use crate::base::{arg_u64, BaseType, Registry};
use crate::encoding::{Charset, Endian};
use crate::error::ErrorCode;
use crate::io::Cursor;
use crate::prim::{Prim, PrimKind};
use crate::scan;

/// Which coding a textual integer type uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Coding {
    Ambient,
    Fixed(Charset),
}

impl Coding {
    fn charset(self, cur_charset: Charset) -> Charset {
        match self {
            Coding::Ambient => cur_charset,
            Coding::Fixed(cs) => cs,
        }
    }
}

/// Decimal-text integer base type (variable or fixed width).
struct TextInt {
    name: String,
    signed: bool,
    bits: u32,
    coding: Coding,
    fixed_width: bool,
}

impl TextInt {
    fn in_range(&self, v: i128) -> bool {
        if self.signed {
            let max = (1i128 << (self.bits - 1)) - 1;
            let min = -(1i128 << (self.bits - 1));
            v >= min && v <= max
        } else {
            v >= 0 && v < (1i128 << self.bits)
        }
    }
}

impl BaseType for TextInt {
    fn name(&self) -> &str {
        &self.name
    }

    fn arity(&self) -> (usize, usize) {
        if self.fixed_width {
            (1, 1)
        } else {
            (0, 0)
        }
    }

    fn kind(&self) -> PrimKind {
        if self.signed {
            PrimKind::Int
        } else {
            PrimKind::Uint
        }
    }

    fn parse(&self, cur: &mut Cursor<'_>, args: &[Prim]) -> Result<Prim, ErrorCode> {
        let cs = self.coding.charset(cur.charset());
        if self.fixed_width {
            let width = arg_u64(args, 0)? as usize;
            let raw = cur.take(width)?;
            parse_fixed(raw, cs, self.signed).and_then(|v| {
                if self.in_range(v) {
                    Ok(self.mk(v))
                } else {
                    Err(ErrorCode::RangeError)
                }
            })
        } else {
            let v = parse_variable(cur, cs, self.signed)?;
            if self.in_range(v) {
                Ok(self.mk(v))
            } else {
                Err(ErrorCode::RangeError)
            }
        }
    }

    fn write(
        &self,
        out: &mut Vec<u8>,
        val: &Prim,
        args: &[Prim],
        charset: Charset,
        _endian: Endian,
    ) -> Result<(), ErrorCode> {
        let cs = self.coding.charset(charset);
        let text = match (self.signed, val) {
            (true, Prim::Int(v)) => v.to_string(),
            (false, Prim::Uint(v)) => v.to_string(),
            // Tolerate cross-signedness when the value fits.
            (true, Prim::Uint(v)) => i64::try_from(*v).map_err(|_| ErrorCode::RangeError)?.to_string(),
            (false, Prim::Int(v)) => u64::try_from(*v).map_err(|_| ErrorCode::RangeError)?.to_string(),
            _ => return Err(ErrorCode::EvalError),
        };
        let text = if self.fixed_width {
            let width = arg_u64(args, 0)? as usize;
            if text.len() > width {
                return Err(ErrorCode::RangeError);
            }
            // Canonical fixed-width form is zero-padded on the left (sign
            // first for negatives).
            if let Some(rest) = text.strip_prefix('-') {
                format!("-{:0>width$}", rest, width = width - 1)
            } else {
                format!("{text:0>width$}")
            }
        } else {
            text
        };
        out.extend(text.bytes().map(|b| cs.encode(b)));
        Ok(())
    }

    fn default_value(&self, _args: &[Prim]) -> Prim {
        self.mk(0)
    }
}

impl TextInt {
    fn mk(&self, v: i128) -> Prim {
        if self.signed {
            Prim::Int(v as i64)
        } else {
            Prim::Uint(v as u64)
        }
    }
}

fn parse_variable(cur: &mut Cursor<'_>, cs: Charset, signed: bool) -> Result<i128, ErrorCode> {
    if cs == Charset::Ascii {
        // Consumption on error matches the byte loop (sign consumed before
        // InvalidDigit, overflowing digit left unconsumed) so callers that
        // don't restore see identical positions.
        return match scan::decimal(cur.rest(), signed) {
            Ok((neg, mag, len)) => {
                cur.advance(len);
                Ok(if neg { -i128::from(mag) } else { i128::from(mag) })
            }
            Err((code, len)) => {
                cur.advance(len);
                Err(code)
            }
        };
    }
    let mut neg = false;
    if signed {
        match cur.peek().map(|b| cs.decode(b)) {
            Some(b'-') => {
                neg = true;
                cur.advance(1);
            }
            Some(b'+') => {
                cur.advance(1);
            }
            _ => {}
        }
    }
    let mut val: i128 = 0;
    let mut digits = 0usize;
    while let Some(d) = cur.peek().and_then(|b| cs.digit_value(b)) {
        val = val * 10 + d as i128;
        if val > u64::MAX as i128 + 1 {
            return Err(ErrorCode::RangeError);
        }
        cur.advance(1);
        digits += 1;
    }
    if digits == 0 {
        return Err(ErrorCode::InvalidDigit);
    }
    Ok(if neg { -val } else { val })
}

fn parse_fixed(raw: &[u8], cs: Charset, signed: bool) -> Result<i128, ErrorCode> {
    // ASCII decode is the identity, so the hot path scans the raw field in
    // place; only EBCDIC pays for a decoded copy.
    if cs == Charset::Ascii {
        return parse_fixed_ascii(raw, signed);
    }
    let decoded: Vec<u8> = raw.iter().map(|&b| cs.decode(b)).collect();
    parse_fixed_ascii(&decoded, signed)
}

fn parse_fixed_ascii(s: &[u8], signed: bool) -> Result<i128, ErrorCode> {
    // Leading spaces, optional sign, digits, optional trailing spaces.
    let mut i = 0;
    while i < s.len() && s[i] == b' ' {
        i += 1;
    }
    let mut neg = false;
    if signed && i < s.len() && (s[i] == b'-' || s[i] == b'+') {
        neg = s[i] == b'-';
        i += 1;
    }
    let mut val: i128 = 0;
    let mut digits = 0usize;
    while i < s.len() && s[i].is_ascii_digit() {
        val = val * 10 + (s[i] - b'0') as i128;
        if val > u64::MAX as i128 + 1 {
            return Err(ErrorCode::RangeError);
        }
        i += 1;
        digits += 1;
    }
    while i < s.len() && s[i] == b' ' {
        i += 1;
    }
    if digits == 0 || i != s.len() {
        return Err(ErrorCode::InvalidDigit);
    }
    Ok(if neg { -val } else { val })
}

/// Binary integer base type, width in bytes, ambient byte order.
struct BinInt {
    name: String,
    signed: bool,
    bytes: usize,
}

impl BaseType for BinInt {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> PrimKind {
        if self.signed {
            PrimKind::Int
        } else {
            PrimKind::Uint
        }
    }

    fn parse(&self, cur: &mut Cursor<'_>, _args: &[Prim]) -> Result<Prim, ErrorCode> {
        let raw = cur.take(self.bytes)?;
        let mut acc: u64 = 0;
        match cur.endian() {
            Endian::Big => {
                for &b in raw {
                    acc = acc << 8 | b as u64;
                }
            }
            Endian::Little => {
                for &b in raw.iter().rev() {
                    acc = acc << 8 | b as u64;
                }
            }
        }
        if self.signed {
            // Sign-extend from the declared width.
            let shift = 64 - self.bytes * 8;
            let v = ((acc << shift) as i64) >> shift;
            Ok(Prim::Int(v))
        } else {
            Ok(Prim::Uint(acc))
        }
    }

    fn write(
        &self,
        out: &mut Vec<u8>,
        val: &Prim,
        _args: &[Prim],
        _charset: Charset,
        endian: Endian,
    ) -> Result<(), ErrorCode> {
        let bits = self.bytes as u32 * 8;
        let acc: u64 = match val {
            Prim::Uint(v) => {
                if self.bytes < 8 && *v >= 1u64 << bits {
                    return Err(ErrorCode::RangeError);
                }
                *v
            }
            Prim::Int(v) => {
                if self.bytes < 8 {
                    let max = (1i64 << (bits - 1)) - 1;
                    let min = -(1i64 << (bits - 1));
                    if self.signed && (*v < min || *v > max) {
                        return Err(ErrorCode::RangeError);
                    }
                    if !self.signed && (*v < 0 || *v >= 1i64 << bits) {
                        return Err(ErrorCode::RangeError);
                    }
                }
                *v as u64
            }
            _ => return Err(ErrorCode::EvalError),
        };
        let mut bytes = [0u8; 8];
        for (i, byte) in bytes.iter_mut().take(self.bytes).enumerate() {
            *byte = (acc >> (8 * (self.bytes - 1 - i)) & 0xff) as u8;
        }
        match endian {
            Endian::Big => out.extend_from_slice(&bytes[..self.bytes]),
            Endian::Little => out.extend(bytes[..self.bytes].iter().rev()),
        }
        Ok(())
    }

    fn default_value(&self, _args: &[Prim]) -> Prim {
        if self.signed {
            Prim::Int(0)
        } else {
            Prim::Uint(0)
        }
    }
}

/// Registers every integer family member into `reg`.
pub fn register_all(reg: &mut Registry) {
    for &(prefix, coding) in &[
        ("P", Coding::Ambient),
        ("Pa_", Coding::Fixed(Charset::Ascii)),
        ("Pe_", Coding::Fixed(Charset::Ebcdic)),
    ] {
        for &signed in &[true, false] {
            for &bits in &[8u32, 16, 32, 64] {
                let base = format!("{prefix}{}int{bits}", if signed { "" } else { "u" });
                reg.register(Arc::new(TextInt {
                    name: base.clone(),
                    signed,
                    bits,
                    coding,
                    fixed_width: false,
                }));
                reg.register(Arc::new(TextInt {
                    name: format!("{base}_FW"),
                    signed,
                    bits,
                    coding,
                    fixed_width: true,
                }));
            }
        }
    }
    for &signed in &[true, false] {
        for &bytes in &[1usize, 2, 4, 8] {
            let name = format!("Pb_{}int{}", if signed { "" } else { "u" }, bytes * 8);
            reg.register(Arc::new(BinInt { name, signed, bytes }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::RecordDiscipline;

    fn parse_with(reg: &Registry, ty: &str, data: &[u8], args: &[Prim]) -> Result<Prim, ErrorCode> {
        let mut cur = Cursor::new(data).with_discipline(RecordDiscipline::None);
        reg.get(ty).expect(ty).parse(&mut cur, args)
    }

    #[test]
    fn ascii_uint_basics() {
        let reg = Registry::standard();
        assert_eq!(parse_with(&reg, "Puint32", b"1005022800|", &[]), Ok(Prim::Uint(1_005_022_800)));
        assert_eq!(parse_with(&reg, "Puint8", b"255", &[]), Ok(Prim::Uint(255)));
        assert_eq!(parse_with(&reg, "Puint8", b"256", &[]), Err(ErrorCode::RangeError));
        assert_eq!(parse_with(&reg, "Puint8", b"abc", &[]), Err(ErrorCode::InvalidDigit));
    }

    #[test]
    fn signed_parsing() {
        let reg = Registry::standard();
        assert_eq!(parse_with(&reg, "Pint32", b"-42", &[]), Ok(Prim::Int(-42)));
        assert_eq!(parse_with(&reg, "Pint32", b"+42", &[]), Ok(Prim::Int(42)));
        assert_eq!(parse_with(&reg, "Pint8", b"-128", &[]), Ok(Prim::Int(-128)));
        assert_eq!(parse_with(&reg, "Pint8", b"-129", &[]), Err(ErrorCode::RangeError));
        // Unsigned types do not accept a sign.
        assert_eq!(parse_with(&reg, "Puint32", b"-42", &[]), Err(ErrorCode::InvalidDigit));
    }

    #[test]
    fn fixed_width_text() {
        let reg = Registry::standard();
        let w = [Prim::Uint(3)];
        assert_eq!(parse_with(&reg, "Puint16_FW", b"200x", &w), Ok(Prim::Uint(200)));
        assert_eq!(parse_with(&reg, "Puint16_FW", b" 42", &w), Ok(Prim::Uint(42)));
        assert_eq!(parse_with(&reg, "Puint16_FW", b"4 2", &w), Err(ErrorCode::InvalidDigit));
        assert_eq!(parse_with(&reg, "Puint16_FW", b"12", &w), Err(ErrorCode::UnexpectedEof));
        assert_eq!(parse_with(&reg, "Pint32_FW", b" -7 ", &[Prim::Uint(4)]), Ok(Prim::Int(-7)));
    }

    #[test]
    fn ebcdic_digits() {
        let reg = Registry::standard();
        // "123" in EBCDIC is F1 F2 F3.
        assert_eq!(parse_with(&reg, "Pe_uint16", &[0xF1, 0xF2, 0xF3], &[]), Ok(Prim::Uint(123)));
        // Ambient type under an EBCDIC cursor behaves the same.
        let mut cur = Cursor::new(&[0xF9, 0xF9])
            .with_discipline(RecordDiscipline::None)
            .with_charset(Charset::Ebcdic);
        let v = reg.get("Puint8").unwrap().parse(&mut cur, &[]).unwrap();
        assert_eq!(v, Prim::Uint(99));
        // ASCII digits are not EBCDIC digits.
        assert_eq!(parse_with(&reg, "Pe_uint16", b"123", &[]), Err(ErrorCode::InvalidDigit));
    }

    #[test]
    fn binary_big_and_little_endian() {
        let reg = Registry::standard();
        let data = [0x01, 0x02, 0x03, 0x04];
        let mut cur = Cursor::new(&data).with_discipline(RecordDiscipline::None);
        let v = reg.get("Pb_uint32").unwrap().parse(&mut cur, &[]).unwrap();
        assert_eq!(v, Prim::Uint(0x0102_0304));
        let mut cur = Cursor::new(&data)
            .with_discipline(RecordDiscipline::None)
            .with_endian(Endian::Little);
        let v = reg.get("Pb_uint32").unwrap().parse(&mut cur, &[]).unwrap();
        assert_eq!(v, Prim::Uint(0x0403_0201));
    }

    #[test]
    fn binary_sign_extension() {
        let reg = Registry::standard();
        let mut cur = Cursor::new(&[0xFF, 0xFE]).with_discipline(RecordDiscipline::None);
        let v = reg.get("Pb_int16").unwrap().parse(&mut cur, &[]).unwrap();
        assert_eq!(v, Prim::Int(-2));
    }

    #[test]
    fn binary_round_trip() {
        let reg = Registry::standard();
        let ty = reg.get("Pb_int32").unwrap();
        for v in [-1i64, 0, 1, i32::MAX as i64, i32::MIN as i64] {
            let mut out = Vec::new();
            ty.write(&mut out, &Prim::Int(v), &[], Charset::Ascii, Endian::Big).unwrap();
            let mut cur = Cursor::new(&out).with_discipline(RecordDiscipline::None);
            assert_eq!(ty.parse(&mut cur, &[]).unwrap(), Prim::Int(v));
        }
    }

    #[test]
    fn text_round_trip() {
        let reg = Registry::standard();
        let ty = reg.get("Puint32").unwrap();
        let mut out = Vec::new();
        ty.write(&mut out, &Prim::Uint(30), &[], Charset::Ascii, Endian::Big).unwrap();
        assert_eq!(out, b"30");
        let ty = reg.get("Pe_uint32").unwrap();
        let mut out = Vec::new();
        ty.write(&mut out, &Prim::Uint(12), &[], Charset::Ascii, Endian::Big).unwrap();
        assert_eq!(out, vec![0xF1, 0xF2]);
    }

    #[test]
    fn fixed_width_write_zero_pads() {
        let reg = Registry::standard();
        let ty = reg.get("Puint16_FW").unwrap();
        let mut out = Vec::new();
        ty.write(&mut out, &Prim::Uint(7), &[Prim::Uint(3)], Charset::Ascii, Endian::Big).unwrap();
        assert_eq!(out, b"007");
        let ty = reg.get("Pint32_FW").unwrap();
        let mut out = Vec::new();
        ty.write(&mut out, &Prim::Int(-7), &[Prim::Uint(4)], Charset::Ascii, Endian::Big).unwrap();
        assert_eq!(out, b"-007");
        let mut out = Vec::new();
        assert_eq!(
            ty.write(&mut out, &Prim::Int(12345), &[Prim::Uint(4)], Charset::Ascii, Endian::Big),
            Err(ErrorCode::RangeError)
        );
    }

    #[test]
    fn overflow_detection_on_huge_literals() {
        let reg = Registry::standard();
        assert_eq!(
            parse_with(&reg, "Puint64", b"99999999999999999999999", &[]),
            Err(ErrorCode::RangeError)
        );
        assert_eq!(
            parse_with(&reg, "Puint64", b"18446744073709551615", &[]),
            Ok(Prim::Uint(u64::MAX))
        );
    }
}
