//! Miscellaneous base types: IP addresses, hostnames, dates, zip codes,
//! floats, and the void type that backs `Popt`.

use std::sync::Arc;

use crate::base::{arg_char, BaseType, PrimView, Registry};
use crate::date::PDate;
use crate::encoding::{Charset, Endian};
use crate::error::ErrorCode;
use crate::io::Cursor;
use crate::prim::{Prim, PrimKind};
use crate::scan::{find_literal, skip_class, ClassBitmap, DIGITS};

/// Hostname label bytes `[A-Za-z0-9.-]`: `-` (45), `.` (46), digits in
/// word 0; upper- and lowercase letters in word 1.
const HOST_CHARS: ClassBitmap =
    ClassBitmap::from_bits([0x03FF_6000_0000_0000, 0x07FF_FFFE_07FF_FFFE, 0, 0]);

/// IPv4 dotted-quad address (`Pip`), e.g. `135.207.23.32`.
struct IpBase;

impl BaseType for IpBase {
    fn name(&self) -> &str {
        "Pip"
    }

    fn kind(&self) -> PrimKind {
        PrimKind::Ip
    }

    fn parse(&self, cur: &mut Cursor<'_>, _args: &[Prim]) -> Result<Prim, ErrorCode> {
        let cs = cur.charset();
        if cs == Charset::Ascii {
            // Slice fast path: scan each digit run in bulk, one advance at
            // the end. Errors leave the cursor wherever the scan stopped —
            // every caller restores its checkpoint on failure.
            let rest = cur.rest();
            let mut at = 0usize;
            let mut octets = [0u8; 4];
            for (i, octet) in octets.iter_mut().enumerate() {
                if i > 0 {
                    if rest.get(at) != Some(&b'.') {
                        return Err(ErrorCode::BadIp);
                    }
                    at += 1;
                }
                let n = skip_class(&rest[at..], &DIGITS).min(3);
                if n == 0 {
                    return Err(ErrorCode::BadIp);
                }
                let mut val: u32 = 0;
                for &b in &rest[at..at + n] {
                    val = val * 10 + (b - b'0') as u32;
                }
                if val > 255 {
                    return Err(ErrorCode::BadIp);
                }
                *octet = val as u8;
                at += n;
            }
            // A trailing digit or dot would mean we mis-lexed a longer
            // token (e.g. a 5-part dotted name); reject so a union can try
            // hostnames.
            if let Some(&next) = rest.get(at) {
                if next == b'.' || next.is_ascii_digit() {
                    return Err(ErrorCode::BadIp);
                }
            }
            cur.advance(at);
            return Ok(Prim::Ip(octets));
        }
        let mut octets = [0u8; 4];
        for (i, octet) in octets.iter_mut().enumerate() {
            if i > 0 {
                if cur.peek().map(|b| cs.decode(b)) != Some(b'.') {
                    return Err(ErrorCode::BadIp);
                }
                cur.advance(1);
            }
            let mut val: u32 = 0;
            let mut digits = 0;
            while digits < 3 {
                match cur.peek().and_then(|b| cs.digit_value(b)) {
                    Some(d) => {
                        val = val * 10 + d as u32;
                        cur.advance(1);
                        digits += 1;
                    }
                    None => break,
                }
            }
            if digits == 0 || val > 255 {
                return Err(ErrorCode::BadIp);
            }
            *octet = val as u8;
        }
        // A trailing digit or dot would mean we mis-lexed a longer token
        // (e.g. a 5-part dotted name); reject so a union can try hostnames.
        if let Some(next) = cur.peek().map(|b| cs.decode(b)) {
            if next == b'.' || next.is_ascii_digit() {
                return Err(ErrorCode::BadIp);
            }
        }
        Ok(Prim::Ip(octets))
    }

    fn write(
        &self,
        out: &mut Vec<u8>,
        val: &Prim,
        _args: &[Prim],
        charset: Charset,
        _endian: Endian,
    ) -> Result<(), ErrorCode> {
        match val {
            Prim::Ip(o) => {
                let s = format!("{}.{}.{}.{}", o[0], o[1], o[2], o[3]);
                out.extend(s.bytes().map(|b| charset.encode(b)));
                Ok(())
            }
            _ => Err(ErrorCode::EvalError),
        }
    }
}

/// DNS-style hostname (`Phostname`): dot-separated labels of letters,
/// digits, and hyphens, containing at least one letter.
struct HostnameBase;

/// ASCII bulk path shared by `Phostname`'s `parse` and `parse_view`: grab
/// the whole `[A-Za-z0-9.-]` run, then apply the per-byte loop's stopping
/// rules on the slice. That loop never consumes a dot unless a label byte
/// follows, so it stops before a double dot and before a trailing dot. The
/// returned name borrows the cursor's buffer.
fn host_ascii<'d>(cur: &mut Cursor<'d>) -> Result<&'d str, ErrorCode> {
    let rest = cur.rest();
    let run = skip_class(rest, &HOST_CHARS);
    let mut raw = &rest[..run];
    if let Some(i) = find_literal(raw, b"..") {
        raw = &raw[..i];
    }
    if raw.last() == Some(&b'.') {
        raw = &raw[..raw.len() - 1];
    }
    if raw.first() == Some(&b'.') {
        // Leading dot: the byte loop stops immediately, name empty.
        raw = &raw[..0];
    }
    let has_alpha = raw.iter().any(|b| b.is_ascii_alphabetic());
    if raw.is_empty() || !has_alpha {
        return Err(ErrorCode::BadHostname);
    }
    cur.advance(raw.len());
    match std::str::from_utf8(raw) {
        Ok(s) => Ok(s),
        Err(_) => unreachable!("HOST_CHARS is pure ASCII"),
    }
}

impl BaseType for HostnameBase {
    fn name(&self) -> &str {
        "Phostname"
    }

    fn kind(&self) -> PrimKind {
        PrimKind::String
    }

    fn parse(&self, cur: &mut Cursor<'_>, _args: &[Prim]) -> Result<Prim, ErrorCode> {
        let cs = cur.charset();
        if cs == Charset::Ascii {
            return host_ascii(cur).map(|s| Prim::String(s.to_owned()));
        }
        let mut name = String::new();
        let mut has_alpha = false;
        let mut last_was_dot = true; // a leading dot is invalid
        loop {
            match cur.peek().map(|b| cs.decode(b)) {
                Some(c) if c.is_ascii_alphanumeric() || c == b'-' => {
                    has_alpha |= c.is_ascii_alphabetic();
                    name.push(c as char);
                    last_was_dot = false;
                    cur.advance(1);
                }
                Some(b'.') if !last_was_dot => {
                    // Only consume the dot if a label follows.
                    match cur.peek_at(1).map(|b| cs.decode(b)) {
                        Some(c) if c.is_ascii_alphanumeric() || c == b'-' => {
                            name.push('.');
                            last_was_dot = true;
                            cur.advance(1);
                        }
                        _ => break,
                    }
                }
                _ => break,
            }
        }
        if name.is_empty() || !has_alpha || last_was_dot {
            return Err(ErrorCode::BadHostname);
        }
        Ok(Prim::String(name))
    }

    fn parse_view<'d>(
        &self,
        cur: &mut Cursor<'d>,
        args: &[Prim],
    ) -> Result<PrimView<'d>, ErrorCode> {
        if cur.charset() == Charset::Ascii {
            return host_ascii(cur).map(PrimView::Str);
        }
        self.parse(cur, args).map(PrimView::Owned)
    }

    fn write(
        &self,
        out: &mut Vec<u8>,
        val: &Prim,
        _args: &[Prim],
        charset: Charset,
        _endian: Endian,
    ) -> Result<(), ErrorCode> {
        match val {
            Prim::String(s) => {
                out.extend(s.bytes().map(|b| charset.encode(b)));
                Ok(())
            }
            _ => Err(ErrorCode::EvalError),
        }
    }
}

/// Date terminated by a character (`Pdate(:']':)`) or by the record end
/// (no argument). Accepts the styles in [`crate::date`].
struct DateBase;

impl BaseType for DateBase {
    fn name(&self) -> &str {
        "Pdate"
    }

    fn arity(&self) -> (usize, usize) {
        (0, 1)
    }

    fn kind(&self) -> PrimKind {
        PrimKind::Date
    }

    fn parse(&self, cur: &mut Cursor<'_>, args: &[Prim]) -> Result<Prim, ErrorCode> {
        let cs = cur.charset();
        let len = if args.is_empty() {
            cur.remaining()
        } else {
            let term = cs.encode(arg_char(args, 0)?);
            cur.find_byte(term).unwrap_or(cur.remaining())
        };
        let raw = cur.take(len)?;
        let text = cs.decode_text_cow(raw);
        let date = PDate::parse(&text).ok_or(ErrorCode::BadDate)?;
        Ok(Prim::Date(date))
    }

    fn write(
        &self,
        out: &mut Vec<u8>,
        val: &Prim,
        _args: &[Prim],
        charset: Charset,
        _endian: Endian,
    ) -> Result<(), ErrorCode> {
        match val {
            Prim::Date(d) => {
                out.extend(d.to_original().bytes().map(|b| charset.encode(b)));
                Ok(())
            }
            _ => Err(ErrorCode::EvalError),
        }
    }
}

/// US postal code (`Pzip`): five digits, optionally `-dddd` (ZIP+4).
/// Kept as a string to preserve leading zeros (e.g. `07988` in Figure 3).
struct ZipBase;

/// ASCII bulk path shared by `Pzip`'s `parse` and `parse_view`: exactly
/// five digits, optionally `-dddd`, with the same sixth-consecutive-digit
/// rejection as the byte loop. Digit runs are measured in bulk, so the
/// accepted text is a verbatim slice of the input. Errors may leave the
/// cursor short of where the byte loop would — callers restore on failure.
fn zip_ascii<'d>(cur: &mut Cursor<'d>) -> Result<&'d str, ErrorCode> {
    let rest = cur.rest();
    let run = skip_class(rest, &DIGITS);
    if run != 5 {
        return Err(ErrorCode::BadZip);
    }
    let mut len = 5;
    // Optional +4 extension: a `-` followed by exactly four digits.
    if rest.get(5) == Some(&b'-') {
        let ext = skip_class(&rest[6..], &DIGITS);
        if ext >= 1 {
            if ext != 4 {
                return Err(ErrorCode::BadZip);
            }
            len = 10;
        }
    }
    let raw = &rest[..len];
    cur.advance(len);
    match std::str::from_utf8(raw) {
        Ok(s) => Ok(s),
        Err(_) => unreachable!("digits and '-' are pure ASCII"),
    }
}

impl BaseType for ZipBase {
    fn name(&self) -> &str {
        "Pzip"
    }

    fn kind(&self) -> PrimKind {
        PrimKind::String
    }

    fn parse(&self, cur: &mut Cursor<'_>, _args: &[Prim]) -> Result<Prim, ErrorCode> {
        let cs = cur.charset();
        if cs == Charset::Ascii {
            return zip_ascii(cur).map(|s| Prim::String(s.to_owned()));
        }
        let mut s = String::new();
        for _ in 0..5 {
            match cur.peek().and_then(|b| cs.digit_value(b)) {
                Some(d) => {
                    s.push((b'0' + d) as char);
                    cur.advance(1);
                }
                None => return Err(ErrorCode::BadZip),
            }
        }
        // Optional +4 extension.
        if cur.peek().map(|b| cs.decode(b)) == Some(b'-')
            && cur.peek_at(1).and_then(|b| cs.digit_value(b)).is_some()
        {
            s.push('-');
            cur.advance(1);
            for _ in 0..4 {
                match cur.peek().and_then(|b| cs.digit_value(b)) {
                    Some(d) => {
                        s.push((b'0' + d) as char);
                        cur.advance(1);
                    }
                    None => return Err(ErrorCode::BadZip),
                }
            }
        }
        // A sixth consecutive digit means this is not a zip code.
        if cur.peek().and_then(|b| cs.digit_value(b)).is_some() {
            return Err(ErrorCode::BadZip);
        }
        Ok(Prim::String(s))
    }

    fn parse_view<'d>(
        &self,
        cur: &mut Cursor<'d>,
        args: &[Prim],
    ) -> Result<PrimView<'d>, ErrorCode> {
        if cur.charset() == Charset::Ascii {
            return zip_ascii(cur).map(PrimView::Str);
        }
        self.parse(cur, args).map(PrimView::Owned)
    }

    fn write(
        &self,
        out: &mut Vec<u8>,
        val: &Prim,
        _args: &[Prim],
        charset: Charset,
        _endian: Endian,
    ) -> Result<(), ErrorCode> {
        match val {
            Prim::String(s) => {
                out.extend(s.bytes().map(|b| charset.encode(b)));
                Ok(())
            }
            _ => Err(ErrorCode::EvalError),
        }
    }
}

/// ASCII floating-point number (`Pfloat32` / `Pfloat64`).
struct FloatBase {
    name: &'static str,
}

impl BaseType for FloatBase {
    fn name(&self) -> &str {
        self.name
    }

    fn kind(&self) -> PrimKind {
        PrimKind::Float
    }

    fn parse(&self, cur: &mut Cursor<'_>, _args: &[Prim]) -> Result<Prim, ErrorCode> {
        let cs = cur.charset();
        let mut text = String::new();
        let mut i = 0usize;
        let peek = |cur: &Cursor<'_>, i: usize| cur.peek_at(i).map(|b| cs.decode(b));
        if let Some(c @ (b'-' | b'+')) = peek(cur, i) {
            text.push(c as char);
            i += 1;
        }
        let mut digits = 0;
        while let Some(c) = peek(cur, i) {
            if c.is_ascii_digit() {
                text.push(c as char);
                i += 1;
                digits += 1;
            } else {
                break;
            }
        }
        if peek(cur, i) == Some(b'.') && peek(cur, i + 1).is_some_and(|c| c.is_ascii_digit()) {
            text.push('.');
            i += 1;
            while let Some(c) = peek(cur, i) {
                if c.is_ascii_digit() {
                    text.push(c as char);
                    i += 1;
                    digits += 1;
                } else {
                    break;
                }
            }
        }
        if digits == 0 {
            return Err(ErrorCode::BadFloat);
        }
        // Optional exponent.
        if matches!(peek(cur, i), Some(b'e') | Some(b'E')) {
            let mut j = i + 1;
            if matches!(peek(cur, j), Some(b'-') | Some(b'+')) {
                j += 1;
            }
            if peek(cur, j).is_some_and(|c| c.is_ascii_digit()) {
                text.push('e');
                if matches!(peek(cur, i + 1), Some(b'-')) {
                    text.push('-');
                } else if matches!(peek(cur, i + 1), Some(b'+')) {
                    text.push('+');
                }
                i = j;
                while let Some(c) = peek(cur, i) {
                    if c.is_ascii_digit() {
                        text.push(c as char);
                        i += 1;
                    } else {
                        break;
                    }
                }
            }
        }
        let v: f64 = text.parse().map_err(|_| ErrorCode::BadFloat)?;
        cur.advance(i);
        Ok(Prim::Float(v))
    }

    fn write(
        &self,
        out: &mut Vec<u8>,
        val: &Prim,
        _args: &[Prim],
        charset: Charset,
        _endian: Endian,
    ) -> Result<(), ErrorCode> {
        match val {
            Prim::Float(v) => {
                out.extend(v.to_string().bytes().map(|b| charset.encode(b)));
                Ok(())
            }
            _ => Err(ErrorCode::EvalError),
        }
    }
}

/// The void type: matches always, consumes nothing. Backs the absent branch
/// of `Popt` (§3: "the 'void' type, which always matches but never consumes
/// any input").
struct VoidBase;

impl BaseType for VoidBase {
    fn name(&self) -> &str {
        "Pvoid"
    }

    fn kind(&self) -> PrimKind {
        PrimKind::Unit
    }

    fn parse(&self, _cur: &mut Cursor<'_>, _args: &[Prim]) -> Result<Prim, ErrorCode> {
        Ok(Prim::Unit)
    }

    fn write(
        &self,
        _out: &mut Vec<u8>,
        _val: &Prim,
        _args: &[Prim],
        _charset: Charset,
        _endian: Endian,
    ) -> Result<(), ErrorCode> {
        Ok(())
    }
}

/// Registers the miscellaneous base types.
pub fn register_all(reg: &mut Registry) {
    reg.register(Arc::new(IpBase));
    reg.register(Arc::new(HostnameBase));
    reg.register(Arc::new(DateBase));
    reg.register(Arc::new(ZipBase));
    reg.register(Arc::new(FloatBase { name: "Pfloat32" }));
    reg.register(Arc::new(FloatBase { name: "Pfloat64" }));
    reg.register(Arc::new(VoidBase));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::RecordDiscipline;

    fn parse(ty: &str, data: &[u8], args: &[Prim]) -> Result<Prim, ErrorCode> {
        let reg = Registry::standard();
        let mut cur = Cursor::new(data).with_discipline(RecordDiscipline::None);
        reg.get(ty).expect(ty).parse(&mut cur, args)
    }

    #[test]
    fn ip_parses_figure_2_client() {
        assert_eq!(parse("Pip", b"207.136.97.49 -", &[]), Ok(Prim::Ip([207, 136, 97, 49])));
    }

    #[test]
    fn ip_rejections() {
        assert_eq!(parse("Pip", b"256.1.1.1", &[]), Err(ErrorCode::BadIp));
        assert_eq!(parse("Pip", b"1.2.3", &[]), Err(ErrorCode::BadIp));
        assert_eq!(parse("Pip", b"1.2.3.4.5", &[]), Err(ErrorCode::BadIp));
        assert_eq!(parse("Pip", b"1.2.3.4567", &[]), Err(ErrorCode::BadIp));
        assert_eq!(parse("Pip", b"tj62.aol.com", &[]), Err(ErrorCode::BadIp));
    }

    #[test]
    fn hostname_parses_figure_2_client() {
        assert_eq!(
            parse("Phostname", b"tj62.aol.com - -", &[]),
            Ok(Prim::String("tj62.aol.com".into()))
        );
        assert_eq!(
            parse("Phostname", b"www.research.att.com", &[]),
            Ok(Prim::String("www.research.att.com".into()))
        );
    }

    #[test]
    fn hostname_requires_a_letter() {
        assert_eq!(parse("Phostname", b"1.2.3.4", &[]), Err(ErrorCode::BadHostname));
        assert_eq!(parse("Phostname", b"...", &[]), Err(ErrorCode::BadHostname));
    }

    #[test]
    fn hostname_stops_at_trailing_dot() {
        // "host." followed by a space: the dot is not consumed.
        let reg = Registry::standard();
        let mut cur = Cursor::new(b"abc. rest").with_discipline(RecordDiscipline::None);
        let v = reg.get("Phostname").unwrap().parse(&mut cur, &[]).unwrap();
        assert_eq!(v, Prim::String("abc".into()));
        assert_eq!(cur.peek(), Some(b'.'));
    }

    #[test]
    fn date_with_terminator() {
        let v = parse("Pdate", b"15/Oct/1997:18:46:51 -0700] rest", &[Prim::Char(b']')]).unwrap();
        match v {
            Prim::Date(d) => assert_eq!(d.tz_minutes, -420),
            other => panic!("expected date, got {other:?}"),
        }
        assert_eq!(
            parse("Pdate", b"nonsense]", &[Prim::Char(b']')]),
            Err(ErrorCode::BadDate)
        );
    }

    #[test]
    fn zip_preserves_leading_zeros() {
        assert_eq!(parse("Pzip", b"07988|", &[]), Ok(Prim::String("07988".into())));
        assert_eq!(parse("Pzip", b"12345-6789|", &[]), Ok(Prim::String("12345-6789".into())));
        assert_eq!(parse("Pzip", b"1234|", &[]), Err(ErrorCode::BadZip));
        assert_eq!(parse("Pzip", b"123456|", &[]), Err(ErrorCode::BadZip));
    }

    #[test]
    fn floats() {
        assert_eq!(parse("Pfloat64", b"3.5x", &[]), Ok(Prim::Float(3.5)));
        assert_eq!(parse("Pfloat64", b"-2", &[]), Ok(Prim::Float(-2.0)));
        assert_eq!(parse("Pfloat64", b"1e3,", &[]), Ok(Prim::Float(1000.0)));
        assert_eq!(parse("Pfloat64", b"2.5e-1", &[]), Ok(Prim::Float(0.25)));
        assert_eq!(parse("Pfloat64", b".", &[]), Err(ErrorCode::BadFloat));
        // "1." leaves the dot unconsumed.
        let reg = Registry::standard();
        let mut cur = Cursor::new(b"1.x").with_discipline(RecordDiscipline::None);
        let v = reg.get("Pfloat64").unwrap().parse(&mut cur, &[]).unwrap();
        assert_eq!(v, Prim::Float(1.0));
        assert_eq!(cur.peek(), Some(b'.'));
    }

    #[test]
    fn void_consumes_nothing() {
        let reg = Registry::standard();
        let mut cur = Cursor::new(b"abc").with_discipline(RecordDiscipline::None);
        let v = reg.get("Pvoid").unwrap().parse(&mut cur, &[]).unwrap();
        assert_eq!(v, Prim::Unit);
        assert_eq!(cur.offset(), 0);
    }

    #[test]
    fn ip_round_trip() {
        let reg = Registry::standard();
        let mut out = Vec::new();
        reg.get("Pip")
            .unwrap()
            .write(&mut out, &Prim::Ip([135, 207, 23, 32]), &[], Charset::Ascii, Endian::Big)
            .unwrap();
        assert_eq!(out, b"135.207.23.32");
    }

    #[test]
    fn date_round_trip_preserves_original_form() {
        let reg = Registry::standard();
        let input = b"16/Oct/1997:14:32:22 -0700]";
        let mut cur = Cursor::new(input).with_discipline(RecordDiscipline::None);
        let v = reg.get("Pdate").unwrap().parse(&mut cur, &[Prim::Char(b']')]).unwrap();
        let mut out = Vec::new();
        reg.get("Pdate").unwrap().write(&mut out, &v, &[], Charset::Ascii, Endian::Big).unwrap();
        assert_eq!(out, b"16/Oct/1997:14:32:22 -0700");
    }
}
