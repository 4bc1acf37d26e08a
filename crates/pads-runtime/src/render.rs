//! Text forms of primitive values, appended to a byte buffer.
//!
//! Every printed [`Prim`] and [`PDate`] comes from here: the XML sink calls
//! these functions directly, and `Display for Prim`, `Display for PDate`
//! and [`PDate::to_original`] wrap them, so the accumulator report, `pads
//! fmt` and anything else that formats a value print the same bytes. A
//! form is written digit by digit into a `Vec<u8>`, with no `core::fmt`
//! and no allocation once the buffer has grown. Floats are the exception:
//! they go through core's `{}`.

use std::cell::RefCell;
use std::fmt;
use std::io::Write as _;

use crate::date::{civil_from_epoch, DateStyle, PDate, MONTHS};
use crate::prim::Prim;

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Appends the text form of `p`.
pub fn prim(out: &mut Vec<u8>, p: &Prim) {
    match p {
        Prim::Unit => {}
        Prim::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        Prim::Char(c) => {
            let mut utf8 = [0; 2];
            out.extend_from_slice(char::from(*c).encode_utf8(&mut utf8).as_bytes());
        }
        Prim::Int(v) => int(out, *v, 0),
        Prim::Uint(v) => uint(out, *v, 0),
        // Writing into a `Vec` cannot fail.
        Prim::Float(v) => drop(write!(out, "{v}")),
        Prim::String(s) => out.extend_from_slice(s.as_bytes()),
        Prim::Bytes(bytes) => {
            for &b in bytes {
                out.extend_from_slice(&[b'\\', b'x', HEX[usize::from(b >> 4)], HEX[usize::from(b & 15)]]);
            }
        }
        Prim::Ip([a, b, c, d]) => {
            for (i, octet) in [a, b, c, d].into_iter().enumerate() {
                if i > 0 {
                    out.push(b'.');
                }
                uint(out, u64::from(*octet), 0);
            }
        }
        Prim::Date(d) => date(out, d),
    }
}

/// Appends `d` in its original on-disk style.
pub fn date(out: &mut Vec<u8>, d: &PDate) {
    match d.style {
        DateStyle::Clf => {
            let local = civil_from_epoch(d.epoch + d.tz_minutes as i64 * 60);
            two(out, local.day);
            out.push(b'/');
            out.extend_from_slice(MONTHS[(local.month - 1) as usize].as_bytes());
            out.push(b'/');
            int(out, local.year, 4);
            for part in [local.hour, local.minute, local.second] {
                out.push(b':');
                two(out, part);
            }
            out.extend_from_slice(if d.tz_minutes < 0 { b" -" } else { b" +" });
            let abs = d.tz_minutes.unsigned_abs();
            two(out, abs / 60);
            two(out, abs % 60);
        }
        DateStyle::IsoDateTime | DateStyle::IsoDate => {
            let c = civil_from_epoch(d.epoch);
            int(out, c.year, 4);
            out.push(b'-');
            two(out, c.month);
            out.push(b'-');
            two(out, c.day);
            if d.style == DateStyle::IsoDateTime {
                out.push(b'T');
                two(out, c.hour);
                for part in [c.minute, c.second] {
                    out.push(b':');
                    two(out, part);
                }
            }
        }
        DateStyle::UsSlash => {
            let c = civil_from_epoch(d.epoch);
            two(out, c.month);
            out.push(b'/');
            two(out, c.day);
            out.push(b'/');
            int(out, c.year, 4);
        }
        DateStyle::Epoch => int(out, d.epoch, 0),
    }
}

/// `{:02}` of a calendar field.
fn two(out: &mut Vec<u8>, v: u32) {
    uint(out, u64::from(v), 2);
}

/// Appends `v` in decimal, zero-padded to `width` digits (`{:0width$}`).
#[inline]
pub fn uint(out: &mut Vec<u8>, mut v: u64, width: usize) {
    let mut digits = [0; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let len = digits.len() - at;
    out.resize(out.len() + width.saturating_sub(len), b'0');
    out.extend_from_slice(&digits[at..]);
}

/// Appends `v` in decimal, zero-padded to `width` characters, the sign
/// included (`{:0width$}`).
#[inline]
pub fn int(out: &mut Vec<u8>, v: i64, width: usize) {
    if v < 0 {
        out.push(b'-');
        uint(out, v.unsigned_abs(), width.saturating_sub(1));
    } else {
        uint(out, v.unsigned_abs(), width);
    }
}

/// Hands what `render` appends to `f`: how the `Display` impls reach this
/// module. The bytes go through one buffer per thread, reused, so a
/// `to_string` allocates only its `String`.
pub(crate) fn display(f: &mut fmt::Formatter<'_>, render: impl FnOnce(&mut Vec<u8>)) -> fmt::Result {
    thread_local! {
        static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }
    let mut render = Some(render);
    let mut emit = |buf: &mut Vec<u8>| {
        buf.clear();
        if let Some(render) = render.take() {
            render(buf);
        }
        f.write_str(std::str::from_utf8(buf).map_err(|_| fmt::Error)?)
    };
    // A value displayed while the buffer is in use (from inside the
    // formatter's own writer) or after the thread's locals are gone gets a
    // buffer of its own.
    SCRATCH
        .try_with(|scratch| match scratch.try_borrow_mut() {
            Ok(mut buf) => emit(&mut buf),
            Err(_) => emit(&mut Vec::new()),
        })
        .unwrap_or_else(|_| emit(&mut Vec::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(render: impl FnOnce(&mut Vec<u8>)) -> String {
        let mut out = Vec::new();
        render(&mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn integers_match_core_padding() {
        for v in [0u64, 7, 10, 99, 12345, u64::MAX] {
            for w in [0, 2, 4] {
                assert_eq!(text(|o| uint(o, v, w)), format!("{v:0w$}"));
            }
        }
        for v in [0i64, -1, -5, 42, -1234, 99999, i64::MIN, i64::MAX] {
            for w in [0, 2, 4] {
                assert_eq!(text(|o| int(o, v, w)), format!("{v:0w$}"));
            }
        }
    }

    #[test]
    fn every_form_matches_core_fmt() {
        let prims = [
            Prim::Unit,
            Prim::Bool(true),
            Prim::Bool(false),
            Prim::Char(b'-'),
            Prim::Char(0xe9),
            Prim::Int(-17),
            Prim::Uint(200),
            Prim::Float(2.5),
            Prim::String("a<b".into()),
            Prim::Bytes(vec![0x00, 0xde, 0xad, 0xff]),
            Prim::Ip([135, 207, 23, 32]),
        ];
        let want = [
            "", "true", "false", "-", "\u{e9}", "-17", "200", "2.5", "a<b",
            "\\x00\\xde\\xad\\xff", "135.207.23.32",
        ];
        for (p, want) in prims.iter().zip(want) {
            assert_eq!(text(|o| prim(o, p)), want);
            assert_eq!(p.to_string(), want);
        }
    }

    #[test]
    fn every_date_style_matches_core_fmt() {
        let c = |epoch: i64| civil_from_epoch(epoch);
        for epoch in [0i64, 876_966_411, -86_400 * 800_000, 253_402_300_799, 253_402_300_800] {
            for tz in [0i32, -420, 330, -5999] {
                let local = c(epoch + tz as i64 * 60);
                let abs = tz.unsigned_abs();
                let sign = if tz < 0 { '-' } else { '+' };
                let clf = format!(
                    "{:02}/{}/{:04}:{:02}:{:02}:{:02} {}{:02}{:02}",
                    local.day,
                    MONTHS[(local.month - 1) as usize],
                    local.year,
                    local.hour,
                    local.minute,
                    local.second,
                    sign,
                    abs / 60,
                    abs % 60
                );
                let d = PDate { epoch, tz_minutes: tz, style: DateStyle::Clf };
                assert_eq!(text(|o| date(o, &d)), clf);
            }
            let u = c(epoch);
            let styles = [
                (
                    DateStyle::IsoDateTime,
                    format!(
                        "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}",
                        u.year, u.month, u.day, u.hour, u.minute, u.second
                    ),
                ),
                (DateStyle::IsoDate, format!("{:04}-{:02}-{:02}", u.year, u.month, u.day)),
                (DateStyle::UsSlash, format!("{:02}/{:02}/{:04}", u.month, u.day, u.year)),
                (DateStyle::Epoch, epoch.to_string()),
            ];
            for (style, want) in styles {
                let d = PDate { epoch, tz_minutes: 0, style };
                assert_eq!(text(|o| date(o, &d)), want);
                assert_eq!(d.to_original(), want);
                assert_eq!(Prim::Date(d).to_string(), want);
            }
        }
    }

    #[test]
    fn display_inside_display_gets_its_own_buffer() {
        struct Outer;
        impl fmt::Display for Outer {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                display(f, |out| out.extend_from_slice(Prim::Uint(7).to_string().as_bytes()))
            }
        }
        assert_eq!(Outer.to_string(), "7");
    }
}
