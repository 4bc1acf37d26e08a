//! Property tests on runtime invariants: date conversions, decimal
//! encodings, base-type parse/write round trips, and EBCDIC translation.

use pads_runtime::base::Registry;
use pads_runtime::date::{civil_from_epoch, days_from_civil, epoch_from_civil, DateStyle, PDate};
use pads_runtime::io::{Cursor, RecordDiscipline};
use pads_runtime::{genrt, Charset, Endian, ErrorCode, Prim};
use proptest::prelude::*;

/// The generated parsers' inline decimal readers against the registry's
/// `Puint*`/`Pint*` (reached through `genrt::rd_prim`, the dynamic path
/// they stand in for): same value or same `ErrorCode`, same cursor offset
/// afterwards, at every width, both outside and inside an open record.
fn assert_inline_ints_match_registry(bytes: &[u8]) -> Result<(), TestCaseError> {
    for in_record in [false, true] {
        let open = || {
            let mut cur = Cursor::new(bytes);
            if in_record {
                let _ = cur.begin_record();
            } else {
                cur = cur.with_discipline(RecordDiscipline::None);
            }
            cur
        };
        for bits in [8u32, 16, 32, 64] {
            let (mut fast, mut slow) = (open(), open());
            let got = genrt::rd_uint(&mut fast, bits, None);
            let want = genrt::rd_prim(&mut slow, &format!("Puint{bits}"), &[]).map(|p| match p {
                Prim::Uint(v) => v,
                other => panic!("Puint{bits} produced {other:?}"),
            });
            prop_assert_eq!(got, want, "Puint{} on {:?} (in_record={})", bits, bytes, in_record);
            prop_assert_eq!(fast.offset(), slow.offset(), "Puint{} offset on {:?}", bits, bytes);

            let (mut fast, mut slow) = (open(), open());
            let got = genrt::rd_int(&mut fast, bits, None);
            let want = genrt::rd_prim(&mut slow, &format!("Pint{bits}"), &[]).map(|p| match p {
                Prim::Int(v) => v,
                other => panic!("Pint{bits} produced {other:?}"),
            });
            prop_assert_eq!(got, want, "Pint{} on {:?} (in_record={})", bits, bytes, in_record);
            prop_assert_eq!(fast.offset(), slow.offset(), "Pint{} offset on {:?}", bits, bytes);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn civil_epoch_round_trip(epoch in -2_000_000_000i64..4_000_000_000i64) {
        let c = civil_from_epoch(epoch);
        prop_assert_eq!(epoch_from_civil(&c), epoch);
        prop_assert!((1..=12).contains(&c.month));
        prop_assert!((1..=31).contains(&c.day));
        prop_assert!(c.hour < 24 && c.minute < 60 && c.second < 60);
    }

    #[test]
    fn days_civil_inverse(days in -1_000_000i64..1_000_000i64) {
        let (y, m, d) = pads_runtime::date::civil_from_days(days);
        prop_assert_eq!(days_from_civil(y, m, d), days);
    }

    #[test]
    fn date_original_form_reparses(epoch in 0i64..2_000_000_000, style_idx in 0usize..5,
                                   tz in -720i32..721) {
        let style = [
            DateStyle::Clf,
            DateStyle::IsoDateTime,
            DateStyle::IsoDate,
            DateStyle::UsSlash,
            DateStyle::Epoch,
        ][style_idx];
        // Date-only styles truncate to midnight; normalise first.
        let epoch = match style {
            DateStyle::IsoDate | DateStyle::UsSlash => epoch - epoch.rem_euclid(86_400),
            _ => epoch,
        };
        let tz_minutes = if style == DateStyle::Clf { tz } else { 0 };
        let d = PDate { epoch, tz_minutes, style };
        let text = d.to_original();
        let re = PDate::parse(&text).expect("original form must reparse");
        prop_assert_eq!(re.epoch, epoch, "style {:?} text {}", style, text);
        prop_assert_eq!(re.style, style);
        prop_assert_eq!(re.tz_minutes, tz_minutes);
    }

    #[test]
    fn zoned_round_trips(v in -99_999i64..=99_999) {
        let reg = Registry::standard();
        let ty = reg.get("Pebc_zoned").unwrap();
        let args = [Prim::Uint(5)];
        let mut out = Vec::new();
        ty.write(&mut out, &Prim::Int(v), &args, Charset::Ebcdic, Endian::Big).unwrap();
        let mut cur = Cursor::new(&out).with_discipline(RecordDiscipline::None);
        prop_assert_eq!(ty.parse(&mut cur, &args).unwrap(), Prim::Int(v));
    }

    #[test]
    fn packed_round_trips(v in -9_999_999i64..=9_999_999, extra in 0u64..3) {
        let reg = Registry::standard();
        let ty = reg.get("Ppacked").unwrap();
        let args = [Prim::Uint(7 + extra)];
        let mut out = Vec::new();
        ty.write(&mut out, &Prim::Int(v), &args, Charset::Ebcdic, Endian::Big).unwrap();
        let mut cur = Cursor::new(&out).with_discipline(RecordDiscipline::None);
        prop_assert_eq!(ty.parse(&mut cur, &args).unwrap(), Prim::Int(v));
    }

    #[test]
    fn text_uints_round_trip(v in any::<u32>()) {
        let reg = Registry::standard();
        let ty = reg.get("Puint32").unwrap();
        let mut out = Vec::new();
        ty.write(&mut out, &Prim::Uint(v as u64), &[], Charset::Ascii, Endian::Big).unwrap();
        let mut cur = Cursor::new(&out).with_discipline(RecordDiscipline::None);
        prop_assert_eq!(ty.parse(&mut cur, &[]).unwrap(), Prim::Uint(v as u64));
    }

    #[test]
    fn binary_ints_round_trip(v in any::<i64>(), width_idx in 0usize..4, le in any::<bool>()) {
        let bits = [8, 16, 32, 64][width_idx];
        let v = if bits < 64 {
            v.rem_euclid(1i64 << (bits - 1)) - (1i64 << (bits - 2))
        } else {
            v
        };
        let reg = Registry::standard();
        let name = format!("Pb_int{bits}");
        let ty = reg.get(&name).unwrap();
        let endian = if le { Endian::Little } else { Endian::Big };
        let mut out = Vec::new();
        ty.write(&mut out, &Prim::Int(v), &[], Charset::Ascii, endian).unwrap();
        prop_assert_eq!(out.len(), bits / 8);
        let mut cur = Cursor::new(&out)
            .with_discipline(RecordDiscipline::None)
            .with_endian(endian);
        prop_assert_eq!(ty.parse(&mut cur, &[]).unwrap(), Prim::Int(v));
    }

    #[test]
    fn ebcdic_translation_is_bijective_on_printables(bytes in proptest::collection::vec(0x20u8..0x7f, 0..64)) {
        let enc: Vec<u8> = bytes.iter().map(|&b| Charset::Ebcdic.encode(b)).collect();
        let dec: Vec<u8> = enc.iter().map(|&b| Charset::Ebcdic.decode(b)).collect();
        prop_assert_eq!(dec, bytes);
    }

    #[test]
    fn strings_round_trip_through_terminated_form(
        s in "[a-zA-Z0-9 ._-]{0,40}",
        cs_ebcdic in any::<bool>(),
    ) {
        let cs = if cs_ebcdic { Charset::Ebcdic } else { Charset::Ascii };
        let reg = Registry::standard();
        let ty = reg.get("Pstring").unwrap();
        let args = [Prim::Char(b'|')];
        let mut out = Vec::new();
        ty.write(&mut out, &Prim::String(s.clone()), &args, cs, Endian::Big).unwrap();
        out.push(cs.encode(b'|'));
        let mut cur = Cursor::new(&out).with_discipline(RecordDiscipline::None).with_charset(cs);
        prop_assert_eq!(ty.parse(&mut cur, &args).unwrap(), Prim::String(s));
    }

    #[test]
    fn inline_int_readers_match_registry_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        assert_inline_ints_match_registry(&bytes)?;
    }

    // Digit-heavy strings reach what random bytes almost never do: width
    // limits, the 20-digit u64 overflow, signs, embedded record ends.
    #[test]
    fn inline_int_readers_match_registry_on_numeric_text(
        bytes in proptest::collection::vec(
            proptest::sample::select(b"00112233445566778899-+ \n".to_vec()), 0..26),
    ) {
        assert_inline_ints_match_registry(&bytes)?;
    }
}

#[test]
fn inline_int_readers_match_registry_at_the_width_limits() {
    for text in [
        "255", "256", "65535", "65536", "4294967295", "4294967296",
        "18446744073709551615", "18446744073709551616", "127", "128", "-128", "-129",
        "32767", "-32768", "-32769", "2147483647", "-2147483648", "-2147483649",
        "9223372036854775807", "9223372036854775808", "-9223372036854775808",
        "-9223372036854775809", "+7", "-", "+", "", "-x", "007",
    ] {
        assert_inline_ints_match_registry(text.as_bytes()).unwrap_or_else(|e| panic!("{e:?}"));
    }
    // The error the inline path reports for "no digits" is the registry's.
    let mut cur = Cursor::new(b"x");
    assert_eq!(genrt::rd_uint(&mut cur, 32, None), Err(ErrorCode::InvalidDigit));
}
