//! Ambient-coding coverage: the same description parsing ASCII, EBCDIC,
//! and binary data (§3's coding-ambiguous base types), plus binary
//! call-detail-style fixed-width records (Figure 1).

use pads::{
    BaseMask, Charset, Endian, Engine, Mask, PadsParser, ParseOptions, RecordDiscipline, Registry, Value,
    Writer,
};

#[test]
fn same_description_reads_ascii_and_ebcdic() {
    // `Puint32`/`Pstring` use the *ambient* coding.
    let registry = Registry::standard();
    let schema = pads::compile(
        "Precord Pstruct r_t { Puint32 n; ','; Pstring(:',':) tag; }; Psource Parray rs_t { r_t[]; };",
        &registry,
    )
    .unwrap();
    let ascii = b"42,west\n7,east\n".to_vec();
    let ebcdic: Vec<u8> = ascii.iter().map(|&b| Charset::Ebcdic.encode(b)).collect();

    let p_ascii = PadsParser::new(&schema, &registry);
    let (va, pda) = p_ascii.parse_source(&ascii, &Mask::all(BaseMask::CheckAndSet));
    assert!(pda.is_ok());

    let p_ebcdic = PadsParser::new(&schema, &registry).with_options(ParseOptions {
        charset: Charset::Ebcdic,
        ..Default::default()
    });
    let (ve, pde) = p_ebcdic.parse_source(&ebcdic, &Mask::all(BaseMask::CheckAndSet));
    assert!(pde.is_ok(), "{:?}", pde.errors());

    // Identical logical values from both codings.
    assert_eq!(va, ve);
    assert_eq!(va.at_path("[0].tag").and_then(Value::as_str), Some("west"));

    // And writing back in EBCDIC reproduces the EBCDIC bytes.
    let w = Writer::new(&schema, &registry).with_options(ParseOptions {
        charset: Charset::Ebcdic,
        ..Default::default()
    });
    assert_eq!(w.write_source(&ve).unwrap(), ebcdic);
}

#[test]
fn binary_call_detail_fixed_width_records() {
    // Figure 1: call detail is fixed-width binary records (~7 GB/day). A
    // minimal analogue: caller (4B), callee (4B), duration (2B), flags (1B).
    let registry = Registry::standard();
    let schema = pads::compile(
        r#"
        Precord Pstruct call_t {
            Pb_uint32 caller;
            Pb_uint32 callee;
            Pb_uint16 duration;
            Pb_uint8 flags : flags <= 3;
        };
        Psource Parray calls_t { call_t[]; };
        "#,
        &registry,
    )
    .unwrap();
    let mut data = Vec::new();
    for (a, b, d, f) in [(0x01020304u32, 0x0A0B0C0Du32, 65u16, 1u8), (7, 8, 9, 3)] {
        data.extend_from_slice(&a.to_be_bytes());
        data.extend_from_slice(&b.to_be_bytes());
        data.extend_from_slice(&d.to_be_bytes());
        data.push(f);
    }
    let parser = PadsParser::new(&schema, &registry).with_options(ParseOptions {
        discipline: RecordDiscipline::FixedWidth(11),
        endian: Endian::Big,
        ..Default::default()
    });
    let (v, pd) = parser.parse_source(&data, &Mask::all(BaseMask::CheckAndSet));
    assert!(pd.is_ok(), "{:?}", pd.errors());
    assert_eq!(v.len(), Some(2));
    assert_eq!(v.at_path("[0].caller").and_then(Value::as_u64), Some(0x01020304));
    assert_eq!(v.at_path("[1].duration").and_then(Value::as_u64), Some(9));

    // Little-endian ambient order decodes differently, same description.
    let parser_le = PadsParser::new(&schema, &registry).with_options(ParseOptions {
        discipline: RecordDiscipline::FixedWidth(11),
        endian: Endian::Little,
        ..Default::default()
    });
    let (vle, _) = parser_le.parse_source(&data, &Mask::all(BaseMask::CheckAndSet));
    assert_eq!(vle.at_path("[0].caller").and_then(Value::as_u64), Some(0x04030201));

    // Round trip.
    let w = Writer::new(&schema, &registry).with_options(ParseOptions {
        discipline: RecordDiscipline::FixedWidth(11),
        endian: Endian::Big,
        ..Default::default()
    });
    assert_eq!(w.write_source(&v).unwrap(), data);
}

#[test]
fn flags_constraint_fires_on_binary_data() {
    let registry = Registry::standard();
    let schema = pads::compile(
        r#"
        Precord Pstruct call_t { Pb_uint8 flags : flags <= 3; };
        Psource Parray calls_t { call_t[]; };
        "#,
        &registry,
    )
    .unwrap();
    let parser = PadsParser::new(&schema, &registry).with_options(ParseOptions {
        discipline: RecordDiscipline::FixedWidth(1),
        ..Default::default()
    });
    let (_, pd) = parser.parse_source(&[1u8, 9, 2], &Mask::all(BaseMask::CheckAndSet));
    let errors = pd.errors();
    assert_eq!(errors.len(), 1);
    assert!(errors[0].0.starts_with("[1]"));
    assert!(errors[0].1.is_semantic());
}

#[test]
fn mixed_text_and_binary_in_one_record() {
    // Figure 1 mentions mixed formats; a tag string followed by a binary
    // counter in the same record.
    let registry = Registry::standard();
    let schema = pads::compile(
        r#"
        Precord Pstruct mix_t { Pstring_FW(:3:) tag; Pb_uint16 count; };
        Psource Parray mixes_t { mix_t[]; };
        "#,
        &registry,
    )
    .unwrap();
    let data = [b'a', b'b', b'c', 0x01, 0x00];
    let parser = PadsParser::new(&schema, &registry).with_options(ParseOptions {
        discipline: RecordDiscipline::FixedWidth(5),
        ..Default::default()
    });
    let (v, pd) = parser.parse_source(&data, &Mask::all(BaseMask::CheckAndSet));
    assert!(pd.is_ok());
    assert_eq!(v.at_path("[0].tag").and_then(Value::as_str), Some("abc"));
    assert_eq!(v.at_path("[0].count").and_then(Value::as_u64), Some(256));
}

#[test]
fn bit_fields_parse_packet_headers() {
    // §9 future work, delivered: an IPv4-style header start — version (4
    // bits), IHL (4 bits), DSCP (6 bits), ECN (2 bits), total length
    // (16 bits) — parsed straight from the description.
    let registry = Registry::standard();
    let schema = pads::compile(
        r#"
        Precord Pstruct iphdr_t {
            Pbits(:4:) version : version == 4;
            Pbits(:4:) ihl : ihl >= 5;
            Pbits(:6:) dscp;
            Pbits(:2:) ecn;
            Pbits(:16:) total_len;
        };
        Psource Parray hdrs_t { iphdr_t[]; };
        "#,
        &registry,
    )
    .unwrap();
    // 0x45 = version 4, IHL 5; 0x00 = dscp 0, ecn 0; 0x05DC = 1500.
    let data = [0x45u8, 0x00, 0x05, 0xDC, 0x46, 0x08, 0x00, 0x28];
    let parser = PadsParser::new(&schema, &registry).with_options(ParseOptions {
        discipline: RecordDiscipline::FixedWidth(4),
        ..Default::default()
    });
    let (v, pd) = parser.parse_source(&data, &Mask::all(BaseMask::CheckAndSet));
    assert!(pd.is_ok(), "{:?}", pd.errors());
    assert_eq!(v.len(), Some(2));
    assert_eq!(v.at_path("[0].version").and_then(Value::as_u64), Some(4));
    assert_eq!(v.at_path("[0].ihl").and_then(Value::as_u64), Some(5));
    assert_eq!(v.at_path("[0].total_len").and_then(Value::as_u64), Some(1500));
    assert_eq!(v.at_path("[1].dscp").and_then(Value::as_u64), Some(0b000010));
    assert_eq!(v.at_path("[1].total_len").and_then(Value::as_u64), Some(40));
    // Constraints on bit fields work like any other.
    let bad = [0x65u8, 0x00, 0x00, 0x14]; // version 6
    let (_, pd) = parser.parse_source(&bad, &Mask::all(BaseMask::CheckAndSet));
    assert!(pd.errors().iter().any(|(p, c, _)| p.contains("version") && c.is_semantic()));
}

#[test]
fn unsized_array_of_sub_byte_bit_fields_reads_every_field() {
    // Two 4-bit fields per one-byte record: the array must stop at the
    // record end, not one field early because the half-read byte looked
    // consumed.
    let registry = Registry::standard();
    let schema = pads::compile(
        "Precord Parray r_t { Pbits(:4:)[] : Pterm(Peor); };\n\
         Psource Parray t { r_t[] : Pterm(Peof); };",
        &registry,
    )
    .unwrap();
    for engine in [Engine::Interp, Engine::Vm] {
        let parser = PadsParser::new(&schema, &registry)
            .with_options(ParseOptions { engine, ..Default::default() });
        let (v, pd) = parser.parse_source(b"\xab\n\xcd\n", &Mask::all(BaseMask::CheckAndSet));
        assert!(pd.is_ok(), "{engine:?}: {:?}", pd.errors());
        let Value::Array(records) = &v else { panic!("{engine:?}: {v:?}") };
        let nibbles: Vec<Vec<u64>> = records
            .iter()
            .map(|r| match r {
                Value::Array(fields) => fields.iter().filter_map(Value::as_u64).collect(),
                other => panic!("{engine:?}: {other:?}"),
            })
            .collect();
        assert_eq!(nibbles, vec![vec![0xa, 0xb], vec![0xc, 0xd]], "{engine:?}");
    }
}

#[test]
fn bit_fields_that_end_mid_byte_pad_to_the_byte() {
    // Unread bits of the last partly read byte are padding, as in C bit
    // fields: neither the record close nor the source close sees them as
    // leftover data, and a `Peor` literal matches in front of them.
    let registry = Registry::standard();
    let cases: [(&str, &[u8], RecordDiscipline); 4] = [
        (
            "Precord Pstruct r_t { Pbits(:4:) a; };\nPsource Parray t { r_t[]; };",
            b"\xab\n\xcd\n",
            RecordDiscipline::Newline,
        ),
        (
            "Precord Pstruct r_t { Pbits(:4:) a; Pbits(:8:) b; };\nPsource Parray t { r_t[]; };",
            b"\xab\xcd\xef\x01",
            RecordDiscipline::FixedWidth(2),
        ),
        (
            "Precord Pstruct r_t { Pbits(:4:) a; Peor; };\nPsource Parray t { r_t[]; };",
            b"\xab\n",
            RecordDiscipline::Newline,
        ),
        ("Psource Pstruct t { Pbits(:4:) hi; };", b"\xab", RecordDiscipline::Newline),
    ];
    for (src, data, discipline) in cases {
        let schema = pads::compile(src, &registry).unwrap();
        for engine in [Engine::Interp, Engine::Vm] {
            let parser = PadsParser::new(&schema, &registry)
                .with_options(ParseOptions { engine, discipline, ..Default::default() });
            let (_, pd) = parser.parse_source(data, &Mask::all(BaseMask::CheckAndSet));
            assert!(pd.is_ok(), "{engine:?} over {src}: {:?}", pd.errors());
        }
    }
}
