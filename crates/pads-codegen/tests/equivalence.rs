//! Compiled-vs-interpreted equivalence: the generated Rust parsers must
//! agree with the interpreting parser on values, error counts, and error
//! positions over both paper datasets (clean and injected-error data).

use pads::generated::{clf, sirius};
use pads::{descriptions, PadsParser, Value};
use pads_runtime::{BaseMask, Cursor, Mask, ParseDesc};

fn mask() -> Mask {
    Mask::all(BaseMask::CheckAndSet)
}

/// Summarises a pd for comparison: (nerr, is_ok, state as str).
fn pd_sig(pd: &ParseDesc) -> (u32, bool) {
    (pd.nerr, pd.is_ok())
}

#[test]
fn sirius_generated_parser_matches_interpreter_on_clean_data() {
    let config = pads_gen::SiriusConfig {
        records: 300,
        syntax_errors: 0,
        sort_violations: 0,
        ..pads_gen::SiriusConfig::default()
    };
    let (data, _) = pads_gen::sirius::generate(&config);
    // Interpreted.
    let schema = descriptions::sirius();
    let registry = pads_runtime::Registry::standard();
    let parser = PadsParser::new(&schema, &registry);
    let (iv, ipd) = parser.parse_source(&data, &mask());
    assert!(ipd.is_ok(), "{:?}", ipd.errors().first());
    // Compiled.
    let mut cur = Cursor::new(&data);
    let (gv, gpd) = sirius::parse_source(&mut cur, &mask());
    assert!(gpd.is_ok(), "{:?}", gpd.errors().first());
    assert_eq!(pd_sig(&ipd), pd_sig(&gpd));
    // Cross-check values record by record.
    let entries = iv.at_path("es").unwrap();
    assert_eq!(entries.len(), Some(gv.es.0.len()));
    for (i, ge) in gv.es.0.iter().enumerate() {
        let ie = entries.index(i).unwrap();
        assert_eq!(
            ie.at_path("header.order_num").and_then(Value::as_u64),
            Some(ge.header.order_num as u64),
            "record {i}"
        );
        assert_eq!(
            ie.at_path("events").unwrap().len(),
            Some(ge.events.0.len()),
            "record {i}"
        );
        for (j, gev) in ge.events.0.iter().enumerate() {
            let iev = ie.at_path(&format!("events.[{j}]")).unwrap();
            assert_eq!(iev.at_path("state").and_then(Value::as_str), Some(gev.state.as_str()));
            assert_eq!(
                iev.at_path("tstamp").and_then(Value::as_u64),
                Some(gev.tstamp as u64)
            );
        }
        assert!(ge.verify(), "record {i} verifies");
    }
}

#[test]
fn sirius_generated_parser_matches_interpreter_on_dirty_data() {
    let config = pads_gen::SiriusConfig {
        records: 400,
        syntax_errors: 7,
        sort_violations: 2,
        ..pads_gen::SiriusConfig::default()
    };
    let (data, stats) = pads_gen::sirius::generate(&config);
    let schema = descriptions::sirius();
    let registry = pads_runtime::Registry::standard();
    let parser = PadsParser::new(&schema, &registry);
    let (_, ipd) = parser.parse_source(&data, &mask());
    let mut cur = Cursor::new(&data);
    let (gv, gpd) = sirius::parse_source(&mut cur, &mask());
    // Same records materialise, same overall verdict.
    assert_eq!(gv.es.0.len(), 400);
    assert_eq!(ipd.is_ok(), gpd.is_ok());
    // Count bad elements on the generated side from the pd tree.
    fn bad_elements(pd: &ParseDesc) -> u32 {
        fn arrays(pd: &ParseDesc, out: &mut u32) {
            match &pd.kind {
                pads_runtime::PdKind::Struct { fields } => {
                    for (_, f) in fields {
                        arrays(f, out);
                    }
                }
                pads_runtime::PdKind::Array { neerr, .. } => *out += neerr,
                _ => {}
            }
        }
        let mut out = 0;
        arrays(pd, &mut out);
        out
    }
    assert_eq!(
        bad_elements(&gpd),
        (stats.syntax_error_records.len() + stats.sort_violation_records.len()) as u32
    );
    assert_eq!(bad_elements(&gpd), bad_elements(&ipd));
}

#[test]
fn clf_generated_parser_matches_interpreter() {
    let config = pads_gen::ClfConfig { records: 400, ..pads_gen::ClfConfig::default() };
    let (data, stats) = pads_gen::clf::generate(&config);
    let schema = descriptions::clf();
    let registry = pads_runtime::Registry::standard();
    let parser = PadsParser::new(&schema, &registry);
    let mask = mask();
    // Record-at-a-time on both sides.
    let mut interp_bad = 0usize;
    let mut lengths_i: Vec<u64> = Vec::new();
    for (v, pd) in parser.records(&data, "entry_t", &mask) {
        if pd.is_ok() {
            lengths_i.push(v.at_path("length").and_then(Value::as_u64).unwrap());
        } else {
            interp_bad += 1;
        }
    }
    let mut gen_bad = 0usize;
    let mut lengths_g: Vec<u64> = Vec::new();
    let mut cur = Cursor::new(&data);
    while !cur.at_eof() {
        let (v, pd) = clf::EntryT::read(&mut cur, &mask);
        if pd.is_ok() {
            lengths_g.push(v.length as u64);
            assert!(v.verify());
        } else {
            gen_bad += 1;
        }
    }
    assert_eq!(interp_bad, stats.dash_lengths);
    assert_eq!(gen_bad, interp_bad);
    assert_eq!(lengths_i, lengths_g);
}

#[test]
fn clf_generated_parser_handles_figure_2_records() {
    let data = b"207.136.97.49 - - [15/Oct/1997:18:46:51 -0700] \"GET /tk/p.txt HTTP/1.0\" 200 30\ntj62.aol.com - - [16/Oct/1997:14:32:22 -0700] \"POST /scpt/dd@grp.org/confirm HTTP/1.0\" 200 941\n";
    let mut cur = Cursor::new(data);
    let m = mask();
    let (e1, pd1) = clf::EntryT::read(&mut cur, &m);
    assert!(pd1.is_ok(), "{:?}", pd1.errors());
    assert!(matches!(e1.client, clf::ClientT::Ip([207, 136, 97, 49])));
    assert!(matches!(e1.request.meth, clf::MethodT::GET));
    assert_eq!(e1.response.0, 200);
    assert_eq!(e1.length, 30);
    let (e2, pd2) = clf::EntryT::read(&mut cur, &m);
    assert!(pd2.is_ok());
    assert!(matches!(&e2.client, clf::ClientT::Host(h) if h == "tj62.aol.com"));
    assert_eq!(e2.length, 941);
    assert!(cur.at_eof());
    // Write-back round trip through the generated writer.
    let mut out = Vec::new();
    e1.write(&mut out, pads_runtime::Charset::Ascii, pads_runtime::Endian::Big).unwrap();
    e2.write(&mut out, pads_runtime::Charset::Ascii, pads_runtime::Endian::Big).unwrap();
    assert_eq!(out.as_slice(), &data[..]);
}

#[test]
fn committed_generated_modules_are_in_sync_with_the_generator() {
    let clf_src = pads_codegen::generate_rust(
        &descriptions::clf(),
        "Generated parser for the CLF web-server-log description (Figure 4).",
    )
    .unwrap();
    let sirius_src = pads_codegen::generate_rust(
        &descriptions::sirius(),
        "Generated parser for the Sirius provisioning description (Figure 5).",
    )
    .unwrap();
    let mixed_src = pads_codegen::generate_rust(
        &descriptions::mixed(),
        "Generated parser for the kitchen-sink `mixed` description.",
    )
    .unwrap();
    let committed_clf = include_str!("../../pads-core/src/generated/clf.rs");
    let committed_sirius = include_str!("../../pads-core/src/generated/sirius.rs");
    let committed_mixed = include_str!("../../pads-core/src/generated/mixed.rs");
    assert_eq!(clf_src, committed_clf, "run `cargo run -p pads-codegen --bin regen`");
    assert_eq!(sirius_src, committed_sirius, "run `cargo run -p pads-codegen --bin regen`");
    assert_eq!(mixed_src, committed_mixed, "run `cargo run -p pads-codegen --bin regen`");
}

#[test]
fn mixed_kitchen_sink_generated_parser_matches_interpreter() {
    use pads::generated::mixed as gen_mixed;
    use pads_gen::{FieldGen, GenConfig, Generator};

    let registry = pads_runtime::Registry::standard();
    let schema = descriptions::mixed();
    // Generate constraint-satisfying data (the generic generator honours
    // the Pswitch selector; constraints come from the overrides).
    let config = GenConfig { seed: 77, min_len: 0, max_len: 4, ..GenConfig::default() }
        .with_override("code", FieldGen::UintRange(1000, 9999))
        .with_override("kind", FieldGen::UintRange(0, 2))
        .with_override("nvals", FieldGen::UintRange(0, 9));
    let mut g = Generator::new(&schema, config);
    let data = g.generate_records("rec_t", 250);

    let parser = PadsParser::new(&schema, &registry);
    let (iv, ipd) = parser.parse_source(&data, &mask());
    assert!(ipd.is_ok(), "interpreter: {:?}", ipd.errors().first());

    let mut cur = Cursor::new(&data);
    let (gv, gpd) = gen_mixed::parse_source(&mut cur, &mask());
    assert!(gpd.is_ok(), "generated: {:?}", gpd.errors().first());

    assert_eq!(iv.len(), Some(gv.0.len()));
    for (i, ge) in gv.0.iter().enumerate() {
        let ie = iv.index(i).unwrap();
        assert_eq!(
            ie.at_path("code").and_then(Value::as_u64),
            Some(ge.code.0 as u64),
            "record {i}: code"
        );
        // Switched union branch agrees with the kind selector.
        let kind = ie.at_path("kind").and_then(Value::as_u64).unwrap();
        match (&ge.body, kind) {
            (gen_mixed::BodyT::Num(n), 0) => {
                assert_eq!(ie.at_path("body.num").and_then(Value::as_u64), Some(*n as u64));
            }
            (gen_mixed::BodyT::Text(t), 1) => {
                assert_eq!(ie.at_path("body.text").and_then(Value::as_str), Some(t.as_str()));
            }
            (gen_mixed::BodyT::Skip(()), 2) => {}
            (b, k) => panic!("record {i}: branch {b:?} vs kind {k}"),
        }
        // Optional parameterised pair.
        match (&ge.extra, ie.at_path("extra")) {
            (Some(p), Some(v)) => {
                assert_eq!(v.at_path("key").and_then(Value::as_str), Some(p.key.as_str()));
                let val = v.at_path("val").and_then(|x| match x {
                    Value::Prim(pads::Prim::Float(f)) => Some(*f),
                    _ => None,
                });
                assert_eq!(val, Some(p.val), "record {i}: pair value");
            }
            (None, Some(Value::Opt(None))) => {}
            other => panic!("record {i}: extra mismatch {other:?}"),
        }
        // Parameterised array length matches the nvals field.
        assert_eq!(
            ie.at_path("vals").and_then(Value::len),
            Some(ge.vals.0.len()),
            "record {i}: vals"
        );
        assert_eq!(ge.nvals as usize, ge.vals.0.len());
        assert!(ge.verify(), "record {i} verifies");
    }
}

/// Record by record, the generated `rec_t` reader and the interpreter agree
/// on the value, the descriptor and where the record ends, on hand-picked
/// records: a plain one, a code with a leading space (`Puint16_FW` reads
/// " 012" as 12, outside `code_t`'s range), an all-digit code outside the
/// range, the range's upper bound, and constraint violations on the code,
/// the kind and the number of values.
#[test]
fn mixed_constraint_violations_agree() {
    use pads::generated::mixed as gen_mixed;
    let records: [&[u8]; 6] = [
        b"1234|LOW|0|7|q01=2.5|T|2|8,9\n",
        b" 012|MED|0|7|q01=2.5|T|2|8,9\n",
        b"0042|HIGH|0|7|q01=2.5|T|2|8,9\n",
        b"9999|LOW|0|7|q01=2.5|T|0|\n",
        b"0042|LOW|0|7||0|\n",
        b"5555|MED|9|x|abc=1.5|1|3\n",
    ];
    let data = records.concat();
    let registry = pads_runtime::Registry::standard();
    let schema = descriptions::mixed();
    let parser = PadsParser::new(&schema, &registry);
    let m = mask();
    let names = gen_mixed::name_table();
    let mut arena = pads_runtime::ValueArena::new();
    let mut interp = parser.records(&data, "rec_t", &m);
    let mut cur = Cursor::new(&data);
    let mut bad = Vec::new();
    for i in 0..records.len() {
        let (iv, ipd) = interp.next().expect("interpreter record");
        let (gv, gpd) = gen_mixed::RecT::read(&mut cur, &m);
        arena.reset();
        let h = gv.to_arena(&mut arena);
        assert_eq!(pads::to_value(arena.get(h), &names), iv, "record {i}: value");
        assert_eq!(gpd, ipd, "record {i}: descriptor");
        assert_eq!(cur.offset(), interp.offset(), "record {i}: end offset");
        if !gpd.is_ok() {
            bad.push(i);
        }
    }
    assert!(interp.next().is_none() && cur.at_eof());
    assert_eq!(bad, [1, 2, 4, 5]);
}

#[test]
fn pended_arrays_agree_between_engines() {
    use pads::generated::mixed::Until0T;
    let schema = descriptions::mixed();
    let registry = pads_runtime::Registry::standard();
    let parser = PadsParser::new(&schema, &registry);
    for data in [&b"5,3,0,9"[..], b"0", b"7,7,7,0"] {
        let mut icur = parser.open(data);
        let (iv, ipd) = parser.parse_named(&mut icur, "until0_t", &[], &mask());
        let mut gcur = Cursor::new(data);
        let (gv, gpd) = Until0T::read(&mut gcur, &mask());
        assert_eq!(ipd.is_ok(), gpd.is_ok(), "{data:?}");
        assert_eq!(iv.len(), Some(gv.0.len()), "{data:?}");
        assert_eq!(icur.offset(), gcur.offset(), "both stop at the same place");
        // The sequence always ends with the 0 sentinel.
        assert_eq!(gv.0.last(), Some(&0u32), "{data:?}");
    }
}

#[test]
fn mixed_generated_write_reparses_to_the_same_representation() {
    use pads::generated::mixed as gen_mixed;
    use pads_gen::{FieldGen, GenConfig, Generator};
    let schema = descriptions::mixed();
    let config = GenConfig { seed: 909, min_len: 0, max_len: 3, ..GenConfig::default() }
        .with_override("code", FieldGen::UintRange(1000, 9999))
        .with_override("kind", FieldGen::UintRange(0, 2))
        .with_override("nvals", FieldGen::UintRange(0, 9));
    let mut g = Generator::new(&schema, config);
    let data = g.generate_records("rec_t", 120);
    let mut cur = Cursor::new(&data);
    let (v1, pd1) = gen_mixed::parse_source(&mut cur, &mask());
    assert!(pd1.is_ok(), "{:?}", pd1.errors().first());
    // Write with the generated writer, reparse, compare representations.
    // (Byte identity is not required: float text canonicalises.)
    let mut out = Vec::new();
    for rec in &v1.0 {
        rec.write(&mut out, pads_runtime::Charset::Ascii, pads_runtime::Endian::Big)
            .expect("clean records write");
    }
    let mut cur = Cursor::new(&out);
    let (v2, pd2) = gen_mixed::parse_source(&mut cur, &mask());
    assert!(pd2.is_ok(), "{:?}", pd2.errors().first());
    assert_eq!(v1, v2);
}
