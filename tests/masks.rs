//! Mask semantics across the system: the application-specific-cost knob of
//! §3/§4 (motivated by the Hancock call-detail streams in §5.1.2).

use pads::{descriptions, BaseMask, Mask, PadsParser, Registry};

fn sirius_with_violations() -> Vec<u8> {
    let config = pads_gen::SiriusConfig {
        records: 100,
        syntax_errors: 0,
        sort_violations: 10,
        ..pads_gen::SiriusConfig::default()
    };
    pads_gen::sirius::generate(&config).0
}

#[test]
fn check_and_set_catches_all_injected_violations() {
    let schema = descriptions::sirius();
    let registry = Registry::standard();
    let parser = PadsParser::new(&schema, &registry);
    let data = sirius_with_violations();
    let (_, pd) = parser.parse_source(&data, &Mask::all(BaseMask::CheckAndSet));
    let forall = pd
        .errors()
        .iter()
        .filter(|(_, c, _)| *c == pads::ErrorCode::ForallViolation)
        .count();
    assert_eq!(forall, 10);
}

#[test]
fn set_mask_skips_semantic_checks_but_not_syntax() {
    let schema = descriptions::sirius();
    let registry = Registry::standard();
    let parser = PadsParser::new(&schema, &registry);
    let data = sirius_with_violations();
    // All constraint checking off: the sort violations vanish.
    let (_, pd) = parser.parse_source(&data, &Mask::all(BaseMask::Set));
    assert!(pd.is_ok(), "{:?}", pd.errors());
    // But syntax errors still surface.
    let config = pads_gen::SiriusConfig {
        records: 50,
        syntax_errors: 5,
        sort_violations: 0,
        ..pads_gen::SiriusConfig::default()
    };
    let (dirty, _) = pads_gen::sirius::generate(&config);
    let (_, pd) = parser.parse_source(&dirty, &Mask::all(BaseMask::Set));
    assert!(!pd.is_ok());
    assert!(pd.errors().iter().all(|(_, c, _)| !c.is_semantic()));
}

#[test]
fn targeted_mask_disables_one_constraint_only() {
    let schema = descriptions::clf();
    let registry = Registry::standard();
    let parser = PadsParser::new(&schema, &registry);
    // Two semantic problems: response out of range AND obsolete method
    // under HTTP/1.0.
    let data = b"1.2.3.4 - - [15/Oct/1997:18:46:51 -0700] \"LINK /x HTTP/1.0\" 999 5\n";
    let all = Mask::all(BaseMask::CheckAndSet);
    let (_, pd) = parser.parse_source(data, &all);
    assert_eq!(pd.errors().len(), 2, "{:?}", pd.errors());
    // Turn off only the response-range constraint.
    let mut m = all.clone();
    m.child_mut(pads_runtime::mask::ELT).set_at("response", BaseMask::Set);
    let (_, pd) = parser.parse_source(data, &m);
    let errors = pd.errors();
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].0.contains("request"));
}

#[test]
fn generated_parser_honours_masks_identically() {
    use pads::generated::sirius as gen_sirius;
    let data = sirius_with_violations();
    let mut cur = pads::Cursor::new(&data);
    let (_, pd) = gen_sirius::parse_source(&mut cur, &Mask::all(BaseMask::Set));
    assert!(pd.is_ok(), "compiled parser under Set mask: {:?}", pd.errors());
    let mut cur = pads::Cursor::new(&data);
    let (_, pd) = gen_sirius::parse_source(&mut cur, &Mask::all(BaseMask::CheckAndSet));
    assert!(!pd.is_ok());
}

#[test]
fn ignore_mask_still_consumes_input() {
    // Ignore means "don't check, don't promise a representation" — the
    // physical parse must still advance so later fields line up.
    let registry = Registry::standard();
    let schema = pads::compile(
        "Precord Pstruct r_t { Puint32 a; '|'; Puint32 b; }; Psource Parray rs_t { r_t[]; };",
        &registry,
    )
    .unwrap();
    let parser = PadsParser::new(&schema, &registry);
    let mut m = Mask::all(BaseMask::CheckAndSet);
    m.child_mut(pads_runtime::mask::ELT).set_at("a", BaseMask::Ignore);
    let (v, pd) = parser.parse_source(b"1|2\n3|4\n", &m);
    assert!(pd.is_ok());
    assert_eq!(v.at_path("[1].b").and_then(pads::Value::as_u64), Some(4));
}

/// Under `Check`, constraints see the value that was parsed, on every
/// engine: only `Ignore` leaves a base value at its default. A clean CLF
/// record has no error (its `response` is not checked as `0`), and the
/// Sirius corpus's 10 sort violations are all found — by the interpreter,
/// the VM and the generated module alike.
#[test]
fn check_mask_gives_one_descriptor_on_every_engine() {
    use pads::generated::{clf as gen_clf, sirius as gen_sirius};
    use pads::{Cursor, Engine, ParseDesc, ParseOptions, Schema};

    let registry = Registry::standard();
    let mask = Mask::all(BaseMask::Check);
    let verdict = |pd: &ParseDesc| (pd.state, pd.nerr, pd.errors());
    let engines = |schema: &Schema, data: &[u8]| {
        [Engine::Interp, Engine::Vm].map(|engine| {
            let parser = PadsParser::new(schema, &registry)
                .with_options(ParseOptions { engine, ..ParseOptions::default() });
            verdict(&parser.parse_source(data, &mask).1)
        })
    };

    let clean: &[u8] =
        b"207.136.97.49 - - [15/Oct/1997:18:46:51 -0700] \"GET /tk/p.txt HTTP/1.0\" 200 30\n";
    let generated = verdict(&gen_clf::parse_source(&mut Cursor::new(clean), &mask).1);
    assert_eq!(generated.1, 0, "{generated:?}");
    for (engine, got) in ["interp", "vm"].iter().zip(engines(&descriptions::clf(), clean)) {
        assert_eq!(got, generated, "clf {engine}");
    }

    let data = sirius_with_violations();
    let generated = verdict(&gen_sirius::parse_source(&mut Cursor::new(&data), &mask).1);
    let forall =
        generated.2.iter().filter(|(_, c, _)| *c == pads::ErrorCode::ForallViolation).count();
    assert_eq!(forall, 10, "{generated:?}");
    for (engine, got) in ["interp", "vm"].iter().zip(engines(&descriptions::sirius(), &data)) {
        assert_eq!(got, generated, "sirius {engine}");
    }
}
