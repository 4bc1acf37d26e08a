//! The generated modules against the interpreter on hand-picked corpora —
//! the paper's Figure 2, generated CLF and Sirius files clean and damaged,
//! generated and hand-written `mixed` records: each is a [`Case`] of its
//! bundled description, checked under every policy in the generated
//! columns of the contract matrix (`tests/common/contract.rs`) — every
//! descriptor and value of the whole-source parse and of each record —
//! with its paper-level facts asserted on the interpreter's truth. Then the
//! committed modules against the generator, `Pended` arrays read alone, and
//! the generated writer's round trip.

#[path = "../../../tests/common/contract.rs"]
mod contract;

use contract::bundled::{self, Bundled};
use contract::{every_policy, mask, policies, Case, Plan, Truth, ENGINES};
use pads::generated::mixed::{self as gen_mixed, Until0T};
use pads::{descriptions, PadsParser, Prim, RecoveryPolicy, Value};
use pads_runtime::{Cursor, ValueArena};

/// `data` as a case of `bundled` under every policy: both engines on one
/// thread, and the generated module's whole-source parse and record reader,
/// each truth first handed to `facts`.
fn agrees(bundled: &Bundled, name: &str, data: &[u8], facts: impl Fn(&Truth)) {
    let description = bundled.description();
    every_policy(&Case::new(name, &description, data), |truth| {
        facts(truth);
        Plan { sequential: ENGINES.to_vec(), generated: true, reader: true, ..Plan::default() }
    });
}

/// The two log lines of the paper's Figure 2.
#[test]
fn clf_generated_parser_handles_figure_2_records() {
    let data = concat!(
        "207.136.97.49 - - [15/Oct/1997:18:46:51 -0700] \"GET /tk/p.txt HTTP/1.0\" 200 30\n",
        "tj62.aol.com - - [16/Oct/1997:14:32:22 -0700] ",
        "\"POST /scpt/dd@grp.org/confirm HTTP/1.0\" 200 941\n",
    );
    agrees(&bundled::clf(), "clf figure 2", data.as_bytes(), |truth| {
        let [(e1, pd1), (e2, pd2)] = &truth.run.items[..] else { panic!("two records") };
        assert!(pd1.is_ok() && pd2.is_ok(), "{}: {pd1} {pd2}", truth.at);
        assert_eq!(e1.at_path("client.ip"), Some(&Value::Prim(Prim::Ip([207, 136, 97, 49]))));
        let meth = e1.at_path("request.meth");
        assert!(matches!(meth, Some(Value::Enum { variant, .. }) if variant == "GET"));
        assert_eq!(e1.at_path("response").and_then(Value::as_u64), Some(200));
        assert_eq!(e1.at_path("length").and_then(Value::as_u64), Some(30));
        assert_eq!(e2.at_path("client.host").and_then(Value::as_str), Some("tj62.aol.com"));
        assert_eq!(e2.at_path("length").and_then(Value::as_u64), Some(941));
    });
}

/// 400 generated CLF records, some with the dash length of §5.2: exactly
/// those are bad.
#[test]
fn clf_generated_parser_matches_interpreter() {
    let (data, stats) =
        pads_gen::clf::generate(&pads_gen::ClfConfig { records: 400, ..Default::default() });
    agrees(&bundled::clf(), "clf generated", &data, |truth| {
        if truth.policy == RecoveryPolicy::unlimited() {
            let bad = truth.run.items.iter().filter(|(_, pd)| !pd.is_ok()).count();
            assert_eq!(bad, stats.dash_lengths, "{}: bad records", truth.at);
        }
    });
}

/// A header and 300 clean Sirius records.
#[test]
fn sirius_generated_parser_matches_interpreter_on_clean_data() {
    let config = pads_gen::SiriusConfig {
        records: 300,
        syntax_errors: 0,
        sort_violations: 0,
        ..Default::default()
    };
    let (data, _) = pads_gen::sirius::generate(&config);
    agrees(&bundled::sirius(), "sirius clean", &data, |truth| {
        let whole = truth.whole.as_ref().expect("sirius streams");
        assert!(whole.pd.is_ok() && whole.records == 300, "{}: {}", truth.at, whole.pd);
    });
}

/// Forty Sirius records, ten with a syntax error and two out of order
/// (`bundled::dirty_sirius`), under every policy: unlimited, exactly the
/// damaged records are bad. (How each budget degrades on them is
/// `fault_injection.rs`'s.)
#[test]
fn sirius_generated_parser_matches_interpreter_on_dirty_data() {
    for policy in policies() {
        let (truth, damaged) = bundled::dirty_sirius(policy);
        if policy == RecoveryPolicy::unlimited() {
            let bad = truth.run.items.iter().filter(|(_, pd)| !pd.is_ok()).count();
            assert_eq!(bad, damaged, "{}: damaged records", truth.at);
        }
    }
}

/// Hand-picked `rec_t` records: a plain one, a code with a leading space
/// (`Puint16_FW` reads " 012" as 12, outside `code_t`'s range), an
/// all-digit code outside the range, the range's upper bound, and
/// constraint violations on the code, the kind and the number of values.
#[test]
fn mixed_constraint_violations_agree() {
    let records: [&[u8]; 6] = [
        b"1234|LOW|0|7|q01=2.5|T|2|8,9\n",
        b" 012|MED|0|7|q01=2.5|T|2|8,9\n",
        b"0042|HIGH|0|7|q01=2.5|T|2|8,9\n",
        b"9999|LOW|0|7|q01=2.5|T|0|\n",
        b"0042|LOW|0|7||0|\n",
        b"5555|MED|9|x|abc=1.5|1|3\n",
    ];
    agrees(&bundled::mixed(), "mixed constraints", &records.concat(), |truth| {
        if truth.policy != RecoveryPolicy::unlimited() {
            return;
        }
        let bad: Vec<usize> = (truth.run.items.iter().enumerate())
            .filter_map(|(i, (_, pd))| (!pd.is_ok()).then_some(i))
            .collect();
        assert_eq!(bad, [1, 2, 4, 5], "{}", truth.at);
    });
}

/// 250 generated records with in-range codes, kinds and counts: every
/// branch of the switched union, present and absent optional pairs,
/// parameterised arrays of every length.
#[test]
fn mixed_kitchen_sink_generated_parser_matches_interpreter() {
    let mixed = bundled::mixed();
    let config = pads_gen::GenConfig { seed: 77, min_len: 0, max_len: 4, ..Default::default() }
        .with_override("code", pads_gen::FieldGen::UintRange(1000, 9999))
        .with_override("kind", pads_gen::FieldGen::UintRange(0, 2))
        .with_override("nvals", pads_gen::FieldGen::UintRange(0, 9));
    let data = pads_gen::Generator::new(&mixed.schema, config).generate_records("rec_t", 250);
    agrees(&mixed, "mixed generated", &data, |truth| {
        let whole = truth.whole.as_ref().expect("mixed streams");
        assert!(whole.pd.is_ok() && whole.records == 250, "{}: {}", truth.at, whole.pd);
    });
}

/// `tests/descriptions/operators.pads`, each operator of the expression
/// language at an edge where the generated modules once coerced to `i64`,
/// clean and damaged, under every policy in every column the generated
/// module's included: every tier gives the interpreter's verdict, and the
/// evaluation errors are where the interpreter puts them.
#[test]
fn operators_agree_in_every_column() {
    use pads::ErrorCode::{ConstraintViolation, EvalError, ForallViolation};
    let [clean, damaged] = &contract::figure1::operators().cells()[..] else {
        panic!("two corpora")
    };
    assert!(clean.run.items.iter().all(|(_, pd)| pd.is_ok()), "{}: all clean", clean.at);
    let first = |(_, pd): &(Value, pads::ParseDesc)| {
        pd.errors().first().map(|(path, code, _)| (path.clone(), *code))
    };
    let want = [
        ("probe.quot.b", EvalError),
        ("probe.big.c", ConstraintViolation),
        ("probe.frac.f", ConstraintViolation),
        ("probe.opt.y", EvalError),
        ("probe.sorted.s", EvalError),
        ("probe.sorted.s", ForallViolation),
        ("probe.fun.g", ConstraintViolation),
        ("probe.sel.pick", EvalError),
        ("probe.width.w", EvalError),
        ("probe.width.w", EvalError),
    ];
    let got: Vec<_> = damaged.run.items[8..18].iter().filter_map(first).collect();
    let want: Vec<_> = want.iter().map(|(path, code)| (path.to_string(), *code)).collect();
    assert_eq!(got, want, "{}", damaged.at);
}

#[test]
fn committed_generated_modules_are_in_sync_with_the_generator() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let registry = pads_runtime::Registry::standard();
    for (module, description) in pads_codegen::COMMITTED {
        let read = |path: String| std::fs::read_to_string(&path).expect(&path);
        let schema = pads::compile(&read(format!("{root}/{description}")), &registry).unwrap();
        let header = pads_codegen::committed_header(description);
        let generated = pads_codegen::generate_rust(&schema, &header).unwrap();
        let committed = read(format!("{root}/crates/pads-core/src/generated/{module}"));
        assert_eq!(generated, committed, "{module}: run `cargo run -p pads-codegen --bin regen`");
    }
}

/// `until0_t`, a `Pended` array read alone, clean and damaged: the same
/// descriptor, value and end on both engines.
#[test]
fn pended_arrays_agree_between_engines() {
    let schema = descriptions::mixed();
    let registry = pads_runtime::Registry::standard();
    let parser = PadsParser::new(&schema, &registry);
    for data in [&b"5,3,0,9"[..], b"0", b"7,7,7,0", b"5,x,0", b"7,7", b"x"] {
        let mut icur = parser.open(data);
        let (iv, ipd) = parser.parse_named(&mut icur, "until0_t", &[], &mask());
        let mut gcur = Cursor::new(data);
        let (gv, gpd) = Until0T::read(&mut gcur, &mask());
        let mut arena = ValueArena::new();
        let root = gv.to_arena(&mut arena);
        assert_eq!(gpd, ipd, "{data:?}: descriptor");
        assert_eq!(pads::to_value(arena.get(root), &gen_mixed::name_table()), iv, "{data:?}");
        assert_eq!(icur.offset(), gcur.offset(), "{data:?}: both stop at the same place");
    }
}

#[test]
fn mixed_generated_write_reparses_to_the_same_representation() {
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
