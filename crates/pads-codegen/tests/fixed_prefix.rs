//! A struct that leads with fixed-width members invites a shortcut: check
//! the whole prefix at fixed offsets and commit it with one cursor advance.
//! Generated parsers take no such shortcut; every member goes through the
//! member loop. Over the whole source, the generated parser must keep
//! agreeing with the interpreter on the records a shortcut would get wrong.
//! (`equivalence.rs::mixed_constraint_violations_agree` compares the same
//! records one `rec_t` read at a time.)

use pads::descriptions;
use pads_runtime::{BaseMask, Cursor, Mask, Registry};

#[test]
fn fast_path_and_member_loop_agree_on_hits_misses_and_constraint_failures() {
    // Inputs that would hit a shortcut, miss it syntactically (non-digit
    // code bytes — FW fields tolerate leading spaces, so " 012" must still
    // parse to 12), and miss it semantically (all-digit code outside the
    // typedef range). Values and error counts must match the interpreter.
    use pads::generated::mixed as gen_mixed;
    use pads::PadsParser;

    let mut data = Vec::new();
    data.extend_from_slice(b"1234|LOW|0|7|q01=2.5|T|2|8,9\n"); // hit
    data.extend_from_slice(b" 012|MED|0|7|q01=2.5|T|2|8,9\n"); // non-digit byte: FW space rule
    data.extend_from_slice(b"0042|HIGH|0|7|q01=2.5|T|2|8,9\n"); // all digits, constraint fails
    data.extend_from_slice(b"9999|LOW|0|7|q01=2.5|T|0|\n"); // boundary hit
    let data = &data[..];
    let mask = Mask::all(BaseMask::CheckAndSet);
    let schema = descriptions::mixed();
    let registry = Registry::standard();
    let parser = PadsParser::new(&schema, &registry);
    let (iv, ipd) = parser.parse_source(data, &mask);
    let mut cur = Cursor::new(data);
    let (gv, gpd) = gen_mixed::parse_source(&mut cur, &mask);
    assert_eq!(ipd.nerr, gpd.nerr);
    assert_eq!(ipd.is_ok(), gpd.is_ok());
    assert_eq!(iv.len(), Some(gv.0.len()));
    assert_eq!(gv.0.len(), 4);
    assert!(cur.at_eof());
    // Record 1: " 012" parses to 12 but fails the 1000..=9999 typedef
    // constraint on both engines. Record 2: leading zero, 42 fails the
    // constraint identically.
    let codes: Vec<u16> = gv.0.iter().map(|r| r.code.0).collect();
    assert_eq!(codes, vec![1234, 12, 42, 9999]);
    for (i, r) in gv.0.iter().enumerate() {
        use pads::Value;
        let ie = iv.index(i).unwrap();
        assert_eq!(
            ie.at_path("code").and_then(Value::as_u64),
            Some(r.code.0 as u64),
            "record {i}"
        );
    }
}
