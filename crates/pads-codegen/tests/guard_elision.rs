//! Every unsized array loop a generated module runs keeps the zero-width
//! guard, as the interpreter's does: a loop whose element succeeded without
//! consuming input stops with `ArrayTermMismatch`. A generated module has
//! no array loop of its own; each array reads through the runtime's
//! `read_array`, the loop the VM runs too, and passes no size when the
//! array is unsized, which is what arms the guard.

use pads_runtime::rules::{read_array, ArrayShape, Lit};
use pads_runtime::{BaseMask, Cursor, ErrorCode, Mask, ParseDesc, RecordDiscipline, Registry};

/// The call an unsized array's `read` makes.
const UNSIZED: &str = "read_array(cur, mask, &SHAPE, None,";

fn generate(src: &str) -> String {
    let schema = pads_check::compile(src, &Registry::standard()).expect("compiles");
    pads_codegen::generate_rust(&schema, "test.pads").expect("generates")
}

fn read_description(name: &str) -> String {
    let path = format!("{}/../../descriptions/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).expect("description exists")
}

#[test]
fn clf_record_array_keeps_guard() {
    let module = generate(&read_description("clf.pads"));
    let clt = module
        .split("impl<'d> CltT<'d>")
        .nth(1)
        .and_then(|s| s.split("\nimpl").next())
        .expect("CltT impl present");
    assert!(clt.contains(UNSIZED), "CltT must read through the guarded loop");
}

#[test]
fn unprovable_element_keeps_guard() {
    // Pstring(:',':) can match empty input; only the separator bounds the
    // loop, so the guard must survive.
    let module = generate("Psource Parray t { Pstring(:',':)[] : Psep(',') && Pterm(Peor); };");
    assert!(module.contains(UNSIZED));
    // The loop it calls stops on an element that consumed nothing.
    let mut cur = Cursor::new(b"abc").with_discipline(RecordDiscipline::None);
    let shape =
        ArrayShape { sep: Some(Lit::Char(b',')), term: None, elem_recovers: false, forall: false };
    let mask = Mask::all(BaseMask::CheckAndSet);
    let empty = |_: &mut Cursor<'_>, _: &Mask| ((), ParseDesc::ok());
    let (elts, pd) = read_array(&mut cur, &mask, &shape, None, empty, |_| false, |_| Ok(true));
    assert_eq!((elts.len(), pd.err_code), (1, ErrorCode::ArrayTermMismatch));
}

#[test]
fn every_unsized_loop_of_the_bundled_modules_keeps_guard() {
    for name in ["clf.pads", "sirius.pads", "mixed.pads"] {
        let module = generate(&read_description(name));
        let arrays = module.matches("(Parray).").count();
        assert_eq!(module.matches("read_array(").count(), arrays, "{name}: an array of its own");
        assert!(!module.contains("loop {"), "{name}: a loop of its own");
        assert!(module.contains(UNSIZED), "{name} has an unsized array");
    }
}
