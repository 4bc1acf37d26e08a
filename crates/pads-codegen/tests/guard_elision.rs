//! Every unsized array loop the generator emits keeps the runtime
//! zero-width guard, as the interpreter and the VM do: a loop whose element
//! succeeded without consuming input stops with `ArrayTermMismatch`.

use pads_runtime::Registry;

const GUARD: &str = "if cur.bit_offset() == before";

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
    assert!(clt.contains(GUARD), "CltT must keep the guard");
}

#[test]
fn unprovable_element_keeps_guard() {
    // Pstring(:',':) can match empty input; only the separator bounds the
    // loop, so the guard must survive.
    let module = generate("Psource Parray t { Pstring(:',':)[] : Psep(',') && Pterm(Peor); };");
    assert!(module.contains(GUARD));
}

#[test]
fn every_unsized_loop_of_the_bundled_modules_keeps_guard() {
    for name in ["clf.pads", "sirius.pads", "mixed.pads"] {
        let module = generate(&read_description(name));
        // Every array loop opens with `let before`; a sized one reads its
        // count into `want` and has no guard.
        let loops = module.matches("let before = cur.bit_offset();").count();
        let sized = module.matches("let want: usize").count();
        assert!(loops > sized, "{name} has an unsized array");
        assert_eq!(module.matches(GUARD).count(), loops - sized, "{name}");
    }
}
