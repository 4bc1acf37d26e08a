//! Regenerates the committed `pads::generated` modules
//! ([`pads_codegen::COMMITTED`]). Run after changing the code generator:
//!
//! ```text
//! cargo run -p pads-codegen --bin regen
//! ```
//!
//! The descriptions are compiled here from their `.pads` files directly
//! (not through the `pads` crate), so regeneration works even while the
//! committed generated modules do not compile.

use std::path::Path;

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = root.join("crates/pads-core/src/generated");
    let registry = pads_runtime::Registry::standard();
    for (module, description) in pads_codegen::COMMITTED {
        let src = std::fs::read_to_string(root.join(description))
            .unwrap_or_else(|e| panic!("read {description}: {e}"));
        let schema = pads_check::compile(&src, &registry)
            .unwrap_or_else(|e| panic!("{description} compiles: {e:?}"));
        let header = pads_codegen::committed_header(description);
        let code = pads_codegen::generate_rust(&schema, &header)
            .unwrap_or_else(|e| panic!("{description} generates: {e}"));
        std::fs::write(out.join(module), &code).unwrap_or_else(|e| panic!("write {module}: {e}"));
        println!("wrote {} bytes ({module})", code.len());
    }
}
