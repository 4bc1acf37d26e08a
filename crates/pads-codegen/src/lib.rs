//! Code generation from PADS descriptions.
//!
//! The original PADS compiler (10k lines of SML on CKIT) emitted `.h`/`.c`
//! pairs implementing parsers, printers, verifiers, accumulators and more
//! (§4, §6 of the paper). This crate is its analogue for Rust:
//!
//! * [`generate_rust`] — emits a Rust module with native representation
//!   types and `read`/`write`/`verify` functions per described type,
//!   preserving the interpreter's mask and error-handling semantics (the
//!   "compile rather than interpret" performance decision of §1). Like
//!   the paper's generated C, the module links a fixed runtime library —
//!   `pads_runtime::genrt` — rather than carrying its helpers;
//! * [`expansion`] — measures the description-to-generated-code leverage
//!   ratio the paper reports for the Sirius description (68 lines → 1432 +
//!   6471 generated lines, §4).
//!
//! Generated modules for the bundled CLF and Sirius descriptions are
//! committed under `pads::generated`, compiled as part of the `pads` crate,
//! and kept in sync by a golden test plus the `regen` binary.

mod rust_gen;

pub use rust_gen::{generate_rust, CodegenError};

/// Source-expansion measurement (the §4 leverage metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expansion {
    /// Non-blank, non-comment lines in the description.
    pub description_lines: usize,
    /// Non-blank lines of generated Rust.
    pub generated_lines: usize,
}

impl Expansion {
    /// Generated lines per description line.
    pub fn ratio(&self) -> f64 {
        if self.description_lines == 0 {
            0.0
        } else {
            self.generated_lines as f64 / self.description_lines as f64
        }
    }
}

/// Computes the expansion ratio for a description and its generated module.
pub fn expansion(description: &str, generated: &str) -> Expansion {
    let description_lines = description
        .lines()
        .map(str::trim)
        .filter(|l| {
            !l.is_empty() && !l.starts_with("/*") && !l.starts_with('*') && !l.starts_with("/-")
                && !l.starts_with("//")
        })
        .count();
    let generated_lines = generated.lines().filter(|l| !l.trim().is_empty()).count();
    Expansion { description_lines, generated_lines }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pads::descriptions;

    #[test]
    fn generates_modules_for_the_paper_descriptions() {
        let clf = generate_rust(&descriptions::clf(), "CLF web server logs (Figure 4).")
            .expect("CLF generates");
        assert!(clf.contains("pub struct EntryT"));
        assert!(clf.contains("pub enum MethodT"));
        assert!(clf.contains("pub fn chkVersion") || clf.contains("pub fn chk_version")
            || clf.contains("pub fn chkversion"), "{}", &clf[..500]);
        let sirius = generate_rust(&descriptions::sirius(), "Sirius provisioning (Figure 5).")
            .expect("Sirius generates");
        assert!(sirius.contains("pub struct OrderHeaderT"));
        assert!(sirius.contains("pub struct EventSeq"));
        assert!(sirius.contains("forall: true"), "eventSeq's Pforall is a Pforall");
    }

    #[test]
    fn expansion_ratio_is_substantial() {
        // §4: 68-line Sirius description → 1432-line .h + 6471-line .c.
        // The exact numbers are C-specific; the *leverage* (dozens of
        // generated lines per description line) is the reproducible claim.
        let desc = descriptions::SIRIUS;
        let generated = generate_rust(&descriptions::sirius(), "Sirius").unwrap();
        let e = expansion(desc, &generated);
        assert!(e.description_lines > 30, "{e:?}");
        assert!(e.ratio() > 5.0, "expected substantial expansion, got {e:?}");
    }

    #[test]
    fn figure_6_api_surface_is_generated_for_entry_t() {
        // The generated library for Sirius entry_t exposes the Figure 6
        // function families: read (parse), write2io (write), verify.
        let sirius = generate_rust(&descriptions::sirius(), "Sirius").unwrap();
        let entry_impl = sirius
            .split("impl<'d> EntryT<'d> {")
            .nth(1)
            .expect("EntryT impl exists");
        let entry_impl = &entry_impl[..entry_impl.find("\n}\n").unwrap_or(entry_impl.len())];
        assert!(entry_impl.contains("pub fn read"));
        assert!(entry_impl.contains("pub fn write"));
        assert!(entry_impl.contains("pub fn verify"));
    }

    #[test]
    fn unsupported_constructs_are_reported() {
        let registry = pads_runtime::Registry::standard();
        let schema = pads_check::compile(
            "Pstruct t { Popt Popt Puint8 x; };",
            &registry,
        )
        .unwrap();
        let err = generate_rust(&schema, "t").unwrap_err();
        assert!(err.to_string().contains("nested Popt"));
    }
}
