//! Golden lint fixtures: every `PLxxx` code has a minimal `tests/lint/`
//! description that triggers it, paired with a `.expected` file holding
//! the full text report (`render_all` at the allow threshold: every
//! message, span, caret line and hint). The bundled descriptions'
//! `--lint-format=json` reports are pinned the same way under
//! `tests/golden/`.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! cargo build -p pads-cli
//! cd crates/pads-check/tests/lint
//! ../../../../target/debug/pads check --lint=allow <name>.pads 2> <name>.expected
//! cd ../../../..
//! ./target/debug/pads check --lint-format=json descriptions/<d>.pads \
//!     > crates/pads-check/tests/golden/<d>.lint.json
//! ```

use std::path::{Path, PathBuf};

use pads_check::lint::render::{render_all, render_json};
use pads_check::lint::Level;
use pads_runtime::Registry;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/lint")
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn file_name(path: &Path) -> &str {
    path.file_name().and_then(|s| s.to_str()).expect("utf8 file name")
}

#[test]
fn every_fixture_matches_its_expected_diagnostics() {
    let mut checked = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(fixture_dir())
        .expect("tests/lint exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pads"))
        .collect();
    entries.sort();
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("fixture readable");
        let expected_path = path.with_extension("expected");
        let expected = std::fs::read_to_string(&expected_path)
            .unwrap_or_else(|_| panic!("{} missing", expected_path.display()));
        let (_, diags) =
            pads_check::compile_with_lints(&src, &Registry::standard()).expect("fixture compiles");
        let got = render_all(&diags, &src, file_name(&path), Level::Allow);
        assert_eq!(got, expected, "fixture {} produced a different report", path.display());
        // The fixture file is named after the code it demonstrates.
        let stem = path.file_stem().and_then(|s| s.to_str()).expect("utf8 stem");
        let code = format!("[{}]", stem.to_uppercase());
        assert!(got.contains(&code), "fixture {} does not trigger {code}: got {got:?}", path.display());
        checked += 1;
    }
    // One fixture per registered lint code, no strays.
    assert_eq!(checked, pads_check::lint::CODES.len(), "one fixture per code");
}

#[test]
fn bundled_descriptions_match_their_json_reports() {
    for name in ["clf", "sirius", "mixed"] {
        let file = format!("descriptions/{name}.pads");
        let src = std::fs::read_to_string(repo_root().join(&file)).expect("description readable");
        let (_, diags) =
            pads_check::compile_with_lints(&src, &Registry::standard()).expect("compiles");
        let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/golden/{name}.lint.json"));
        let want = std::fs::read_to_string(&golden)
            .unwrap_or_else(|_| panic!("{} missing", golden.display()));
        assert_eq!(render_json(&diags, &src, &file), want, "{file}: JSON lint report");
    }
}

#[test]
fn fixture_levels_match_the_registry() {
    for (code, level, _) in pads_check::lint::CODES {
        assert_eq!(*level, pads_check::lint::default_level(code));
    }
}

#[test]
fn bundled_descriptions_are_deny_clean() {
    let dir = repo_root().join("descriptions");
    let mut seen = 0usize;
    for entry in std::fs::read_dir(dir).expect("descriptions dir exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none_or(|x| x != "pads") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("description readable");
        let (_, diags) = pads_check::compile_with_lints(&src, &Registry::standard())
            .unwrap_or_else(|e| panic!("{} fails to compile: {e}", path.display()));
        assert!(
            !diags.any_at(Level::Deny),
            "{} has deny-level lints: {:?}",
            path.display(),
            diags.iter().collect::<Vec<_>>()
        );
        seen += 1;
    }
    assert_eq!(seen, 3, "clf, sirius, mixed");
}
