//! Golden `pads diff` fixtures: every `PDxxx` code has a minimal
//! `tests/diff/<code>.old.pads` / `<code>.new.pads` pair that triggers it,
//! with a `<code>.expected` file holding the exact
//! [`pads_check::diff::DiffReport::render`] output (findings plus the
//! final `verdict:` line).
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! cargo build -p pads-cli
//! cd crates/pads-check/tests/diff
//! ../../../../target/debug/pads diff <code>.old.pads <code>.new.pads > <code>.expected
//! ```

use std::path::PathBuf;

use pads_check::diff::{code_verdict, diff_schemas, Verdict, CODES};
use pads_runtime::Registry;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/diff")
}

fn diff_files(old: &PathBuf, new: &PathBuf) -> pads_check::diff::DiffReport {
    let reg = Registry::standard();
    let old_src = std::fs::read_to_string(old).expect("old fixture readable");
    let new_src = std::fs::read_to_string(new).expect("new fixture readable");
    let old = pads_check::compile(&old_src, &reg).expect("old fixture compiles");
    let new = pads_check::compile(&new_src, &reg).expect("new fixture compiles");
    diff_schemas(&old, &new)
}

#[test]
fn every_fixture_pair_matches_its_expected_report() {
    let mut stems: Vec<String> = std::fs::read_dir(fixture_dir())
        .expect("tests/diff exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?;
            name.strip_suffix(".old.pads").map(str::to_owned)
        })
        .collect();
    stems.sort();
    for stem in &stems {
        let dir = fixture_dir();
        let report =
            diff_files(&dir.join(format!("{stem}.old.pads")), &dir.join(format!("{stem}.new.pads")));
        let expected_path = dir.join(format!("{stem}.expected"));
        let expected = std::fs::read_to_string(&expected_path)
            .unwrap_or_else(|_| panic!("{} missing", expected_path.display()));
        assert_eq!(report.render(), expected, "fixture {stem} produced a different report");
        // The fixture pair is named after the code it demonstrates, and
        // its verdict is that code's.
        let code = stem.to_uppercase();
        assert!(
            report.findings.iter().any(|f| f.code == code),
            "fixture {stem} does not trigger {code}: {:?}",
            report.findings
        );
        assert_eq!(report.verdict(), code_verdict(&code), "fixture {stem}: verdict");
    }
    // One fixture per registered evolution code, no strays.
    assert_eq!(stems.len(), CODES.len(), "one fixture per code");
}

#[test]
fn required_scenarios_have_the_required_verdicts() {
    let dir = fixture_dir();
    let verdict = |stem: &str| {
        diff_files(&dir.join(format!("{stem}.old.pads")), &dir.join(format!("{stem}.new.pads")))
            .verdict()
    };
    assert_eq!(verdict("pd101"), Verdict::Compatible); // optional field added
    assert_eq!(verdict("pd102"), Verdict::Widens); // value range widened
    assert_eq!(verdict("pd303"), Verdict::Breaks); // union arm removed
    assert_eq!(verdict("pd302"), Verdict::Breaks); // fields reordered
}

#[test]
fn bundled_descriptions_are_self_compatible() {
    // The hot-reload contract's identity case: every shipped description
    // diffed against itself is finding-free. CI runs the same loop through
    // the CLI (`pads diff d d`).
    let reg = Registry::standard();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../descriptions");
    let mut seen = 0usize;
    for entry in std::fs::read_dir(dir).expect("descriptions dir exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none_or(|x| x != "pads") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("description readable");
        let schema = pads_check::compile(&src, &reg).expect("description compiles");
        let report = diff_schemas(&schema, &schema);
        assert!(
            report.findings.is_empty(),
            "{} is not self-compatible: {:?}",
            path.display(),
            report.findings
        );
        assert_eq!(report.verdict(), Verdict::Compatible);
        seen += 1;
    }
    assert_eq!(seen, 3, "clf, sirius, mixed");
}
