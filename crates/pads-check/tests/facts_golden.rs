//! Fact-table goldens: every per-type fact `pads-check` computes — first
//! set, its precision, nullability, `may_reject`, width interval, value
//! interval and follow set — dumped one line per type for the bundled
//! descriptions, every lint fixture, and one typedef per standard base
//! type at three argument shapes (none, constant 0, constant 3) plus a
//! char and two regex arguments (one nullable, one not). A byte
//! set prints as its exact hex ranges, so any change to any fact shows up
//! as a diff here.
//!
//! A missing or differing golden fails the test, which writes the table it
//! computed under cargo's `CARGO_TARGET_TMPDIR` and names the file. To
//! regenerate after an intentional change, copy that file over
//! `tests/golden/facts_*.txt`.

use std::fmt::Write as _;
use std::path::PathBuf;

use pads_check::ir::Schema;
use pads_check::facts::{ByteSet, FactBase};
use pads_runtime::Registry;

fn crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A byte set as its hex ranges: `{2d,30-39}`.
fn bytes(set: ByteSet) -> String {
    let mut runs: Vec<String> = Vec::new();
    let mut b = 0u16;
    while b < 256 {
        if !set.contains(b as u8) {
            b += 1;
            continue;
        }
        let lo = b;
        while b < 256 && set.contains(b as u8) {
            b += 1;
        }
        runs.push(if b - 1 == lo { format!("{lo:02x}") } else { format!("{lo:02x}-{:02x}", b - 1) });
    }
    format!("{{{}}}", runs.join(","))
}

/// One line per type: every fact of the schema.
fn table(schema: &Schema, out: &mut String) {
    let facts = FactBase::of(schema);
    for (id, def) in schema.types.iter().enumerate() {
        let (f, fol) = (facts.of_type(id).facts, facts.of_type(id).follow);
        let value = f.value.map_or("-".to_owned(), |v| v.describe());
        let _ = writeln!(
            out,
            "{} first={} precise={} null={:?} may_reject={} width={} value={value} \
             follow={} follow_precise={} at_end={}",
            def.name,
            bytes(f.first),
            f.precise,
            f.null,
            f.may_reject,
            f.width.describe(),
            bytes(fol.set),
            fol.precise,
            fol.at_end,
        );
    }
}

fn compile(src: &str) -> Schema {
    pads_check::compile(src, &Registry::standard()).expect("compiles")
}

fn check_golden(name: &str, got: &str) {
    let path = crate_dir().join("tests/golden").join(name);
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    if got != want {
        let actual = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&actual, got).expect("target tmpdir writable");
        panic!("{} is missing or differs; this run's table is {}", path.display(), actual.display());
    }
}

#[test]
fn bundled_description_facts_match_the_golden() {
    let mut out = String::new();
    for name in ["clf", "sirius", "mixed"] {
        let src = std::fs::read_to_string(crate_dir().join(format!("../../descriptions/{name}.pads")))
            .expect("description readable");
        let _ = writeln!(out, "# descriptions/{name}.pads");
        table(&compile(&src), &mut out);
    }
    check_golden("facts_descriptions.txt", &out);
}

#[test]
fn lint_fixture_facts_match_the_golden() {
    let mut entries: Vec<_> = std::fs::read_dir(crate_dir().join("tests/lint"))
        .expect("tests/lint exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pads"))
        .collect();
    entries.sort();
    let mut out = String::new();
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("fixture readable");
        let name = path.file_name().and_then(|s| s.to_str()).expect("utf8 name");
        let _ = writeln!(out, "# {name}");
        table(&compile(&src), &mut out);
    }
    check_golden("facts_lint_fixtures.txt", &out);
}

#[test]
fn base_type_facts_match_the_golden() {
    // One typedef per standard base type and argument shape the checker
    // accepts; the golden lists which shapes those are.
    let reg = Registry::standard();
    let mut names: Vec<&str> = reg.names().collect();
    names.sort_unstable();
    let mut decls = String::new();
    for name in names {
        let shapes = [
            ("none", ""),
            ("0", "(:0:)"),
            ("3", "(:3:)"),
            ("bar", "(:'|':)"),
            ("star", "(:\"[a-z]*\":)"),
            ("plus", "(:\"[a-z]+\":)"),
        ];
        for (shape, args) in shapes {
            let decl = format!("Ptypedef {name}{args} {}_{shape}_t;\n", name.to_lowercase());
            if pads_check::compile(&decl, &reg).is_ok() {
                decls.push_str(&decl);
            }
        }
    }
    let mut out = String::new();
    table(&compile(&decls), &mut out);
    check_golden("facts_base_types.txt", &out);
}
