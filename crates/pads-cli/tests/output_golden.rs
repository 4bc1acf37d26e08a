//! Golden output text: `pads parse --format xml`, `pads parse --format
//! report`, `pads accum` and `pads fmt` over each bundled description's
//! torture corpus must reproduce the checked-in stdout byte for byte. The
//! other suites compare two paths that share one renderer; these pin the
//! text itself, so a change to how a value, a descriptor or a report line
//! is printed shows up as a diff here.
//!
//! A missing golden is a failure. Regenerate after an intentional change
//! with (`<d>` is `clf`, `sirius` or `mixed`, `<data>` its torture corpus):
//!
//! ```text
//! cargo build -p pads-cli
//! G=crates/pads-cli/tests/golden; D=descriptions/<d>.pads; F=tests/data/<data>
//! ./target/debug/pads parse $D $F --format xml    > $G/output_<d>_torture.xml
//! ./target/debug/pads parse $D $F --format report > $G/output_<d>_torture.report
//! ./target/debug/pads accum $D $F                 > $G/output_<d>_torture.accum
//! ./target/debug/pads fmt $D $F                   > $G/output_<d>_torture.fmt
//! ```

use std::path::Path;
use std::process::Command;

/// Exit status for "the data had errors but the run completed".
const EXIT_DATA_ERRORS: i32 = 2;

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// `(description, torture corpus)`, paths from the repository root.
const CASES: [(&str, &str); 3] = [
    ("clf", "tests/data/torture_clf.log"),
    ("sirius", "tests/data/torture_sirius.txt"),
    ("mixed", "tests/data/torture_mixed.txt"),
];

/// `(subcommand and flags, golden extension)`.
const OUTPUTS: [(&[&str], &str); 4] = [
    (&["parse", "--format", "xml"], "xml"),
    (&["parse", "--format", "report"], "report"),
    (&["accum"], "accum"),
    (&["fmt"], "fmt"),
];

#[test]
fn sink_outputs_match_golden_text() {
    for (descr, data) in CASES {
        let descr_path = format!("descriptions/{descr}.pads");
        for (args, ext) in OUTPUTS {
            let out = Command::new(env!("CARGO_BIN_EXE_pads"))
                .current_dir(repo_root())
                .arg(args[0])
                .args([descr_path.as_str(), data])
                .args(&args[1..])
                .output()
                .expect("pads binary runs");
            assert_eq!(
                out.status.code(),
                Some(EXIT_DATA_ERRORS),
                "{descr} {args:?}: every torture corpus has data errors\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let golden = format!("output_{descr}_torture.{ext}");
            let path = repo_root().join("crates/pads-cli/tests/golden").join(&golden);
            let want = std::fs::read(&path).unwrap_or_else(|e| {
                panic!("{descr} {args:?}: golden {golden} is missing ({e}); see the header")
            });
            assert!(
                out.stdout == want,
                "{descr} {args:?}: stdout drifted from {golden}\n--- got ---\n{}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
    }
}
