//! Golden output text: `pads parse --format xml`, `pads parse --format
//! report`, `pads accum` and `pads fmt` over each bundled description's
//! torture corpus must reproduce the checked-in stdout byte for byte. The
//! other suites compare two paths that share one renderer; these pin the
//! text itself, so a change to how a value, a descriptor or a report line
//! is printed shows up as a diff here. An XML golden must also hold no
//! character XML 1.0 forbids.
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

mod common;

use std::path::Path;

use common::{pads_at_root, EXIT_DATA_ERRORS, ROOT};

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
            let out = pads_at_root(&[&[args[0], &descr_path, data], &args[1..]].concat());
            assert_eq!(
                out.status.code(),
                Some(EXIT_DATA_ERRORS),
                "{descr} {args:?}: every torture corpus has data errors\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let golden = format!("output_{descr}_torture.{ext}");
            let path = Path::new(ROOT).join("crates/pads-cli/tests/golden").join(&golden);
            let want = std::fs::read(&path).unwrap_or_else(|e| {
                panic!("{descr} {args:?}: golden {golden} is missing ({e}); see the header")
            });
            let forbidden = |b: &u8| *b < 0x20 && !b"\t\n\r".contains(b);
            let at = want.iter().position(forbidden).filter(|_| ext == "xml");
            assert_eq!(at, None, "{golden}: a control character XML 1.0 forbids");
            assert!(
                out.stdout == want,
                "{descr} {args:?}: stdout drifted from {golden}\n--- got ---\n{}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
    }
}
