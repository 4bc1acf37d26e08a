//! Golden observation snapshots: `pads parse --metrics=json` over each
//! bundled description and its torture corpus must reproduce the checked-in
//! counts byte-for-byte, and so must every other deterministic observation
//! output — the span trace (tree and JSONL, alone and beside the metrics),
//! the `--profile` table, `pads profile` and its folded stacks — over those
//! corpora plus one small generated Sirius file (a header source). The
//! formats carry no timings, so any drift in parsing, error classification,
//! or event emission shows up as a diff here.
//!
//! Regenerate after an intentional change with (`<c>` is `<d>_torture` or
//! `sirius_small`, whose data is `golden/sirius_small.txt`):
//!
//! ```text
//! cargo build -p pads-cli
//! G=crates/pads-cli/tests/golden; D=descriptions/<d>.pads; F=<data>
//! ./target/debug/pads parse $D $F --metrics=json              > $G/metrics_<c>.json
//! ./target/debug/pads parse $D $F --trace                     > $G/trace_<c>.txt
//! ./target/debug/pads parse $D $F --trace=json                > $G/trace_<c>.jsonl
//! ./target/debug/pads parse $D $F --trace=json --metrics=json > $G/trace_metrics_<c>.txt
//! ./target/debug/pads parse $D $F --profile 2> $G/parse_profile_<c>.stderr >/dev/null
//! ./target/debug/pads profile $D $F                           > $G/profile_<c>.txt
//! ./target/debug/pads profile $D $F --folded                  > $G/profile_<c>.folded
//! ```

mod common;

use std::path::Path;

use common::{pads_at_root, EXIT_DATA_ERRORS, ROOT};

/// The captured corpora: `(case, description, data)`, paths from the
/// repository root (they appear in the `--profile` stderr golden).
const CASES: [(&str, &str, &str); 4] = [
    ("clf_torture", "clf", "tests/data/torture_clf.log"),
    ("sirius_torture", "sirius", "tests/data/torture_sirius.txt"),
    ("mixed_torture", "mixed", "tests/data/torture_mixed.txt"),
    ("sirius_small", "sirius", "crates/pads-cli/tests/golden/sirius_small.txt"),
];

/// Every trace and profile output, on stdout or stderr, matches the bytes
/// captured from the whole-tree implementation these paths replaced.
#[test]
fn trace_and_profile_outputs_match_golden_snapshots() {
    for (case, descr, data) in CASES {
        let descr = format!("descriptions/{descr}.pads");
        let outputs: [(&str, &[&str], bool, String); 6] = [
            ("parse", &["--trace"], false, format!("trace_{case}.txt")),
            ("parse", &["--trace=json"], false, format!("trace_{case}.jsonl")),
            (
                "parse",
                &["--trace=json", "--metrics=json"],
                false,
                format!("trace_metrics_{case}.txt"),
            ),
            ("parse", &["--profile"], true, format!("parse_profile_{case}.stderr")),
            ("profile", &[], false, format!("profile_{case}.txt")),
            ("profile", &["--folded"], false, format!("profile_{case}.folded")),
        ];
        for (cmd, flags, stderr, golden) in outputs {
            let out = pads_at_root(&[&[cmd, &descr, data], flags].concat());
            assert_eq!(
                out.status.code(),
                Some(EXIT_DATA_ERRORS),
                "{case} {cmd} {flags:?}: every captured corpus has data errors\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let got = if stderr { out.stderr } else { out.stdout };
            let got = String::from_utf8(got).expect("utf-8 output");
            let path = Path::new(ROOT).join("crates/pads-cli/tests/golden").join(&golden);
            let want = std::fs::read_to_string(&path).expect("golden snapshot exists");
            assert_eq!(got, want, "{case} {cmd} {flags:?}: drifted from {golden}");
        }
    }
}

/// Sequentially, and sharded into one-record chunks on two workers: the
/// counters do not say how the run was executed.
#[test]
fn metrics_json_matches_golden_snapshots() {
    for (case, descr, data) in CASES {
        for sharding in [&[][..], &["--jobs", "2", "--max-inflight-records", "4"]] {
            let descr = format!("descriptions/{descr}.pads");
            let out =
                pads_at_root(&[&["parse", &descr, data, "--metrics=json"], sharding].concat());
            assert_eq!(
                out.status.code(),
                Some(EXIT_DATA_ERRORS),
                "{case} {sharding:?}: every captured corpus must complete with data errors\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let got = String::from_utf8(out.stdout).expect("utf-8 metrics");
            let golden_path =
                Path::new(ROOT).join(format!("crates/pads-cli/tests/golden/metrics_{case}.json"));
            let want = std::fs::read_to_string(&golden_path).expect("golden snapshot exists");
            assert_eq!(
                got,
                want,
                "{case} {sharding:?}: metrics drifted from {}; regenerate if intentional",
                golden_path.display()
            );
        }
    }
}

/// `--trace` and `--metrics=prom|json` must work (and not disturb the exit
/// code) on every description in `descriptions/`.
#[test]
fn trace_and_metrics_work_on_every_description() {
    let cases = [
        ("clf", "tests/data/torture_clf.log"),
        ("sirius", "tests/data/torture_sirius.txt"),
        ("mixed", "tests/data/torture_mixed.txt"),
    ];
    let mut described = 0;
    for entry in std::fs::read_dir(Path::new(ROOT).join("descriptions")).expect("descriptions/") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("pads") {
            continue;
        }
        described += 1;
        let stem = path.file_stem().and_then(|s| s.to_str()).expect("stem");
        let (_, data) = cases
            .iter()
            .find(|(n, _)| *n == stem)
            .unwrap_or_else(|| panic!("no torture corpus for descriptions/{stem}.pads"));
        let descr = format!("descriptions/{stem}.pads");
        for flags in [
            &["--trace"][..],
            &["--trace=json"][..],
            &["--metrics=prom"][..],
            &["--metrics=json"][..],
            &["--trace=json", "--metrics=json"][..],
        ] {
            let out = pads_at_root(&[&["parse", &descr, data], flags].concat());
            assert_eq!(
                out.status.code(),
                Some(EXIT_DATA_ERRORS),
                "{stem} {flags:?}: unexpected exit\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(!out.stdout.is_empty(), "{stem} {flags:?}: produced no output");
        }
        // Prometheus exposition carries the family headers.
        let out = pads_at_root(&["parse", &descr, data, "--metrics=prom"]);
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(text.contains("# TYPE pads_records_total counter"), "{stem}: {text}");
        assert!(text.contains("pads_type_hits_total"), "{stem}");
    }
    assert_eq!(described, 3, "bundled description inventory changed");
}
