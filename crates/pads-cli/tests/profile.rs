//! `pads profile`: the per-node cost table and the folded-stack output
//! must be byte-deterministic across runs (no timing columns unless
//! `--times` asks for them), and the folded lines must carry the
//! schema's root-to-leaf paths so `inferno`/`flamegraph.pl` can consume
//! them directly.

mod common;

use std::process::Output;

use common::{pads_at_root, EXIT_DATA_ERRORS};

/// The CLF description and its torture corpus, from the repository root.
const CLF: [&str; 2] = ["descriptions/clf.pads", "tests/data/torture_clf.log"];

fn run_profile(args: &[&str]) -> Output {
    pads_at_root(&[&["profile"], args].concat())
}

#[test]
fn profile_table_is_deterministic_across_runs() {
    let args = CLF;
    let first = run_profile(&args);
    assert_eq!(
        first.status.code(),
        Some(EXIT_DATA_ERRORS),
        "torture corpus completes with data errors\n{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let table = String::from_utf8(first.stdout).expect("utf-8 table");
    assert!(table.starts_with("node"), "header row first:\n{table}");
    assert!(table.contains("entry_t"), "per-node rows present:\n{table}");
    assert!(table.contains("cum_bytes"), "byte attribution columns:\n{table}");
    for _ in 0..2 {
        let again = run_profile(&args);
        assert_eq!(
            String::from_utf8(again.stdout).expect("utf-8 table"),
            table,
            "profile table must be byte-identical across runs"
        );
    }
}

#[test]
fn profile_folded_is_deterministic_and_stack_shaped() {
    let args = [CLF[0], CLF[1], "--folded"];
    let first = run_profile(&args);
    assert_eq!(first.status.code(), Some(EXIT_DATA_ERRORS));
    let folded = String::from_utf8(first.stdout).expect("utf-8 folded");
    // Every line is `path;seg;... weight` — the flamegraph input format.
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("stack and weight");
        assert!(!stack.is_empty(), "non-empty stack in {line:?}");
        weight.parse::<u64>().unwrap_or_else(|_| panic!("numeric weight in {line:?}"));
    }
    // Nested paths reflect the schema: entry_t under the clt_t source
    // array, with at least one deeper frame below entry_t.
    assert!(folded.lines().any(|l| l.starts_with("clt_t;entry_t ")), "{folded}");
    assert!(folded.lines().any(|l| l.starts_with("clt_t;entry_t;")), "{folded}");
    let again = run_profile(&args);
    assert_eq!(
        String::from_utf8(again.stdout).expect("utf-8 folded"),
        folded,
        "folded stacks must be byte-identical across runs"
    );
}

#[test]
fn parse_profile_flag_reports_table_on_stderr() {
    let out = pads_at_root(&["parse", CLF[0], CLF[1], "--profile"]);
    assert_eq!(out.status.code(), Some(EXIT_DATA_ERRORS));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("node"), "profile table on stderr:\n{err}");
    assert!(err.contains("entry_t"), "per-node rows on stderr:\n{err}");
}

/// `--profile` needs one ordered event stream, so `--jobs N` on a source
/// that would otherwise shard warns and profiles sequentially: the same
/// table as `--jobs 1`, never a silent run with no table.
#[test]
fn parse_profile_with_jobs_warns_and_prints_the_sequential_table() {
    let parse = |jobs: &str| {
        let flags =
            ["--profile", "--format", "none", "--max-inflight-records", "4", "--jobs", jobs];
        pads_at_root(&[&["parse", CLF[0], CLF[1]][..], &flags].concat())
    };
    let (one, four) = (parse("1"), parse("4"));
    assert_eq!(four.status.code(), Some(EXIT_DATA_ERRORS));
    let one = String::from_utf8(one.stderr).expect("utf-8 stderr");
    let four = String::from_utf8(four.stderr).expect("utf-8 stderr");
    assert!(one.starts_with("node") && one.contains("entry_t"), "table at --jobs 1:\n{one}");
    let (warning, table) = four.split_once('\n').expect("a warning line, then the table");
    assert_eq!(warning, "pads: --profile forces a sequential parse; ignoring --jobs");
    assert_eq!(table, one, "--jobs 4 prints the --jobs 1 table");
}
