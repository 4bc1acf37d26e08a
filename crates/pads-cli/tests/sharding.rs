//! `--jobs N` is the same program, a chunk at a time: `pads accum` prints
//! the report of the sequential run at every job count, holds a window of
//! the file per job and a bounded number of chunks (not the file, nor its
//! records), and — like `pads parse` — synchronises once per chunk, not once
//! per record.
//!
//! The last is read off the children's voluntary context switches
//! (`ru_nvcsw`): a thread that blocks on a channel per record makes at
//! least 0.3 of them per record, one that blocks per chunk fewer than 0.01,
//! so the count tells the two apart on any machine without timing anything.
//!
//! The corpora are written a piece at a time and no test holds one: this
//! process must stay smaller than the children it measures (see `common`).
#![cfg(all(target_os = "linux", target_pointer_width = "64"))]

mod common;
#[path = "common/tables.rs"]
mod tables;

use std::path::PathBuf;
use std::process::Command;

use common::{clf_piece, description, pads_usage, sirius_piece, write_corpus, PIECE};
use tables::JOBS;

/// A CLF corpus of `pieces` × 1 000 records in a directory of this test's
/// own, and its length.
fn clf_corpus(test: &str, pieces: usize) -> (PathBuf, u64) {
    let dir = std::env::temp_dir().join(format!("pads-sharding-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("clf-{pieces}k.log"));
    let len = write_corpus(&path, pieces, clf_piece);
    (path, len)
}

fn path_str(path: &std::path::Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

#[test]
fn accum_prints_the_sequential_report_at_every_job_count() {
    let (corpus, _) = clf_corpus("report", 3);
    let accum = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_pads"))
            .args(["accum", &description("clf"), path_str(&corpus)])
            .args(extra)
            .output()
            .expect("run pads");
        assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf-8 report")
    };
    for summaries in [&[][..], &["--summaries"]] {
        let sequential = accum(summaries);
        assert!(sequential.contains("good"), "{sequential}");
        for jobs in JOBS {
            // The default chunk (256 records) and one-record chunks.
            for inflight in ["1024", "4"] {
                let flags = [summaries, &["--jobs", jobs, "--max-inflight-records", inflight]];
                assert_eq!(accum(&flags.concat()), sequential, "{flags:?}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(corpus.parent().expect("corpus directory"));
}

/// A source with a header shards like any other, from the point its header
/// leaves off: `accum` and `parse` print the bytes of the sequential run —
/// stdout, stderr, exit status, and no `ignoring --jobs` — in every
/// geometry, also when the header has a syntax error (the source struct
/// aborts before its record array) and when it trips a stop budget.
#[test]
fn a_header_source_prints_the_sequential_bytes_at_every_job_count() {
    let dir = std::env::temp_dir().join(format!("pads-sharding-sirius-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (good, bad) = (dir.join("sirius.txt"), dir.join("sirius-bad-header.txt"));
    write_corpus(&good, 1, sirius_piece);
    let mut data = std::fs::read(&good).expect("read corpus");
    data[0] = b'x';
    std::fs::write(&bad, data).expect("write corpus");
    let sirius = description("sirius");
    let run = |command: &[&str], corpus: &std::path::Path, extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_pads"))
            .args([command[0], &sirius, path_str(corpus)])
            .args(&command[1..])
            .args(extra)
            .output()
            .expect("run pads");
        (out.status.code(), out.stdout, String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let cases = [(&good, &[][..]), (&bad, &[]), (&bad, &["--max-errs", "0"])];
    let commands =
        [&["accum"][..], &["parse", "--format", "report"], &["parse", "--format", "xml"]];
    for (corpus, budget) in cases {
        for command in commands {
            let sequential = run(command, corpus, budget);
            assert!(
                matches!(sequential.0, Some(0 | 2)),
                "{command:?} {budget:?}: {}",
                sequential.2
            );
            assert!(!sequential.1.is_empty(), "{command:?} {budget:?}: no output");
            for jobs in JOBS {
                // The default chunk (256 records) and one-record chunks.
                for inflight in ["1024", "4"] {
                    let flags = [budget, &["--jobs", jobs, "--max-inflight-records", inflight]];
                    let sharded = run(command, corpus, &flags.concat());
                    assert!(!sharded.2.contains("ignoring --jobs"), "{flags:?}: {}", sharded.2);
                    assert!(sharded == sequential, "{command:?} {corpus:?} {flags:?}");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// (Named when the file was still read whole and the bound had a file-size
/// term; it has none now.)
#[test]
fn accum_jobs_4_peak_rss_grows_with_the_file_not_with_its_records() {
    const SLACK_KIB: u64 = 1024;
    // N fills the four jobs' windows (4 MiB); 4 N is four times that.
    let ((small, _), (large, _)) = (clf_corpus("rss", 48), clf_corpus("rss", 192));
    let peak = |corpus: &std::path::Path| {
        pads_usage(&["accum", &description("clf"), path_str(corpus), "--jobs", "4"]).peak_rss_kib
    };
    let (at_n, at_4n) = (peak(&small), peak(&large));
    assert!(
        at_4n <= at_n + SLACK_KIB,
        "peak RSS {at_n} KiB at N, {at_4n} KiB at 4 N: grew by more than {SLACK_KIB} KiB"
    );
    let _ = std::fs::remove_dir_all(small.parent().expect("corpus directory"));
}

#[test]
fn sharded_runs_block_once_per_chunk_not_once_per_record() {
    const RECORDS: u64 = 100 * PIECE as u64;
    let (corpus, _) = clf_corpus("switches", 100);
    let clf = description("clf");
    for command in [&["accum"][..], &["parse", "--format", "none"]] {
        let args = [&command[..1], &[&clf, path_str(&corpus)], &command[1..], &["--jobs", "4"]];
        let switches = pads_usage(&args.concat()).voluntary_switches;
        assert!(
            switches <= RECORDS / 50,
            "pads {command:?} --jobs 4 made {switches} voluntary context switches over {RECORDS} \
             records: more than one per 50 records means a thread blocks per record, not per chunk"
        );
    }
    let _ = std::fs::remove_dir_all(corpus.parent().expect("corpus directory"));
}
