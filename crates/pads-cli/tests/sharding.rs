//! `--jobs N` is the same program, a chunk at a time: `pads accum` and
//! `pads parse` hold a window of the file per job and a bounded number of
//! chunks (not the file, nor its records), and synchronise once per chunk,
//! not once per record. That they print the sequential bytes at every job
//! count is a cell of the contract matrix's `cli` column, in
//! `stream_matrix.rs`: a truth computed in this process would raise the
//! high-water mark the children here are measured against.
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

use std::path::PathBuf;

use common::{clf_piece, description, pads_usage, write_corpus, PIECE};

/// A CLF corpus of `pieces` × 1 000 records in a directory of this test's
/// own: the directory, and the corpus.
fn clf_corpus(test: &str, pieces: usize) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("pads-sharding-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("clf-{pieces}k.log"));
    write_corpus(&path, pieces, clf_piece);
    (dir, path.to_string_lossy().into_owned())
}

/// (Named when the file was still read whole and the bound had a file-size
/// term; it has none now.)
#[test]
fn accum_jobs_4_peak_rss_grows_with_the_file_not_with_its_records() {
    const SLACK_KIB: u64 = 1024;
    // N fills the four jobs' windows (4 MiB); 4 N is four times that.
    let ((dir, small), (_, large)) = (clf_corpus("rss", 48), clf_corpus("rss", 192));
    let peak = |corpus: &str| {
        pads_usage(&["accum", &description("clf"), corpus, "--jobs", "4"]).peak_rss_kib
    };
    let (at_n, at_4n) = (peak(&small), peak(&large));
    assert!(
        at_4n <= at_n + SLACK_KIB,
        "peak RSS {at_n} KiB at N, {at_4n} KiB at 4 N: grew by more than {SLACK_KIB} KiB"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sharded_runs_block_once_per_chunk_not_once_per_record() {
    const RECORDS: u64 = 100 * PIECE as u64;
    let (dir, corpus) = clf_corpus("switches", 100);
    let clf = description("clf");
    for command in [&["accum"][..], &["parse", "--format", "none"]] {
        let args = [&command[..1], &[&clf, &corpus], &command[1..], &["--jobs", "4"]];
        let switches = pads_usage(&args.concat()).voluntary_switches;
        assert!(
            switches <= RECORDS / 50,
            "pads {command:?} --jobs 4 made {switches} voluntary context switches over {RECORDS} \
             records: more than one per 50 records means a thread blocks per record, not per chunk"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}
