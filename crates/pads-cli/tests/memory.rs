//! `pads parse` holds the file and one record, not the source's value
//! tree — observed (`--metrics`, `--profile`) or not, with a header (Sirius)
//! or without (CLF): the child's peak RSS on a corpus of 4 N records may
//! exceed its peak on N records by the difference in file size plus a fixed
//! slack, and no more. A whole-source tree costs about seventeen times the
//! file, so a reintroduced one fails here rather than at measurement time.
//!
//! One test, alone in its binary, and the corpora are written a piece at a
//! time: this process must stay smaller than the children it measures (see
//! `common`).
#![cfg(all(target_os = "linux", target_pointer_width = "64"))]

mod common;

use common::{clf_piece, description, pads_usage, sirius_piece, write_corpus};

#[test]
fn peak_rss_grows_with_the_file_not_with_a_value_tree() {
    const SLACK_KIB: u64 = 6 * 1024;
    let dir = std::env::temp_dir().join(format!("pads-memory-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let pieces: [fn(usize) -> Vec<u8>; 2] = [sirius_piece, clf_piece];
    for (descr, piece) in ["sirius", "clf"].into_iter().zip(pieces) {
        let small = dir.join(format!("{descr}-n.txt"));
        let large = dir.join(format!("{descr}-4n.txt"));
        let (small_len, large_len) =
            (write_corpus(&small, 10, piece), write_corpus(&large, 40, piece));
        let file_growth_kib = (large_len - small_len).div_ceil(1024);
        // Not observed, then the two sequential observed runs, which used
        // to parse the whole source into one value.
        for observation in [&[][..], &["--metrics=json"], &["--profile"]] {
            let peak = |corpus: &std::path::Path| {
                let corpus = corpus.to_str().expect("utf-8 temp path");
                let description = description(descr);
                let mut args = vec!["parse", &description, corpus];
                args.extend_from_slice(observation);
                pads_usage(&args).peak_rss_kib
            };
            let (at_n, at_4n) = (peak(&small), peak(&large));
            assert!(
                at_4n <= at_n + file_growth_kib + SLACK_KIB,
                "{descr} {observation:?}: peak RSS {at_n} KiB at N, {at_4n} KiB at 4 N: grew by \
                 more than the {file_growth_kib} KiB the file grew by plus {SLACK_KIB} KiB"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
