//! Memory is flat in the file size: `pads` reads its input through a
//! bounded window (1 MiB per job) and keeps one record — or a bounded number
//! of chunks — of it, so the child's peak RSS on a corpus of 4 N records may
//! exceed its peak on N records by 1 MiB of noise and no more. That holds
//! for every sink of `parse`, observed or not, with a header (Sirius) or
//! without (CLF), for `accum`, and at every `--jobs`; a `std::fs::read` of
//! the input, or a whole-source value tree, fails here rather than at
//! measurement time.
//!
//! One test, alone in its binary, and the corpora are written a piece at a
//! time: this process must stay smaller than the children it measures (see
//! `common`, which checks that it does).
#![cfg(all(target_os = "linux", target_pointer_width = "64"))]

mod common;

use common::{clf_piece, description, pads_usage, sirius_piece, write_corpus};

/// (Named when the file was still read whole and the bound had a file-size
/// term; it has none now.)
#[test]
fn peak_rss_grows_with_the_file_not_with_a_value_tree() {
    const SLACK_KIB: u64 = 1024;
    let dir = std::env::temp_dir().join(format!("pads-memory-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // `pads <command> <description> <corpus of `pieces` thousand records>
    // <flags>`: its peak on four times the corpus is its peak on the corpus.
    let flat = |descr: &str, pieces: usize, command: &str, flags: &[&str]| {
        let piece: fn(usize) -> Vec<u8> = if descr == "clf" { clf_piece } else { sirius_piece };
        let peak = |pieces: usize| {
            let corpus = dir.join(format!("{descr}-{pieces}k.txt"));
            if !corpus.exists() {
                write_corpus(&corpus, pieces, piece);
            }
            let (description, corpus) = (description(descr), corpus.to_str().expect("utf-8 path"));
            let args = [&[command, &description, corpus], flags].concat();
            pads_usage(&args).peak_rss_kib
        };
        let (at_n, at_4n) = (peak(pieces), peak(4 * pieces));
        assert!(
            at_4n <= at_n + SLACK_KIB,
            "{command} {descr} {flags:?}: peak RSS {at_n} KiB at N = {pieces} 000 records, \
             {at_4n} KiB at 4 N: grew by more than {SLACK_KIB} KiB"
        );
    };
    // N is more than one window: 1.7 MB of Sirius, 1.1 MB of CLF.
    for (descr, pieces) in [("sirius", 10), ("clf", 12)] {
        // The report fold, the XML writer, and the two sequential observed
        // runs, which used to parse the whole source into one value.
        for sink in [&[][..], &["--format", "xml"], &["--metrics=json"], &["--profile"]] {
            flat(descr, pieces, "parse", sink);
        }
        flat(descr, pieces, "accum", &[]);
    }
    // A sharded run holds a window per job: N is more than that.
    for (jobs, pieces) in [("1", 12), ("2", 24), ("4", 48)] {
        flat("clf", pieces, "parse", &["--format", "none", "--jobs", jobs]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
