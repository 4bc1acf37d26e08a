//! End-to-end durability tests driving `pads parse --journal`: the
//! kill-and-resume loop (sequential and record-sharded, under every budget)
//! and the corrupt-journal torture matrix — every distinct failure mode
//! must surface its stable `ErrorCode` name on stderr and the dedicated
//! exit status 4, except a torn tail, which is repaired in place with a
//! notice. Every row runs over a plain record array and over Sirius, the
//! paper's header-then-records feed.

#[path = "common/tables.rs"]
mod tables;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

use tables::{policies, JOBS};

fn pads() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pads"))
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pads-journal-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn write_temp(name: &str, contents: &[u8]) -> PathBuf {
    let path = temp_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(contents).expect("write");
    path
}

const DESCR: &str = r#"
Precord Pstruct order_t {
    Puint32 id;
    '|'; Pstring(:'|':) state;
    '|'; Puint32 total : total >= id;
};
Psource Parray orders_t { order_t[]; };
"#;

// Two constraint violations (records 1 and 5, zero-based).
const DATA: &[u8] = b"1|OPEN|5\n2|SHIP|1\n3|DONE|9\n4|HOLD|8\n5|SHIP|20\n6|DONE|2\n7|OPEN|7\n";

/// A source the matrix runs over: seven records, some of them bad, so an
/// uninterrupted run exits 2.
struct Corpus {
    name: &'static str,
    descr: PathBuf,
    data: PathBuf,
    /// Other data of the same description, for the foreign-source row.
    other: PathBuf,
}

/// Seven Sirius orders (one with a syntax error, one out of order) behind
/// their header line.
fn sirius(seed: u64) -> Vec<u8> {
    let cfg = pads_gen::SiriusConfig { records: 7, seed, syntax_errors: 1, ..Default::default() };
    pads_gen::sirius::generate(&cfg).0
}

/// `test`'s own copy of each corpus: the order array, and Sirius.
fn corpora(test: &str) -> [Corpus; 2] {
    let sirius_descr = concat!(env!("CARGO_MANIFEST_DIR"), "/../../descriptions/sirius.pads");
    [
        Corpus {
            name: "orders",
            descr: write_temp(&format!("{test}-orders.pads"), DESCR.as_bytes()),
            data: write_temp(&format!("{test}-orders.txt"), DATA),
            other: write_temp(&format!("{test}-orders-other.txt"), b"9|OPEN|9\n8|SHIP|8\n"),
        },
        Corpus {
            name: "sirius",
            descr: sirius_descr.into(),
            data: write_temp(&format!("{test}-sirius.txt"), &sirius(1)),
            other: write_temp(&format!("{test}-sirius-other.txt"), &sirius(2)),
        },
    ]
}

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn parse_journaled(descr: &Path, data: &Path, extra: &[&str]) -> Run {
    let out = pads()
        .arg("parse")
        .arg(descr)
        .arg(data)
        .args(extra)
        // Chunks of one record, so that `--jobs 4` really shards the
        // seven-record source and checkpoints after every record.
        .args(["--max-inflight-records", "2"])
        .output()
        .expect("run pads");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// Kill a journaled run partway, resume it, and require the resumed run's
/// metrics and exit status to match an uninterrupted journaled run — at
/// every job count, under every budget, across checkpoint cadences: killed
/// before the first checkpoint (the resumed run starts over, header and
/// all), inside the records (it starts past the header), and on the last
/// record. A run the budget stops before the kill point completes instead,
/// and resuming it is the no-op of the next test.
#[test]
fn kill_then_resume_matches_uninterrupted_run() {
    for Corpus { name, descr, data, .. } in corpora("kr") {
        let budgets = policies();
        for (jobs, (budget, _)) in JOBS.iter().flat_map(|jobs| budgets.iter().map(move |b| (jobs, b))) {
            let budget: Vec<&str> = budget.iter().map(String::as_str).collect();
            let at = format!("{name} jobs={jobs} {budget:?}");
            let wal = temp_dir().join(format!("kr-{name}-{jobs}-{}.wal", budget.join("")));
            let wal = wal.to_str().unwrap();
            let run = |extra: &[&str]| {
                let flags = [&["--journal", wal, "--jobs", jobs], &budget[..], extra].concat();
                parse_journaled(&descr, &data, &flags)
            };
            let full = run(&["--metrics=json"]);
            assert_eq!(full.code, Some(2), "{at}: {}", full.stderr);
            let kills = [("1", "3"), ("1", "1"), ("3", "2"), ("5", "3"), ("7", "1")];
            for (kill_after, every) in kills {
                let at = format!("{at} kill={kill_after}/{every}");
                let killed = run(&["--kill-after", kill_after, "--checkpoint-records", every]);
                if killed.stderr.contains("--kill-after") {
                    assert_eq!(killed.code, Some(0), "{at}: killed run failed: {}", killed.stderr);
                } else {
                    assert!(!budget.is_empty(), "{at}: never killed: {}", killed.stderr);
                    assert_eq!(killed.code, full.code, "{at}: {}", killed.stderr);
                }
                let resumed = run(&["--resume", "--metrics=json"]);
                assert_eq!(resumed.code, full.code, "{at}: {}", resumed.stderr);
                assert_eq!(resumed.stdout, full.stdout, "{at}: resumed metrics diverge");
            }
        }
    }
}

/// Resuming a journal that already covers the whole source re-parses
/// nothing but still reports the run's errors from the restored state.
#[test]
fn resume_of_a_complete_run_is_a_faithful_no_op() {
    for Corpus { name, descr, data, .. } in corpora("noop") {
        let wal = temp_dir().join(format!("noop-{name}.wal"));
        let wal = wal.to_str().unwrap();
        let full = parse_journaled(&descr, &data, &["--journal", wal, "--metrics=json"]);
        assert_eq!(full.code, Some(2), "{name}: {}", full.stderr);
        let again =
            parse_journaled(&descr, &data, &["--journal", wal, "--resume", "--metrics=json"]);
        assert_eq!(again.code, Some(2), "{name}: {}", again.stderr);
        assert_eq!(again.stdout, full.stdout, "{name}: restored metrics diverge");
        assert!(again.stderr.contains("before the resume point"), "{name}: {}", again.stderr);
    }
}

/// A header with a syntax error aborts the source struct before its record
/// array: no record ends, so no checkpoint is taken, and `--resume` starts
/// over and aborts the same way, with the same output and status.
#[test]
fn a_bad_header_aborts_the_resumed_run_as_it_did_the_first() {
    let [_, Corpus { descr, .. }] = corpora("hdr");
    let mut data = sirius(1);
    data[0] = b'x';
    let data = write_temp("hdr-sirius-bad-header.txt", &data);
    let wal = temp_dir().join("hdr.wal");
    let wal = wal.to_str().unwrap();
    for jobs in JOBS {
        let run = |extra: &[&str]| {
            parse_journaled(&descr, &data, &[&["--journal", wal, "--jobs", jobs], extra].concat())
        };
        let first = run(&["--kill-after", "2"]);
        assert_eq!(first.code, Some(2), "{}", first.stderr);
        let aborted = "\n  h: literal did not match at record 0\n";
        assert!(first.stdout.contains(aborted), "{}", first.stdout);
        assert!(!first.stderr.contains("--kill-after"), "no record to kill at: {}", first.stderr);
        let resumed = run(&["--resume"]);
        assert_eq!((resumed.code, &resumed.stdout), (first.code, &first.stdout), "jobs={jobs}");
        assert_eq!(resumed.stderr, first.stderr, "jobs={jobs}");
    }
}

/// A journal too short to hold the magic header: exit 4, stable code name.
#[test]
fn resume_rejects_empty_journal_with_bad_header() {
    let descr = write_temp("bh.pads", DESCR.as_bytes());
    let data = write_temp("bh.txt", DATA);
    let wal = write_temp("bh.wal", b"");
    let run = parse_journaled(&descr, &data, &["--journal", wal.to_str().unwrap(), "--resume"]);
    assert_eq!(run.code, Some(4), "{}", run.stderr);
    assert!(run.stderr.contains("JournalBadHeader"), "{}", run.stderr);
}

/// Garbage where the header should be: same failure class.
#[test]
fn resume_rejects_garbled_header() {
    let descr = write_temp("gh.pads", DESCR.as_bytes());
    let data = write_temp("gh.txt", DATA);
    let wal = write_temp("gh.wal", b"not a journal at all, sixteen+ bytes");
    let run = parse_journaled(&descr, &data, &["--journal", wal.to_str().unwrap(), "--resume"]);
    assert_eq!(run.code, Some(4), "{}", run.stderr);
    assert!(run.stderr.contains("JournalBadHeader"), "{}", run.stderr);
}

/// For each corpus: writes a valid journal by running a full journaled
/// parse, hands the file bytes to `mutate`, and has `check` look at the
/// resume attempt over the mutated journal.
fn corrupted_resume(tag: &str, mutate: impl Fn(&mut Vec<u8>), check: impl Fn(&Run)) {
    for Corpus { name, descr, data, .. } in corpora(tag) {
        let wal = temp_dir().join(format!("{tag}-{name}.wal"));
        let full = parse_journaled(&descr, &data, &["--journal", wal.to_str().unwrap()]);
        assert_eq!(full.code, Some(2), "{name}: {}", full.stderr);
        let mut bytes = std::fs::read(&wal).expect("read journal");
        mutate(&mut bytes);
        std::fs::write(&wal, &bytes).expect("rewrite journal");
        check(&parse_journaled(&descr, &data, &["--journal", wal.to_str().unwrap(), "--resume"]));
    }
}

/// Byte offsets of each complete frame after the 16-byte header.
fn frame_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut at = 16;
    while at + 8 <= bytes.len() {
        let len =
            u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let end = at + 8 + len;
        if end > bytes.len() {
            break;
        }
        spans.push((at, end));
        at = end;
    }
    spans
}

/// A flipped payload byte inside a complete frame: exit 4, CRC mismatch.
#[test]
fn resume_rejects_flipped_payload_byte() {
    let flip = |bytes: &mut Vec<u8>| {
        let (start, _) = frame_spans(bytes)[0];
        bytes[start + 12] ^= 0xFF;
    };
    corrupted_resume("crc", flip, |run| {
        assert_eq!(run.code, Some(4), "{}", run.stderr);
        assert!(run.stderr.contains("JournalCrcMismatch"), "{}", run.stderr);
    });
}

/// A duplicated frame (same offset and record twice): exit 4, the
/// checkpoint sequence must strictly advance.
#[test]
fn resume_rejects_duplicate_checkpoint() {
    let duplicate = |bytes: &mut Vec<u8>| {
        let (start, end) = *frame_spans(bytes).last().expect("at least one frame");
        let copy = bytes[start..end].to_vec();
        bytes.extend_from_slice(&copy);
    };
    corrupted_resume("dup", duplicate, |run| {
        assert_eq!(run.code, Some(4), "{}", run.stderr);
        assert!(run.stderr.contains("JournalOutOfOrder"), "{}", run.stderr);
    });
}

/// A tail torn mid-frame (the crash case): repaired with a notice, and
/// the resumed run still completes with the right exit status.
#[test]
fn resume_repairs_torn_tail_and_completes() {
    corrupted_resume("torn", |bytes| bytes.truncate(bytes.len() - 5), |run| {
        assert_eq!(run.code, Some(2), "{}", run.stderr);
        assert!(run.stderr.contains("JournalTornTail"), "{}", run.stderr);
    });
}

/// A journal written for different data: exit 4, source mismatch.
#[test]
fn resume_rejects_journal_for_other_source() {
    for Corpus { name, descr, data, other } in corpora("sm") {
        let wal = temp_dir().join(format!("sm-{name}.wal"));
        let wal = wal.to_str().unwrap();
        let full = parse_journaled(&descr, &data, &["--journal", wal]);
        assert_eq!(full.code, Some(2), "{name}: {}", full.stderr);
        let run = parse_journaled(&descr, &other, &["--journal", wal, "--resume"]);
        assert_eq!(run.code, Some(4), "{name}: {}", run.stderr);
        assert!(run.stderr.contains("JournalSourceMismatch"), "{name}: {}", run.stderr);
    }
}
