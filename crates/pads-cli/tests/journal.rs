//! End-to-end durability tests driving `pads parse --journal`: the
//! kill-and-resume loop (sequential and record-sharded) and the corrupt-
//! journal torture matrix — every distinct failure mode must surface its
//! stable `ErrorCode` name on stderr and the dedicated exit status 4,
//! except a torn tail, which is repaired in place with a notice.

use std::io::Write;
use std::process::Command;

fn pads() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pads"))
}

fn temp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pads-journal-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn write_temp(name: &str, contents: &[u8]) -> std::path::PathBuf {
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

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn parse_journaled(descr: &std::path::Path, data: &std::path::Path, extra: &[&str]) -> Run {
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
/// `--jobs 1` and `--jobs 4`, across checkpoint cadences.
#[test]
fn kill_then_resume_matches_uninterrupted_run() {
    let descr = write_temp("kr.pads", DESCR.as_bytes());
    let data = write_temp("kr.txt", DATA);
    for jobs in ["1", "4"] {
        let full_wal = temp_dir().join(format!("kr-full-{jobs}.wal"));
        let full = parse_journaled(
            &descr,
            &data,
            &["--journal", full_wal.to_str().unwrap(), "--jobs", jobs, "--metrics=json"],
        );
        assert_eq!(full.code, Some(2), "{}", full.stderr);
        for (kill_after, every) in [("1", "1"), ("3", "2"), ("5", "3"), ("7", "1")] {
            let wal = temp_dir().join(format!("kr-{jobs}-{kill_after}-{every}.wal"));
            let wal = wal.to_str().unwrap();
            let killed = parse_journaled(
                &descr,
                &data,
                &[
                    "--journal", wal,
                    "--jobs", jobs,
                    "--kill-after", kill_after,
                    "--checkpoint-records", every,
                ],
            );
            assert_eq!(killed.code, Some(0), "killed run failed: {}", killed.stderr);
            assert!(killed.stderr.contains("--kill-after"), "{}", killed.stderr);
            let resumed = parse_journaled(
                &descr,
                &data,
                &["--journal", wal, "--resume", "--jobs", jobs, "--metrics=json"],
            );
            assert_eq!(
                resumed.code,
                Some(2),
                "jobs={jobs} kill={kill_after}/{every}: {}",
                resumed.stderr
            );
            assert_eq!(
                resumed.stdout, full.stdout,
                "jobs={jobs} kill={kill_after}/{every}: resumed metrics diverge"
            );
        }
    }
}

/// Resuming a journal that already covers the whole source re-parses
/// nothing but still reports the run's errors from the restored state.
#[test]
fn resume_of_a_complete_run_is_a_faithful_no_op() {
    let descr = write_temp("noop.pads", DESCR.as_bytes());
    let data = write_temp("noop.txt", DATA);
    let wal = temp_dir().join("noop.wal");
    let wal = wal.to_str().unwrap();
    let full = parse_journaled(&descr, &data, &["--journal", wal, "--metrics=json"]);
    assert_eq!(full.code, Some(2), "{}", full.stderr);
    let again = parse_journaled(&descr, &data, &["--journal", wal, "--resume", "--metrics=json"]);
    assert_eq!(again.code, Some(2), "{}", again.stderr);
    assert_eq!(again.stdout, full.stdout, "restored metrics diverge");
    assert!(again.stderr.contains("before the resume point"), "{}", again.stderr);
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

/// Writes a valid journal by running a full journaled parse, then hands
/// the file bytes to `mutate` and reports the mutated resume attempt.
fn corrupted_resume(tag: &str, mutate: impl FnOnce(&mut Vec<u8>)) -> Run {
    let descr = write_temp(&format!("{tag}.pads"), DESCR.as_bytes());
    let data = write_temp(&format!("{tag}.txt"), DATA);
    let wal = temp_dir().join(format!("{tag}.wal"));
    let full = parse_journaled(&descr, &data, &["--journal", wal.to_str().unwrap()]);
    assert_eq!(full.code, Some(2), "{}", full.stderr);
    let mut bytes = std::fs::read(&wal).expect("read journal");
    mutate(&mut bytes);
    std::fs::write(&wal, &bytes).expect("rewrite journal");
    parse_journaled(&descr, &data, &["--journal", wal.to_str().unwrap(), "--resume"])
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
    let run = corrupted_resume("crc", |bytes| {
        let (start, _) = frame_spans(bytes)[0];
        bytes[start + 12] ^= 0xFF;
    });
    assert_eq!(run.code, Some(4), "{}", run.stderr);
    assert!(run.stderr.contains("JournalCrcMismatch"), "{}", run.stderr);
}

/// A duplicated frame (same offset and record twice): exit 4, the
/// checkpoint sequence must strictly advance.
#[test]
fn resume_rejects_duplicate_checkpoint() {
    let run = corrupted_resume("dup", |bytes| {
        let (start, end) = *frame_spans(bytes).last().expect("at least one frame");
        let copy = bytes[start..end].to_vec();
        bytes.extend_from_slice(&copy);
    });
    assert_eq!(run.code, Some(4), "{}", run.stderr);
    assert!(run.stderr.contains("JournalOutOfOrder"), "{}", run.stderr);
}

/// A tail torn mid-frame (the crash case): repaired with a notice, and
/// the resumed run still completes with the right exit status.
#[test]
fn resume_repairs_torn_tail_and_completes() {
    let run = corrupted_resume("torn", |bytes| {
        bytes.truncate(bytes.len() - 5);
    });
    assert_eq!(run.code, Some(2), "{}", run.stderr);
    assert!(run.stderr.contains("JournalTornTail"), "{}", run.stderr);
}

/// A journal written for different data: exit 4, source mismatch.
#[test]
fn resume_rejects_journal_for_other_source() {
    let descr = write_temp("sm.pads", DESCR.as_bytes());
    let data = write_temp("sm.txt", DATA);
    let other = write_temp("sm-other.txt", b"9|OPEN|9\n8|SHIP|8\n");
    let wal = temp_dir().join("sm.wal");
    let full = parse_journaled(&descr, &data, &["--journal", wal.to_str().unwrap()]);
    assert_eq!(full.code, Some(2), "{}", full.stderr);
    let run = parse_journaled(&descr, &other, &["--journal", wal.to_str().unwrap(), "--resume"]);
    assert_eq!(run.code, Some(4), "{}", run.stderr);
    assert!(run.stderr.contains("JournalSourceMismatch"), "{}", run.stderr);
}
