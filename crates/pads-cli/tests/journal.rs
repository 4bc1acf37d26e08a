//! End-to-end durability of `pads parse --journal`. The kill-and-resume
//! loop (sequential and record-sharded, under every policy) is a cell of
//! the contract matrix's `cli` column: a killed run prints only its
//! notice, and the run resumed from its journal prints the interpreter's
//! truth from the checkpoint on, with the truth's status and the metrics
//! of a run through. Then the corrupt-journal torture matrix: every
//! distinct failure mode must surface its stable `ErrorCode` name on
//! stderr and the dedicated exit status 4, except a torn tail, which is
//! repaired in place with a notice. Every row runs over a plain record
//! array and over Sirius, the paper's header-then-records feed.

#[path = "../../../tests/common/contract.rs"]
mod contract;

use std::process::Command;

use contract::Tool::{self, Journal};
use contract::{bundled, cli, every_cli_policy, written, Case, Description, Truth, ORDERS};
use pads::descriptions::SIRIUS;
use pads::Registry;
use pads_runtime::KillPlan;

const PADS: &str = env!("CARGO_BIN_EXE_pads");

// Two constraint violations (records 1 and 5, zero-based).
const DATA: &[u8] = b"1|OPEN|5\n2|SHIP|1\n3|DONE|9\n4|HOLD|8\n5|SHIP|20\n6|DONE|2\n7|OPEN|7\n";

/// Seven Sirius orders (one with a syntax error, one out of order) behind
/// their header line.
fn sirius(seed: u64) -> Vec<u8> {
    let cfg = pads_gen::SiriusConfig { records: 7, seed, syntax_errors: 1, ..Default::default() };
    pads_gen::sirius::generate(&cfg).0
}

/// A journaled run killed after `after` records, checkpointing every
/// `every`.
fn kill(after: usize, every: usize) -> Tool {
    Journal(Some(KillPlan { kill_after: after, checkpoint_every: every }))
}

/// The orders and the Sirius feed — just the feed, its header's first
/// byte wrong, where `bad_header` — under every policy, the truth `check`ed
/// and its journaled run in each of `journals`, on one, two and four
/// workers taking a record at a time (so that `--jobs 4` really shards the
/// seven records and checkpoints after each).
fn cell(bad_header: bool, journals: &[Tool], check: fn(&Truth)) {
    let registry = Registry::standard();
    let schema = pads::compile(ORDERS, &registry).expect("orders_t compiles");
    let orders = Description::new(&schema, &registry).with_text(ORDERS);
    let (bundled, mut data) = (bundled::sirius(), sirius(1));
    data[0] = if bad_header { b'x' } else { data[0] };
    let sirius = bundled.description();
    let rows = cli(journals, &[(1, 2), (2, 2), (4, 2)].map(Some));
    let cases = [Case::new("orders", &orders, DATA), Case::new("sirius", &sirius, &data)];
    for case in &cases[usize::from(bad_header)..] {
        every_cli_policy(case, PADS, &rows, check);
    }
}

/// Killed before the first checkpoint (the resumed run starts over, header
/// and all), inside the records (it starts past the header), and on the
/// last record. A run the budget stops before the kill point completes
/// instead, and resuming it is the no-op of the next test.
#[test]
fn kill_then_resume_matches_uninterrupted_run() {
    cell(false, &[kill(1, 3), kill(1, 1), kill(3, 2), kill(5, 3), kill(7, 1)], |_| ());
}

/// Resuming the journal of a run through — at the default checkpoint
/// cadence, and at one longer than the source, where the run's final
/// checkpoint is its only one — re-parses nothing but still reports the
/// run's errors from the restored state.
#[test]
fn resume_of_a_complete_run_is_a_faithful_no_op() {
    let through = [Journal(None), kill(usize::MAX, 100)];
    cell(false, &through, |truth| assert!(truth.run.end.budget.errs > 0, "{}", truth.at));
}

/// A header with a syntax error aborts the source struct before its record
/// array: no record ends, so no checkpoint is taken, and `--resume` starts
/// over and aborts the same way, with the same output and status.
#[test]
fn a_bad_header_aborts_the_resumed_run_as_it_did_the_first() {
    cell(true, &[kill(2, 1)], |truth| assert!(truth.aborted(), "{}: the header is fine", truth.at));
}

/// For the orders and the Sirius feed, each written to a directory of its
/// own: a full journaled run, its journal `mutate`d, then `--resume` over
/// the data, or over `other` data of the description, must exit with
/// `code` and name `what` on stderr.
fn resume_after(mutate: impl Fn(&mut Vec<u8>), other: bool, code: i32, what: &str) {
    let orders = (ORDERS, DATA.to_vec(), b"9|OPEN|9\n8|SHIP|8\n".to_vec());
    for (text, data, other_data) in [orders, (SIRIUS, sirius(1), sirius(2))] {
        let files = [("d.pads", text.as_bytes()), ("data", &data), ("other", &other_data)];
        let (dir, [descr, data, other_data]) = written(files);
        let wal = dir.join("wal");
        let parse = |data: &str, extra: &[&str]| {
            let mut pads = Command::new(PADS);
            pads.args(["parse", &descr, data, "--journal"]).arg(&wal).args(extra);
            let out = pads.output().expect("run pads");
            (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
        };
        assert_eq!(parse(&data, &[]).0, Some(2));
        let mut bytes = std::fs::read(&wal).expect("read journal");
        mutate(&mut bytes);
        std::fs::write(&wal, &bytes).expect("rewrite journal");
        let (status, stderr) = parse(if other { &other_data } else { &data }, &["--resume"]);
        assert_eq!(status, Some(code), "{descr}: {stderr}");
        assert!(stderr.contains(what), "{descr}: {stderr}");
        std::fs::remove_dir_all(&dir).expect("remove the test's files");
    }
}
/// A journal too short to hold the magic header: exit 4, stable code name.
#[test]
fn resume_rejects_empty_journal_with_bad_header() {
    resume_after(Vec::clear, false, 4, "JournalBadHeader");
}

/// Garbage where the header should be: same failure class.
#[test]
fn resume_rejects_garbled_header() {
    let garble = |bytes: &mut Vec<u8>| *bytes = b"not a journal at all, sixteen+ bytes".to_vec();
    resume_after(garble, false, 4, "JournalBadHeader");
}

/// A flipped payload byte inside the first frame (after the 16-byte
/// header, the frame's length and CRC): exit 4, CRC mismatch.
#[test]
fn resume_rejects_flipped_payload_byte() {
    resume_after(|bytes| bytes[16 + 12] ^= 0xFF, false, 4, "JournalCrcMismatch");
}

/// The last frame twice (same offset and record): exit 4, the checkpoint
/// sequence must strictly advance.
#[test]
fn resume_rejects_duplicate_checkpoint() {
    let duplicate = |bytes: &mut Vec<u8>| {
        let mut last = 16..16;
        while let Some(len) = bytes.get(last.end..last.end + 4) {
            let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
            last = last.end..last.end + 8 + len;
        }
        bytes.extend_from_within(last);
    };
    resume_after(duplicate, false, 4, "JournalOutOfOrder");
}

/// A tail torn mid-frame (the crash case): repaired with a notice, and
/// the resumed run still completes with the right exit status.
#[test]
fn resume_repairs_torn_tail_and_completes() {
    resume_after(|bytes| bytes.truncate(bytes.len() - 5), false, 2, "JournalTornTail");
}

/// A journal written for different data: exit 4, source mismatch.
#[test]
fn resume_rejects_journal_for_other_source() {
    resume_after(|_| (), true, 4, "JournalSourceMismatch");
}
