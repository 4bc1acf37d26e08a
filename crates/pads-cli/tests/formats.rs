//! `--format {report,xml,none}` equivalence: every sink must produce
//! byte-identical output whether the records reached it from the
//! sequential engine or through the record-sharded merge — including
//! error records that went through the panic-mode recovery policy — and
//! `--format none` must parse (and set the exit status) without writing
//! anything to stdout.

use std::io::Write;
use std::process::Command;

fn pads() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pads"))
}

fn write_temp(name: &str, contents: &[u8]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pads-fmt-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
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

// A constraint violation (record 1), a syntax error the panic-mode
// recovery policy resynchronises past (record 3), and clean records.
const DATA: &[u8] = b"1|OPEN|5\n2|SHIP|1\n3|DONE|9\nnot-a-record\n5|SHIP|20\n6|DONE|8\n";

struct Run {
    code: Option<i32>,
    stdout: Vec<u8>,
    stderr: String,
}

/// Chunks of one record: `--jobs N` really shards the six-record source.
const CHUNKED: [&str; 2] = ["--max-inflight-records", "2"];

fn parse(extra: &[&str]) -> Run {
    // Tests run on parallel threads: each writes (and truncates) files of
    // its own, or a child of another test reads one half-written.
    let me = format!("{:?}", std::thread::current().id());
    let descr = write_temp(&format!("d-{me}.pads"), DESCR.as_bytes());
    let data = write_temp(&format!("data-{me}.txt"), DATA);
    let out =
        pads().arg("parse").arg(&descr).arg(&data).args(extra).args(CHUNKED).output().expect("run");
    Run {
        code: out.status.code(),
        stdout: out.stdout,
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

#[test]
fn report_is_byte_identical_between_sequential_and_sharded_engines() {
    let seq = parse(&[]);
    let par = parse(&["--jobs", "4"]);
    assert_eq!(seq.code, Some(2));
    assert_eq!(par.code, Some(2));
    assert_eq!(seq.stdout, par.stdout);
    assert_eq!(seq.stderr, par.stderr);
    let text = String::from_utf8_lossy(&seq.stdout);
    assert!(text.contains("errors:"), "{text}");
}

#[test]
fn xml_is_byte_identical_between_sequential_and_sharded_engines() {
    let seq = parse(&["--format", "xml"]);
    let par = parse(&["--format=xml", "--jobs", "4"]);
    assert_eq!(seq.code, Some(2));
    assert_eq!(seq.stdout, par.stdout);
    // Error records reach the XML sink with their values.
    let text = String::from_utf8_lossy(&seq.stdout);
    assert!(text.contains("<orders_t>"), "{text}");
    assert!(text.contains("OPEN"), "{text}");
}

#[test]
fn format_none_discards_output_but_keeps_the_exit_status() {
    for jobs in ["1", "4"] {
        let run = parse(&["--format", "none", "--jobs", jobs]);
        assert_eq!(run.code, Some(2), "jobs={jobs}");
        assert!(run.stdout.is_empty(), "jobs={jobs}: {:?}", run.stdout);
        // The stderr error summary still appears.
        assert!(run.stderr.contains("error"), "jobs={jobs}: {}", run.stderr);
    }
}

#[test]
fn format_rejects_unknown_values() {
    let run = parse(&["--format", "csv"]);
    assert_eq!(run.code, Some(1));
    assert!(run.stderr.contains("expected report, xml, or none"), "{}", run.stderr);
}

#[test]
fn journaled_report_matches_the_plain_sequential_report() {
    let descr = write_temp("dj.pads", DESCR.as_bytes());
    let data = write_temp("dataj.txt", DATA);
    let plain = pads().arg("parse").arg(&descr).arg(&data).output().expect("run");
    for jobs in ["1", "3"] {
        let wal = write_temp(&format!("fmt-{jobs}.wal"), b"");
        std::fs::remove_file(&wal).expect("clear");
        let journaled = pads()
            .arg("parse")
            .arg(&descr)
            .arg(&data)
            .args(["--journal", wal.to_str().unwrap(), "--jobs", jobs])
            .args(CHUNKED)
            .output()
            .expect("run");
        assert_eq!(plain.stdout, journaled.stdout, "jobs={jobs}");
        assert_eq!(plain.status.code(), journaled.status.code(), "jobs={jobs}");
    }
}

#[test]
fn accumulator_report_is_identical_through_the_batched_parallel_engine() {
    let descr = write_temp("da.pads", DESCR.as_bytes());
    let data = write_temp("dataa.txt", DATA);
    let seq = pads().arg("accum").arg(&descr).arg(&data).output().expect("run");
    let par = pads()
        .arg("accum")
        .arg(&descr)
        .arg(&data)
        .args(["--jobs", "3"])
        .args(CHUNKED)
        .output()
        .expect("run");
    assert_eq!(seq.status.code(), par.status.code());
    assert_eq!(
        String::from_utf8_lossy(&seq.stdout),
        String::from_utf8_lossy(&par.stdout)
    );
}
