//! End-to-end tests driving the `pads` binary.

mod common;

use std::process::{Command, Output, Stdio};

use common::{clf_piece, description, torture, write_corpus};

fn pads() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pads"))
}

/// `pads <args>`, run to completion.
fn run(args: &[&str]) -> Output {
    pads().args(args).output().expect("run pads")
}

/// `contents` in a file `name` of this process's own directory: its path.
fn write_temp(name: &str, contents: &[u8]) -> String {
    let dir = std::env::temp_dir().join(format!("pads-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join(name), contents).expect("write");
    dir.join(name).to_str().expect("utf-8 temp path").to_owned()
}

const DESCR: &str = r#"
Precord Pstruct order_t {
    Puint32 id;
    '|'; Pstring(:'|':) state;
    '|'; Puint32 total : total >= id;
};
Psource Parray orders_t { order_t[]; };
"#;

#[test]
fn check_accepts_good_and_rejects_bad_descriptions() {
    let good = write_temp("good.pads", DESCR.as_bytes());
    let out = run(&["check", &good]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("source `orders_t`"));

    let bad = write_temp("bad.pads", b"Pstruct t { NoSuch x; };");
    let out = run(&["check", &bad]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown type"));
}

#[test]
fn parse_reports_errors_with_record_numbers() {
    let descr = write_temp("d.pads", DESCR.as_bytes());
    let data = write_temp("data.txt", b"1|OPEN|5\n2|SHIP|1\n3|DONE|9\n");
    let out = run(&["parse", &descr, &data]);
    // total 1 < id 2 on the second record: the run completes, so the exit
    // status is the distinct "data errors" code (2), not hard failure (1).
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("errors: 1"), "{stdout}");
    assert!(stdout.contains("record 1"), "{stdout}");
    // The stderr summary counts errors per code.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("constraint violated: 1"), "{stderr}");
}

#[test]
fn parse_distinguishes_hard_failure_from_data_errors() {
    let descr = write_temp("d-hard.pads", DESCR.as_bytes());
    assert_eq!(run(&["parse", &descr, "/definitely/not/a/file"]).status.code(), Some(1));
}

#[test]
fn error_budget_flags_stop_parsing_early() {
    let descr = write_temp("d-budget.pads", DESCR.as_bytes());
    // Three constraint violations; a budget of one stops the run early.
    let data = write_temp("data-budget.txt", b"5|A|1\n6|B|1\n7|C|1\n8|D|9\n");
    let out = run(&["parse", &descr, &data, "--max-errs", "1", "--on-overflow", "stop"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error budget exhausted"), "{stderr}");
}

#[test]
fn unknown_record_type_is_a_hard_failure() {
    let descr = write_temp("d-rec.pads", DESCR.as_bytes());
    let data = write_temp("data-rec.txt", b"1|OPEN|5\n");
    let out = run(&["accum", &descr, &data, "--record", "nonexistent_t"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not declared"), "{stderr}");
}

#[test]
fn parse_xml_emits_document() {
    let descr = write_temp("d2.pads", DESCR.as_bytes());
    let data = write_temp("data2.txt", b"1|OPEN|5\n");
    let out = run(&["parse", &descr, &data, "--format", "xml"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("<state>OPEN</state>"), "{stdout}");
}

#[test]
fn accum_infers_the_record_type() {
    let descr = write_temp("d3.pads", DESCR.as_bytes());
    let data = write_temp("data3.txt", b"1|OPEN|5\n2|SHIP|7\n2|OPEN|9\n");
    let out = run(&["accum", &descr, &data]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("<top>.state"), "{stdout}");
    assert!(stdout.contains("good: 3 bad: 0"), "{stdout}");
}

#[test]
fn fmt_formats_records() {
    let descr = write_temp("d4.pads", DESCR.as_bytes());
    let data = write_temp("data4.txt", b"1|OPEN|5\n");
    let out = run(&["fmt", &descr, &data, "--delim", ","]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "1,OPEN,5\n");
}

/// `fmt` follows the exit-status rule: a run that completes over records
/// with errors prints every line and ends as `accum` does — status 2, and
/// the same count of bad records on stderr.
#[test]
fn fmt_and_accum_report_bad_records_alike() {
    let (clf, log) = (description("clf"), torture("clf.log"));
    let run = |cmd: &str| pads().args([cmd, &clf, &log]).output().expect("run pads");
    let (fmt, accum) = (run("fmt"), run("accum"));
    assert_eq!(fmt.status.code(), Some(2), "{}", String::from_utf8_lossy(&fmt.stderr));
    assert_eq!(accum.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&fmt.stderr);
    assert!(stderr.starts_with("pads: ") && stderr.contains(" bad record(s) in "), "{stderr}");
    assert_eq!(fmt.stderr, accum.stderr);
    let records = std::fs::read(&log).expect("corpus").split(|&b| b == b'\n').count() - 1;
    assert_eq!(String::from_utf8_lossy(&fmt.stdout).lines().count(), records);
}

/// A `--jobs` far past any machine's cores runs as `MAX_JOBS` workers, each
/// with its share of the input window: under a 4 GB address-space limit the
/// run prints what `--jobs 1` prints.
#[cfg(target_os = "linux")]
#[test]
fn a_huge_jobs_count_is_bounded() {
    let clf = description("clf");
    let records =
        pads_gen::clf::generate(&pads_gen::ClfConfig { records: 50, ..Default::default() });
    let data = write_temp("jobs-bound.log", &records.0);
    let run = |jobs: &str| {
        Command::new("sh")
            .args(["-c", "ulimit -v 4000000 && exec \"$@\"", "sh", env!("CARGO_BIN_EXE_pads")])
            .args(["parse", &clf, &data, "--format", "none", "--jobs", jobs])
            .output()
            .expect("run pads")
    };
    let (huge, one) = (run("100000"), run("1"));
    assert_eq!(huge.status.code(), one.status.code(), "{}", String::from_utf8_lossy(&huge.stderr));
    assert!(matches!(one.status.code(), Some(0 | 2)));
    assert_eq!((huge.stdout, huge.stderr), (one.stdout, one.stderr));
}

#[test]
fn gen_then_parse_round_trips() {
    let descr = write_temp("d5.pads", DESCR.as_bytes());
    let gen = run(&["gen", &descr, "--records", "12", "--seed", "9"]);
    assert!(gen.status.success(), "{}", String::from_utf8_lossy(&gen.stderr));
    let data = write_temp("gen5.txt", &gen.stdout);
    // Generic generation ignores semantic constraints, so only require
    // syntactic acceptance: count parsed records via a query.
    let out = run(&["query", &descr, &data, "/elt[id >= 0]"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "12");
}

#[test]
fn xsd_and_codegen_emit_plausible_output() {
    let descr = write_temp("d6.pads", DESCR.as_bytes());
    let out = run(&["xsd", &descr]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("<xs:schema"));
    let out = run(&["codegen", &descr]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("pub struct OrderT"));
}

#[test]
fn cobol_translates() {
    let cb = write_temp("c.cpy", b"01 R.\n   05 A PIC 9(3).\n   05 B PIC X(2).\n");
    let out = run(&["cobol", &cb]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Pebc_zoned(:3:) a"), "{stdout}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = run(&["bogus"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn lint_allow_threshold_reveals_notes_and_trips_exit() {
    // DESCR's `state` field is referenced by no constraint: a PL206
    // note, invisible at the warn/deny thresholds.
    let descr = write_temp("d-lint-allow.pads", DESCR.as_bytes());
    let out = run(&["check", &descr, "--lint"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(!String::from_utf8_lossy(&out.stderr).contains("PL206"));

    let out = run(&["check", &descr, "--lint=allow"]);
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("note[PL206]:"), "{stderr}");
}

#[test]
fn lint_format_json_is_deterministic_machine_output() {
    let descr = write_temp("d-lint-json.pads", DESCR.as_bytes());
    let json = || run(&["check", &descr, "--lint=allow", "--lint-format=json"]);
    let (a, b) = (json(), json());
    assert_eq!(a.stdout, b.stdout, "json output must be deterministic");
    let stdout = String::from_utf8_lossy(&a.stdout);
    assert!(stdout.starts_with('['), "{stdout}");
    assert!(stdout.contains("\"code\":\"PL206\""), "{stdout}");
    assert!(stdout.contains("\"level\":\"note\""), "{stdout}");
    assert!(stdout.contains("\"span\":{\"start\":"), "{stdout}");
    assert!(stdout.contains("\"hint\":"), "{stdout}");
    // Without `--lint`, json implies the deny threshold: clean exit here.
    let out = run(&["check", &descr, "--lint-format=json"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn diff_classifies_and_exits_three_on_breaks() {
    let old = write_temp("diff-old.pads", DESCR.as_bytes());
    // Identity: compatible, exit 0, no findings.
    let out = run(&["diff", &old, &old]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "verdict: compatible\n");

    // Added optional field: compatible, exit 0.
    let widened = write_temp(
        "diff-opt.pads",
        DESCR
            .replace(
                "Puint32 total : total >= id;",
                "Puint32 total : total >= id; Popt Pchar flag;",
            )
            .as_bytes(),
    );
    let out = run(&["diff", &old, &widened]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("PD101 compatible"));

    // Removed field: breaks, exit 3.
    let broken = write_temp(
        "diff-broken.pads",
        DESCR.replace("'|'; Pstring(:'|':) state;\n", "").as_bytes(),
    );
    let out = run(&["diff", &old, &broken]);
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PD301 breaks"), "{stdout}");
    assert!(stdout.contains("verdict: breaks"), "{stdout}");
}

/// A literal between the header and the records is not something the
/// header+records driver can frame: `accum` and `fmt` refuse to guess the
/// shape (they used to drop the literal and mis-frame every record), and
/// `parse` falls back to the whole-tree parse, which handles it.
#[test]
fn a_source_the_driver_cannot_frame_is_not_inferred() {
    let descr = write_temp(
        "separated.pads",
        br#"
        Precord Pstruct hdr_t { Puint32 n; };
        Precord Pstruct rec_t { Puint32 a; };
        Parray recs_t { rec_t[]; };
        Psource Pstruct src_t { hdr_t h; "----\n"; recs_t rs; };
        "#,
    );
    let data = write_temp("separated.txt", b"2\n----\n7\n8\n");
    for cmd in ["accum", "fmt"] {
        let out = run(&[cmd, &descr, &data]);
        assert_eq!(out.status.code(), Some(1), "{cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cannot infer the record type"), "{cmd}: {stderr}");
    }
    let out = run(&["parse", &descr, &data]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "parse state: ok errors: 0\n");
}

/// A reader that goes away (`pads … | head -1`) is the `pads: stdout: …`
/// hard failure, not a panic with a backtrace, on every writer that
/// streams: the exposition of a `--metrics=json` run, written once the
/// parse is over; the XML document and the `fmt` lines, written as the
/// records arrive, on one thread or two; `gen`'s batches. Each writes more
/// than a pipe holds, so some write comes after the read end was dropped
/// here.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[test]
fn closed_stdout_is_a_hard_failure_not_a_panic() {
    let (clf, corpus) = (description("clf"), write_temp("closed-pipe.log", b""));
    write_corpus(corpus.as_ref(), 30, clf_piece);
    let runs: [&[&str]; 5] = [
        &["parse", &clf, &corpus, "--metrics=json"],
        &["parse", &clf, &corpus, "--format", "xml"],
        &["parse", &clf, &corpus, "--format", "xml", "--jobs", "2"],
        &["fmt", &clf, &corpus],
        &["gen", &clf, "--records", "30000"],
    ];
    for args in runs {
        let mut child = (pads().args(args))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn pads");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for pads");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.starts_with("pads: stdout: Broken pipe"), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    }
}

/// `-` is standard input, read through the same window as a file: a pipe
/// from `pads gen` into `accum`, `parse`, `fmt` and `profile` prints the
/// bytes (stdout, and the exit status) the same records print from a file —
/// 30 000 CLF records, a few windows' worth, on one thread and on two.
#[test]
fn a_piped_source_prints_what_the_file_does() {
    let clf = description("clf");
    let gen = || pads().args(["gen", &clf, "--records", "30000"]).stdout(Stdio::piped()).spawn();
    let file = write_temp("piped.log", b"");
    let mut whole = gen().expect("spawn pads gen");
    std::io::copy(
        whole.stdout.as_mut().expect("piped"),
        &mut std::fs::File::create(&file).expect("temp file"),
    )
    .expect("write corpus");
    assert!(whole.wait().expect("pads gen").success());
    let commands: [&[&str]; 5] = [
        &["accum"],
        &["accum", "--jobs", "2"],
        &["parse", "--format", "xml", "--jobs", "2"],
        &["fmt"],
        &["profile"],
    ];
    for command in commands {
        let run = |source: &str, stdin: Stdio| {
            let mut pads = pads();
            let out = pads.args([command[0], &clf, source]).args(&command[1..]).stdin(stdin);
            let out = out.output().expect("run pads");
            assert!(matches!(out.status.code(), Some(0 | 2)), "{command:?}: {:?}", out.status);
            (out.status.code(), out.stdout)
        };
        let mut gen = gen().expect("spawn pads gen");
        let piped = run("-", gen.stdout.take().expect("piped").into());
        assert!(gen.wait().expect("pads gen").success());
        assert!(piped == run(&file, Stdio::null()), "{command:?}");
    }
}

/// A source that cannot be opened or read is the hard failure `pads:
/// <path>: <error>` — status 1, nothing on stdout — on every streaming
/// subcommand; and a journal needs a file it can fingerprint and seek in,
/// which standard input is not.
#[test]
fn an_unreadable_source_is_a_hard_failure() {
    let clf = description("clf");
    let dir = std::env::temp_dir();
    let dir = dir.to_str().expect("utf-8 temp dir");
    for (source, error) in [
        ("/definitely/not/a/file", "No such file or directory (os error 2)"),
        (dir, "Is a directory (os error 21)"),
    ] {
        for command in ["parse", "accum", "fmt", "profile", "query"] {
            let query: &[&str] = if command == "query" { &["/elt"] } else { &[] };
            let out = pads().args([command, &clf, source]).args(query).output().expect("run pads");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(stderr, format!("pads: {source}: {error}\n"), "{command}");
            assert_eq!((out.status.code(), out.stdout.len()), (Some(1), 0), "{command}");
        }
    }
    // `output` runs the child with a null standard input.
    let out = run(&["parse", &clf, "-", "--journal", "/tmp/never-created.wal"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("pads: --journal needs a seekable file"), "{stderr}");
    assert_eq!((out.status.code(), stderr.lines().count()), (Some(1), 1), "{stderr}");
}

/// `pads gen` writes a batch of records at a time and the bytes are those
/// of generating them all at once, for every bundled description.
#[test]
fn gen_in_batches_writes_the_bytes_of_one_call() {
    for (name, schema) in [
        ("clf", pads::descriptions::clf()),
        ("sirius", pads::descriptions::sirius()),
        ("mixed", pads::descriptions::mixed()),
    ] {
        let out = run(&["gen", &description(name), "--records", "2500", "--seed", "7"]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let record = pads::SourceShape::infer(&schema).expect("bundled sources stream").record;
        let config = pads_gen::GenConfig { seed: 7, ..Default::default() };
        let at_once = pads_gen::Generator::new(&schema, config).generate_records(record, 2500);
        assert!(out.stdout == at_once, "{name}");
    }
}

/// An option is accepted only by the subcommands that read it: a run that
/// wrote no journal, or ran on one thread, must not exit as if it had done
/// what it was asked. The same holds for an argument past the ones a
/// subcommand takes, for an option missing its value, for a zero-width
/// record discipline (which would read the whole input), and for a zero
/// checkpoint or fsync interval. Refusals are status 1 with one line on
/// stderr and nothing done; every subcommand still takes an option it does
/// read.
#[test]
fn an_option_a_subcommand_does_not_read_is_refused() {
    let clf = description("clf");
    let log = torture("clf.log");
    let copybook = write_temp("opts.cpy", b"       01 REC.\n          05 A PIC 9(4).\n");
    let journal = std::env::temp_dir().join(format!("pads-cli-opts-{}.wal", std::process::id()));
    let wal = journal.to_str().expect("utf-8 temp path");
    let refused: [(&[&str], &str); 19] = [
        (
            &["accum", &clf, &log, "--journal", wal, "--trace", "--lint", "--folded"],
            "--journal is not an option of `pads accum`",
        ),
        (
            &["parse", &clf, &log, "--resume", "--kill-after", "2", "--checkpoint-records", "3"],
            "--resume needs --journal",
        ),
        (&["fmt", &clf, &log, "--jobs", "4"], "--jobs is not an option of `pads fmt`"),
        (&["profile", &clf, &log, "--jobs", "2"], "--jobs is not an option of `pads profile`"),
        (&["parse", &clf, &log, "--header", "h_t"], "--header is not an option of `pads parse`"),
        // Every argument is read before a journal option asks for --journal.
        (
            &["parse", &clf, &log, "--resume", "--header", "h_t"],
            "--header is not an option of `pads parse`",
        ),
        (
            &["query", &clf, &log, "/elt", "--format=xml"],
            "--format is not an option of `pads query`",
        ),
        // Only the options that say so take `--name=value`.
        (&["gen", &clf, "--records=5"], "unknown option --records=5"),
        (&["parse", &clf, &log, "--trace=xml"], "--trace: expected json or tree, got `xml`"),
        (&["gen", &clf, "--ebcdic"], "--ebcdic is not an option of `pads gen`"),
        (&["xsd", &clf, "--lint=warn"], "--lint is not an option of `pads xsd`"),
        // An extra argument is refused too, not dropped.
        (
            &["parse", &clf, &log, "--metrics", "json"],
            "`pads parse` takes 2 argument(s), got 3 (`json`)",
        ),
        (&["accum", &clf, &log, "b.log"], "`pads accum` takes 2 argument(s), got 3 (`b.log`)"),
        (&["xsd", &clf, "extra"], "`pads xsd` takes 1 argument(s), got 2 (`extra`)"),
        (
            &["check", &clf, "--lint-format"],
            "--lint-format needs a value: --lint-format=json or --lint-format=text",
        ),
        (&["parse", &clf, &log, "--format", "none", "--fixed", "0"], "--fixed: must be at least 1"),
        (&["accum", &clf, &log, "--lenpfx", "0"], "--lenpfx: must be at least 1"),
        (
            &["parse", &clf, &log, "--journal", wal, "--fsync-every", "0"],
            "--fsync-every: must be at least 1",
        ),
        (
            &["parse", &clf, &log, "--journal", wal, "--checkpoint-bytes", "0"],
            "--checkpoint-bytes: must be at least 1",
        ),
    ];
    for (args, why) in refused {
        let out = pads().args(args).output().expect("run pads");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr, format!("pads: {why}\n"), "{args:?}");
        assert_eq!((out.status.code(), out.stdout.len()), (Some(1), 0), "{args:?}");
    }
    assert!(!journal.exists(), "a refused run wrote a journal");

    let accepted: [&[&str]; 10] = [
        &["check", &clf, "--lint=allow"],
        &["parse", &clf, &log, "--journal", wal, "--checkpoint-records", "3", "--fsync-every", "1"],
        &["profile", &clf, &log, "--folded", "--max-errs", "2"],
        &["accum", &clf, &log, "--jobs", "2", "--top", "3", "--on-overflow", "skip"],
        &["fmt", &clf, &log, "--delim", ",", "--record", "entry_t"],
        &["query", &clf, &log, "/elt", "--engine", "interp"],
        &["gen", &clf, "--records", "3", "--seed", "9", "--record", "entry_t"],
        &["xsd", &clf],
        &["cobol", &copybook],
        &["codegen", &clf],
    ];
    for args in accepted {
        let out = pads().args(args).output().expect("run pads");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(matches!(out.status.code(), Some(0 | 2 | 3)), "{args:?}: {stderr}");
        assert!(!stderr.contains("is not an option"), "{args:?}: {stderr}");
    }
    std::fs::remove_file(&journal).expect("the accepted --journal run wrote its journal");
}
