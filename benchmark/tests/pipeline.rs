//! The whole pipeline on 2 000-record corpora: every workload sets up,
//! verifies and runs clean, a wrong output is counted as a failed
//! operation, and the peak RSS printed for a child is that child's.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use pads_e2e_bench::workload::{self, Tools, WORKLOADS};
use pads_e2e_bench::{corpus, sys};

const RECORDS: usize = 2_000;

/// Builds the root workspace's `pads` binary into the build directory this
/// test was built into (a no-op when it is fresh) and returns its path.
fn pads_cli() -> &'static Path {
    static PADS: OnceLock<PathBuf> = OnceLock::new();
    PADS.get_or_init(|| {
        let profile_dir =
            Path::new(env!("CARGO_BIN_EXE_gen_tool")).parent().expect("profile directory");
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repository root");
        let mut build = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
        build.args(["build", "--quiet", "-p", "pads-cli"]).current_dir(root);
        if profile_dir.ends_with("release") {
            build.arg("--release");
        }
        build.env("CARGO_TARGET_DIR", profile_dir.parent().expect("target directory"));
        assert!(build.status().expect("cargo runs").success(), "building pads-cli failed");
        profile_dir.join("pads")
    })
}

fn tools(scratch: &str) -> Tools {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repository root");
    Tools {
        pads: pads_cli().to_owned(),
        gen_tool: PathBuf::from(env!("CARGO_BIN_EXE_gen_tool")),
        setup: PathBuf::from(env!("CARGO_BIN_EXE_setup")),
        descriptions: root.join("descriptions"),
        out_dir: Path::new(env!("CARGO_TARGET_TMPDIR")).join(scratch),
    }
}

#[test]
fn every_workload_verifies_and_runs_without_failures() {
    let tools = tools("pipeline-clean");
    for w in &WORKLOADS {
        let p =
            workload::prepare(w, 11, RECORDS, &tools).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let again = workload::prepare(w, 11, RECORDS, &tools).expect("second set-up");
        assert_eq!(
            (p.corpus_hash, p.vm_ref, p.gen_ref),
            (again.corpus_hash, again.vm_ref, again.gen_ref),
            "{}: the same seed must give the same corpus and outputs",
            w.name
        );
        let other = workload::prepare(w, 12, RECORDS, &tools).expect("set-up with another seed");
        assert_ne!(p.corpus_hash, other.corpus_hash, "{}: another seed, another corpus", w.name);

        // The `--jobs` tier runs only where the CLI shards.
        let tiers = w.tiers().len();
        assert_eq!(tiers, if w.description.cli_shards() { 3 } else { 2 }, "{}", w.name);
        let m = workload::measure(&tools, &other, 1).expect("one round");
        assert_eq!((m.attempted, m.failed), (tiers as u64, 0), "{}", w.name);
        assert_eq!((m.vm.len(), m.gen.len(), m.vm_par.len()), (1, 1, tiers - 2));
        assert!(m.vm[0].wall_s > 0.0 && m.vm[0].max_rss_kib > 0, "{:?}", m.vm[0]);
    }
}

#[test]
fn a_wrong_output_is_a_failed_operation() {
    let tools = tools("pipeline-corrupt");
    let clf_accum = workload::find("clf_accum").expect("a workload with all three tiers");
    let mut p = workload::prepare(clf_accum, 5, RECORDS, &tools).expect("set-up");

    // Both CLI tiers are held to the vm reference: corrupt it and the vm
    // and vm --jobs runs of the round fail while the gen run still passes.
    p.vm_ref ^= 1;
    let m = workload::measure(&tools, &p, 1).expect("one round");
    assert_eq!((m.attempted, m.failed), (3, 2));

    p.vm_ref ^= 1;
    p.gen_ref ^= 1;
    let m = workload::measure(&tools, &p, 2).expect("two rounds");
    assert_eq!((m.attempted, m.failed), (6, 2));
}

#[test]
fn a_file_hashes_like_its_bytes() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("hash_file.dat");
    // Around the read buffer's edge, on and off a word boundary.
    for len in [0usize, 5, 8, (1 << 16) - 3, 1 << 16, (1 << 16) + 8, (3 << 16) + 13] {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        std::fs::write(&path, &data).expect("scratch file");
        assert_eq!(corpus::hash_file(&path).expect("readable"), corpus::hash64(&data), "{len}");
    }
}

/// A child's output file is reused in place; what an earlier, longer
/// output left behind must not survive into a shorter one.
#[test]
fn a_reused_output_file_holds_only_the_last_output() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("reused.out");
    let _ = std::fs::remove_file(&path);
    for text in ["a long first output", "short", ""] {
        let mut cmd = Command::new("printf");
        cmd.args(["%s", text]);
        let run = sys::run_child(&mut cmd, &path).expect("printf runs");
        assert_eq!(run.exit_code, Some(0));
        assert_eq!(std::fs::read(&path).expect("output file"), text.as_bytes());
    }
}

/// The figure printed for a child is the child's: two different programs
/// over one corpus do not report the same peak RSS, and neither reports
/// the timing process's own. (They did, when set-up ran in the timing
/// process: Linux hands a parent's high-water mark on to its children.)
#[test]
fn peak_rss_is_the_childs_own() {
    pads_cli();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repository root");
    let output = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["--workload", "clf_accum", "--seed", "3", "--seconds", "0", "--records", "20000"])
        .current_dir(root)
        .output()
        .expect("e2e runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&output.stderr));
    let value = |key: &str| -> u64 {
        let line = stdout.lines().find(|l| l.contains(key)).unwrap_or_else(|| panic!("{key}"));
        let mut words = line.split_whitespace().skip_while(|w| *w != key);
        words.nth(1).and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("{line}"))
    };
    let (vm, gen) = (value("vm_peak_rss_kib"), value("gen_peak_rss_kib"));
    let own = value("harness_peak_rss_kib");
    assert_ne!(vm, gen, "{stdout}");
    assert!(vm > own && gen > own, "{stdout}");
    assert!(stdout.lines().last().is_some_and(|l| l.starts_with("{\"correct\": true")), "{stdout}");
}
