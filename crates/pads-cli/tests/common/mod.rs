//! What the `pads-cli` suites share: the repository's files, `pads` run
//! from its root, and — on 64-bit Linux — `pads` run as a measured child:
//! what `wait4` says the child used.
//!
//! Linux carries the spawning process's own high-water mark across `exec`
//! into the child's `ru_maxrss`, so a test binary that reads peak RSS must
//! stay smaller than the children it measures — which peak at a few
//! megabytes: corpora are written a piece at a time, child output goes to
//! `/dev/null`, and [`pads_usage`] refuses a figure that is not above this
//! process's own (the check `benchmark/src/sys.rs` documents).
// Each test binary uses its own part of this module.
#![allow(dead_code)]

use std::io::Write;
use std::path::Path;
use std::process::{Command, Output, Stdio};

/// The repository's root, where the goldens' paths start.
pub const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Exit status for "the data had errors but the run completed".
pub const EXIT_DATA_ERRORS: i32 = 2;

/// `pads <args>`, run from [`ROOT`] to completion.
pub fn pads_at_root(args: &[&str]) -> Output {
    let mut pads = Command::new(env!("CARGO_BIN_EXE_pads"));
    pads.current_dir(ROOT).args(args).output().expect("pads binary runs")
}

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which `ru_maxrss` (KiB) is the first and `ru_nvcsw` the thirteenth.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss_to_nsignals: [i64; 11],
    nvcsw: i64,
    nivcsw: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What a finished `pads` child used.
pub struct Usage {
    /// Peak resident set, KiB.
    pub peak_rss_kib: u64,
    /// Voluntary context switches: how often a thread of the child blocked.
    pub voluntary_switches: u64,
}

/// Runs `pads <args>` to completion, output discarded, and returns its
/// resource usage. The child is reaped by `wait4`, which is what hands the
/// usage back; `Child::wait` would not.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(clippy::zombie_processes)]
pub fn pads_usage(args: &[&str]) -> Usage {
    let child = Command::new(env!("CARGO_BIN_EXE_pads"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pads");
    let pid = i32::try_from(child.id()).expect("pid");
    let mut status = 0;
    let mut usage = Rusage::default();
    // SAFETY: `pid` is a child of this process that nothing else waits on
    // (`child` is never waited on or killed), and both out-pointers refer
    // to live, correctly laid-out locals for the duration of the call.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    assert_eq!(reaped, pid, "wait4: {}", std::io::Error::last_os_error());
    // Exited normally, with "clean" or "data errors".
    assert!(status & 0x7f == 0 && [0, 2].contains(&((status >> 8) & 0xff)), "status {status:#x}");
    let peak_rss_kib = u64::try_from(usage.maxrss).expect("ru_maxrss");
    let own = own_peak_rss_kib();
    assert!(
        peak_rss_kib > own,
        "pads {args:?} peaked at {peak_rss_kib} KiB, not above this process's own {own} KiB: \
         the figure may be this process's, carried across exec"
    );
    Usage { peak_rss_kib, voluntary_switches: u64::try_from(usage.nvcsw).expect("ru_nvcsw") }
}

/// This process's peak resident set so far, KiB (`VmHWM`).
fn own_peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let hwm = status.lines().find_map(|line| line.strip_prefix("VmHWM:")).expect("VmHWM");
    hwm.trim().trim_end_matches("kB").trim().parse().expect("VmHWM in kB")
}

/// Records per generated piece of a corpus.
pub const PIECE: usize = 1_000;

/// Writes a corpus of `pieces` × 1 000 records a piece at a time —
/// `piece(i)` generates the `i`-th, independently seeded — and returns the
/// file's length.
pub fn write_corpus(path: &Path, pieces: usize, piece: impl Fn(usize) -> Vec<u8>) -> u64 {
    let mut file = std::fs::File::create(path).expect("create corpus");
    for i in 0..pieces {
        file.write_all(&piece(i)).expect("write corpus");
    }
    file.metadata().expect("corpus metadata").len()
}

/// The `i`-th 1 000 records of a Sirius file: the first piece keeps its
/// generated header line, the others are records only.
pub fn sirius_piece(i: usize) -> Vec<u8> {
    let cfg =
        pads_gen::SiriusConfig { records: PIECE, seed: 0x51E1 + i as u64, ..Default::default() };
    let mut data = pads_gen::sirius::generate(&cfg).0;
    if i > 0 {
        let header = data.iter().position(|&b| b == b'\n').expect("header line") + 1;
        data.drain(..header);
    }
    data
}

/// The `i`-th 1 000 records of a CLF file (one in fifteen has a `-` length).
pub fn clf_piece(i: usize) -> Vec<u8> {
    let cfg = pads_gen::ClfConfig { records: PIECE, seed: 0xC1F + i as u64, ..Default::default() };
    pads_gen::clf::generate(&cfg).0
}

/// A description bundled with the repository.
pub fn description(name: &str) -> String {
    format!("{ROOT}/descriptions/{name}.pads")
}

/// The repository's torture corpus `torture_<name>`.
pub fn torture(name: &str) -> String {
    format!("{ROOT}/tests/data/torture_{name}")
}
