//! `pads parse` holds the file and one record, not the source's value
//! tree: the child's peak RSS on a corpus of 4 N records may exceed its
//! peak on N records by the difference in file size plus a fixed slack,
//! and no more. A whole-source tree costs about seventeen times the file,
//! so a reintroduced one fails here rather than at measurement time.
//!
//! One test, alone in its binary, and the corpora are written a chunk at a
//! time: Linux carries the spawning process's own high-water mark across
//! `exec` into the child's `ru_maxrss`, so this process must stay smaller
//! than the children it measures.
#![cfg(all(target_os = "linux", target_pointer_width = "64"))]

use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

const CHUNK: usize = 1_000;

/// Writes a Sirius file of `chunks` × 1 000 records: one generated header,
/// then the records of `chunks` independently seeded corpora.
fn write_corpus(path: &Path, chunks: usize) -> u64 {
    let mut file = std::fs::File::create(path).expect("create corpus");
    for chunk in 0..chunks {
        let cfg = pads_gen::SiriusConfig {
            records: CHUNK,
            seed: 0x51E1 + chunk as u64,
            ..Default::default()
        };
        let data = pads_gen::sirius::generate(&cfg).0;
        let header = data.iter().position(|&b| b == b'\n').expect("header line") + 1;
        file.write_all(if chunk == 0 { &data } else { &data[header..] }).expect("write corpus");
    }
    file.metadata().expect("corpus metadata").len()
}

/// Runs `pads parse sirius.pads <corpus>` and returns the child's peak
/// resident set, KiB. The child is reaped by `wait4`, which is what hands
/// back its resource usage; `Child::wait` would not.
#[allow(clippy::zombie_processes)]
fn peak_rss_kib(corpus: &Path) -> u64 {
    let descr = concat!(env!("CARGO_MANIFEST_DIR"), "/../../descriptions/sirius.pads");
    let child = Command::new(env!("CARGO_BIN_EXE_pads"))
        .args(["parse", descr])
        .arg(corpus)
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
    u64::try_from(usage.maxrss).expect("ru_maxrss")
}

#[test]
fn peak_rss_grows_with_the_file_not_with_a_value_tree() {
    const SLACK_KIB: u64 = 6 * 1024;
    let dir = std::env::temp_dir().join(format!("pads-memory-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (small, large) = (dir.join("sirius-n.txt"), dir.join("sirius-4n.txt"));
    let (small_len, large_len) = (write_corpus(&small, 10), write_corpus(&large, 40));
    let (at_n, at_4n) = (peak_rss_kib(&small), peak_rss_kib(&large));
    let file_growth_kib = (large_len - small_len).div_ceil(1024);
    assert!(
        at_4n <= at_n + file_growth_kib + SLACK_KIB,
        "peak RSS {at_n} KiB at N, {at_4n} KiB at 4 N: grew by more than the {file_growth_kib} KiB \
         the file grew by plus {SLACK_KIB} KiB"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
