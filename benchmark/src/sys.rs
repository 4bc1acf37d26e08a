//! Child processes measured with `wait4` and optionally confined to one
//! CPU, and the process CPU clock.
//!
//! `wait4` returns the resource usage of exactly the child it reaps, so
//! wall and CPU time are per child run, not per harness. Peak RSS is too,
//! with one catch: Linux carries the spawning process's own high-water
//! mark across `exec` into the child's `ru_maxrss`, so a child that needs
//! less memory than its parent ever held reports the parent's peak. The
//! timing process therefore stays small (set-up runs in a child of its
//! own, outputs are hashed a buffer at a time) and checks every child's
//! figure against [`own_peak_rss_kib`].

use std::fs::OpenOptions;
use std::io::{self, Seek};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// What one child run cost.
#[derive(Debug, Clone, Copy)]
pub struct ChildRun {
    /// Spawn to reap, seconds.
    pub wall_s: f64,
    /// User plus system CPU seconds of the child.
    pub cpu_s: f64,
    /// Peak resident set of the child, KiB.
    pub max_rss_kib: u64,
    /// Exit status; `None` when a signal ended the child.
    pub exit_code: Option<i32>,
}

/// Runs `cmd` to completion with stdout redirected to the file at
/// `stdout_path` (never a pipe the harness would have to drain on the
/// same core) and stderr discarded.
///
/// An existing file is overwritten in place and then cut to what the
/// child wrote, not truncated first: its pages are already in the page
/// cache, so the kernel does not allocate fresh ones under the clock. On
/// this VM that allocation costs 150 MB of XML anything from 0.3 to 1.1 s
/// of system time, depending on whether the host still backs the guest's
/// free pages; it was the largest source of run-to-run spread and none of
/// it is the program's.
pub fn run_child(cmd: &mut Command, stdout_path: &Path) -> io::Result<ChildRun> {
    let mut out = OpenOptions::new().write(true).create(true).truncate(false).open(stdout_path)?;
    cmd.stdin(Stdio::null()).stdout(out.try_clone()?).stderr(Stdio::null());
    let start = Instant::now();
    let child = cmd.spawn()?;
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: `pid` is our own un-reaped child (std never reaps a `Child`
    // that is not waited on), and both out-pointers refer to live,
    // correctly laid-out locals for the duration of the call.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    let wall_s = start.elapsed().as_secs_f64();
    if reaped != pid {
        return Err(io::Error::last_os_error());
    }
    // The child wrote through a duplicate of `out`, which shares its file
    // offset: that offset is the length of this run's output.
    let written = out.stream_position()?;
    out.set_len(written)?;
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    // WIFEXITED / WEXITSTATUS: low seven bits zero means a normal exit.
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(ChildRun {
        wall_s,
        cpu_s: secs(ru.utime) + secs(ru.stime),
        max_rss_kib: u64::try_from(ru.maxrss).unwrap_or(0),
        exit_code,
    })
}

/// Makes the child `cmd` spawns run on one CPU only, the lowest-numbered
/// one this process is allowed on: every thread the child starts shares
/// that CPU, however many cores the host grants at the moment.
pub fn confine_to_one_cpu(cmd: &mut Command) -> io::Result<()> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live local of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let (word, bits) = allowed
        .iter()
        .enumerate()
        .find(|(_, bits)| **bits != 0)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bits.trailing_zeros();
    // SAFETY: the closure runs in the forked child before exec and only
    // makes one system call on a mask it owns: no allocation, no locks.
    unsafe {
        cmd.pre_exec(move || {
            if sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) == 0 {
                Ok(())
            } else {
                Err(io::Error::last_os_error())
            }
        });
    }
    Ok(())
}

/// This process's own peak resident set (`VmHWM`), KiB: the floor under
/// every `ru_maxrss` its children report.
pub fn own_peak_rss_kib() -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:")?.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}

/// CPU seconds this process (all threads) has used so far.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a live, correctly laid-out local; the clock id is a
    // constant every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 / 1e9
}

/// Logical CPUs the scheduler offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
