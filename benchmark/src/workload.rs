//! The four workloads, their set-up and verification, and the timed rounds.
//!
//! A 2 × 2: two descriptions, each run two ways, so a gain in a layer the
//! pair shares moves both rows and a gain in the layer that differs moves
//! one. Every timed operation is a child process over the corpus file on
//! disk with stdout redirected to a scratch file that is hashed after the
//! clock stops.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

use pads::{descriptions, BaseMask, Mask, PadsParser, Registry, Writer};

use crate::corpus;
use crate::sys::{self, ChildRun};

/// Which bundled description a workload parses with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Description {
    Sirius,
    Clf,
}

impl Description {
    pub fn file(self) -> &'static str {
        match self {
            Description::Sirius => "sirius.pads",
            Description::Clf => "clf.pads",
        }
    }

    /// Records in the workload's corpus (34 MB of Sirius, 27 MB of CLF):
    /// sized so one vm child runs for about a second or more.
    pub fn records(self) -> usize {
        match self {
            Description::Sirius => 200_000,
            Description::Clf => 300_000,
        }
    }

    /// Leading records that are not `entry_t` (the Sirius summary header).
    pub fn header_records(self) -> usize {
        match self {
            Description::Sirius => 1,
            Description::Clf => 0,
        }
    }

    /// Whether `pads … --jobs N` shards this description's source. One
    /// with a header is not a plain record array: the CLI says so on
    /// stderr and parses sequentially, so a `--jobs` child would be a
    /// second vm run. It is not run; `vm_par_cpu_ratio` is 1 there.
    pub fn cli_shards(self) -> bool {
        self.header_records() == 0
    }
}

/// What the program under test is asked to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Figure 10 vetting: vm prints the error report, gen re-emits the
    /// clean records.
    Vet,
    /// §5.2 accumulator report.
    Accum,
    /// §5.3.2 XML conversion.
    Xml,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub description: Description,
    pub task: Task,
    /// Damage every fourth record (see [`corpus::damage`]).
    pub dirty: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sirius_vet",
        why: "Figure 10 vetting at the paper's error rate: clean-path struct/union/array framing, whole-source value tree (the RSS workload)",
        description: Description::Sirius,
        task: Task::Vet,
        dirty: false,
    },
    Workload {
        name: "sirius_dirty",
        why: "same task and corpus with every 4th record damaged: panic-mode resync, descriptor construction and error reporting do the extra work",
        description: Description::Sirius,
        task: Task::Vet,
        dirty: true,
    },
    Workload {
        name: "clf_accum",
        why: "section 5.2 accumulator report over CLF with 6.67% dash lengths: base-type-parse-bound, streaming, tiny output; the only workload where --jobs shards",
        description: Description::Clf,
        task: Task::Accum,
        dirty: false,
    },
    Workload {
        name: "clf_xml",
        why: "section 5.3.2 XML conversion of the same CLF file: output is 5.7x the input, the write-side workload; bypasses the accumulator",
        description: Description::Clf,
        task: Task::Xml,
        dirty: false,
    },
];

/// `pads accum`'s `--tracked` and `--top` defaults, which the gen tier
/// must share to print the same report, and the rows it folds at a time.
pub const ACCUM_TRACKED: usize = 1000;
pub const ACCUM_TOP_K: usize = 10;
pub const ACCUM_CHUNK_ROWS: usize = 4096;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Where the programs under test and their inputs live.
#[derive(Debug, Clone)]
pub struct Tools {
    /// The shipped `pads` CLI (the vm tier).
    pub pads: PathBuf,
    /// This package's `gen_tool` (the gen tier).
    pub gen_tool: PathBuf,
    /// This package's `setup`: [`prepare`] as a process of its own, so
    /// that the corpus and the reference outputs pass through its memory
    /// and not through the timing process's, which has to stay smaller
    /// than every child it measures (see [`crate::sys`]).
    pub setup: PathBuf,
    /// Directory holding `sirius.pads` and `clf.pads`.
    pub descriptions: PathBuf,
    /// Scratch directory for corpora and child outputs.
    pub out_dir: PathBuf,
}

impl Tools {
    /// Tools next to the running executable (one shared build directory),
    /// descriptions and scratch relative to the checkout root (the cwd).
    pub fn beside_current_exe() -> Result<Tools, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe.parent().ok_or("executable has no parent directory")?;
        let tools = Tools {
            pads: dir.join("pads"),
            gen_tool: dir.join("gen_tool"),
            setup: dir.join("setup"),
            descriptions: PathBuf::from("descriptions"),
            out_dir: PathBuf::from("benchmark/out"),
        };
        for p in [&tools.pads, &tools.gen_tool, &tools.setup, &tools.descriptions] {
            if !p.exists() {
                return Err(format!(
                    "{} is missing (run benchmark/run.sh, which builds it)",
                    p.display()
                ));
            }
        }
        Ok(tools)
    }
}

/// The product tiers a round times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `pads … --engine vm --jobs 1`.
    Vm,
    /// `gen_tool …`.
    Gen,
    /// `pads … --engine vm --jobs $(nproc)`, the child confined to one
    /// CPU: its CPU seconds over [`Tier::Vm`]'s are then the cost of
    /// sharding itself (threads, channel messages, the in-order merge),
    /// not of however many cores the host grants this minute. Unconfined,
    /// the same run cost 1.8 × the CPU when the box had one effective core
    /// and 3.8 × when it had two, twenty minutes apart. Only run where the
    /// CLI shards ([`Description::cli_shards`]).
    VmPar,
}

impl Workload {
    /// The tiers a round of this workload runs.
    pub fn tiers(&self) -> &'static [Tier] {
        if self.description.cli_shards() {
            &[Tier::Vm, Tier::Gen, Tier::VmPar]
        } else {
            &[Tier::Vm, Tier::Gen]
        }
    }
}

/// A workload whose corpus is on disk and whose reference outputs have
/// been cross-checked.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub workload: Workload,
    pub corpus_path: PathBuf,
    pub input_bytes: usize,
    pub corpus_hash: u64,
    /// Hash of the output both CLI engines agreed on.
    pub vm_ref: u64,
    /// Hash of the gen tier's verified output.
    pub gen_ref: u64,
    /// The error count on the first line of the vm tier's vet report
    /// (`parse state: … errors: N`), which the traced run's re-enactment
    /// of that tier must reach too. `None` for the other tasks.
    pub vm_errors: Option<u64>,
}

impl Prepared {
    /// The one line `setup` prints for `e2e` to read back.
    pub fn to_line(&self) -> String {
        format!(
            "prepared {} {:016x} {:016x} {:016x} {}",
            self.input_bytes,
            self.corpus_hash,
            self.vm_ref,
            self.gen_ref,
            self.vm_errors.map_or("-".to_owned(), |n| n.to_string())
        )
    }

    /// The set-up of `w` that `line` describes, its corpus under
    /// `tools.out_dir`.
    pub fn from_line(w: &Workload, tools: &Tools, line: &str) -> Option<Prepared> {
        let hex = |s: &str| u64::from_str_radix(s, 16).ok();
        match line.split_whitespace().collect::<Vec<_>>()[..] {
            ["prepared", bytes, corpus, vm, gen, errors] => Some(Prepared {
                workload: *w,
                corpus_path: corpus_path(tools, w),
                input_bytes: bytes.parse().ok()?,
                corpus_hash: hex(corpus)?,
                vm_ref: hex(vm)?,
                gen_ref: hex(gen)?,
                vm_errors: if errors == "-" { None } else { Some(errors.parse().ok()?) },
            }),
            _ => None,
        }
    }
}

fn corpus_path(tools: &Tools, w: &Workload) -> PathBuf {
    tools.out_dir.join(w.name).join("corpus.dat")
}

/// The file `tier`'s children write to. One per tier, written by one of
/// set-up's reference runs first and then overwritten in place by every
/// timed run (see [`sys::run_child`]); [`remove_outputs`] deletes them.
fn tier_out_path(tools: &Tools, w: &Workload, tier: Tier) -> PathBuf {
    tools.out_dir.join(w.name).join(match tier {
        Tier::Vm => "out-vm.dat",
        Tier::Gen => "out-gen.dat",
        Tier::VmPar => "out-vm-par.dat",
    })
}

/// Deletes the tiers' output files once a run is over: pages still dirty
/// are dropped instead of being written to the disk.
pub fn remove_outputs(tools: &Tools, w: &Workload) {
    for tier in [Tier::Vm, Tier::Gen, Tier::VmPar] {
        // Nothing to delete when set-up never got that far.
        let _ = std::fs::remove_file(tier_out_path(tools, w, tier));
    }
}

fn cli_command(tools: &Tools, w: &Workload, corpus: &Path, engine: &str, jobs: usize) -> Command {
    let mut cmd = Command::new(&tools.pads);
    let description = tools.descriptions.join(w.description.file());
    match w.task {
        Task::Vet => cmd.arg("parse").arg(description).arg(corpus).args(["--format", "report"]),
        Task::Accum => cmd.arg("accum").arg(description).arg(corpus),
        Task::Xml => cmd.arg("parse").arg(description).arg(corpus).args(["--format", "xml"]),
    };
    cmd.args(["--engine", engine, "--jobs", &jobs.to_string()]);
    cmd
}

fn gen_command(tools: &Tools, w: &Workload, corpus: &Path) -> Command {
    let mut cmd = Command::new(&tools.gen_tool);
    cmd.arg(match w.task {
        Task::Vet => "sirius-vet",
        Task::Accum => "clf-accum",
        Task::Xml => "clf-xml",
    });
    cmd.arg(corpus);
    cmd
}

fn tier_command(tools: &Tools, p: &Prepared, tier: Tier) -> Result<Command, String> {
    Ok(match tier {
        Tier::Vm => cli_command(tools, &p.workload, &p.corpus_path, "vm", 1),
        Tier::VmPar => {
            let mut cmd = cli_command(tools, &p.workload, &p.corpus_path, "vm", sys::nproc());
            sys::confine_to_one_cpu(&mut cmd).map_err(|e| format!("CPU affinity: {e}"))?;
            cmd
        }
        Tier::Gen => gen_command(tools, &p.workload, &p.corpus_path),
    })
}

/// A completed run: exit status 0 (clean) or 2 (data errors).
fn completed(run: &ChildRun) -> bool {
    matches!(run.exit_code, Some(0 | 2))
}

fn read_file(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads `path` and deletes it: a deleted file's dirty pages are dropped
/// instead of being written back in the middle of a later timed run.
fn take_file(path: &Path) -> Result<Vec<u8>, String> {
    let bytes = read_file(path)?;
    std::fs::remove_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(bytes)
}

/// The `N` of a vet report's first line, `parse state: … errors: N`.
pub fn report_errors(report: &[u8]) -> Option<u64> {
    let first = report.split(|&b| b == b'\n').next()?;
    std::str::from_utf8(first).ok()?.strip_prefix("parse state: ")?.rsplit(' ').next()?.parse().ok()
}

/// Runs `cmd` into `out_path`, which stays, and returns its output bytes.
fn run_and_read(cmd: &mut Command, out_path: &Path, what: &str) -> Result<Vec<u8>, String> {
    let run = sys::run_child(cmd, out_path).map_err(|e| format!("{what}: {e}"))?;
    if !completed(&run) {
        return Err(format!("{what}: exit status {:?}", run.exit_code));
    }
    read_file(out_path)
}

/// The interpreter's verdict on a Sirius file, computed in-process and
/// independently of both tiers under test: the vet output (header and
/// clean records rendered by the interpretive [`Writer`]) and one byte
/// per order record, `1` clean or `0` rejected.
pub fn interpreter_vet(data: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let registry = Registry::standard();
    let schema = descriptions::sirius();
    let parser = PadsParser::new(&schema, &registry);
    let writer = Writer::new(&schema, &registry);
    let mask = Mask::all(BaseMask::CheckAndSet);
    let mut out = Vec::with_capacity(data.len());
    let mut bitmap = Vec::new();
    let mut cur = parser.open(data);
    let (header, hpd) = parser.parse_named(&mut cur, "summary_header_t", &[], &mask);
    if hpd.is_ok() {
        writer.write_named(&mut out, "summary_header_t", &header).expect("a clean header writes");
    }
    for (value, pd) in parser.records(&data[cur.offset()..], "entry_t", &mask) {
        if pd.is_ok() {
            writer.write_named(&mut out, "entry_t", &value).expect("a clean record writes");
        }
        bitmap.push(if pd.is_ok() { b'1' } else { b'0' });
    }
    (out, bitmap)
}

/// What the corpus generator says it wrote.
enum Truth {
    Sirius(pads_gen::SiriusStats),
    Clf(pads_gen::ClfStats),
}

/// The `bad:` count of the `<top>.length` section of an accumulator report.
pub fn report_bad_lengths(report: &str) -> Option<usize> {
    let section = report.split("<top>.length : ").nth(1)?;
    let line = section.lines().find(|l| l.starts_with("good: "))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Generates the workload's corpus from `seed` (`records` of them), writes
/// it under `tools.out_dir`, and cross-checks the reference outputs:
///
/// * the interpreter CLI and the vm CLI agree byte for byte (the timed
///   `--jobs $(nproc)` runs are then held to that same output);
/// * the gen tier agrees with them where it emits the same artifact
///   (accumulator report, XML);
/// * ground truth from the generator pins the rest: the accumulator's bad
///   `length` count is `ClfStats.dash_lengths`; the gen vet output is the
///   input minus exactly the records `SiriusStats` lists; on the damaged
///   corpus the gen tier's per-record accept/reject bitmap and output are
///   the interpreter's.
///
/// # Errors
///
/// Any disagreement, failed child or I/O error, as one line of text.
pub fn prepare(w: &Workload, seed: u64, records: usize, tools: &Tools) -> Result<Prepared, String> {
    let dir = tools.out_dir.join(w.name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    let (clean, truth) = match w.description {
        Description::Sirius => {
            let (data, stats) = corpus::sirius(seed, records);
            (data, Truth::Sirius(stats))
        }
        Description::Clf => {
            let (data, stats) = corpus::clf(seed, records);
            (data, Truth::Clf(stats))
        }
    };
    let data = if w.dirty {
        corpus::damage(&clean, w.description.header_records(), seed).0
    } else {
        clean
    };
    let corpus_path = corpus_path(tools, w);
    // Written through to the disk now, inside set-up, not during a round.
    std::fs::File::create(&corpus_path)
        .and_then(|mut f| f.write_all(&data).and_then(|()| f.sync_all()))
        .map_err(|e| format!("{}: {e}", corpus_path.display()))?;

    // Each reference lands in the file the timed runs of a tier overwrite
    // (the interpreter's, being the vm's byte for byte, in the `--jobs`
    // tier's), so that even the first timed run finds its pages.
    let vm = run_and_read(
        &mut cli_command(tools, w, &corpus_path, "vm", 1),
        &tier_out_path(tools, w, Tier::Vm),
        "vm reference",
    )?;
    let interp = run_and_read(
        &mut cli_command(tools, w, &corpus_path, "interp", 1),
        &tier_out_path(tools, w, Tier::VmPar),
        "interpreter reference",
    )?;
    if interp != vm {
        return Err("interpreter and vm CLI outputs differ".into());
    }

    let bitmap_path = dir.join("ref-gen.bitmap");
    let mut gen_cmd = gen_command(tools, w, &corpus_path);
    if w.task == Task::Vet {
        gen_cmd.arg("--bitmap").arg(&bitmap_path);
    }
    let gen = run_and_read(&mut gen_cmd, &tier_out_path(tools, w, Tier::Gen), "gen reference")?;

    match (w.task, &truth) {
        (Task::Accum, Truth::Clf(stats)) => {
            if gen != vm {
                return Err("gen and vm outputs differ".into());
            }
            let bad = report_bad_lengths(&String::from_utf8_lossy(&vm));
            if bad != Some(stats.dash_lengths) {
                return Err(format!(
                    "accumulator reports {bad:?} bad lengths, the generator wrote {}",
                    stats.dash_lengths
                ));
            }
        }
        (Task::Xml, Truth::Clf(_)) => {
            if gen != vm {
                return Err("gen and vm outputs differ".into());
            }
        }
        (Task::Vet, Truth::Sirius(_)) if w.dirty => {
            let (expected, expected_bitmap) = interpreter_vet(&data);
            if take_file(&bitmap_path)? != expected_bitmap {
                return Err("gen accept/reject bitmap differs from the interpreter's".into());
            }
            if gen != expected {
                return Err("gen vet output differs from the interpreter's".into());
            }
        }
        (Task::Vet, Truth::Sirius(stats)) => {
            let mut truth =
                [&stats.syntax_error_records[..], &stats.sort_violation_records[..]].concat();
            truth.sort_unstable();
            let mut expected = Vec::with_capacity(data.len());
            for (line_no, line) in data.split_inclusive(|&b| b == b'\n').enumerate() {
                if line_no == 0 || truth.binary_search(&(line_no - 1)).is_err() {
                    expected.extend_from_slice(line);
                }
            }
            if gen != expected {
                return Err(
                    "gen vet output is not the input minus the records SiriusStats lists".into()
                );
            }
            let rejected: Vec<usize> = take_file(&bitmap_path)?
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'0')
                .map(|(i, _)| i)
                .collect();
            if rejected != truth {
                return Err(format!(
                    "gen rejected records {rejected:?}, the generator damaged {truth:?}"
                ));
            }
        }
        _ => return Err("the workload pairs a task with the wrong description".into()),
    }

    Ok(Prepared {
        workload: *w,
        corpus_path,
        input_bytes: data.len(),
        corpus_hash: corpus::hash64(&data),
        vm_ref: corpus::hash64(&vm),
        gen_ref: corpus::hash64(&gen),
        vm_errors: if w.task == Task::Vet { report_errors(&vm) } else { None },
    })
}

/// One timed child run of `tier`, and whether it completed with the
/// reference output.
pub fn timed_run(tools: &Tools, p: &Prepared, tier: Tier) -> Result<(ChildRun, bool), String> {
    let out_path = tier_out_path(tools, &p.workload, tier);
    let run = sys::run_child(&mut tier_command(tools, p, tier)?, &out_path)
        .map_err(|e| format!("{tier:?} run: {e}"))?;
    // The clock has stopped: verify the output.
    let hash = corpus::hash_file(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let reference = if tier == Tier::Gen { p.gen_ref } else { p.vm_ref };
    Ok((run, completed(&run) && hash == reference))
}

/// The child runs of every round, per tier (`vm_par` stays empty where
/// the CLI does not shard), with the failure count.
#[derive(Debug, Default)]
pub struct Measured {
    pub vm: Vec<ChildRun>,
    pub gen: Vec<ChildRun>,
    pub vm_par: Vec<ChildRun>,
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    pub fn rounds(&self) -> usize {
        self.vm.len()
    }
}

/// Seconds of `--seconds` that buy one round. The number of rounds is a
/// function of `--seconds` alone, never of how fast the build under test
/// ran: throughput is taken from the fastest child, and a minimum over
/// fewer samples reads higher.
const SECONDS_PER_ROUND: f64 = 3.0;

/// Rounds timed however short `--seconds` is.
const MIN_ROUNDS: usize = 5;

/// Rounds a run of `seconds` times.
pub fn rounds_for(seconds: f64) -> usize {
    MIN_ROUNDS.max((seconds / SECONDS_PER_ROUND) as usize)
}

/// Closed loop, one client: `rounds` rounds of one run per tier, the
/// order rotated each round so drift and co-tenant noise fall on every
/// tier alike.
pub fn measure(tools: &Tools, p: &Prepared, rounds: usize) -> Result<Measured, String> {
    let tiers = p.workload.tiers();
    let mut m = Measured::default();
    for round in 0..rounds {
        for i in 0..tiers.len() {
            let tier = tiers[(round + i) % tiers.len()];
            let (run, ok) = timed_run(tools, p, tier)?;
            m.attempted += 1;
            m.failed += u64::from(!ok);
            match tier {
                Tier::Vm => m.vm.push(run),
                Tier::Gen => m.gen.push(run),
                Tier::VmPar => m.vm_par.push(run),
            }
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_length_count_is_read_from_the_report() {
        let report = "<top>.response : uint16_FW\ngood: 2 bad: 1 pcnt-bad: 33.333\n\n\
                      <top>.length : uint32\n+++\ngood: 14 bad: 3 pcnt-bad: 17.6\nmin: 1\n";
        assert_eq!(report_bad_lengths(report), Some(3));
        assert_eq!(report_bad_lengths("no such section"), None);
    }

    #[test]
    fn error_count_is_read_from_the_vet_report() {
        assert_eq!(
            report_errors(b"parse state: partial errors: 62002\n  es.[3]: x\n"),
            Some(62002)
        );
        assert_eq!(report_errors(b"parse state: ok errors: 0\n"), Some(0));
        assert_eq!(report_errors(b"<clt_t>\n"), None);
    }

    #[test]
    fn the_set_up_result_survives_its_line() {
        let tools = Tools {
            pads: "pads".into(),
            gen_tool: "gen_tool".into(),
            setup: "setup".into(),
            descriptions: "descriptions".into(),
            out_dir: "out".into(),
        };
        for vm_errors in [None, Some(3)] {
            let p = Prepared {
                workload: WORKLOADS[1],
                corpus_path: corpus_path(&tools, &WORKLOADS[1]),
                input_bytes: 34_012_345,
                corpus_hash: 0xDEAD_BEEF_0000_0001,
                vm_ref: 2,
                gen_ref: u64::MAX,
                vm_errors,
            };
            let back = Prepared::from_line(&WORKLOADS[1], &tools, &p.to_line()).expect("parses");
            assert_eq!(format!("{back:?}"), format!("{p:?}"));
        }
        assert!(Prepared::from_line(&WORKLOADS[1], &tools, "prepared 1 2 3").is_none());
    }

    #[test]
    fn workload_names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name), Some(w));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(find("mixed"), None);
    }

    #[test]
    fn rounds_follow_the_seconds_asked_for_and_nothing_else() {
        assert_eq!(rounds_for(0.0), 5);
        assert_eq!(rounds_for(16.0), 5);
        assert_eq!(rounds_for(30.0), 10);
    }
}
