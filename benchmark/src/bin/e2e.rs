//! The end-to-end run of one workload, tracing off.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s>
//! ```
//!
//! Sets the workload up once, in a child process (corpus, reference
//! outputs, cross-checks; its wall time is `setup_s`), then times the
//! rounds of child processes that `--seconds` buys and prints every
//! end-to-end metric by name, ending with the contract's one-line JSON
//! result.

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use pads_e2e_bench::args::Args;
use pads_e2e_bench::json;
use pads_e2e_bench::metrics::{measured, END_TO_END, FAILED_SHARE};
use pads_e2e_bench::stats::{median, min_max, Summary};
use pads_e2e_bench::sys::{self, ChildRun};
use pads_e2e_bench::workload::{self, Prepared, Tools, Workload};

fn print_failed_share(workload: &str, share: f64) {
    println!("metric {workload} {} {share} {}", FAILED_SHARE.name, FAILED_SHARE.unit);
}

fn main() -> ExitCode {
    let (args, w) = match Args::from_env().and_then(|a| a.one_workload().map(|w| (a, w))) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("e2e: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args, w) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            // An aborted workload is one failed operation out of one.
            eprintln!("e2e: {}: {msg}", w.name);
            print_failed_share(w.name, 1.0);
            println!("{}", json::result_line(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}

/// Sets the workload up in a `setup` process, which finds the same tools
/// and directories from the same working directory, and times it.
fn set_up(
    w: &Workload,
    seed: u64,
    records: usize,
    tools: &Tools,
) -> Result<(Prepared, f64), String> {
    let start = Instant::now();
    let output = Command::new(&tools.setup)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--records", &records.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", tools.setup.display()))?;
    let seconds = start.elapsed().as_secs_f64();
    if !output.status.success() {
        return Err("set-up failed".into());
    }
    let line = String::from_utf8_lossy(&output.stdout);
    let prepared = Prepared::from_line(w, tools, &line)
        .ok_or_else(|| format!("unreadable set-up result `{}`", line.trim()))?;
    Ok((prepared, seconds))
}

fn run(args: &Args, w: &'static Workload) -> Result<(), String> {
    let tools = Tools::beside_current_exe()?;
    let records = args.records_of(w);
    let (p, setup_s) = set_up(w, args.seed, records, &tools)?;
    let m = workload::measure(&tools, &p, workload::rounds_for(args.seconds));
    workload::remove_outputs(&tools, w);
    let m = m?;

    // A child that never grew past this process's own peak reports that
    // peak, not its own (see `sys`): refuse to print such a figure.
    let own_peak = sys::own_peak_rss_kib().map_err(|e| format!("own peak RSS: {e}"))?;
    if let Some(run) = m.vm.iter().chain(&m.gen).find(|r| r.max_rss_kib <= own_peak) {
        return Err(format!(
            "a child's peak RSS ({} KiB) is not above the harness's own ({own_peak} KiB): \
             it is the harness's figure, not the child's",
            run.max_rss_kib
        ));
    }

    let name = w.name;
    println!("workload {name}: {}", w.why);
    println!(
        "corpus {name} seed {} records {records} bytes {} hash {:016x} vm_ref {:016x} gen_ref {:016x}",
        args.seed, p.input_bytes, p.corpus_hash, p.vm_ref, p.gen_ref
    );
    println!(
        "env {name} nproc {} rounds {} harness_peak_rss_kib {own_peak} (closed loop, one client)",
        sys::nproc(),
        m.rounds()
    );

    // Every sample of the run, and per series its median, range and count.
    let of =
        |runs: &[ChildRun], f: fn(&ChildRun) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    let wall = |r: &ChildRun| r.wall_s;
    let cpu = |r: &ChildRun| r.cpu_s;
    let rss = |r: &ChildRun| r.max_rss_kib as f64;
    let (vm_wall, gen_wall, par_wall) = (of(&m.vm, wall), of(&m.gen, wall), of(&m.vm_par, wall));
    let (vm_cpu, gen_cpu, par_cpu) = (of(&m.vm, cpu), of(&m.gen, cpu), of(&m.vm_par, cpu));
    let (vm_rss, gen_rss) = (of(&m.vm, rss), of(&m.gen, rss));
    for (label, samples) in [
        ("vm_wall_s", &vm_wall),
        ("gen_wall_s", &gen_wall),
        ("vm_par_wall_s", &par_wall),
        ("vm_cpu_s", &vm_cpu),
        ("gen_cpu_s", &gen_cpu),
        ("vm_par_cpu_s", &par_cpu),
        ("vm_rss_kib", &vm_rss),
        ("gen_rss_kib", &gen_rss),
    ] {
        if samples.is_empty() {
            continue;
        }
        println!("detail {name} {label} {}", Summary::of(samples));
        let list: Vec<String> = samples.iter().map(|s| format!("{s:.4}")).collect();
        println!("samples {name} {label} {}", list.join(" "));
    }

    // Throughput from the fastest child, and the CPU ratio from the least
    // CPU seconds on each side, of a fixed number of rounds: the host's
    // other tenants only ever slow a child down, for minutes at a time and
    // often more than half the samples of a run (see README.md, "Which
    // statistic"). Memory is a median. Where the CLI does not shard there
    // is no `--jobs` child and the ratio is 1.
    let mb = p.input_bytes as f64 / 1e6;
    let fastest = |samples: &[f64]| min_max(samples).0;
    let par_ratio =
        if w.description.cli_shards() { fastest(&par_cpu) / fastest(&vm_cpu) } else { 1.0 };
    let metrics = measured(
        &END_TO_END,
        &[
            ("setup_s", setup_s),
            ("vm_mb_per_s", mb / fastest(&vm_wall)),
            ("gen_mb_per_s", mb / fastest(&gen_wall)),
            ("vm_peak_rss_kib", median(&vm_rss)),
            ("gen_peak_rss_kib", median(&gen_rss)),
            ("vm_par_cpu_ratio", par_ratio),
        ],
    );
    print_failed_share(name, m.failed as f64 / m.attempted as f64);
    json::print_result(name, m.failed == 0, m.attempted, m.failed, &metrics);
    Ok(())
}
