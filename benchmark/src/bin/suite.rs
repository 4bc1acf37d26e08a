//! Every workload in one command, for people.
//!
//! ```text
//! suite [--seed N] [--seconds S] [--workload W] [--traced] [--twice]
//! ```
//!
//! Runs `e2e` (and with `--traced` also `traced`) once per workload, one
//! harness process each, echoing their output: every metric by name with
//! its unit. `--twice` runs the whole suite twice on the same build and
//! prints, per end-to-end metric × workload, both values, their relative
//! difference and the bound; it exits non-zero when a pair disagrees
//! beyond its bound, or when a count that must repeat exactly (corpus and
//! reference hashes, and with `--traced` every `count` metric) does not.
//! This is the self-agreement check, reusable later as the A/A control.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use pads_e2e_bench::args::Args;
use pads_e2e_bench::metrics::{END_TO_END, FAILED_SHARE, PER_LAYER};
use pads_e2e_bench::workload::{Workload, WORKLOADS};

/// The workloads a pass runs: `--workload`, or all four.
fn workloads(args: &Args) -> Vec<&'static Workload> {
    args.workload.map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w])
}

/// What one pass over the suite printed: metric values keyed by
/// (workload, metric), and the lines that must repeat exactly.
#[derive(Default)]
struct Pass {
    metrics: BTreeMap<(String, String), f64>,
    exact: Vec<String>,
    ok: bool,
}

/// Runs one harness binary for one workload, echoing its output.
fn run_harness(bin: &str, w: &Workload, args: &Args, pass: &mut Pass) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?.with_file_name(bin);
    let mut cmd = Command::new(&exe);
    cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()]);
    cmd.args(["--seconds", &args.seconds.to_string()]);
    cmd.args(["--trace", if bin == "traced" { "1" } else { "0" }]);
    if let Some(records) = args.records {
        cmd.args(["--records", &records.to_string()]);
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    pass.ok &= output.status.success();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        if line.starts_with('{') {
            continue; // the machine-readable result line
        }
        println!("{line}");
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields[..] {
            ["metric", workload, name, value, _unit] => {
                let value: f64 =
                    value.parse().map_err(|_| format!("unreadable metric line: {line}"))?;
                pass.metrics.insert((workload.to_owned(), name.to_owned()), value);
            }
            ["corpus", ..] => pass.exact.push(line.to_owned()),
            _ => {}
        }
    }
    Ok(())
}

fn run_pass(args: &Args) -> Result<Pass, String> {
    let mut pass = Pass { ok: true, ..Pass::default() };
    for w in workloads(args) {
        run_harness("e2e", w, args, &mut pass)?;
        if args.traced {
            run_harness("traced", w, args, &mut pass)?;
        }
    }
    Ok(pass)
}

/// Prints the agreement table and returns whether the two passes agree.
fn compare(args: &Args, first: &Pass, second: &Pass) -> bool {
    let mut agree = true;
    println!("\nself-agreement: two passes of the same build, seed {}", args.seed);
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for w in workloads(args) {
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            let key = (w.name.to_owned(), m.name.to_owned());
            let (Some(&a), Some(&b)) = (first.metrics.get(&key), second.metrics.get(&key)) else {
                println!("{:<14} {:<18} missing from a pass", w.name, m.name);
                agree = false;
                continue;
            };
            let diff = (b - a).abs() / a;
            let verdict = if diff <= bound { "" } else { "  DISAGREE" };
            println!(
                "{:<14} {:<18} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%{verdict}",
                w.name,
                m.name,
                diff * 100.0,
                bound * 100.0
            );
            agree &= diff <= bound;
        }
        let key = (w.name.to_owned(), FAILED_SHARE.name.to_owned());
        for (label, pass) in [("first", first), ("second", second)] {
            if pass.metrics.get(&key).copied() != Some(0.0) {
                println!("{:<14} {} is not 0 in the {label} pass", w.name, FAILED_SHARE.name);
                agree = false;
            }
        }
        for layer in
            PER_LAYER.iter().filter(|l| l.unit == "count" && l.name != "env.effective_cores")
        {
            let key = (w.name.to_owned(), layer.name.to_owned());
            if first.metrics.get(&key) != second.metrics.get(&key) {
                println!("{:<14} {:<18} is a count and did not repeat exactly", w.name, layer.name);
                agree = false;
            }
        }
    }
    if first.exact != second.exact {
        println!("corpus or reference hashes changed between the passes");
        agree = false;
    }
    println!("{}", if agree { "the passes agree" } else { "the passes DISAGREE" });
    agree
}

fn main() -> ExitCode {
    let run = || -> Result<bool, String> {
        let args = Args::from_env()?;
        let first = run_pass(&args)?;
        if !args.twice {
            return Ok(first.ok);
        }
        let second = run_pass(&args)?;
        Ok(compare(&args, &first, &second) && first.ok && second.ok)
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("suite: {msg}");
            ExitCode::FAILURE
        }
    }
}
