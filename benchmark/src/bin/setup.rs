//! One set-up of one workload, as a process of its own.
//!
//! ```text
//! setup --workload <name> --seed <n> [--records <n>]
//! ```
//!
//! Generates the corpus, runs and cross-checks the reference outputs
//! ([`workload::prepare`]) and prints the result on one line. `e2e` times
//! this process for `setup_s`; it exists so that the corpus and the
//! reference outputs never pass through the memory of the process that
//! measures the children's peak RSS.

use std::process::ExitCode;

use pads_e2e_bench::args::Args;
use pads_e2e_bench::workload::{self, Tools};

fn main() -> ExitCode {
    let run = || -> Result<String, String> {
        let args = Args::from_env()?;
        let w = args.one_workload()?;
        let tools = Tools::beside_current_exe()?;
        Ok(workload::prepare(w, args.seed, args.records_of(w), &tools)?.to_line())
    };
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("setup: {msg}");
            ExitCode::FAILURE
        }
    }
}
