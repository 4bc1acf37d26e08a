//! The command line every binary of the harness shares.

use crate::workload::{self, Workload};

/// The `run_seconds` of `BENCHMARK.json`: how long a run measures when
/// `--seconds` is not given.
pub const RUN_SECONDS: u32 = 16;

/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>` as the
/// benchmark contract passes them, plus what `suite` and the tests add.
pub struct Args {
    /// `--workload`; `suite` runs all four without it.
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    pub seconds: f64,
    /// `--trace 1`: the per-layer run (`run.sh` picks the binary by it).
    pub trace: bool,
    /// `--records <n>`: corpus size, for the harness's own tests; the
    /// benchmark always runs at the workload's size.
    pub records: Option<usize>,
    /// `--traced` (`suite`): also make the per-layer run of each workload.
    pub traced: bool,
    /// `--twice` (`suite`): two passes and the agreement table.
    pub twice: bool,
}

impl Args {
    /// Parses the process arguments.
    ///
    /// # Errors
    ///
    /// An unknown option or workload, or a missing or unreadable value.
    pub fn from_env() -> Result<Args, String> {
        Args::parse(std::env::args().skip(1))
    }

    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: f64::from(RUN_SECONDS),
            trace: false,
            records: None,
            traced: false,
            twice: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    args.workload = Some(
                        workload::find(&name)
                            .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    );
                }
                "--seed" => args.seed = number(&flag, &value()?)?,
                "--seconds" => args.seconds = number(&flag, &value()?)?,
                "--records" => args.records = Some(number(&flag, &value()?)?),
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--traced" => args.traced = true,
                "--twice" => args.twice = true,
                other => return Err(format!("unknown option {other}")),
            }
        }
        Ok(args)
    }

    /// The workload of a single run.
    ///
    /// # Errors
    ///
    /// `--workload` was not given.
    pub fn one_workload(&self) -> Result<&'static Workload, String> {
        self.workload.ok_or_else(|| "--workload is required".to_owned())
    }

    /// Records in the corpus: `--records`, else the workload's size.
    pub fn records_of(&self, w: &Workload) -> usize {
        self.records.unwrap_or_else(|| w.description.records())
    }
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag}: bad number `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|w| (*w).to_owned()))
    }

    #[test]
    fn the_contract_form_and_the_defaults() {
        let a =
            parse(&["--workload", "clf_xml", "--seed", "9", "--seconds", "2.5", "--trace", "1"])
                .expect("the contract's arguments");
        assert_eq!(a.workload.map(|w| w.name), Some("clf_xml"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 2.5, true));
        let a = parse(&["--twice", "--traced"]).expect("suite flags");
        assert!(a.workload.is_none() && a.twice && a.traced && !a.trace);
        assert_eq!((a.seed, a.seconds, a.records), (1, f64::from(RUN_SECONDS), None));
        assert!(a.one_workload().is_err());
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "mixed"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--jobs", "2"]).is_err());
    }
}
