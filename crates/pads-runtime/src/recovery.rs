//! Error budgets and graceful degradation.
//!
//! The paper's generated C runtime exposes discipline knobs (`Pmax_errs`,
//! `Perror_rep` in the Figure 6 library) that bound how much error-handling
//! work a hostile or badly corrupted source can trigger. This module is the
//! Rust analogue: a [`RecoveryPolicy`] limits recorded errors per record and
//! per source plus the total bytes consumed by panic-mode resynchronisation,
//! and an [`OnExhausted`] mode says what happens when a limit is hit —
//! stop, skip records wholesale, or keep parsing with error detail
//! suppressed. The running tally lives in an [`ErrorBudget`] carried by the
//! [`Cursor`](crate::io::Cursor) so both the interpreting parser and
//! generated parsers share one discipline.

/// What to do once the error budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OnExhausted {
    /// Stop the parse at the next record boundary. Remaining input is left
    /// unread; iterators end, and `parse_source` reports no further errors.
    #[default]
    Stop,
    /// Keep framing records but skip their contents: each subsequent record
    /// yields a default value and a single
    /// [`ErrorCode::BudgetExhausted`](crate::error::ErrorCode::BudgetExhausted)
    /// descriptor. Record counts and byte accounting are preserved at
    /// near-zero per-record cost.
    SkipRecord,
    /// Keep parsing every record, but drop per-node error detail from its
    /// descriptor (the error *count* survives). Bounds descriptor memory to
    /// O(1) per record while still materialising values.
    BestEffort,
}

impl std::str::FromStr for OnExhausted {
    type Err = String;

    fn from_str(s: &str) -> Result<OnExhausted, String> {
        match s {
            "stop" => Ok(OnExhausted::Stop),
            "skip" | "skip-record" => Ok(OnExhausted::SkipRecord),
            "best-effort" => Ok(OnExhausted::BestEffort),
            other => Err(format!(
                "unknown overflow mode `{other}` (expected stop, skip, or best-effort)"
            )),
        }
    }
}

impl std::fmt::Display for OnExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OnExhausted::Stop => "stop",
            OnExhausted::SkipRecord => "skip",
            OnExhausted::BestEffort => "best-effort",
        })
    }
}

/// Limits on error-handling work (the `Pmax_errs` / `Perror_rep`
/// discipline). The default policy is unlimited: every error is recorded in
/// full, matching the paper's never-abort semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RecoveryPolicy {
    /// Maximum recorded errors across the whole source before
    /// [`on_exhausted`](RecoveryPolicy::on_exhausted) applies.
    pub max_errs: Option<u64>,
    /// Maximum errors whose *detail* (per-node descriptors) is kept for a
    /// single record; past this the record descriptor is flattened to its
    /// aggregate count and first error.
    pub max_record_errs: Option<u32>,
    /// Maximum total bytes skipped by panic-mode resynchronisation before
    /// [`on_exhausted`](RecoveryPolicy::on_exhausted) applies.
    pub max_panic_skip: Option<u64>,
    /// Degradation mode once a source-level limit trips.
    pub on_exhausted: OnExhausted,
}

impl RecoveryPolicy {
    /// No limits (the default): record everything, never degrade.
    pub fn unlimited() -> RecoveryPolicy {
        RecoveryPolicy::default()
    }

    /// Sets the per-source error limit (builder style).
    pub fn with_max_errs(mut self, n: u64) -> RecoveryPolicy {
        self.max_errs = Some(n);
        self
    }

    /// Sets the per-record error-detail limit (builder style).
    pub fn with_max_record_errs(mut self, n: u32) -> RecoveryPolicy {
        self.max_record_errs = Some(n);
        self
    }

    /// Sets the panic-skip byte limit (builder style).
    pub fn with_max_panic_skip(mut self, n: u64) -> RecoveryPolicy {
        self.max_panic_skip = Some(n);
        self
    }

    /// Sets the exhaustion mode (builder style).
    pub fn with_on_exhausted(mut self, mode: OnExhausted) -> RecoveryPolicy {
        self.on_exhausted = mode;
        self
    }
}

/// The running tally a policy is checked against. Monotone: checkpoints and
/// restores on the cursor do not roll it back (a failed union branch still
/// did the work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ErrorBudget {
    /// Total errors recorded across closed records.
    pub errs: u64,
    /// Records closed with at least one error.
    pub bad_records: u64,
    /// Records skipped wholesale under [`OnExhausted::SkipRecord`].
    pub skipped_records: u64,
    /// Total bytes skipped by panic-mode resynchronisation.
    pub panic_skipped: u64,
    exhausted: bool,
    stopped: bool,
}

impl ErrorBudget {
    /// A fresh, empty tally.
    pub fn new() -> ErrorBudget {
        ErrorBudget::default()
    }

    /// Folds one closed record into the tally and applies `policy`.
    pub fn note_record(&mut self, policy: &RecoveryPolicy, nerr: u32, panic_skipped: u64) {
        self.errs = self.errs.saturating_add(nerr as u64);
        self.panic_skipped = self.panic_skipped.saturating_add(panic_skipped);
        if nerr > 0 {
            self.bad_records += 1;
        }
        let over = policy.max_errs.is_some_and(|m| self.errs > m)
            || policy.max_panic_skip.is_some_and(|m| self.panic_skipped > m);
        if over && !self.exhausted {
            self.exhausted = true;
            if policy.on_exhausted == OnExhausted::Stop {
                self.stopped = true;
            }
        }
    }

    /// Records one budget-skipped record.
    pub fn note_skipped_record(&mut self) {
        self.skipped_records += 1;
    }

    /// Folds another tally into this one: saturating sums of the counters
    /// and a logical OR of the trip flags. Used by the sharded engine
    /// ([`crate::par`]) to merge shard-local budgets in shard order; shards
    /// parsed with source limits stripped always carry untripped flags, so
    /// the merged flags stay faithful to the sequential run.
    pub fn absorb(&mut self, other: &ErrorBudget) {
        self.errs = self.errs.saturating_add(other.errs);
        self.bad_records = self.bad_records.saturating_add(other.bad_records);
        self.skipped_records = self.skipped_records.saturating_add(other.skipped_records);
        self.panic_skipped = self.panic_skipped.saturating_add(other.panic_skipped);
        self.exhausted |= other.exhausted;
        self.stopped |= other.stopped;
    }

    /// Whether a source-level limit has tripped.
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Whether the parse should stop entirely.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// Decomposes the tally for serialisation (checkpoint journals): the
    /// four counters in declaration order (`errs`, `bad_records`,
    /// `skipped_records`, `panic_skipped`) plus the two trip flags.
    pub fn to_parts(&self) -> ([u64; 4], bool, bool) {
        (
            [self.errs, self.bad_records, self.skipped_records, self.panic_skipped],
            self.exhausted,
            self.stopped,
        )
    }

    /// Rebuilds a tally from [`to_parts`](ErrorBudget::to_parts) output.
    /// Counter order must match: `errs`, `bad_records`, `skipped_records`,
    /// `panic_skipped`.
    pub fn from_parts(counters: [u64; 4], exhausted: bool, stopped: bool) -> ErrorBudget {
        ErrorBudget {
            errs: counters[0],
            bad_records: counters[1],
            skipped_records: counters[2],
            panic_skipped: counters[3],
            exhausted,
            stopped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_never_exhausts() {
        let policy = RecoveryPolicy::unlimited();
        let mut b = ErrorBudget::new();
        for _ in 0..10_000 {
            b.note_record(&policy, 100, 50);
        }
        assert!(!b.exhausted());
        assert!(!b.stopped());
        assert_eq!(b.errs, 1_000_000);
    }

    #[test]
    fn max_errs_trips_and_stop_stops() {
        let policy = RecoveryPolicy::unlimited().with_max_errs(5);
        let mut b = ErrorBudget::new();
        b.note_record(&policy, 3, 0);
        assert!(!b.exhausted());
        b.note_record(&policy, 3, 0);
        assert!(b.exhausted());
        assert!(b.stopped());
    }

    #[test]
    fn skip_record_mode_exhausts_without_stopping() {
        let policy = RecoveryPolicy::unlimited()
            .with_max_errs(0)
            .with_on_exhausted(OnExhausted::SkipRecord);
        let mut b = ErrorBudget::new();
        b.note_record(&policy, 1, 0);
        assert!(b.exhausted());
        assert!(!b.stopped());
    }

    #[test]
    fn panic_skip_budget_trips() {
        let policy = RecoveryPolicy::unlimited()
            .with_max_panic_skip(10)
            .with_on_exhausted(OnExhausted::BestEffort);
        let mut b = ErrorBudget::new();
        b.note_record(&policy, 0, 11);
        assert!(b.exhausted());
        assert!(!b.stopped());
    }

    #[test]
    fn absorb_sums_counters_and_ors_flags() {
        let policy = RecoveryPolicy::unlimited().with_max_errs(3);
        let mut a = ErrorBudget::new();
        a.note_record(&policy, 2, 5);
        let mut b = ErrorBudget::new();
        b.note_record(&policy, 1, 0);
        b.note_skipped_record();
        a.absorb(&b);
        assert_eq!(a.errs, 3);
        assert_eq!(a.bad_records, 2);
        assert_eq!(a.skipped_records, 1);
        assert_eq!(a.panic_skipped, 5);
        assert!(!a.exhausted());
        let mut tripped = ErrorBudget::new();
        tripped.note_record(&policy, 4, 0);
        assert!(tripped.stopped());
        a.absorb(&tripped);
        assert!(a.exhausted() && a.stopped());
    }

    #[test]
    fn mode_parses_from_cli_spellings() {
        assert_eq!("stop".parse(), Ok(OnExhausted::Stop));
        assert_eq!("skip".parse(), Ok(OnExhausted::SkipRecord));
        assert_eq!("skip-record".parse(), Ok(OnExhausted::SkipRecord));
        assert_eq!("best-effort".parse(), Ok(OnExhausted::BestEffort));
        assert!("bogus".parse::<OnExhausted>().is_err());
    }
}
