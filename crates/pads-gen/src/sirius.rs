//! Synthetic Sirius provisioning data (Figure 3 / §7 of the paper).
//!
//! The paper's 2.2 GB evaluation file is proprietary, so this module
//! fabricates a file with the same *reported statistics*: pipe-separated
//! 13-field order headers followed by event sequences with a minimum of 1
//! event, a configurable mean (paper: 5.5) and cap (paper observed 156),
//! an exact number of records violating the timestamp sort order (paper: 1)
//! and an exact number of records with syntax errors (paper: 53). Phone
//! numbers use both missing-value representations the paper describes
//! (absent field and literal `0`).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration for the Sirius generator.
#[derive(Debug, Clone)]
pub struct SiriusConfig {
    /// Number of order records.
    pub records: usize,
    /// RNG seed.
    pub seed: u64,
    /// Mean number of events per order (paper: 5.5; minimum is 1).
    pub mean_events: f64,
    /// Maximum number of events per order (paper: 156).
    pub max_events: usize,
    /// Exact number of records whose event timestamps are out of order
    /// (paper: 1).
    pub sort_violations: usize,
    /// Exact number of records with a syntax error (paper: 53).
    pub syntax_errors: usize,
    /// Number of distinct provisioning states (paper: >400).
    pub states: usize,
}

impl Default for SiriusConfig {
    fn default() -> SiriusConfig {
        SiriusConfig {
            records: 10_000,
            seed: 0x51E1_05,
            mean_events: 5.5,
            max_events: 156,
            sort_violations: 1,
            syntax_errors: 53,
            states: 400,
        }
    }
}

/// What the generator actually produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiriusStats {
    /// Number of order records.
    pub records: usize,
    /// Total events across all orders.
    pub total_events: usize,
    /// Fewest events in one order.
    pub min_events: usize,
    /// Most events in one order.
    pub max_events: usize,
    /// Record indices (0-based, order records only) with injected sort
    /// violations.
    pub sort_violation_records: Vec<usize>,
    /// Record indices with injected syntax errors.
    pub syntax_error_records: Vec<usize>,
}

impl SiriusStats {
    /// Mean events per order.
    pub fn avg_events(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.total_events as f64 / self.records as f64
        }
    }
}

const ORDER_TYPES: &[&str] = &["EDTF_6", "LOC_6", "FRDW_2", "CMP_1", "STD_3", "MIG_9"];
const STREAMS: &[&str] = &["DUO", "UNO", "TRIO"];

/// Generates a Sirius summary file: one header record, then order records.
pub fn generate(config: &SiriusConfig) -> (Vec<u8>, SiriusStats) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = Vec::with_capacity(config.records * 96);
    let states: Vec<String> = (0..config.states.max(1))
        .map(|i| match i {
            0 => "LOC_CRTE".to_owned(),
            1 => "LOC_OS_10".to_owned(),
            2 => "EDTF_RDY".to_owned(),
            _ => format!("ST_{i:03}"),
        })
        .collect();

    // Choose which records get injected problems.
    let mut indices: Vec<usize> = (0..config.records).collect();
    indices.shuffle(&mut rng);
    let mut sort_violation_records: Vec<usize> =
        indices.iter().copied().take(config.sort_violations.min(config.records)).collect();
    let mut syntax_error_records: Vec<usize> = indices
        .iter()
        .copied()
        .skip(sort_violation_records.len())
        .take(config.syntax_errors.min(config.records.saturating_sub(sort_violation_records.len())))
        .collect();
    sort_violation_records.sort_unstable();
    syntax_error_records.sort_unstable();

    // Summary header record: "0|<tstamp>".
    let summary_ts: u32 = rng.gen_range(1_000_000_000..1_100_000_000);
    out.extend_from_slice(format!("0|{summary_ts}\n").as_bytes());

    let mut total_events = 0usize;
    let mut min_events = usize::MAX;
    let mut max_events = 0usize;

    for rec in 0..config.records {
        let mut line = String::with_capacity(96);
        let order_num: u32 = rng.gen_range(1_000..100_000_000);
        line.push_str(&order_num.to_string());
        line.push('|');
        line.push_str(&order_num.to_string());
        line.push('|');
        line.push_str(&rng.gen_range(1u32..5).to_string());
        line.push('|');
        // Four phone-number fields: absent, literal 0, or a real number —
        // the two missing-value representations of §5.1.1 plus real data.
        for _ in 0..4 {
            match rng.gen_range(0..10) {
                0..=2 => {}
                3..=5 => line.push('0'),
                _ => line.push_str(&rng.gen_range(2_000_000_000u64..9_999_999_999).to_string()),
            }
            line.push('|');
        }
        // Zip (sometimes absent; leading zeros preserved).
        if rng.gen_bool(0.6) {
            line.push_str(&format!("{:05}", rng.gen_range(501u32..99_999)));
        }
        line.push('|');
        // Billing identifier: real ramp or generated "no_ii" id.
        if rng.gen_bool(0.8) {
            line.push_str(&rng.gen_range(1i64..10_000_000).to_string());
        } else {
            line.push_str("no_ii");
            line.push_str(&rng.gen_range(100_000u64..999_999).to_string());
        }
        line.push('|');
        line.push_str(ORDER_TYPES[rng.gen_range(0..ORDER_TYPES.len())]);
        line.push('|');
        line.push_str(&rng.gen_range(0u32..100).to_string());
        line.push('|');
        if rng.gen_bool(0.3) {
            line.push_str("APRL1");
        }
        line.push('|');
        line.push_str(STREAMS[rng.gen_range(0..STREAMS.len())]);
        line.push('|');

        // Event sequence: length 1 + geometric with the configured mean.
        // Records slated for a sort violation need at least two events for
        // the swap to produce one.
        let wants_violation = sort_violation_records.binary_search(&rec).is_ok();
        let extra_mean = (config.mean_events - 1.0).max(0.0);
        let p = 1.0 / (extra_mean + 1.0);
        let mut n_events = if wants_violation { 2 } else { 1 };
        while n_events < config.max_events && rng.gen::<f64>() > p {
            n_events += 1;
        }
        total_events += n_events;
        min_events = min_events.min(n_events);
        max_events = max_events.max(n_events);

        let mut ts: u64 = rng.gen_range(990_000_000..1_080_000_000);
        let mut timestamps = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            ts += rng.gen_range(60..90_000);
            timestamps.push(ts);
        }
        if wants_violation {
            timestamps.swap(0, n_events - 1);
        }
        for (i, ts) in timestamps.iter().enumerate() {
            if i > 0 {
                line.push('|');
            }
            // Weight the named states (LOC_CRTE, LOC_OS_10, EDTF_RDY) so
            // state-to-state queries over small samples find transitions.
            let state_idx = if rng.gen_bool(0.2) {
                rng.gen_range(0..3.min(states.len()))
            } else {
                rng.gen_range(0..states.len())
            };
            line.push_str(&states[state_idx]);
            line.push('|');
            line.push_str(&ts.to_string());
        }

        let mut bytes = line.into_bytes();
        if syntax_error_records.binary_search(&rec).is_ok() {
            corrupt(&mut bytes, &mut rng);
        }
        out.extend_from_slice(&bytes);
        out.push(b'\n');
    }

    let stats = SiriusStats {
        records: config.records,
        total_events,
        min_events: if config.records == 0 { 0 } else { min_events },
        max_events,
        sort_violation_records,
        syntax_error_records,
    };
    (out, stats)
}

/// Injects a syntax error near the start of the record so the record
/// deterministically fails to parse (a common corruption shape in the
/// paper's feeds).
fn corrupt(line: &mut Vec<u8>, rng: &mut StdRng) {
    match rng.gen_range(0..3) {
        0 => {
            // Non-numeric order number.
            line[0] = b'X';
        }
        1 => {
            // Smash the first field separator.
            if let Some(pos) = line.iter().position(|&b| b == b'|') {
                line[pos] = b'*';
            }
        }
        _ => {
            // Truncate the record mid-header.
            let cut = line.len().min(10);
            line.truncate(cut);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use pads::descriptions;
    use pads::PadsParser;
    use pads_runtime::{BaseMask, Mask, Registry};

    #[test]
    fn statistics_match_configuration() {
        let config = SiriusConfig {
            records: 2_000,
            sort_violations: 1,
            syntax_errors: 10,
            ..SiriusConfig::default()
        };
        let (_, stats) = generate(&config);
        assert_eq!(stats.records, 2_000);
        assert_eq!(stats.sort_violation_records.len(), 1);
        assert_eq!(stats.syntax_error_records.len(), 10);
        assert!(stats.min_events >= 1);
        assert!(stats.max_events <= config.max_events);
        // Mean within 20% of the requested 5.5.
        assert!((stats.avg_events() - 5.5).abs() < 1.1, "avg = {}", stats.avg_events());
    }

    #[test]
    fn generated_data_parses_with_expected_error_counts() {
        let registry = Registry::standard();
        let schema = descriptions::sirius();
        let config = SiriusConfig {
            records: 500,
            sort_violations: 2,
            syntax_errors: 5,
            ..SiriusConfig::default()
        };
        let (data, stats) = generate(&config);
        let parser = PadsParser::new(&schema, &registry);
        let mask = Mask::all(BaseMask::CheckAndSet);
        let (value, pd) = parser.parse_source(&data, &mask);
        // All records materialise.
        assert_eq!(value.at_path("es").unwrap().len(), Some(500));
        // Exactly the injected problems are detected, on exactly the
        // records they were injected into.
        let errors = pd.errors();
        let bad_records: BTreeSet<usize> = errors
            .iter()
            .map(|(p, _, _)| {
                let start = p.find('[').expect("error path includes element index");
                let end = p.find(']').expect("closing bracket");
                p[start + 1..end].parse().expect("numeric element index")
            })
            .collect();
        let injected: BTreeSet<usize> = stats
            .sort_violation_records
            .iter()
            .chain(&stats.syntax_error_records)
            .copied()
            .collect();
        assert_eq!(injected.len(), 7);
        assert_eq!(bad_records, injected, "{errors:?}");
        assert!(errors
            .iter()
            .any(|(_, c, _)| *c == pads::ErrorCode::ForallViolation));
    }

    #[test]
    fn deterministic_per_seed() {
        let c = SiriusConfig { records: 100, ..SiriusConfig::default() };
        assert_eq!(generate(&c).0, generate(&c).0);
        let c2 = SiriusConfig { seed: 99, ..c };
        assert_ne!(generate(&c).0, generate(&c2).0);
    }
}
