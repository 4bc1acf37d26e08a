//! CI regression gate for observer overhead: parses the generated-parser
//! corpora with metrics off and with a dense `MetricsCore` attached, and
//! fails (exit 1) when the on/off ratio exceeds a noise-aware threshold.
//!
//! This is the one timing gate left outside `benchmark/`, because nothing
//! there covers it: the harness's `obs.metrics_ratio` is the *VM* with a
//! core attached, and no other check times the counting tier of the
//! *generated* `read` wrapper (`MetricsHandle` on the cursor, dense ids
//! baked into the module) — deleting this binary would drop that check.
//!
//! Methodology: min-of-N whole-corpus passes. The minimum is the right
//! statistic on shared CI runners — co-tenant steal only ever inflates a
//! pass, so the fastest pass of each configuration is the closest
//! estimate of the true cost, and the ratio of minima cancels most
//! machine-speed variation. The threshold (1.25) sits well above the
//! ~10% overhead the dense core is designed to hold
//! (`docs/OBSERVABILITY.md`) but below the ~40% a string-keyed event
//! stream used to cost, so a regression back to map lookups on the hot
//! path trips the gate even on a noisy runner.

use std::time::Instant;

use pads::generated::{clf, sirius};
use pads::{BaseMask, Cursor, Mask};
use pads_runtime::MetricsHandle;

const RECORDS: usize = 10_000;
const PASSES: usize = 7;
const MAX_RATIO: f64 = 1.25;

fn min_ns<F: FnMut() -> usize>(mut f: F) -> (f64, usize) {
    let mut sink = f(); // warm-up pass
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let t0 = Instant::now();
        sink = sink.wrapping_add(f());
        let dt = t0.elapsed().as_nanos() as f64;
        if dt < best {
            best = dt;
        }
    }
    (best, sink)
}

struct Row {
    name: &'static str,
    off_ns: f64,
    on_ns: f64,
}

impl Row {
    fn ratio(&self) -> f64 {
        self.on_ns / self.off_ns
    }
}

fn gate<'d, R>(
    name: &'static str,
    data: &'d [u8],
    mask: &Mask,
    core: MetricsHandle,
    read: fn(&mut Cursor<'d>, &Mask) -> R,
) -> Row {
    let (off_ns, n_off) = min_ns(|| {
        let mut cur = Cursor::new(data);
        let mut n = 0usize;
        while !cur.at_eof() {
            let _ = read(&mut cur, mask);
            n += 1;
        }
        n
    });
    let (on_ns, n_on) = min_ns(|| {
        let mut cur = Cursor::new(data).with_metrics(core.clone());
        let mut n = 0usize;
        while !cur.at_eof() {
            let _ = read(&mut cur, mask);
            n += 1;
        }
        n
    });
    // Both configurations must have parsed the same record stream.
    assert_eq!(n_off, n_on, "{name}: record counts diverged");
    Row { name, off_ns, on_ns }
}

fn main() {
    let mask = Mask::all(BaseMask::CheckAndSet);

    let (clf_data, _) = pads_gen::clf::generate(&pads_gen::ClfConfig {
        records: RECORDS,
        dash_length_rate: 0.0,
        ..Default::default()
    });
    let (sirius_data, _) = pads_gen::sirius::generate(&pads_gen::SiriusConfig {
        records: RECORDS,
        syntax_errors: 0,
        sort_violations: 0,
        ..Default::default()
    });
    let body_start = sirius_data
        .iter()
        .position(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap_or(0);
    let sirius_body = &sirius_data[body_start..];

    let rows = [
        gate(
            "clf_generated",
            &clf_data,
            &mask,
            clf::metrics_core().into_handle(),
            |cur, mask| clf::EntryT::read(cur, mask),
        ),
        gate(
            "sirius_generated",
            sirius_body,
            &mask,
            sirius::metrics_core().into_handle(),
            |cur, mask| sirius::EntryT::read(cur, mask),
        ),
    ];

    println!("obs_gate: min-of-{PASSES} whole-corpus passes, {RECORDS} records");
    let mut failed = false;
    for row in &rows {
        let ratio = row.ratio();
        let verdict = if ratio <= MAX_RATIO { "ok" } else { "FAIL" };
        println!(
            "{:<18} off {:>10.0} ns  metrics {:>10.0} ns  ratio {:.3}  (max {:.2})  {}",
            row.name, row.off_ns, row.on_ns, ratio, MAX_RATIO, verdict
        );
        if ratio > MAX_RATIO {
            failed = true;
        }
    }
    if failed {
        eprintln!(
            "obs_gate: metrics-on overhead exceeded the gate — the dense-ID \
             hot path has regressed (see docs/OBSERVABILITY.md)"
        );
        std::process::exit(1);
    }
}
