//! Peak-RSS probe for the record-sharded merge: parses one large
//! generated CLF corpus and reports the process high-water mark (VmHWM
//! from /proc/self/status) for one of three retention profiles:
//!
//! - `seq` — sequential `records()` iterator, counting consumer
//! - `collect` — `records_par_stream` with a consumer that materialises
//!   every record — the retention profile of the pre-streaming merge (and
//!   of any caller that wants a `Vec` back)
//! - `stream` — `records_par_stream` with a counting consumer: workers
//!   are bounded to `--max-inflight-records` ahead of the in-order
//!   merge, so retention stays flat
//!
//! VmHWM is a process-lifetime maximum, so each mode must run in its own
//! process: `rss_bench <seq|collect|stream> [records] [jobs] [inflight]`.
//! Corpus generation is identical across modes and sets the common floor.

use pads::{
    descriptions, BaseMask, Mask, PadsParser, ParseOptions, Registry, ResumePoint,
    DEFAULT_MAX_INFLIGHT,
};
use pads_runtime::MetricsHandle;

/// No-observer marker for `records_par_stream`'s factory parameter.
type NoObs = fn() -> (MetricsHandle, Box<dyn FnMut()>);

fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read status");
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .expect("VmHWM value");
        }
    }
    panic!("no VmHWM in /proc/self/status");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("stream");
    let records: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(200_000);
    let jobs: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    let inflight: usize =
        args.get(3).and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_MAX_INFLIGHT);

    let (data, _) = pads_gen::clf::generate(&pads_gen::ClfConfig {
        records,
        ..Default::default()
    });
    let after_gen_kb = vm_hwm_kb();

    let schema = descriptions::clf();
    let registry = Registry::standard();
    let parser = PadsParser::new(&schema, &registry)
        .with_options(ParseOptions::default());
    let mask = Mask::all(BaseMask::CheckAndSet);

    let stream = |consume: &mut dyn FnMut(&mut Vec<pads::Parsed<pads::Value>>)| {
        parser.records_par_stream(
            &data,
            "entry_t",
            &mask,
            jobs,
            inflight,
            ResumePoint::default(),
            None::<&NoObs>,
            |chunk, _harvest| consume(chunk),
        )
    };
    let parsed = match mode {
        "seq" => {
            let mut it = parser.records(&data, "entry_t", &mask);
            it.by_ref().count()
        }
        "collect" => {
            let mut items = Vec::new();
            let _budget = stream(&mut |chunk| items.append(chunk));
            items.len()
        }
        "stream" => {
            let mut n = 0usize;
            let _budget = stream(&mut |chunk| n += chunk.len());
            n
        }
        other => {
            eprintln!("rss_bench: unknown mode `{other}` (want seq|collect|stream)");
            std::process::exit(1);
        }
    };

    println!(
        "{{\"mode\": \"{mode}\", \"records\": {parsed}, \"jobs\": {jobs}, \
         \"max_inflight\": {inflight}, \"data_bytes\": {}, \
         \"after_gen_kb\": {after_gen_kb}, \"vm_hwm_kb\": {}}}",
        data.len(),
        vm_hwm_kb()
    );
}
