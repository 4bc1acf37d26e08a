//! Ablation — observation on versus off. The claim under test: with
//! nothing attached, the hooks cost a single `Option` discriminant check
//! per site, so `*_off` must match the pre-observer `ablation_codegen`
//! numbers within noise; with a dense `MetricsCore` attached (`*_metrics`)
//! the overhead stays under ~10% — counters are flat `Vec` slabs indexed
//! by trusted node ids, and generated fixed-prefix fast paths stay on,
//! feeding statically-known per-type bumps instead of events.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pads::generated::{clf, sirius};
use pads::{descriptions, BaseMask, Cursor, Mask, PadsParser, Registry};

fn bench(c: &mut Criterion) {
    let registry = Registry::standard();
    let mask = Mask::all(BaseMask::CheckAndSet);

    let mut g = c.benchmark_group("ablation_observer");
    g.sample_size(10);

    // Sirius.
    {
        let (data, _) = pads_gen::sirius::generate(&pads_gen::SiriusConfig {
            records: 10_000,
            syntax_errors: 0,
            sort_violations: 0,
            ..Default::default()
        });
        let body_start = data.iter().position(|&b| b == b'\n').unwrap() + 1;
        let body = data[body_start..].to_vec();
        let schema = descriptions::sirius();
        let parser = PadsParser::new(&schema, &registry);
        let with_core = {
            let p = PadsParser::new(&schema, &registry);
            let h = p.metrics_core().into_handle();
            p.with_metrics(h)
        };
        g.throughput(Throughput::Bytes(body.len() as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter("sirius_interpreted_off"),
            &body[..],
            |b, body| b.iter(|| parser.records(body, "entry_t", &mask).count()),
        );
        g.bench_with_input(
            BenchmarkId::from_parameter("sirius_interpreted_metrics"),
            &body[..],
            |b, body| b.iter(|| with_core.records(body, "entry_t", &mask).count()),
        );
        g.bench_with_input(
            BenchmarkId::from_parameter("sirius_generated_off"),
            &body[..],
            |b, body| {
                b.iter(|| {
                    let mut cur = Cursor::new(body);
                    let mut n = 0usize;
                    while !cur.at_eof() {
                        let _ = sirius::EntryT::read(&mut cur, &mask);
                        n += 1;
                    }
                    n
                })
            },
        );
        let gen_core = sirius::metrics_core().into_handle();
        g.bench_with_input(
            BenchmarkId::from_parameter("sirius_generated_metrics"),
            &body[..],
            |b, body| {
                b.iter(|| {
                    let mut cur = Cursor::new(body).with_metrics(gen_core.clone());
                    let mut n = 0usize;
                    while !cur.at_eof() {
                        let _ = sirius::EntryT::read(&mut cur, &mask);
                        n += 1;
                    }
                    n
                })
            },
        );
    }

    // CLF.
    {
        let (data, _) = pads_gen::clf::generate(&pads_gen::ClfConfig {
            records: 10_000,
            dash_length_rate: 0.0,
            ..Default::default()
        });
        let schema = descriptions::clf();
        let parser = PadsParser::new(&schema, &registry);
        let with_core = {
            let p = PadsParser::new(&schema, &registry);
            let h = p.metrics_core().into_handle();
            p.with_metrics(h)
        };
        g.throughput(Throughput::Bytes(data.len() as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter("clf_interpreted_off"),
            &data[..],
            |b, data| b.iter(|| parser.records(data, "entry_t", &mask).count()),
        );
        g.bench_with_input(
            BenchmarkId::from_parameter("clf_interpreted_metrics"),
            &data[..],
            |b, data| b.iter(|| with_core.records(data, "entry_t", &mask).count()),
        );
        g.bench_with_input(
            BenchmarkId::from_parameter("clf_generated_off"),
            &data[..],
            |b, data| {
                b.iter(|| {
                    let mut cur = Cursor::new(data);
                    let mut n = 0usize;
                    while !cur.at_eof() {
                        let _ = clf::EntryT::read(&mut cur, &mask);
                        n += 1;
                    }
                    n
                })
            },
        );
        let gen_core = clf::metrics_core().into_handle();
        g.bench_with_input(
            BenchmarkId::from_parameter("clf_generated_metrics"),
            &data[..],
            |b, data| {
                b.iter(|| {
                    let mut cur = Cursor::new(data).with_metrics(gen_core.clone());
                    let mut n = 0usize;
                    while !cur.at_eof() {
                        let _ = clf::EntryT::read(&mut cur, &mask);
                        n += 1;
                    }
                    n
                })
            },
        );
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
