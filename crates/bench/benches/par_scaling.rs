//! Shard-scaling — the record-sharded parallel engine at `--jobs
//! {1, 2, 4, 8}` against the plain sequential loop, for both engines
//! (interpreted `stream_source`, generated `parse_records_par`) on the
//! same 10 000-record CLF/Sirius corpora as `ablation_codegen`. The
//! jobs=1 rows measure pure sharding overhead (should be ~the
//! sequential time); jobs≥2 should scale near-linearly until the
//! deterministic merge and memory bandwidth dominate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pads::generated::{clf, sirius};
use pads::{
    descriptions, BaseMask, Cursor, Mask, PadsParser, ParseDesc, Progress, RecordSink, Registry,
    ResumePoint, SourceJob, SourceShape, Value,
};
use pads_runtime::genrt;

const JOBS: [usize; 4] = [1, 2, 4, 8];

fn fresh(d: &[u8]) -> Cursor<'_> {
    Cursor::new(d)
}

/// The sink of the interpreted sharded rows: every merged `entry_t` record
/// is lent to it in source order and counted, then dropped by the worker
/// that parsed it — what a `pads parse --format none` run does.
struct Count(usize);

impl RecordSink for Count {
    fn record(&mut self, _index: usize, _value: &Value, _pd: &ParseDesc, _progress: &Progress) {
        self.0 += 1;
    }
}

fn interpreted_par(parser: &PadsParser<'_>, data: &[u8], mask: &Mask, jobs: usize) -> usize {
    let mut count = Count(0);
    let job = SourceJob { jobs, ..SourceJob::new(SourceShape::records("entry_t"), mask) };
    parser.stream_source(data, &job, &mut count);
    count.0
}

fn bench(c: &mut Criterion) {
    let registry = Registry::standard();
    let mask = Mask::all(BaseMask::CheckAndSet);

    let mut g = c.benchmark_group("par_scaling");
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
        g.throughput(Throughput::Bytes(body.len() as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter("sirius_interpreted_seq"),
            &body[..],
            |b, body| b.iter(|| parser.records(body, "entry_t", &mask).count()),
        );
        for jobs in JOBS {
            g.bench_with_input(
                BenchmarkId::from_parameter(format!("sirius_interpreted_jobs{jobs}")),
                &body[..],
                |b, body| b.iter(|| interpreted_par(&parser, body, &mask, jobs)),
            );
        }
        g.bench_with_input(
            BenchmarkId::from_parameter("sirius_generated_seq"),
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
        // Sirius's source is a header struct, not a plain record array, so
        // it has no `parse_records_par` wrapper — drive the record reader
        // through the runtime's generic `genrt::parse_records` directly.
        for jobs in JOBS {
            g.bench_with_input(
                BenchmarkId::from_parameter(format!("sirius_generated_jobs{jobs}")),
                &body[..],
                |b, body| {
                    b.iter(|| {
                        genrt::parse_records(body, ResumePoint::default(), jobs, fresh, |cur| {
                            sirius::EntryT::read(cur, &mask)
                        })
                        .0
                        .len()
                    })
                },
            );
        }
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
        g.throughput(Throughput::Bytes(data.len() as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter("clf_interpreted_seq"),
            &data[..],
            |b, data| b.iter(|| parser.records(data, "entry_t", &mask).count()),
        );
        for jobs in JOBS {
            g.bench_with_input(
                BenchmarkId::from_parameter(format!("clf_interpreted_jobs{jobs}")),
                &data[..],
                |b, data| b.iter(|| interpreted_par(&parser, data, &mask, jobs)),
            );
        }
        g.bench_with_input(
            BenchmarkId::from_parameter("clf_generated_seq"),
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
        for jobs in JOBS {
            g.bench_with_input(
                BenchmarkId::from_parameter(format!("clf_generated_jobs{jobs}")),
                &data[..],
                |b, data| {
                    b.iter(|| {
                        clf::parse_records_par(data, &mask, ResumePoint::default(), jobs, fresh)
                            .0
                            .len()
                    })
                },
            );
        }
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
