//! Ablation — SWAR scan kernels versus byte-at-a-time reference loops.
//!
//! Two layers: (1) the kernels themselves (`find_byte`, `find_literal`,
//! `skip_class`, `count_byte`) against the naive loops
//! they replaced, on realistic log bytes; (2) the end-to-end generated
//! parsers on the same corpora/configs as `ablation_codegen`, so the
//! numbers are directly comparable against the PR-3 baseline recorded in
//! `BENCH_observe.json` (`same_session_ablation_codegen`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pads::generated::{clf, sirius};
use pads::{BaseMask, Cursor, Mask};
use pads_runtime::{count_byte, find_byte, find_literal, skip_class, ClassBitmap};

const DIGITS: ClassBitmap = ClassBitmap::from_bits([0x03FF_0000_0000_0000, 0, 0, 0]);

fn bench(c: &mut Criterion) {
    let mask = Mask::all(BaseMask::CheckAndSet);

    // Kernel microbenchmarks over one big CLF buffer: long lines of mixed
    // text and digit runs, the shape every hot path below sees.
    {
        let (data, _) = pads_gen::clf::generate(&pads_gen::ClfConfig {
            records: 10_000,
            dash_length_rate: 0.0,
            ..Default::default()
        });
        let mut g = c.benchmark_group("scan_kernels");
        g.sample_size(20);
        g.throughput(Throughput::Bytes(data.len() as u64));

        g.bench_with_input(BenchmarkId::from_parameter("find_byte_swar"), &data[..], |b, d| {
            b.iter(|| {
                let (mut at, mut n) = (0usize, 0usize);
                while let Some(i) = find_byte(&d[at..], b'\n') {
                    at += i + 1;
                    n += 1;
                }
                n
            })
        });
        g.bench_with_input(BenchmarkId::from_parameter("find_byte_naive"), &data[..], |b, d| {
            b.iter(|| {
                let (mut at, mut n) = (0usize, 0usize);
                while let Some(i) = d[at..].iter().position(|&b| b == b'\n') {
                    at += i + 1;
                    n += 1;
                }
                n
            })
        });

        g.bench_with_input(BenchmarkId::from_parameter("find_literal_kernel"), &data[..], |b, d| {
            b.iter(|| {
                let (mut at, mut n) = (0usize, 0usize);
                while let Some(i) = find_literal(&d[at..], b"HTTP/1.") {
                    at += i + 1;
                    n += 1;
                }
                n
            })
        });
        g.bench_with_input(BenchmarkId::from_parameter("find_literal_naive"), &data[..], |b, d| {
            b.iter(|| {
                let needle = b"HTTP/1.";
                let (mut at, mut n) = (0usize, 0usize);
                while at + needle.len() <= d.len() {
                    match d[at..].windows(needle.len()).position(|w| w == needle) {
                        Some(i) => {
                            at += i + 1;
                            n += 1;
                        }
                        None => break,
                    }
                }
                n
            })
        });

        // skip_class is only ever called where a run begins (rd_uint /
        // rd_int land on the first digit), so measure exactly that:
        // precompute the digit-run start offsets, then scan each run.
        let digit_starts: Vec<usize> = (0..data.len())
            .filter(|&i| {
                data[i].is_ascii_digit() && (i == 0 || !data[i - 1].is_ascii_digit())
            })
            .collect();
        g.bench_with_input(
            BenchmarkId::from_parameter("skip_class_swar"),
            &(&data[..], &digit_starts[..]),
            |b, (d, starts)| {
                b.iter(|| {
                    starts.iter().map(|&at| skip_class(&d[at..], &DIGITS)).sum::<usize>()
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::from_parameter("skip_class_naive"),
            &(&data[..], &digit_starts[..]),
            |b, (d, starts)| {
                b.iter(|| {
                    starts
                        .iter()
                        .map(|&at| d[at..].iter().take_while(|b| b.is_ascii_digit()).count())
                        .sum::<usize>()
                })
            },
        );

        g.bench_with_input(BenchmarkId::from_parameter("count_byte_swar"), &data[..], |b, d| {
            b.iter(|| count_byte(d, b'\n'))
        });
        g.bench_with_input(BenchmarkId::from_parameter("count_byte_naive"), &data[..], |b, d| {
            b.iter(|| d.iter().filter(|&&b| b == b'\n').count())
        });
        g.finish();
    }

    // End-to-end generated parsers, identical corpora/configs to
    // `ablation_codegen` — these rows ARE the single-thread scan-kernel
    // numbers compared against the PR-3 baseline in BENCH_parallel.json.
    let mut g = c.benchmark_group("ablation_scan");
    g.sample_size(10);
    {
        let (data, _) = pads_gen::sirius::generate(&pads_gen::SiriusConfig {
            records: 10_000,
            syntax_errors: 0,
            sort_violations: 0,
            ..Default::default()
        });
        let body_start = data.iter().position(|&b| b == b'\n').unwrap() + 1;
        let body = data[body_start..].to_vec();
        g.throughput(Throughput::Bytes(body.len() as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter("sirius_generated_kernels"),
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
    }
    {
        let (data, _) = pads_gen::clf::generate(&pads_gen::ClfConfig {
            records: 10_000,
            dash_length_rate: 0.0,
            ..Default::default()
        });
        g.throughput(Throughput::Bytes(data.len() as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter("clf_generated_kernels"),
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
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
