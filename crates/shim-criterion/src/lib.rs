//! Offline stand-in for the `criterion` crate.
//!
//! The workspace builds with no registry access, so `criterion` is replaced
//! by this in-tree shim (renamed to `criterion` in the root manifest). It
//! keeps the calling convention of the benches — `criterion_group!`,
//! `criterion_main!`, `benchmark_group`, `bench_with_input`, `Throughput` —
//! but implements only a simple wall-clock measurement: warm up, run a
//! fixed number of timed samples, report the median ns/iteration and
//! derived throughput to stdout. No statistics, plots, or baselines.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export matching `criterion::black_box`.
pub use std::hint::black_box;

/// Throughput annotation for a benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Input bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier (only the display form is used).
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id rendered from a single parameter, like criterion's.
    pub fn from_parameter<P: Display>(p: P) -> BenchmarkId {
        BenchmarkId(p.to_string())
    }

    /// A function-plus-parameter id.
    pub fn new<F: Display, P: Display>(f: F, p: P) -> BenchmarkId {
        BenchmarkId(format!("{f}/{p}"))
    }
}

/// The per-iteration timer handed to bench closures.
pub struct Bencher {
    samples: Vec<Duration>,
    iters_per_sample: u32,
    sample_count: u32,
}

impl Bencher {
    /// Times `f`, collecting `sample_count` samples of `iters_per_sample`
    /// calls each.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f()); // warm-up
        for _ in 0..self.sample_count {
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(f());
            }
            self.samples.push(start.elapsed() / self.iters_per_sample);
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    sample_count: u32,
    _c: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_count = (n as u32).max(1);
        self
    }

    /// Annotates subsequent benchmarks with a throughput denominator.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark over `input`.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b =
            Bencher { samples: Vec::new(), iters_per_sample: 1, sample_count: self.sample_count };
        f(&mut b, input);
        self.report(&id.0, &b.samples);
        self
    }

    /// Runs one benchmark with no explicit input.
    pub fn bench_function<F>(&mut self, id: BenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b =
            Bencher { samples: Vec::new(), iters_per_sample: 1, sample_count: self.sample_count };
        f(&mut b);
        self.report(&id.0, &b.samples);
        self
    }

    fn report(&self, id: &str, samples: &[Duration]) {
        let mut sorted = samples.to_vec();
        sorted.sort();
        let median = sorted.get(sorted.len() / 2).copied().unwrap_or_default();
        let ns = median.as_nanos().max(1);
        let rate = match self.throughput {
            Some(Throughput::Bytes(n)) => {
                let mib_s = n as f64 / (1 << 20) as f64 / (ns as f64 / 1e9);
                format!("  {mib_s:>10.1} MiB/s")
            }
            None => String::new(),
        };
        println!("{}/{id:<28} {ns:>12} ns/iter{rate}", self.name);
    }

    /// Ends the group (matching criterion's API; nothing to flush here).
    pub fn finish(&mut self) {}
}

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), throughput: None, sample_count: 10, _c: self }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut g = self.benchmark_group(name.to_owned());
        g.bench_function(BenchmarkId::from_parameter("default"), f);
        self
    }
}

/// Declares a group function running each listed benchmark function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares `main` running each listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        g.throughput(Throughput::Bytes(1024));
        g.bench_with_input(BenchmarkId::from_parameter("sum"), &[1u8; 1024][..], |b, data| {
            b.iter(|| data.iter().map(|&x| x as u64).sum::<u64>())
        });
        g.finish();
    }

    #[test]
    fn harness_runs_and_reports() {
        let mut c = Criterion::default();
        sample_bench(&mut c);
        c.bench_function("standalone", |b| b.iter(|| 2 + 2));
    }
}
