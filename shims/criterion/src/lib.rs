//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so this crate
//! implements the subset of criterion used by `crates/bench`:
//! [`Criterion::bench_function`], [`Bencher::iter`],
//! [`Bencher::iter_batched`], [`BatchSize`] and the
//! [`criterion_group!`]/[`criterion_main!`] macros. Instead of
//! criterion's full statistical machinery it takes a fixed number of
//! timed samples inside a wall-clock budget and reports
//! mean/min/median/stddev per iteration after interquartile-range
//! outlier trimming — a mean alone hides warm-up spikes and scheduler
//! noise, which is exactly what single-number runs used to report.

use std::time::{Duration, Instant};

/// Measurement budget per benchmark, tunable for CI.
fn measure_budget() -> Duration {
    match std::env::var("XIVM_BENCH_MS").ok().and_then(|v| v.parse::<u64>().ok()) {
        Some(ms) => Duration::from_millis(ms.max(1)),
        None => Duration::from_millis(200),
    }
}

/// Samples taken per benchmark. Each sample is a timed batch of
/// iterations; statistics are computed across samples.
const SAMPLES: usize = 20;

/// How a batched setup's cost relates to the routine (kept for API
/// compatibility; the shim times each batch individually either way).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
    NumIterations(u64),
}

/// Summary statistics over the per-sample ns/iter measurements, after
/// interquartile-range outlier trimming (samples outside
/// `[Q1 - 1.5·IQR, Q3 + 1.5·IQR]` are dropped).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stats {
    /// Mean ns/iter across the kept samples.
    pub mean_ns: f64,
    /// Fastest kept sample, ns/iter — the least-noise estimate.
    pub min_ns: f64,
    /// Median ns/iter across the kept samples.
    pub median_ns: f64,
    /// 99th-percentile ns/iter across the kept samples — the tail a
    /// latency-sensitive caller actually waits on.
    pub p99_ns: f64,
    /// Population standard deviation of the kept samples, ns/iter.
    pub stddev_ns: f64,
    /// Samples kept after trimming.
    pub samples: usize,
    /// Samples discarded as IQR outliers.
    pub trimmed: usize,
    /// Total measured iterations across the kept samples.
    pub iters: u64,
}

impl Stats {
    /// Builds the summary from raw `(ns_per_iter, iters)` samples.
    fn from_samples(raw: &[(f64, u64)]) -> Stats {
        if raw.is_empty() {
            return Stats::default();
        }
        let mut sorted: Vec<f64> = raw.iter().map(|&(ns, _)| ns).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let q1 = percentile(&sorted, 0.25);
        let q3 = percentile(&sorted, 0.75);
        let iqr = q3 - q1;
        let (lo, hi) = (q1 - 1.5 * iqr, q3 + 1.5 * iqr);
        let kept: Vec<(f64, u64)> =
            raw.iter().copied().filter(|&(ns, _)| ns >= lo && ns <= hi).collect();
        // Trimming can only ever drop the extremes; with all samples
        // identical it drops nothing, and it never empties the set.
        let mut kept_ns: Vec<f64> = kept.iter().map(|&(ns, _)| ns).collect();
        kept_ns.sort_by(|a, b| a.total_cmp(b));
        let n = kept_ns.len() as f64;
        let mean = kept_ns.iter().sum::<f64>() / n;
        let var = kept_ns.iter().map(|ns| (ns - mean) * (ns - mean)).sum::<f64>() / n;
        Stats {
            mean_ns: mean,
            min_ns: kept_ns[0],
            median_ns: percentile(&kept_ns, 0.5),
            p99_ns: percentile(&kept_ns, 0.99),
            stddev_ns: var.sqrt(),
            samples: kept.len(),
            trimmed: raw.len() - kept.len(),
            iters: kept.iter().map(|&(_, it)| it).sum(),
        }
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Collects one benchmark's samples.
#[derive(Default)]
pub struct Bencher {
    /// `(ns_per_iter, iters)` per timed sample.
    samples: Vec<(f64, u64)>,
}

impl Bencher {
    /// Times `routine` as `SAMPLES` (20) batches sized so the whole
    /// run fits the measurement budget; each batch yields one ns/iter
    /// sample.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up and per-iteration estimate.
        let warmup = Instant::now();
        let mut probe_iters = 0u64;
        while warmup.elapsed() < Duration::from_millis(20) && probe_iters < 1_000_000 {
            std::hint::black_box(routine());
            probe_iters += 1;
        }
        let per_iter = warmup.elapsed().checked_div(probe_iters as u32).unwrap_or_default();
        let per_sample = measure_budget() / SAMPLES as u32;
        let iters = if per_iter.is_zero() {
            50_000
        } else {
            (per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 5_000_000) as u64
        };
        self.samples.clear();
        for _ in 0..SAMPLES {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let ns = start.elapsed().as_nanos() as f64 / iters as f64;
            self.samples.push((ns, iters));
        }
    }

    /// Times `routine` on fresh inputs from `setup`; only the routine
    /// is measured, and each batch's duration is one sample.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let budget = measure_budget();
        let mut measured = Duration::ZERO;
        self.samples.clear();
        let wall = Instant::now();
        while (measured < budget || self.samples.len() < 2) && wall.elapsed() < budget * 4 {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            let d = start.elapsed();
            measured += d;
            self.samples.push((d.as_nanos() as f64, 1));
        }
    }

    /// The summary over the collected samples.
    pub fn stats(&self) -> Stats {
        Stats::from_samples(&self.samples)
    }
}

/// Formats a ns quantity with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    /// Only benchmarks whose id contains this run.
    filter: Option<String>,
}

impl Criterion {
    /// Like real criterion, takes the first free argument
    /// (`cargo bench -- <filter>`) as a substring filter on benchmark
    /// ids; the flags cargo adds (`--bench`) are skipped.
    pub fn configure_from_args(self) -> Self {
        Criterion { filter: std::env::args().skip(1).find(|a| !a.starts_with('-')) }
    }

    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if self.filter.as_ref().is_some_and(|wanted| !id.contains(wanted.as_str())) {
            return self;
        }
        let mut b = Bencher::default();
        f(&mut b);
        let s = b.stats();
        println!(
            "{id:<40} mean {:>12}/iter  min {:>12}  median {:>12}  p99 {:>12}  stddev {:>10}  \
             ({} samples, {} trimmed, {} iters)",
            fmt_ns(s.mean_ns),
            fmt_ns(s.min_ns),
            fmt_ns(s.median_ns),
            fmt_ns(s.p99_ns),
            fmt_ns(s.stddev_ns),
            s.samples,
            s.trimmed,
            s.iters,
        );
        self
    }
}

/// Re-export so `criterion::black_box` callers work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

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

    #[test]
    fn bench_function_runs_and_prints() {
        std::env::set_var("XIVM_BENCH_MS", "5");
        let mut c = Criterion::default();
        c.bench_function("shim/self_test", |b| b.iter(|| 1 + 1));
        c.bench_function("shim/batched", |b| {
            b.iter_batched(|| vec![1, 2, 3], |v| v.len(), BatchSize::SmallInput)
        });
    }

    #[test]
    fn stats_summarize_and_trim_outliers() {
        // 19 well-behaved samples plus one wild outlier: the outlier
        // must be trimmed and every summary field reflect the rest.
        let mut raw: Vec<(f64, u64)> = (0..19).map(|i| (100.0 + i as f64, 10)).collect();
        raw.push((10_000.0, 10));
        let s = Stats::from_samples(&raw);
        assert_eq!(s.trimmed, 1);
        assert_eq!(s.samples, 19);
        assert_eq!(s.iters, 190);
        assert_eq!(s.min_ns, 100.0);
        assert_eq!(s.median_ns, 109.0);
        assert!((s.p99_ns - 117.82).abs() < 1e-9);
        assert!((s.mean_ns - 109.0).abs() < 1e-9);
        assert!(s.stddev_ns > 0.0 && s.stddev_ns < 10.0);
    }

    #[test]
    fn stats_handle_degenerate_inputs() {
        assert_eq!(Stats::from_samples(&[]), Stats::default());
        let one = Stats::from_samples(&[(42.0, 7)]);
        assert_eq!(one.mean_ns, 42.0);
        assert_eq!(one.min_ns, 42.0);
        assert_eq!(one.median_ns, 42.0);
        assert_eq!(one.stddev_ns, 0.0);
        assert_eq!(one.samples, 1);
        assert_eq!(one.trimmed, 0);
        assert_eq!(one.iters, 7);
        // identical samples: nothing trimmed, zero spread
        let same = Stats::from_samples(&[(5.0, 1), (5.0, 1), (5.0, 1)]);
        assert_eq!(same.samples, 3);
        assert_eq!(same.stddev_ns, 0.0);
    }

    #[test]
    fn bencher_iter_collects_samples() {
        std::env::set_var("XIVM_BENCH_MS", "5");
        let mut b = Bencher::default();
        b.iter(|| std::hint::black_box(3u64).wrapping_mul(7));
        let s = b.stats();
        assert!(s.samples >= 2, "iter takes multiple samples");
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.mean_ns + s.stddev_ns * 4.0);
        assert!(s.iters > 0);
    }
}
