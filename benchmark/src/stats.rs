//! Order statistics over latency samples, and the pausable clock the
//! timed loops run on.

use std::time::{Duration, Instant};

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The `q`-quantile (0..=1) of unsorted samples by linear
/// interpolation between closest ranks; 0.0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// First and third quartile by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive method), which
/// is the rule the benchmark contract's spread check applies.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// A timed loop's samples are cut into at most this many consecutive
/// slices (about a second each on the reference host); a run reports
/// the statistic of its second-quietest slice. Noise from the host only
/// ever slows the program, and it comes in bursts of a second up to
/// most of a run: the median of the slices followed every burst, and
/// even their quiet-side quartile dipped by 10 % when a slump covered
/// seven slices of ten, where the second-quietest slice needs two quiet
/// seconds in a run to read the same. The quietest slice alone could
/// be a fluke of what it happened to contain. A slowdown of the
/// program itself slows every slice.
const SLICES: usize = 10;

/// The quiet side of repeated timings of one thing: the second
/// smallest, or the smallest of fewer than four (see [`sliced`]).
pub fn quiet_time(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        1..=3 => sorted[0],
        _ => sorted[1],
    }
}

fn slice_count(samples: usize, least_per_slice: usize) -> usize {
    (samples / least_per_slice.max(1)).min(SLICES)
}

fn slice_bounds(len: usize, slices: usize, i: usize) -> std::ops::Range<usize> {
    len * i / slices..len * (i + 1) / slices
}

/// `stat` (a time) over consecutive slices of at least
/// `least_per_slice` samples: the second-smallest of the slices'
/// values. With fewer than four slices' worth of samples it is `stat`
/// of the whole.
pub fn sliced(samples: &[f64], least_per_slice: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let k = slice_count(samples.len(), least_per_slice);
    if k < 4 {
        return stat(samples);
    }
    let mut per: Vec<f64> =
        (0..k).map(|i| stat(&samples[slice_bounds(samples.len(), k, i)])).collect();
    per.sort_by(f64::total_cmp);
    per[1]
}

/// Operations per second over slices, as [`sliced`] (the
/// second-largest rate): `clock_s[k]` is the loop clock (pauses
/// excluded) when operation `k` completed; the loop began at clock 0.
pub fn sliced_rate(clock_s: &[f64], least_per_slice: usize) -> f64 {
    let n = clock_s.len();
    if n == 0 {
        return 0.0;
    }
    let k = slice_count(n, least_per_slice);
    if k < 4 {
        return n as f64 / clock_s[n - 1];
    }
    let mut per: Vec<f64> = (0..k)
        .map(|i| {
            let r = slice_bounds(n, k, i);
            let begin = if r.start == 0 { 0.0 } else { clock_s[r.start - 1] };
            r.len() as f64 / (clock_s[r.end - 1] - begin)
        })
        .collect();
    per.sort_by(f64::total_cmp);
    per[k - 2]
}

/// A stopwatch that can be paused: timed loops stop it around oracle
/// checks and the traced run's rig, so throughput counts only the
/// product path.
pub struct LoopClock {
    banked: Duration,
    running_since: Option<Instant>,
}

impl LoopClock {
    pub fn started() -> Self {
        LoopClock { banked: Duration::ZERO, running_since: Some(Instant::now()) }
    }

    pub fn pause(&mut self) {
        if let Some(t) = self.running_since.take() {
            self.banked += t.elapsed();
        }
    }

    pub fn resume(&mut self) {
        if self.running_since.is_none() {
            self.running_since = Some(Instant::now());
        }
    }

    pub fn secs(&self) -> f64 {
        (self.banked + self.running_since.map_or(Duration::ZERO, |t| t.elapsed())).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn the_second_quietest_slice_ignores_bursts() {
        // Ten slices of ten; bursts spoil eight of them.
        let mut v = vec![10.0; 100];
        for k in (10..60).chain(70..100) {
            v[k] = 1000.0;
        }
        assert_eq!(sliced(&v, 10, median), 10.0);
        // Too few samples for four slices: the statistic of the whole.
        assert_eq!(sliced(&v[5..35], 10, median), 1000.0);
        // A steady 100/s that stalls for most of the run still reads
        // 100/s.
        let mut t = 0.0;
        let clock: Vec<f64> = (0..100)
            .map(|k| {
                t += if (20..90).contains(&k) { 0.05 } else { 0.01 };
                t
            })
            .collect();
        assert!((sliced_rate(&clock, 10) - 100.0).abs() < 1e-6);
    }
}
