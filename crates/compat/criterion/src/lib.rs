//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the small timing surface its microbenchmarks use: a
//! [`Sampler`] that warms a closure up, times it over a fixed number of
//! samples and reports the median per-iteration time as a
//! [`Measurement`], plus criterion's [`black_box`]. There is no
//! statistical analysis, plotting, or baseline comparison.

#![warn(missing_docs)]

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Explicit timing plan: warm-up iterations, timed iterations per
/// sample, and a sample count whose median is reported.
///
/// Criterion proper exposes no programmatic measurement entry point —
/// this is the stand-in's extension for the workspace's microbench tier
/// (`accqoc-bench --bin grape_kernels` and friends), which needs raw
/// numbers it can assert on and serialize rather than printed output.
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    /// Untimed iterations run once before sampling starts (page in
    /// code and data, settle the branch predictor).
    pub warmup_iters: u32,
    /// Timed iterations per sample. `0` auto-calibrates so one sample
    /// takes ~5 ms, keeping fast kernels clear of timer resolution.
    pub iters: u32,
    /// Number of samples taken; the measurement is their median, which
    /// shrugs off scheduler noise that would skew a mean.
    pub samples: usize,
}

impl Sampler {
    /// A plan with explicit warm-up, per-sample iteration count
    /// (`0` = auto-calibrate), and sample count (clamped to ≥ 3).
    pub fn new(warmup_iters: u32, iters: u32, samples: usize) -> Self {
        Self {
            warmup_iters,
            iters,
            samples: samples.max(3),
        }
    }

    /// Auto-calibrating plan: `samples` samples of ~5 ms each.
    pub fn calibrated(samples: usize) -> Self {
        Self::new(1, 0, samples)
    }

    /// Runs `f` under this plan and reports median-of-K statistics.
    pub fn measure<O>(&self, mut f: impl FnMut() -> O) -> Measurement {
        for _ in 0..self.warmup_iters {
            std_black_box(f());
        }
        let iters_per_sample = if self.iters > 0 {
            self.iters
        } else {
            // Aim for ~5 ms per sample so fast kernels are not measured
            // at timer resolution.
            let t0 = Instant::now();
            std_black_box(f());
            let once = t0.elapsed().max(Duration::from_nanos(1));
            ((Duration::from_millis(5).as_nanos() / once.as_nanos()).clamp(1, 10_000)) as u32
        };
        let n_samples = self.samples.max(3);
        let mut per_iter: Vec<Duration> = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                std_black_box(f());
            }
            per_iter.push(start.elapsed() / iters_per_sample);
        }
        per_iter.sort_unstable();
        Measurement {
            median_ns: per_iter[per_iter.len() / 2].as_nanos() as f64,
            min_ns: per_iter[0].as_nanos() as f64,
            max_ns: per_iter[per_iter.len() - 1].as_nanos() as f64,
            samples: n_samples,
            iters_per_sample,
        }
    }
}

/// Median-of-K result of [`Sampler::measure`]. All times are
/// per-iteration nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Median per-iteration time across samples.
    pub median_ns: f64,
    /// Fastest sample's per-iteration time.
    pub min_ns: f64,
    /// Slowest sample's per-iteration time.
    pub max_ns: f64,
    /// Samples actually taken.
    pub samples: usize,
    /// Timed iterations per sample (after calibration).
    pub iters_per_sample: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_fixed_iters_are_respected() {
        let mut calls = 0u64;
        let m = Sampler::new(2, 10, 4).measure(|| {
            calls += 1;
            calls
        });
        // 2 warm-up + 4 samples × 10 iters.
        assert_eq!(calls, 2 + 4 * 10);
        assert_eq!(m.samples, 4);
        assert_eq!(m.iters_per_sample, 10);
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
    }

    #[test]
    fn sampler_calibrates_when_iters_is_zero() {
        let m = Sampler::calibrated(3).measure(|| std::hint::black_box(1 + 1));
        // A trivial closure must calibrate to many iterations per sample.
        assert!(m.iters_per_sample > 1);
        assert!(m.median_ns >= 0.0);
    }

    #[test]
    fn sampler_clamps_sample_count() {
        let m = Sampler::new(0, 1, 0).measure(|| 1);
        assert_eq!(m.samples, 3);
    }
}
