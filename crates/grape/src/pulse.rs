//! Piecewise-constant control pulses.
//!
//! A pulse is the artifact AccQOC produces and caches: per control
//! channel, a sequence of amplitudes held constant over slices of width
//! `dt`. The paper's warm-start acceleration (§V) seeds GRAPE with the
//! pulse of a similar group, which requires resampling onto a different
//! step count — provided here.

/// A piecewise-constant multi-channel control pulse.
///
/// # Examples
///
/// ```
/// use accqoc_grape::Pulse;
///
/// let mut p = Pulse::zeros(2, 10, 1.0);
/// p.set(0, 3, 0.5);
/// assert_eq!(p.amp(0, 3), 0.5);
/// assert_eq!(p.latency_ns(), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pulse {
    /// Channel-major amplitudes: channel `c`, step `k` at
    /// `amps[c * n_steps + k]`.
    amps: Vec<f64>,
    n_controls: usize,
    dt_ns: f64,
}

impl Pulse {
    /// All-zero pulse with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `dt_ns <= 0` or `n_controls == 0`.
    pub fn zeros(n_controls: usize, n_steps: usize, dt_ns: f64) -> Self {
        assert!(dt_ns > 0.0, "dt must be positive");
        assert!(n_controls > 0, "need at least one control channel");
        Self {
            amps: vec![0.0; n_controls * n_steps],
            n_controls,
            dt_ns,
        }
    }

    /// Builds a pulse from explicit per-channel amplitude rows.
    ///
    /// # Panics
    ///
    /// Panics on ragged rows, empty channel list, or non-positive `dt_ns`.
    pub fn from_amps(amps: Vec<Vec<f64>>, dt_ns: f64) -> Self {
        assert!(dt_ns > 0.0, "dt must be positive");
        assert!(!amps.is_empty(), "need at least one control channel");
        let steps = amps[0].len();
        assert!(
            amps.iter().all(|row| row.len() == steps),
            "ragged amplitude rows"
        );
        Self {
            n_controls: amps.len(),
            amps: amps.concat(),
            dt_ns,
        }
    }

    /// Number of control channels.
    pub fn n_controls(&self) -> usize {
        self.n_controls
    }

    /// Number of time slices.
    pub fn n_steps(&self) -> usize {
        self.amps.len() / self.n_controls
    }

    /// Slice width in nanoseconds.
    pub fn dt_ns(&self) -> f64 {
        self.dt_ns
    }

    /// Total pulse duration in nanoseconds.
    pub fn latency_ns(&self) -> f64 {
        self.n_steps() as f64 * self.dt_ns
    }

    /// Amplitude of `channel` during `step`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn amp(&self, channel: usize, step: usize) -> f64 {
        self.channel(channel)[step]
    }

    /// Sets one amplitude.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn set(&mut self, channel: usize, step: usize, value: f64) {
        let n_steps = self.n_steps();
        self.amps[channel * n_steps..(channel + 1) * n_steps][step] = value;
    }

    /// Amplitude row of one channel.
    pub fn channel(&self, channel: usize) -> &[f64] {
        let n_steps = self.n_steps();
        &self.amps[channel * n_steps..(channel + 1) * n_steps]
    }

    /// Amplitudes of every channel at one time step.
    pub fn step_amps(&self, step: usize) -> Vec<f64> {
        (0..self.n_controls).map(|c| self.amp(c, step)).collect()
    }

    /// Flattens to the GRAPE parameter vector layout
    /// (`[channel-major]`: channel 0 steps, channel 1 steps, …).
    pub fn to_params(&self) -> Vec<f64> {
        self.amps.clone()
    }

    /// Rebuilds a pulse from the flat parameter layout of
    /// [`Pulse::to_params`].
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != n_controls * n_steps`.
    pub fn from_params(params: &[f64], n_controls: usize, n_steps: usize, dt_ns: f64) -> Self {
        assert_eq!(params.len(), n_controls * n_steps, "parameter count");
        let mut pulse = Self::zeros(n_controls, n_steps, dt_ns);
        pulse.amps.copy_from_slice(params);
        pulse
    }

    /// Resamples onto `new_steps` slices by linear interpolation of each
    /// channel, preserving `dt` (the pulse *duration* changes). This is
    /// how a parent group's pulse seeds a child with a different latency
    /// in the MST warm start.
    ///
    /// # Panics
    ///
    /// Panics if `new_steps == 0`.
    pub fn resampled(&self, new_steps: usize) -> Pulse {
        assert!(new_steps > 0, "cannot resample to zero steps");
        let old = self.n_steps();
        if old == new_steps {
            return self.clone();
        }
        let mut out = Pulse::zeros(self.n_controls(), new_steps, self.dt_ns);
        for (c, row) in out.amps.chunks_exact_mut(new_steps).enumerate() {
            let src = self.channel(c);
            for (k, v) in row.iter_mut().enumerate() {
                *v = if old == 0 {
                    0.0
                } else if old == 1 {
                    src[0]
                } else {
                    // Sample positions at slice centers, mapped proportionally.
                    let pos = (k as f64 + 0.5) / new_steps as f64 * old as f64 - 0.5;
                    let pos = pos.clamp(0.0, (old - 1) as f64);
                    let lo = pos.floor() as usize;
                    let hi = (lo + 1).min(old - 1);
                    let frac = pos - lo as f64;
                    src[lo] * (1.0 - frac) + src[hi] * frac
                };
            }
        }
        out
    }

    /// Concatenates another pulse after this one (channel counts and `dt`
    /// must match). Gate-based compilation is exactly this operation over
    /// a lookup table.
    ///
    /// # Panics
    ///
    /// Panics on channel-count or `dt` mismatch.
    pub fn concat(&self, other: &Pulse) -> Pulse {
        assert_eq!(
            self.n_controls(),
            other.n_controls(),
            "channel count mismatch"
        );
        assert!((self.dt_ns - other.dt_ns).abs() < 1e-12, "dt mismatch");
        let mut amps = Vec::with_capacity(self.amps.len() + other.amps.len());
        for c in 0..self.n_controls {
            amps.extend_from_slice(self.channel(c));
            amps.extend_from_slice(other.channel(c));
        }
        Pulse {
            amps,
            n_controls: self.n_controls,
            dt_ns: self.dt_ns,
        }
    }

    /// Largest absolute amplitude across all channels and steps.
    pub fn max_abs_amp(&self) -> f64 {
        self.amps.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_latency() {
        let p = Pulse::zeros(4, 25, 0.5);
        assert_eq!(p.n_controls(), 4);
        assert_eq!(p.n_steps(), 25);
        assert!((p.latency_ns() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn params_roundtrip() {
        let mut p = Pulse::zeros(2, 3, 1.0);
        p.set(0, 0, 1.0);
        p.set(1, 2, -0.5);
        let params = p.to_params();
        assert_eq!(params, vec![1.0, 0.0, 0.0, 0.0, 0.0, -0.5]);
        let q = Pulse::from_params(&params, 2, 3, 1.0);
        assert_eq!(p, q);
    }

    #[test]
    fn resample_identity_when_same_steps() {
        let p = Pulse::from_amps(vec![vec![1.0, 2.0, 3.0]], 1.0);
        assert_eq!(p.resampled(3), p);
    }

    #[test]
    fn resample_preserves_constant_pulses() {
        let p = Pulse::from_amps(vec![vec![0.7; 8]], 1.0);
        let q = p.resampled(13);
        for k in 0..13 {
            assert!((q.amp(0, k) - 0.7).abs() < 1e-12);
        }
        let r = p.resampled(3);
        for k in 0..3 {
            assert!((r.amp(0, k) - 0.7).abs() < 1e-12);
        }
    }

    #[test]
    fn resample_interpolates_ramps() {
        // A linear ramp stays (approximately) a linear ramp.
        let p = Pulse::from_amps(vec![(0..10).map(|k| k as f64).collect()], 1.0);
        let q = p.resampled(19);
        for k in 1..19 {
            assert!(
                q.amp(0, k) >= q.amp(0, k - 1) - 1e-12,
                "monotone ramp broken at {k}"
            );
        }
        assert!(q.amp(0, 0) <= 1.0);
        assert!(q.amp(0, 18) >= 8.0);
    }

    #[test]
    fn resample_single_step_extends() {
        let p = Pulse::from_amps(vec![vec![0.3]], 1.0);
        let q = p.resampled(5);
        for k in 0..5 {
            assert_eq!(q.amp(0, k), 0.3);
        }
    }

    #[test]
    fn concat_appends_steps() {
        let a = Pulse::from_amps(vec![vec![1.0, 1.0]], 1.0);
        let b = Pulse::from_amps(vec![vec![2.0]], 1.0);
        let c = a.concat(&b);
        assert_eq!(c.n_steps(), 3);
        assert_eq!(c.channel(0), &[1.0, 1.0, 2.0]);
        assert!((c.latency_ns() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn max_amp_spans_channels() {
        let p = Pulse::from_amps(vec![vec![1.0, -2.0], vec![0.0, 0.5]], 2.0);
        assert!((p.max_abs_amp() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn step_amps_collects_across_channels() {
        let p = Pulse::from_amps(vec![vec![1.0, 2.0], vec![3.0, 4.0]], 1.0);
        assert_eq!(p.step_amps(1), vec![2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Pulse::from_amps(vec![vec![1.0], vec![1.0, 2.0]], 1.0);
    }

    #[test]
    #[should_panic(expected = "dt mismatch")]
    fn concat_dt_mismatch_panics() {
        let a = Pulse::zeros(1, 2, 1.0);
        let b = Pulse::zeros(1, 2, 0.5);
        let _ = a.concat(&b);
    }
}
