//! Discrete-time baseband waveforms.
//!
//! Everything at the physical layer is a vector of amplitude samples at a
//! fixed 250 ps sample period — fine enough to resolve ~7.5 cm of one-way
//! distance per sample, which is the scale at which the Fig. 2 attacks
//! operate.

use crate::PS_PER_METER;

/// Sample period in picoseconds (4 GS/s).
pub const SAMPLE_PS: f64 = 250.0;

/// Samples of one-way flight per metre of distance (~13.3).
pub const SAMPLES_PER_METER: f64 = PS_PER_METER / SAMPLE_PS;

/// A baseband waveform: amplitude per 250 ps sample.
///
/// # Example
///
/// ```
/// use autosec_phy::Waveform;
/// let mut w = Waveform::zeros(10);
/// w.add_impulse(3, 1.0);
/// assert_eq!(w.samples()[3], 1.0);
/// assert_eq!(w.energy(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Waveform {
    samples: Vec<f64>,
}

impl Waveform {
    /// A silent waveform of `len` samples.
    pub fn zeros(len: usize) -> Self {
        Self {
            samples: vec![0.0; len],
        }
    }

    /// Sample buffer.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mutable sample buffer.
    pub fn samples_mut(&mut self) -> &mut [f64] {
        &mut self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the waveform has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Adds an impulse of `amplitude` at sample `idx` (ignored if out of
    /// range — attacker pulses may fall outside the observation window).
    pub fn add_impulse(&mut self, idx: usize, amplitude: f64) {
        if let Some(s) = self.samples.get_mut(idx) {
            *s += amplitude;
        }
    }

    /// Superimposes `other` onto this waveform, offset by `offset` samples;
    /// samples falling outside this waveform are dropped.
    pub fn superimpose(&mut self, other: &Waveform, offset: isize) {
        for (i, &v) in other.samples.iter().enumerate() {
            let idx = i as isize + offset;
            if idx >= 0 && (idx as usize) < self.samples.len() {
                self.samples[idx as usize] += v;
            }
        }
    }

    /// Total signal energy (sum of squared amplitudes).
    pub fn energy(&self) -> f64 {
        self.samples.iter().map(|s| s * s).sum()
    }

    /// Energy within the half-open sample window `[start, end)`, clamped
    /// to the waveform bounds.
    pub fn energy_in(&self, start: usize, end: usize) -> f64 {
        let end = end.min(self.samples.len());
        if start >= end {
            return 0.0;
        }
        self.samples[start..end].iter().map(|s| s * s).sum()
    }

    /// Sliding cross-correlation of this received waveform against a
    /// `template`, evaluated at every candidate offset
    /// `0 ..= len - template.len()`. Returns the raw correlation profile.
    ///
    /// # Panics
    ///
    /// Panics if the template is longer than the waveform or empty.
    pub fn correlate(&self, template: &Waveform) -> Vec<f64> {
        assert!(!template.is_empty(), "empty correlation template");
        assert!(
            template.len() <= self.len(),
            "template longer than waveform"
        );
        let n = self.len() - template.len() + 1;
        let mut out = Vec::with_capacity(n);
        for off in 0..n {
            let mut acc = 0.0;
            for (j, &t) in template.samples.iter().enumerate() {
                if t != 0.0 {
                    acc += t * self.samples[off + j];
                }
            }
            out.push(acc);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impulse_and_energy() {
        let mut w = Waveform::zeros(8);
        w.add_impulse(2, 2.0);
        w.add_impulse(5, -1.0);
        w.add_impulse(100, 9.0); // silently ignored
        assert_eq!(w.energy(), 5.0);
        assert_eq!(w.energy_in(0, 3), 4.0);
        assert_eq!(w.energy_in(3, 8), 1.0);
        assert_eq!(w.energy_in(6, 3), 0.0);
    }

    #[test]
    fn superimpose_with_offsets() {
        let mut base = Waveform::zeros(5);
        let mut add = Waveform::zeros(2);
        add.add_impulse(0, 1.0);
        add.add_impulse(1, 2.0);
        base.superimpose(&add, 3);
        assert_eq!(base.samples(), &[0.0, 0.0, 0.0, 1.0, 2.0]);
        base.superimpose(&add, -1); // first sample clipped
        assert_eq!(base.samples()[0], 2.0);
        base.superimpose(&add, 4); // second sample clipped
        assert_eq!(base.samples()[4], 3.0);
    }

    #[test]
    fn correlation_peaks_at_true_offset() {
        let mut template = Waveform::zeros(4);
        template.add_impulse(0, 1.0);
        template.add_impulse(2, -1.0);
        let mut rx = Waveform::zeros(16);
        rx.superimpose(&template, 7);
        let profile = rx.correlate(&template);
        let (best, _) = profile
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert_eq!(best, 7);
    }

    #[test]
    #[should_panic(expected = "template longer")]
    fn correlate_rejects_long_template() {
        let w = Waveform::zeros(3);
        let t = Waveform::zeros(5);
        let _ = w.correlate(&t);
    }

    #[test]
    fn samples_per_meter_is_about_13() {
        assert!((SAMPLES_PER_METER - 13.34).abs() < 0.01);
    }
}
