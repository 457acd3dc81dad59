//! Propagation channel: line-of-sight delay and additive white
//! Gaussian noise.

use autosec_sim::SimRng;

use crate::signal::{Waveform, SAMPLES_PER_METER};

/// A simulated UWB channel between two transceivers.
///
/// # Example
///
/// ```
/// use autosec_phy::{Channel, Waveform};
/// use autosec_sim::SimRng;
///
/// let ch = Channel::line_of_sight(10.0, 20.0);
/// let mut tx = Waveform::zeros(4);
/// tx.add_impulse(0, 1.0);
/// let rx = ch.propagate(&tx, 200, &mut SimRng::seed(3));
/// assert_eq!(rx.len(), 200);
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    distance_m: f64,
    snr_db: f64,
}

impl Channel {
    /// A clean line-of-sight channel at `distance_m` with the given SNR.
    pub fn line_of_sight(distance_m: f64, snr_db: f64) -> Self {
        assert!(distance_m >= 0.0, "negative distance");
        Self { distance_m, snr_db }
    }

    /// One-way flight delay in samples.
    pub fn delay_samples(&self) -> usize {
        (self.distance_m * SAMPLES_PER_METER).round() as usize
    }

    /// Noise standard deviation for a unit-amplitude signal at the
    /// configured SNR.
    pub fn noise_sigma(&self) -> f64 {
        // SNR(dB) = 20 log10(A / sigma) with A = 1.
        10f64.powf(-self.snr_db / 20.0)
    }

    /// Propagates `tx` through the channel into an observation window of
    /// `window_len` samples: applies flight delay and AWGN.
    pub fn propagate(&self, tx: &Waveform, window_len: usize, rng: &mut SimRng) -> Waveform {
        let mut rx = Waveform::zeros(window_len);
        rx.superimpose(tx, self.delay_samples() as isize);
        // Noise.
        let sigma = self.noise_sigma();
        if sigma > 0.0 {
            for s in rx.samples_mut() {
                *s += rng.normal_with(0.0, sigma);
            }
        }
        rx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_matches_distance() {
        let ch = Channel::line_of_sight(10.0, 100.0);
        // 10 m ≈ 133 samples.
        assert_eq!(ch.delay_samples(), 133);
    }

    #[test]
    fn clean_channel_preserves_impulse() {
        let ch = Channel::line_of_sight(1.0, 200.0); // essentially noiseless
        let mut tx = Waveform::zeros(1);
        tx.add_impulse(0, 1.0);
        let rx = ch.propagate(&tx, 50, &mut SimRng::seed(1));
        let d = ch.delay_samples();
        assert!((rx.samples()[d] - 1.0).abs() < 1e-6);
        assert!(rx.energy_in(0, d) < 1e-9);
    }

    #[test]
    fn noise_scales_with_snr() {
        let quiet = Channel::line_of_sight(0.0, 40.0);
        let loud = Channel::line_of_sight(0.0, 10.0);
        assert!(loud.noise_sigma() > quiet.noise_sigma());
        let tx = Waveform::zeros(1);
        let mut rng = SimRng::seed(3);
        let rx = loud.propagate(&tx, 10_000, &mut rng);
        let sigma_est = (rx.energy() / 10_000.0).sqrt();
        assert!((sigma_est - loud.noise_sigma()).abs() / loud.noise_sigma() < 0.05);
    }

    #[test]
    #[should_panic(expected = "negative distance")]
    fn negative_distance_rejected() {
        let _ = Channel::line_of_sight(-1.0, 10.0);
    }
}
