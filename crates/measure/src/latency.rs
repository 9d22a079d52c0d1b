//! The delay model.
//!
//! Base RTT between two points is `2·d/v + proc`, where `v` is a stable
//! per-path effective speed drawn between the lower and upper bounds of
//! the [`opeer_geo::SpeedModel`] (skewed towards the fast end — real paths
//! are mostly direct) and `proc` is per-path switch/router processing.
//! A configurable minority of paths are *slow outliers* (circuitous
//! routing, L2 detours) whose speed falls below the model's lower bound;
//! these are the cases Step 3 of the inference legitimately loses
//! (paper footnote 7).
//!
//! Per-sample jitter rides on top: exponential queueing noise plus rare
//! multi-millisecond spikes. Minimum-of-N filtering in the campaign layer
//! recovers the base RTT, which is exactly why the paper uses `RTTmin`.

use opeer_geo::{GeoPoint, SpeedModel};
use opeer_topology::routing::stable_hash;
use serde::{Deserialize, Serialize};

/// Tunable latency model parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LatencyModel {
    /// The distance⇄RTT feasibility bounds shared with the inference.
    pub speed: SpeedModel,
    /// Seed folded into every stable draw.
    pub seed: u64,
    /// Fraction of the admissible speed range by which drawn speeds stay
    /// below `vmax` (safety margin keeps simulated paths strictly inside
    /// the feasible annulus).
    pub v_max_margin: f64,
    /// Margin above `vmin` for regular paths.
    pub v_min_margin: f64,
    /// Skew exponent for the speed draw (`u^skew`; < 1 favours fast paths).
    pub speed_skew: f64,
    /// Probability that a path is a slow outlier violating the lower
    /// speed bound.
    pub p_slow_outlier: f64,
    /// Range of per-path processing overhead (ms, round-trip).
    pub proc_ms: (f64, f64),
    /// Mean of the per-sample exponential jitter (ms).
    pub jitter_mean_ms: f64,
    /// Probability of a transient congestion spike on one sample.
    pub p_spike: f64,
    /// Spike magnitude range (ms).
    pub spike_ms: (f64, f64),
    /// Probability a single probe packet is lost.
    pub p_sample_loss: f64,
}

impl LatencyModel {
    /// Model with the default calibration for a given measurement seed.
    pub fn new(seed: u64) -> Self {
        LatencyModel {
            speed: SpeedModel::default(),
            seed,
            v_max_margin: 0.92,
            v_min_margin: 1.10,
            speed_skew: 0.4,
            p_slow_outlier: 0.03,
            proc_ms: (0.10, 0.55),
            jitter_mean_ms: 0.12,
            p_spike: 0.08,
            spike_ms: (2.0, 40.0),
            p_sample_loss: 0.02,
        }
    }

    /// Uniform [0,1) derived from the hash of `words` (stable across runs).
    fn unit(&self, words: &[u64; 3]) -> f64 {
        let h = stable_hash(&[self.seed, 3, words[0], words[1], words[2]]);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The stable base RTT in ms between two locations, for a path
    /// identified by `key` (unordered endpoint ids — fold both in).
    pub fn base_rtt_ms(&self, a: GeoPoint, b: GeoPoint, key: &[u64]) -> f64 {
        self.base_rtt_ms_with_skew(a, b, key, self.speed_skew)
    }

    /// Like [`Self::base_rtt_ms`] with an explicit speed-skew exponent.
    /// Values above 1 bias towards the slow end of the feasible range —
    /// used for wide-area L2 fabrics, whose backhaul detours more than
    /// IP paths do (Fig. 2a).
    pub fn base_rtt_ms_with_skew(&self, a: GeoPoint, b: GeoPoint, key: &[u64], skew: f64) -> f64 {
        let d_km = a.distance_km(&b);
        let proc = {
            let u = self.unit(&[key[0].wrapping_add(7), key[key.len() - 1], 1]);
            self.proc_ms.0 + u * (self.proc_ms.1 - self.proc_ms.0)
        };
        if d_km < 1e-6 {
            return proc;
        }
        // Speeds follow the paper's convention: ground distance per unit of
        // *full RTT* (its Fig. 7 example: 4 ms → dmax = vmax·4 ms ≈ 533 km).
        let v_max = self.speed.v_max_m_s * self.v_max_margin;
        let v_min_raw = self.speed.v_min_m_s(d_km);
        let slow = self.unit(&[key[0], key[key.len() - 1], 2]) < self.p_slow_outlier;
        let v = if slow {
            // A circuitous path: below the lower bound the inference trusts.
            let u = self.unit(&[key[0], key[key.len() - 1], 3]);
            let floor = (v_min_raw * 0.45).max(0.04 * v_max);
            let ceil = (v_min_raw * 0.95).max(floor * 1.2);
            floor + u * (ceil - floor)
        } else {
            // The drawn speed must keep the path feasible *including* the
            // processing overhead: d/v + proc ≤ d/vmin ⇒
            // v ≥ vmin / (1 − vmin·proc/d).
            let d_m = d_km * 1000.0;
            let proc_s = proc / 1000.0;
            let v_floor = if v_min_raw > 0.0 {
                let denom = 1.0 - v_min_raw * proc_s / d_m;
                if denom > 0.05 {
                    v_min_raw / denom * self.v_min_margin
                } else {
                    v_max * 0.98 // degenerate short path; pin fast
                }
            } else {
                0.0
            };
            let lo = v_floor.max(0.30 * v_max).min(0.98 * v_max);
            let u = self.unit(&[key[0], key[key.len() - 1], 4]).powf(skew);
            lo + u * (v_max - lo)
        };
        d_km * 1000.0 / v * 1000.0 + proc
    }

    /// One sampled RTT: base + jitter (+ spike), or `None` if the packet
    /// was lost. `sample_idx` individualises draws per probe packet.
    pub fn sample_rtt_ms(&self, base_ms: f64, key: &[u64], sample_idx: u64) -> Option<f64> {
        if self.unit(&[key[0], sample_idx, 10]) < self.p_sample_loss {
            return None;
        }
        let u = self.unit(&[key[0], sample_idx, 11]).max(1e-12);
        let jitter = -self.jitter_mean_ms * u.ln(); // exponential
        let spike = if self.unit(&[key[0], sample_idx, 12]) < self.p_spike {
            let s = self.unit(&[key[0], sample_idx, 13]);
            self.spike_ms.0 + s * (self.spike_ms.1 - self.spike_ms.0)
        } else {
            0.0
        };
        Some(base_ms + jitter + spike)
    }

    /// Whether a path is a slow outlier (exposed so tests and experiments
    /// can separate legitimate misses from bugs).
    pub fn is_slow_outlier(&self, key: &[u64]) -> bool {
        self.unit(&[key[0], key[key.len() - 1], 2]) < self.p_slow_outlier
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).expect("valid")
    }

    #[test]
    fn base_rtt_is_deterministic() {
        let m = LatencyModel::new(9);
        let a = p(52.37, 4.9);
        let b = p(50.11, 8.68);
        assert_eq!(m.base_rtt_ms(a, b, &[1, 2]), m.base_rtt_ms(a, b, &[1, 2]));
        assert_ne!(m.base_rtt_ms(a, b, &[1, 2]), m.base_rtt_ms(a, b, &[1, 3]));
    }

    #[test]
    fn zero_distance_is_processing_only() {
        let m = LatencyModel::new(9);
        let a = p(52.37, 4.9);
        let rtt = m.base_rtt_ms(a, a, &[5, 6]);
        assert!(rtt >= m.proc_ms.0 && rtt <= m.proc_ms.1, "got {rtt}");
    }

    #[test]
    fn regular_paths_respect_feasibility_bounds() {
        // For non-outlier paths the observed base RTT must keep the true
        // distance inside the inference's feasible annulus.
        let m = LatencyModel::new(42);
        let a = p(52.37, 4.9);
        let mut checked = 0;
        for (lat, lon) in [
            (48.85, 2.35),
            (51.51, -0.13),
            (40.71, -74.01),
            (1.35, 103.82),
            (44.43, 26.1),
        ] {
            let b = p(lat, lon);
            for k in 0..40u64 {
                let key = [k, k + 1000];
                if m.is_slow_outlier(&key) {
                    continue;
                }
                let rtt = m.base_rtt_ms(a, b, &key);
                let d = a.distance_km(&b);
                let annulus = m.speed.feasible_annulus_ms(rtt);
                assert!(
                    annulus.contains(d),
                    "d={d:.0} km rtt={rtt:.2} ms annulus=[{:.0},{:.0}]",
                    annulus.min_km,
                    annulus.max_km
                );
                checked += 1;
            }
        }
        assert!(checked > 150, "only {checked} non-outlier paths");
    }

    #[test]
    fn slow_outliers_exist_and_violate_lower_bound() {
        let m = LatencyModel::new(7);
        let a = p(52.37, 4.9);
        let b = p(48.85, 2.35); // ~430 km
        let d = a.distance_km(&b);
        let mut outliers = 0;
        for k in 0..2000u64 {
            let key = [k, k + 9999];
            if m.is_slow_outlier(&key) {
                outliers += 1;
                let rtt = m.base_rtt_ms(a, b, &key);
                let annulus = m.speed.feasible_annulus_ms(rtt);
                assert!(
                    d < annulus.min_km,
                    "outlier should look farther than it is: d={d}, min={}",
                    annulus.min_km
                );
            }
        }
        let rate = outliers as f64 / 2000.0;
        assert!((0.01..0.06).contains(&rate), "outlier rate {rate}");
    }

    #[test]
    fn samples_jitter_above_base_and_min_recovers() {
        let m = LatencyModel::new(3);
        let base = 5.0;
        let mut min = f64::INFINITY;
        let mut got = 0;
        for i in 0..24 {
            if let Some(s) = m.sample_rtt_ms(base, &[77], i) {
                assert!(s >= base, "sample below base");
                min = min.min(s);
                got += 1;
            }
        }
        assert!(got >= 18, "too many losses: {got}/24");
        assert!(min - base < 1.0, "min-of-24 {min} far from base {base}");
    }

    #[test]
    fn spikes_occur_at_expected_rate() {
        let m = LatencyModel::new(5);
        let mut spikes = 0;
        let mut n = 0;
        for i in 0..5000 {
            if let Some(s) = m.sample_rtt_ms(1.0, &[123], i) {
                n += 1;
                if s > 2.5 {
                    spikes += 1;
                }
            }
        }
        let rate = spikes as f64 / n as f64;
        assert!((0.04..0.14).contains(&rate), "spike rate {rate}");
    }
}
