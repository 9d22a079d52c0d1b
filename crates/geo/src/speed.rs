//! The RTT⇄distance feasibility model (paper §5.2 step 3, Fig. 6, Fig. 7).
//!
//! Two empirical speed bounds convert a minimum RTT into a feasible
//! distance annulus around the vantage point:
//!
//! * **Upper bound** — Katz-Bassett et al. \[54\]: end-to-end probe packets
//!   cover at most `vmax = (4/9)·c` of ground distance per unit of RTT.
//!   The paper applies this to the *full* RTT (its Fig. 7 worked example:
//!   4 ms → dmax ≈ 533 km), so `dmax = vmax · rtt`.
//! * **Lower bound** — a logarithmic fit to Y.1731 inter-facility delay
//!   measurements (Fig. 6): `vmin(d) = A · (ln d[km] − 3)` m/s. Short paths
//!   can be arbitrarily slow (switch/router processing dominates), long
//!   paths cannot: a 4 ms RTT cannot come from a 50 km target. `dmin` is
//!   the largest self-consistent solution of `d = vmin(d) · rtt`, or 0
//!   when no solution exists (RTT below ≈2 ms constrains nothing), which
//!   reproduces the paper's observation that RTTs above ≈2 ms are a strong
//!   remoteness signal while lower RTTs are inconclusive.
//!
//! The published fit constant is typeset as `10⁷·(ln d − 3)`; the figure's
//! axis units are not recoverable from the text, so the default `A` here is
//! refit to the paper's own worked example (4 ms → dmin ≈ 299 km).

use serde::{Deserialize, Serialize};

/// Speed of light in vacuum, m/s.
pub const SPEED_OF_LIGHT_M_S: f64 = 299_792_458.0;

/// A feasible distance range (annulus) around a vantage point, km.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Annulus {
    /// Inner radius: the target cannot be closer than this.
    pub min_km: f64,
    /// Outer radius: the target cannot be farther than this.
    pub max_km: f64,
}

impl Annulus {
    /// Whether a point at `d_km` from the vantage point is inside the
    /// annulus (inclusive on both edges).
    pub fn contains(&self, d_km: f64) -> bool {
        d_km >= self.min_km && d_km <= self.max_km
    }
}

/// The two-sided speed model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SpeedModel {
    /// Maximum effective ground speed per unit RTT, m/s.
    pub v_max_m_s: f64,
    /// Fit coefficient `A` of `vmin(d) = A·(ln d[km] − ln_offset)`, m/s.
    pub v_min_coeff_m_s: f64,
    /// Fit offset (the paper's `3`).
    pub v_min_ln_offset: f64,
    /// Saturation value of the lower bound, m/s. The published fit was made
    /// on intra-European Y.1731 samples (≲ 2500 km); extrapolating the
    /// logarithm past its data range would cross `vmax` and invert the
    /// annulus, so the lower bound flattens here instead — long-haul paths
    /// are never assumed to be more than ~60 % light-speed efficient.
    pub v_min_saturation_m_s: f64,
}

impl Default for SpeedModel {
    fn default() -> Self {
        SpeedModel {
            v_max_m_s: 4.0 / 9.0 * SPEED_OF_LIGHT_M_S,
            v_min_coeff_m_s: 2.77e7,
            v_min_ln_offset: 3.0,
            v_min_saturation_m_s: 8.0e7,
        }
    }
}

impl SpeedModel {
    /// The lower speed bound at distance `d_km`, in m/s. Negative values
    /// (short distances, where the fit constrains nothing) are clamped to
    /// zero; long distances saturate at `v_min_saturation_m_s`.
    pub fn v_min_m_s(&self, d_km: f64) -> f64 {
        if d_km <= 0.0 {
            return 0.0;
        }
        (self.v_min_coeff_m_s * (d_km.ln() - self.v_min_ln_offset))
            .clamp(0.0, self.v_min_saturation_m_s)
    }

    /// Maximum feasible distance for an RTT, km: `vmax · rtt`.
    pub fn d_max_km(&self, rtt_ms: f64) -> f64 {
        if rtt_ms <= 0.0 {
            return 0.0;
        }
        self.v_max_m_s * (rtt_ms / 1000.0) / 1000.0
    }

    /// Minimum feasible distance for an RTT, km: the largest fixed point of
    /// `d = vmin(d)·rtt`, found by damped iteration from `d_max`; 0 when
    /// the RTT is too small to constrain proximity (below ≈2 ms with the
    /// default fit).
    pub fn d_min_km(&self, rtt_ms: f64) -> f64 {
        if rtt_ms <= 0.0 {
            return 0.0;
        }
        let t_s = rtt_ms / 1000.0;
        let mut d_km = self.d_max_km(rtt_ms);
        for _ in 0..200 {
            let next = self.v_min_m_s(d_km) * t_s / 1000.0;
            if next <= f64::EPSILON {
                return 0.0;
            }
            if (next - d_km).abs() < 1e-9 {
                return next;
            }
            d_km = next;
        }
        d_km
    }

    /// The feasibility annulus for a minimum RTT in milliseconds.
    pub fn feasible_annulus_ms(&self, rtt_ms: f64) -> Annulus {
        Annulus {
            min_km: self.d_min_km(rtt_ms),
            max_km: self.d_max_km(rtt_ms),
        }
    }

    /// The annulus for a looking glass that rounds RTTs *up* to integer
    /// milliseconds (§6.1): the outer radius uses the rounded value, the
    /// inner radius uses `rtt − 1 ms` (`RTT′min` in the paper).
    pub fn feasible_annulus_rounded_ms(&self, rtt_ms: f64) -> Annulus {
        Annulus {
            min_km: self.d_min_km((rtt_ms - 1.0).max(0.0)),
            max_km: self.d_max_km(rtt_ms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_worked_example() {
        // §5.2: RTTmin = 4 ms from an Amsterdam VP → annulus ≈ [299, 532] km.
        let m = SpeedModel::default();
        let a = m.feasible_annulus_ms(4.0);
        assert!((a.max_km - 532.9).abs() < 2.0, "dmax {}", a.max_km);
        assert!((a.min_km - 299.0).abs() < 10.0, "dmin {}", a.min_km);
        // London (~360 km) and Frankfurt (~365 km) feasible; Amsterdam (0 km)
        // and Vienna (~960 km) not.
        assert!(a.contains(360.0));
        assert!(a.contains(365.0));
        assert!(!a.contains(0.0));
        assert!(!a.contains(960.0));
    }

    #[test]
    fn small_rtt_has_no_inner_bound() {
        let m = SpeedModel::default();
        // Below ~2 ms the fit cannot exclude proximity: a 1 ms RTT is
        // consistent with a colocated router (0 km) — 18% of remote peers
        // are within 1 ms of the IXP (Fig. 1b) and conversely locals with
        // sub-ms RTTs keep their own facility feasible.
        assert_eq!(m.d_min_km(1.0), 0.0);
        assert_eq!(m.d_min_km(0.3), 0.0);
        assert!(m.feasible_annulus_ms(0.5).contains(0.0));
        assert!(m.feasible_annulus_ms(1.0).contains(0.0));
    }

    #[test]
    fn two_ms_is_the_remoteness_knee() {
        // §4.1: "RTT values above 2 ms are a very strong indication of
        // remote peers". The fit's critical RTT sits just below 2 ms.
        let m = SpeedModel::default();
        assert_eq!(m.d_min_km(1.8), 0.0);
        assert!(m.d_min_km(2.1) > 40.0);
    }

    #[test]
    fn dmax_scales_linearly() {
        let m = SpeedModel::default();
        let d1 = m.d_max_km(1.0);
        let d10 = m.d_max_km(10.0);
        assert!((d10 / d1 - 10.0).abs() < 1e-9);
        // 1 ms ≈ 133 km at 4/9·c over the full RTT.
        assert!((d1 - 133.2).abs() < 0.5, "got {d1}");
    }

    #[test]
    fn zero_and_negative_rtt() {
        let m = SpeedModel::default();
        assert_eq!(m.d_max_km(0.0), 0.0);
        assert_eq!(m.d_min_km(0.0), 0.0);
        assert_eq!(m.d_max_km(-1.0), 0.0);
        let a = m.feasible_annulus_ms(0.0);
        assert!(a.contains(0.0));
        assert!(!a.contains(1.0));
    }

    #[test]
    fn annulus_nesting_monotone() {
        // Larger RTT ⇒ outer radius grows; inner radius grows once past the
        // critical RTT.
        let m = SpeedModel::default();
        let mut prev_max = 0.0;
        let mut prev_min = 0.0;
        for rtt in [1.0, 2.0, 3.0, 5.0, 10.0, 50.0, 100.0] {
            let a = m.feasible_annulus_ms(rtt);
            assert!(a.max_km >= prev_max);
            assert!(a.min_km >= prev_min, "rtt {rtt}: {} < {prev_min}", a.min_km);
            assert!(a.min_km <= a.max_km);
            prev_max = a.max_km;
            prev_min = a.min_km;
        }
    }

    #[test]
    fn rounded_lg_annulus_widens_inward() {
        let m = SpeedModel::default();
        let exact = m.feasible_annulus_ms(4.0);
        let rounded = m.feasible_annulus_rounded_ms(4.0);
        assert_eq!(exact.max_km, rounded.max_km);
        assert!(rounded.min_km < exact.min_km);
        // A 1 ms LG reading constrains nothing inward.
        let one = m.feasible_annulus_rounded_ms(1.0);
        assert_eq!(one.min_km, 0.0);
    }

    #[test]
    fn fig6_shape_vmin_below_vmax() {
        let m = SpeedModel::default();
        for d in [30.0, 100.0, 500.0, 2000.0, 10000.0] {
            assert!(m.v_min_m_s(d) < m.v_max_m_s, "d={d}");
        }
        // vmin grows with distance (long paths are relatively direct).
        assert!(m.v_min_m_s(1000.0) > m.v_min_m_s(100.0));
    }

    #[test]
    fn annulus_contains_is_inclusive() {
        // Step 3 counts a facility exactly on either radius as feasible.
        let a = Annulus {
            min_km: 20.0,
            max_km: 30.0,
        };
        let inside: Vec<f64> = [10.0, 20.0, 25.0, 30.0, 40.0]
            .into_iter()
            .filter(|&d| a.contains(d))
            .collect();
        assert_eq!(inside, [20.0, 25.0, 30.0]);
    }
}
