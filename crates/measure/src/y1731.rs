//! Y.1731-style inter-facility delay matrices.
//!
//! NL-IX and NET-IX measure delays between their network demarcation
//! points with precisely timestamped test frames (ITU-T Y.1731
//! performance monitoring); the paper uses those matrices to study
//! wide-area IXPs (Fig. 2a) and to fit the lower speed bound (Fig. 6).
//! Here the same matrices are derived from the world's facility geometry
//! and the shared latency model: the median of repeated frame exchanges
//! per facility pair.

use crate::latency::LatencyModel;
use opeer_topology::{IxpId, World};
use serde::{Deserialize, Serialize};

/// The delay matrix of one IXP's fabric.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DelayMatrix {
    /// Facility names, indexing the matrix.
    pub facilities: Vec<String>,
    /// Geodesic distance between facility pairs, km.
    pub distance_km: Vec<Vec<f64>>,
    /// Median RTT between facility pairs, ms (0 on the diagonal).
    pub median_rtt_ms: Vec<Vec<f64>>,
}

impl DelayMatrix {
    /// Iterates over the strictly-upper-triangle pairs:
    /// `(i, j, distance_km, median_rtt_ms)`.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize, f64, f64)> + '_ {
        let n = self.facilities.len();
        (0..n).flat_map(move |i| {
            ((i + 1)..n).map(move |j| (i, j, self.distance_km[i][j], self.median_rtt_ms[i][j]))
        })
    }

    /// Fraction of facility pairs with median RTT above `ms` (Fig. 2a's
    /// headline: 87 % of NET-IX pairs above 10 ms).
    pub fn fraction_above_ms(&self, ms: f64) -> f64 {
        let mut total = 0usize;
        let mut above = 0usize;
        for (_, _, _, rtt) in self.pairs() {
            total += 1;
            if rtt > ms {
                above += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            above as f64 / total as f64
        }
    }
}

/// Measures the Y.1731 delay matrix of an IXP's fabric: `samples` frame
/// exchanges per facility pair, median-aggregated.
pub fn facility_delay_matrix(
    world: &World,
    ixp: IxpId,
    model: &LatencyModel,
    samples: u64,
) -> DelayMatrix {
    let x = &world.ixps[ixp.index()];
    let n = x.facilities.len();
    let mut distance_km = vec![vec![0.0; n]; n];
    let mut median_rtt_ms = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let (fa, fb) = (x.facilities[i], x.facilities[j]);
            let (pa, pb) = (world.facility_point(fa), world.facility_point(fb));
            let d = pa.distance_km(&pb);
            let key = [
                (u64::from(fa.0.min(fb.0)) << 32) | u64::from(fa.0.max(fb.0)),
                0x17,
            ];
            // Fabric backhaul is slow-biased within the feasibility bounds:
            // wide-area L2 rings detour more than routed IP paths.
            let base = model.base_rtt_ms_with_skew(pa, pb, &key, 1.6);
            let mut obs: Vec<f64> = (0..samples.max(1))
                .filter_map(|s| model.sample_rtt_ms(base, &key, s))
                .collect();
            obs.sort_by(|a, b| a.partial_cmp(b).expect("finite RTTs"));
            let median = if obs.is_empty() {
                base
            } else {
                obs[obs.len() / 2]
            };
            distance_km[i][j] = d;
            distance_km[j][i] = d;
            median_rtt_ms[i][j] = median;
            median_rtt_ms[j][i] = median;
        }
    }
    DelayMatrix {
        facilities: x
            .facilities
            .iter()
            .map(|f| world.facilities[f.index()].name.clone())
            .collect(),
        distance_km,
        median_rtt_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opeer_topology::WorldConfig;

    #[test]
    fn netix_like_matrix_is_mostly_above_10ms() {
        let w = WorldConfig::small(29).generate();
        let netix = w
            .ixps
            .iter()
            .position(|x| x.name == "NET-IX")
            .expect("NET-IX in spec");
        let m = facility_delay_matrix(&w, IxpId::from_index(netix), &LatencyModel::new(4), 9);
        assert!(m.facilities.len() >= 10);
        // The qualitative Fig. 2a claim: the majority of wide-area facility
        // pairs sit beyond the 10 ms "remoteness threshold" (the paper's
        // NET-IX measured 87 %; our 16 synthetic sites are geographically
        // tighter, so the bar below is 45 %, not 87 %).
        let frac = m.fraction_above_ms(10.0);
        assert!(frac > 0.45, "only {frac} of NET-IX pairs above 10 ms");
        // And some close pairs exist below 10 ms (the FRA–PRA 7 ms case).
        assert!(frac < 1.0, "no close facility pairs at all");
    }

    #[test]
    fn metro_ixp_matrix_is_sub_ms() {
        let w = WorldConfig::small(29).generate();
        let ams = w
            .ixps
            .iter()
            .position(|x| x.name == "AMS-IX")
            .expect("AMS-IX");
        let m = facility_delay_matrix(&w, IxpId::from_index(ams), &LatencyModel::new(4), 9);
        assert!(m.fraction_above_ms(10.0) < 0.05);
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let w = WorldConfig::small(29).generate();
        let nlix = w
            .ixps
            .iter()
            .position(|x| x.name == "NL-IX")
            .expect("NL-IX");
        let m = facility_delay_matrix(&w, IxpId::from_index(nlix), &LatencyModel::new(4), 5);
        let n = m.facilities.len();
        for i in 0..n {
            assert_eq!(m.median_rtt_ms[i][i], 0.0);
            for j in 0..n {
                assert_eq!(m.median_rtt_ms[i][j], m.median_rtt_ms[j][i]);
            }
        }
    }

    #[test]
    fn rtt_grows_with_distance_on_average() {
        let w = WorldConfig::small(29).generate();
        let nlix = w
            .ixps
            .iter()
            .position(|x| x.name == "NL-IX")
            .expect("NL-IX");
        let m = facility_delay_matrix(&w, IxpId::from_index(nlix), &LatencyModel::new(4), 9);
        let (mut near_sum, mut near_n, mut far_sum, mut far_n) = (0.0, 0, 0.0, 0);
        for (_, _, d, rtt) in m.pairs() {
            if d < 100.0 {
                near_sum += rtt;
                near_n += 1;
            } else if d > 500.0 {
                far_sum += rtt;
                far_n += 1;
            }
        }
        if near_n > 0 && far_n > 0 {
            assert!(far_sum / far_n as f64 > near_sum / near_n as f64);
        }
    }
}
