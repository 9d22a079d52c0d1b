//! # opeer-geo — geodesy and delay-geography for remote peering inference
//!
//! The paper's Step 3 ("colocation-informed RTT interpretation", §5.2) turns
//! a measured minimum RTT into a *feasibility annulus* around the vantage
//! point and intersects it with the locations of IXP facilities. This crate
//! provides everything that computation needs:
//!
//! * [`GeoPoint`] — validated WGS-84 coordinates.
//! * [`geodesic`] — ellipsoidal inverse geodesic (Vincenty's formula with a
//!   spherical fallback near the antipodal singularity) and the haversine
//!   great-circle distance. The paper applies Karney's method \[53\] to
//!   facility coordinates; Vincenty agrees with Karney to well under a
//!   millimetre over the facility/VP distances in this workload (< 20 Mm,
//!   non-antipodal), and is verifiable against published test vectors.
//! * [`metro`] — the metro-area threshold: the paper treats a metro area
//!   as a 100 km disk and calls facilities more than 50 km apart
//!   "different metropolitan areas" (§2 fn. 2, §4.2).
//! * [`speed`] — the RTT⇄distance feasibility model: packets travel at most
//!   at `vmax = (4/9)·c` (Katz-Bassett et al. \[54\]) and, per the paper's fit
//!   to Y.1731 inter-facility delays, at least at `vmin(d) = A·(ln d − 3)`
//!   (Fig. 6), giving the `[dmin, dmax]` annulus of Fig. 7.
//!
//! ## Example: the paper's Fig. 7 worked example
//!
//! A 4 ms minimum RTT from an Amsterdam VP puts the target's router in an
//! annulus roughly 300–530 km away — London and Frankfurt are feasible,
//! Amsterdam itself is not:
//!
//! ```
//! use opeer_geo::speed::SpeedModel;
//!
//! let model = SpeedModel::default();
//! let annulus = model.feasible_annulus_ms(4.0);
//! assert!((annulus.min_km - 299.0).abs() < 30.0);
//! assert!((annulus.max_km - 533.0).abs() < 5.0);
//! ```

pub mod coord;
pub mod geodesic;
pub mod metro;
pub mod speed;

pub use coord::GeoPoint;
pub use geodesic::{distance_km, distance_m, haversine_m, vincenty_inverse_m};
pub use metro::max_pairwise_distance_km;
pub use speed::{Annulus, SpeedModel};
