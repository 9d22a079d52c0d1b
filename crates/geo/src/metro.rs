//! Metropolitan-area geometry of facilities.
//!
//! The paper defines a metropolitan area as a disk of 100 km diameter
//! (§2 fn. 2) and classifies an IXP as *wide-area* when its switching
//! fabric spans facilities more than 50 km apart — i.e. facilities in
//! different metro areas (§4.2). Because facility rows name cities
//! inconsistently, the classification works on geodesic distances between
//! coordinates, not on city strings.

use crate::coord::GeoPoint;
use crate::geodesic::distance_km;

/// The paper's threshold: facilities more than 50 km apart are in
/// different metropolitan areas.
pub const DEFAULT_METRO_THRESHOLD_KM: f64 = 50.0;

/// Maximum geodesic distance between any two of `points`, in km
/// (0 for fewer than two points). Used by the Fig. 2b experiment
/// ("max distance between IXP facilities vs. number of members"); above
/// [`DEFAULT_METRO_THRESHOLD_KM`] the points span more than one metro
/// area, the paper's wide-area test.
///
/// ```
/// use opeer_geo::metro::{max_pairwise_distance_km, DEFAULT_METRO_THRESHOLD_KM};
/// use opeer_geo::GeoPoint;
///
/// let ams1 = GeoPoint::new(52.37, 4.90).unwrap();
/// let ams2 = GeoPoint::new(52.30, 4.94).unwrap(); // ~9 km away
/// let fra = GeoPoint::new(50.11, 8.68).unwrap();  // ~360 km away
///
/// assert!(max_pairwise_distance_km(&[ams1, ams2]) <= DEFAULT_METRO_THRESHOLD_KM);
/// assert!(max_pairwise_distance_km(&[ams1, ams2, fra]) > DEFAULT_METRO_THRESHOLD_KM);
/// ```
pub fn max_pairwise_distance_km(points: &[GeoPoint]) -> f64 {
    let mut max = 0.0f64;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            max = max.max(distance_km(points[i], points[j]));
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn wide_area_detection() {
        // NL-IX-like: Amsterdam + London + Bucharest.
        let pts = [pt(52.37, 4.9), pt(51.51, -0.13), pt(44.43, 26.1)];
        assert!(max_pairwise_distance_km(&pts) > DEFAULT_METRO_THRESHOLD_KM);

        // DE-CIX-FRA-like: many facilities in one metro.
        let pts = [pt(50.11, 8.68), pt(50.09, 8.74), pt(50.13, 8.60)];
        assert!(max_pairwise_distance_km(&pts) <= DEFAULT_METRO_THRESHOLD_KM);
    }

    #[test]
    fn max_pairwise() {
        assert_eq!(max_pairwise_distance_km(&[]), 0.0);
        assert_eq!(max_pairwise_distance_km(&[pt(0.0, 0.0)]), 0.0);
        let d = max_pairwise_distance_km(&[pt(51.51, -0.13), pt(44.43, 26.1), pt(50.11, 8.68)]);
        assert!(d > 1300.0, "LON-BUH should dominate, got {d}");
    }
}
