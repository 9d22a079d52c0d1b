//! Static catalog of world cities used to place facilities and networks.
//!
//! Coordinates are approximate city centres; what matters for the
//! reproduction is that inter-city geodesic distances are realistic, since
//! every latency in the simulated world derives from them. Regions follow
//! the RIR service areas, which the paper uses to describe vantage point
//! coverage (§3.1: good coverage in RIPE and APNIC, little in ARIN/LACNIC,
//! none in AFRINIC).

use opeer_geo::GeoPoint;
use serde::{Deserialize, Serialize};
use std::sync::LazyLock;

/// Regional Internet Registry service regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    /// Europe, Middle East, Central Asia.
    Ripe,
    /// Asia-Pacific.
    Apnic,
    /// North America.
    Arin,
    /// Latin America and the Caribbean.
    Lacnic,
    /// Africa.
    Afrinic,
}

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct CityRecord {
    /// City name (unique within the catalog).
    pub name: &'static str,
    /// ISO 3166-1 alpha-2 country code.
    pub country: &'static str,
    /// RIR region of the country.
    pub region: Region,
    /// Latitude, decimal degrees.
    pub lat: f64,
    /// Longitude, decimal degrees.
    pub lon: f64,
}

/// The city catalog. Weighted towards Europe, matching the geography of
/// the IXP ecosystem the paper studies.
#[allow(clippy::approx_constant)] // Kuala Lumpur really is at 3.14° N
pub const CITY_CATALOG: &[CityRecord] = &[
    // --- RIPE: Western Europe ---
    CityRecord {
        name: "Amsterdam",
        country: "NL",
        region: Region::Ripe,
        lat: 52.37,
        lon: 4.90,
    },
    CityRecord {
        name: "Rotterdam",
        country: "NL",
        region: Region::Ripe,
        lat: 51.92,
        lon: 4.48,
    },
    CityRecord {
        name: "The Hague",
        country: "NL",
        region: Region::Ripe,
        lat: 52.08,
        lon: 4.31,
    },
    CityRecord {
        name: "Eindhoven",
        country: "NL",
        region: Region::Ripe,
        lat: 51.44,
        lon: 5.47,
    },
    CityRecord {
        name: "Frankfurt",
        country: "DE",
        region: Region::Ripe,
        lat: 50.11,
        lon: 8.68,
    },
    CityRecord {
        name: "Berlin",
        country: "DE",
        region: Region::Ripe,
        lat: 52.52,
        lon: 13.40,
    },
    CityRecord {
        name: "Munich",
        country: "DE",
        region: Region::Ripe,
        lat: 48.14,
        lon: 11.58,
    },
    CityRecord {
        name: "Hamburg",
        country: "DE",
        region: Region::Ripe,
        lat: 53.55,
        lon: 9.99,
    },
    CityRecord {
        name: "Dusseldorf",
        country: "DE",
        region: Region::Ripe,
        lat: 51.23,
        lon: 6.77,
    },
    CityRecord {
        name: "London",
        country: "GB",
        region: Region::Ripe,
        lat: 51.51,
        lon: -0.13,
    },
    CityRecord {
        name: "Manchester",
        country: "GB",
        region: Region::Ripe,
        lat: 53.48,
        lon: -2.24,
    },
    CityRecord {
        name: "Edinburgh",
        country: "GB",
        region: Region::Ripe,
        lat: 55.95,
        lon: -3.19,
    },
    CityRecord {
        name: "Leeds",
        country: "GB",
        region: Region::Ripe,
        lat: 53.80,
        lon: -1.55,
    },
    CityRecord {
        name: "Paris",
        country: "FR",
        region: Region::Ripe,
        lat: 48.85,
        lon: 2.35,
    },
    CityRecord {
        name: "Marseille",
        country: "FR",
        region: Region::Ripe,
        lat: 43.30,
        lon: 5.37,
    },
    CityRecord {
        name: "Lyon",
        country: "FR",
        region: Region::Ripe,
        lat: 45.76,
        lon: 4.84,
    },
    CityRecord {
        name: "Toulouse",
        country: "FR",
        region: Region::Ripe,
        lat: 43.60,
        lon: 1.44,
    },
    CityRecord {
        name: "Brussels",
        country: "BE",
        region: Region::Ripe,
        lat: 50.85,
        lon: 4.35,
    },
    CityRecord {
        name: "Antwerp",
        country: "BE",
        region: Region::Ripe,
        lat: 51.22,
        lon: 4.40,
    },
    CityRecord {
        name: "Luxembourg",
        country: "LU",
        region: Region::Ripe,
        lat: 49.61,
        lon: 6.13,
    },
    CityRecord {
        name: "Dublin",
        country: "IE",
        region: Region::Ripe,
        lat: 53.35,
        lon: -6.26,
    },
    CityRecord {
        name: "Zurich",
        country: "CH",
        region: Region::Ripe,
        lat: 47.37,
        lon: 8.54,
    },
    CityRecord {
        name: "Geneva",
        country: "CH",
        region: Region::Ripe,
        lat: 46.20,
        lon: 6.14,
    },
    CityRecord {
        name: "Vienna",
        country: "AT",
        region: Region::Ripe,
        lat: 48.21,
        lon: 16.37,
    },
    CityRecord {
        name: "Madrid",
        country: "ES",
        region: Region::Ripe,
        lat: 40.42,
        lon: -3.70,
    },
    CityRecord {
        name: "Barcelona",
        country: "ES",
        region: Region::Ripe,
        lat: 41.39,
        lon: 2.17,
    },
    CityRecord {
        name: "Lisbon",
        country: "PT",
        region: Region::Ripe,
        lat: 38.72,
        lon: -9.14,
    },
    CityRecord {
        name: "Milan",
        country: "IT",
        region: Region::Ripe,
        lat: 45.46,
        lon: 9.19,
    },
    CityRecord {
        name: "Rome",
        country: "IT",
        region: Region::Ripe,
        lat: 41.90,
        lon: 12.50,
    },
    CityRecord {
        name: "Turin",
        country: "IT",
        region: Region::Ripe,
        lat: 45.07,
        lon: 7.69,
    },
    // --- RIPE: Nordics & Baltics ---
    CityRecord {
        name: "Copenhagen",
        country: "DK",
        region: Region::Ripe,
        lat: 55.68,
        lon: 12.57,
    },
    CityRecord {
        name: "Oslo",
        country: "NO",
        region: Region::Ripe,
        lat: 59.91,
        lon: 10.75,
    },
    CityRecord {
        name: "Stockholm",
        country: "SE",
        region: Region::Ripe,
        lat: 59.33,
        lon: 18.07,
    },
    CityRecord {
        name: "Helsinki",
        country: "FI",
        region: Region::Ripe,
        lat: 60.17,
        lon: 24.94,
    },
    CityRecord {
        name: "Riga",
        country: "LV",
        region: Region::Ripe,
        lat: 56.95,
        lon: 24.11,
    },
    CityRecord {
        name: "Vilnius",
        country: "LT",
        region: Region::Ripe,
        lat: 54.69,
        lon: 25.28,
    },
    CityRecord {
        name: "Tallinn",
        country: "EE",
        region: Region::Ripe,
        lat: 59.44,
        lon: 24.75,
    },
    // --- RIPE: Central & Eastern Europe ---
    CityRecord {
        name: "Warsaw",
        country: "PL",
        region: Region::Ripe,
        lat: 52.23,
        lon: 21.01,
    },
    CityRecord {
        name: "Katowice",
        country: "PL",
        region: Region::Ripe,
        lat: 50.26,
        lon: 19.02,
    },
    CityRecord {
        name: "Krakow",
        country: "PL",
        region: Region::Ripe,
        lat: 50.06,
        lon: 19.94,
    },
    CityRecord {
        name: "Poznan",
        country: "PL",
        region: Region::Ripe,
        lat: 52.41,
        lon: 16.93,
    },
    CityRecord {
        name: "Prague",
        country: "CZ",
        region: Region::Ripe,
        lat: 50.08,
        lon: 14.44,
    },
    CityRecord {
        name: "Bratislava",
        country: "SK",
        region: Region::Ripe,
        lat: 48.15,
        lon: 17.11,
    },
    CityRecord {
        name: "Budapest",
        country: "HU",
        region: Region::Ripe,
        lat: 47.50,
        lon: 19.04,
    },
    CityRecord {
        name: "Bucharest",
        country: "RO",
        region: Region::Ripe,
        lat: 44.43,
        lon: 26.10,
    },
    CityRecord {
        name: "Sofia",
        country: "BG",
        region: Region::Ripe,
        lat: 42.70,
        lon: 23.32,
    },
    CityRecord {
        name: "Belgrade",
        country: "RS",
        region: Region::Ripe,
        lat: 44.79,
        lon: 20.45,
    },
    CityRecord {
        name: "Zagreb",
        country: "HR",
        region: Region::Ripe,
        lat: 45.81,
        lon: 15.98,
    },
    CityRecord {
        name: "Athens",
        country: "GR",
        region: Region::Ripe,
        lat: 37.98,
        lon: 23.73,
    },
    CityRecord {
        name: "Kyiv",
        country: "UA",
        region: Region::Ripe,
        lat: 50.45,
        lon: 30.52,
    },
    CityRecord {
        name: "Kharkiv",
        country: "UA",
        region: Region::Ripe,
        lat: 49.99,
        lon: 36.23,
    },
    CityRecord {
        name: "Moscow",
        country: "RU",
        region: Region::Ripe,
        lat: 55.76,
        lon: 37.62,
    },
    CityRecord {
        name: "St Petersburg",
        country: "RU",
        region: Region::Ripe,
        lat: 59.93,
        lon: 30.34,
    },
    CityRecord {
        name: "Istanbul",
        country: "TR",
        region: Region::Ripe,
        lat: 41.01,
        lon: 28.98,
    },
    // --- RIPE: Middle East ---
    CityRecord {
        name: "Tel Aviv",
        country: "IL",
        region: Region::Ripe,
        lat: 32.09,
        lon: 34.78,
    },
    CityRecord {
        name: "Dubai",
        country: "AE",
        region: Region::Ripe,
        lat: 25.20,
        lon: 55.27,
    },
    // --- ARIN ---
    CityRecord {
        name: "New York",
        country: "US",
        region: Region::Arin,
        lat: 40.71,
        lon: -74.01,
    },
    CityRecord {
        name: "Newark",
        country: "US",
        region: Region::Arin,
        lat: 40.74,
        lon: -74.17,
    },
    CityRecord {
        name: "Ashburn",
        country: "US",
        region: Region::Arin,
        lat: 39.04,
        lon: -77.49,
    },
    CityRecord {
        name: "Washington",
        country: "US",
        region: Region::Arin,
        lat: 38.91,
        lon: -77.04,
    },
    CityRecord {
        name: "Boston",
        country: "US",
        region: Region::Arin,
        lat: 42.36,
        lon: -71.06,
    },
    CityRecord {
        name: "Philadelphia",
        country: "US",
        region: Region::Arin,
        lat: 39.95,
        lon: -75.17,
    },
    CityRecord {
        name: "Atlanta",
        country: "US",
        region: Region::Arin,
        lat: 33.75,
        lon: -84.39,
    },
    CityRecord {
        name: "Miami",
        country: "US",
        region: Region::Arin,
        lat: 25.76,
        lon: -80.19,
    },
    CityRecord {
        name: "Chicago",
        country: "US",
        region: Region::Arin,
        lat: 41.88,
        lon: -87.63,
    },
    CityRecord {
        name: "Dallas",
        country: "US",
        region: Region::Arin,
        lat: 32.78,
        lon: -96.80,
    },
    CityRecord {
        name: "Houston",
        country: "US",
        region: Region::Arin,
        lat: 29.76,
        lon: -95.37,
    },
    CityRecord {
        name: "Denver",
        country: "US",
        region: Region::Arin,
        lat: 39.74,
        lon: -104.99,
    },
    CityRecord {
        name: "Phoenix",
        country: "US",
        region: Region::Arin,
        lat: 33.45,
        lon: -112.07,
    },
    CityRecord {
        name: "Las Vegas",
        country: "US",
        region: Region::Arin,
        lat: 36.17,
        lon: -115.14,
    },
    CityRecord {
        name: "Los Angeles",
        country: "US",
        region: Region::Arin,
        lat: 34.05,
        lon: -118.24,
    },
    CityRecord {
        name: "San Jose",
        country: "US",
        region: Region::Arin,
        lat: 37.34,
        lon: -121.89,
    },
    CityRecord {
        name: "San Francisco",
        country: "US",
        region: Region::Arin,
        lat: 37.77,
        lon: -122.42,
    },
    CityRecord {
        name: "Seattle",
        country: "US",
        region: Region::Arin,
        lat: 47.61,
        lon: -122.33,
    },
    CityRecord {
        name: "Portland",
        country: "US",
        region: Region::Arin,
        lat: 45.52,
        lon: -122.68,
    },
    CityRecord {
        name: "Toronto",
        country: "CA",
        region: Region::Arin,
        lat: 43.65,
        lon: -79.38,
    },
    CityRecord {
        name: "Montreal",
        country: "CA",
        region: Region::Arin,
        lat: 45.50,
        lon: -73.57,
    },
    CityRecord {
        name: "Vancouver",
        country: "CA",
        region: Region::Arin,
        lat: 49.28,
        lon: -123.12,
    },
    // --- LACNIC ---
    CityRecord {
        name: "Mexico City",
        country: "MX",
        region: Region::Lacnic,
        lat: 19.43,
        lon: -99.13,
    },
    CityRecord {
        name: "Sao Paulo",
        country: "BR",
        region: Region::Lacnic,
        lat: -23.55,
        lon: -46.63,
    },
    CityRecord {
        name: "Rio de Janeiro",
        country: "BR",
        region: Region::Lacnic,
        lat: -22.91,
        lon: -43.17,
    },
    CityRecord {
        name: "Buenos Aires",
        country: "AR",
        region: Region::Lacnic,
        lat: -34.60,
        lon: -58.38,
    },
    CityRecord {
        name: "Santiago",
        country: "CL",
        region: Region::Lacnic,
        lat: -33.45,
        lon: -70.67,
    },
    CityRecord {
        name: "Bogota",
        country: "CO",
        region: Region::Lacnic,
        lat: 4.71,
        lon: -74.07,
    },
    CityRecord {
        name: "Lima",
        country: "PE",
        region: Region::Lacnic,
        lat: -12.05,
        lon: -77.04,
    },
    // --- APNIC ---
    CityRecord {
        name: "Tokyo",
        country: "JP",
        region: Region::Apnic,
        lat: 35.68,
        lon: 139.69,
    },
    CityRecord {
        name: "Osaka",
        country: "JP",
        region: Region::Apnic,
        lat: 34.69,
        lon: 135.50,
    },
    CityRecord {
        name: "Seoul",
        country: "KR",
        region: Region::Apnic,
        lat: 37.57,
        lon: 126.98,
    },
    CityRecord {
        name: "Hong Kong",
        country: "HK",
        region: Region::Apnic,
        lat: 22.32,
        lon: 114.17,
    },
    CityRecord {
        name: "Taipei",
        country: "TW",
        region: Region::Apnic,
        lat: 25.03,
        lon: 121.57,
    },
    CityRecord {
        name: "Singapore",
        country: "SG",
        region: Region::Apnic,
        lat: 1.35,
        lon: 103.82,
    },
    CityRecord {
        name: "Kuala Lumpur",
        country: "MY",
        region: Region::Apnic,
        lat: 3.14,
        lon: 101.69,
    },
    CityRecord {
        name: "Jakarta",
        country: "ID",
        region: Region::Apnic,
        lat: -6.21,
        lon: 106.85,
    },
    CityRecord {
        name: "Bangkok",
        country: "TH",
        region: Region::Apnic,
        lat: 13.76,
        lon: 100.50,
    },
    CityRecord {
        name: "Manila",
        country: "PH",
        region: Region::Apnic,
        lat: 14.60,
        lon: 120.98,
    },
    CityRecord {
        name: "Sydney",
        country: "AU",
        region: Region::Apnic,
        lat: -33.87,
        lon: 151.21,
    },
    CityRecord {
        name: "Melbourne",
        country: "AU",
        region: Region::Apnic,
        lat: -37.81,
        lon: 144.96,
    },
    CityRecord {
        name: "Auckland",
        country: "NZ",
        region: Region::Apnic,
        lat: -36.85,
        lon: 174.76,
    },
    CityRecord {
        name: "Mumbai",
        country: "IN",
        region: Region::Apnic,
        lat: 19.08,
        lon: 72.88,
    },
    CityRecord {
        name: "Delhi",
        country: "IN",
        region: Region::Apnic,
        lat: 28.70,
        lon: 77.10,
    },
    CityRecord {
        name: "Chennai",
        country: "IN",
        region: Region::Apnic,
        lat: 13.08,
        lon: 80.27,
    },
    // --- AFRINIC ---
    CityRecord {
        name: "Johannesburg",
        country: "ZA",
        region: Region::Afrinic,
        lat: -26.20,
        lon: 28.05,
    },
    CityRecord {
        name: "Cape Town",
        country: "ZA",
        region: Region::Afrinic,
        lat: -33.92,
        lon: 18.42,
    },
    CityRecord {
        name: "Nairobi",
        country: "KE",
        region: Region::Afrinic,
        lat: -1.29,
        lon: 36.82,
    },
    CityRecord {
        name: "Lagos",
        country: "NG",
        region: Region::Afrinic,
        lat: 6.52,
        lon: 3.38,
    },
    CityRecord {
        name: "Cairo",
        country: "EG",
        region: Region::Afrinic,
        lat: 30.04,
        lon: 31.24,
    },
];

/// Geodesic distances between catalog cities, km: symmetric, zero on
/// the diagonal, indexed by catalog order. The catalog is fixed, so the
/// generator computes its pairs once per process instead of per world.
pub(crate) static CITY_DIST_KM: LazyLock<Vec<Vec<f64>>> = LazyLock::new(|| {
    let points: Vec<GeoPoint> = CITY_CATALOG
        .iter()
        .map(|c| GeoPoint::new(c.lat, c.lon).expect("catalog coords valid"))
        .collect();
    let n = points.len();
    let mut dist = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = points[i].distance_km(&points[j]);
            dist[i][j] = d;
            dist[j][i] = d;
        }
    }
    dist
});

/// Looks up a catalog entry by name. Panics if absent — the generator's
/// IXP specification table references only catalog cities, so a miss is a
/// programming error, not a data error.
pub fn city_index(name: &str) -> usize {
    CITY_CATALOG
        .iter()
        .position(|c| c.name == name)
        .unwrap_or_else(|| panic!("city {name:?} not in catalog"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_unique_names_and_valid_coords() {
        let mut names = std::collections::HashSet::new();
        for c in CITY_CATALOG {
            assert!(names.insert(c.name), "duplicate city {}", c.name);
            assert!(
                GeoPoint::new(c.lat, c.lon).is_some(),
                "bad coords for {}",
                c.name
            );
            assert_eq!(c.country.len(), 2);
        }
        assert!(CITY_CATALOG.len() >= 100, "catalog too small");
    }

    #[test]
    fn lookup_by_name() {
        let i = city_index("Amsterdam");
        assert_eq!(CITY_CATALOG[i].country, "NL");
    }

    #[test]
    #[should_panic(expected = "not in catalog")]
    fn lookup_missing_panics() {
        city_index("Atlantis");
    }

    #[test]
    fn sanity_distances() {
        let ams = &CITY_CATALOG[city_index("Amsterdam")];
        let fra = &CITY_CATALOG[city_index("Frankfurt")];
        let a = GeoPoint::new(ams.lat, ams.lon).unwrap();
        let f = GeoPoint::new(fra.lat, fra.lon).unwrap();
        let d = a.distance_km(&f);
        assert!((d - 360.0).abs() < 20.0, "AMS-FRA got {d}");
    }

    #[test]
    fn regions_present() {
        for region in [
            Region::Ripe,
            Region::Apnic,
            Region::Arin,
            Region::Lacnic,
            Region::Afrinic,
        ] {
            assert!(
                CITY_CATALOG.iter().any(|c| c.region == region),
                "no city in {region:?}"
            );
        }
    }
}
