//! Gateway observability: per-route request/error counters and
//! latency histograms, plus an error taxonomy, all lock-free atomics so
//! every worker thread records into the same registry without
//! contention. `GET /metrics` renders the whole thing as one JSON
//! document (built as a [`serde::Value`] tree and serialized through
//! the strict wire serializer, like every other gateway response).

use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Builds a `Value::Object` from `(key, value)` pairs.
fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The routes the gateway serves, used to index the per-route metric
/// slots. `Other` absorbs 404s and malformed requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /query`.
    Query,
    /// `GET /verdict`.
    Verdict,
    /// `GET /asn`.
    Asn,
    /// `GET /ixp`.
    Ixp,
    /// `GET /explain`.
    Explain,
    /// `GET /trend` (archive time-travel aggregation).
    Trend,
    /// `GET /churn` (archive time-travel aggregation).
    Churn,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// Anything else (unknown routes, unparsable requests).
    Other,
}

/// Every route, in slot order.
pub const ROUTES: [Route; 10] = [
    Route::Query,
    Route::Verdict,
    Route::Asn,
    Route::Ixp,
    Route::Explain,
    Route::Trend,
    Route::Churn,
    Route::Healthz,
    Route::Metrics,
    Route::Other,
];

impl Route {
    /// The route's stable metric label.
    pub fn label(self) -> &'static str {
        match self {
            Route::Query => "/query",
            Route::Verdict => "/verdict",
            Route::Asn => "/asn",
            Route::Ixp => "/ixp",
            Route::Explain => "/explain",
            Route::Trend => "/trend",
            Route::Churn => "/churn",
            Route::Healthz => "/healthz",
            Route::Metrics => "/metrics",
            Route::Other => "other",
        }
    }

    fn slot(self) -> usize {
        match self {
            Route::Query => 0,
            Route::Verdict => 1,
            Route::Asn => 2,
            Route::Ixp => 3,
            Route::Explain => 4,
            Route::Trend => 5,
            Route::Churn => 6,
            Route::Healthz => 7,
            Route::Metrics => 8,
            Route::Other => 9,
        }
    }

    /// Maps a request path to its route slot.
    pub fn of_path(path: &str) -> Route {
        match path {
            "/query" => Route::Query,
            "/verdict" => Route::Verdict,
            "/asn" => Route::Asn,
            "/ixp" => Route::Ixp,
            "/explain" => Route::Explain,
            "/trend" => Route::Trend,
            "/churn" => Route::Churn,
            "/healthz" => Route::Healthz,
            "/metrics" => Route::Metrics,
            _ => Route::Other,
        }
    }
}

/// Power-of-two microsecond buckets: bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` µs, with bucket 0 covering `[0, 2)` and the last
/// bucket open-ended. 32 buckets reach ~1.2 hours — far beyond any
/// plausible request.
const BUCKETS: usize = 32;

/// A lock-free latency histogram with power-of-two microsecond buckets.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// Sum of recorded microseconds (for mean; saturating).
    total_us: AtomicU64,
    /// Largest single recorded value.
    max_us: AtomicU64,
}

impl Histogram {
    /// Records one latency observation.
    pub fn record(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let bucket = if us < 2 {
            0
        } else {
            (63 - us.leading_zeros() as usize).min(BUCKETS - 1)
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The upper bound (exclusive, µs) of the bucket holding the given
    /// quantile — a conservative estimate: the true latency is at most
    /// this. `None` when empty.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(1u64 << (i + 1));
            }
        }
        Some(u64::MAX)
    }

    /// Largest single recorded latency, µs.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Mean recorded latency, µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.total_us.load(Ordering::Relaxed) as f64 / n as f64
        }
    }
}

/// One route's metric slot.
#[derive(Default)]
struct RouteSlot {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: Histogram,
}

/// A point-in-time copy of one route's counters, for embedders that
/// want numbers rather than the `/metrics` JSON document.
#[derive(Debug, Clone)]
pub struct RouteStats {
    /// The route's stable label ([`Route::label`]).
    pub route: &'static str,
    /// Requests completed on this route.
    pub requests: u64,
    /// Error responses (status >= 400) on this route.
    pub errors: u64,
    /// Conservative p50 latency bound, µs (0 when empty).
    pub p50_us: u64,
    /// Conservative p99 latency bound, µs (0 when empty).
    pub p99_us: u64,
    /// Largest single recorded latency, µs.
    pub max_us: u64,
    /// Mean recorded latency, µs.
    pub mean_us: f64,
}

/// Structural-sharing gauges of the serving snapshot (and the attached
/// archive, when the time-travel surface is enabled), rendered as the
/// `snapshot` object of the `/metrics` document. Computed fresh per
/// scrape by the dispatcher — these are point-in-time reads of the
/// partition graph, not accumulated counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotGauges {
    /// Snapshot epochs currently retained (the archive's length after
    /// compaction, or 1 when only the live snapshot is held).
    pub retained_epochs: u64,
    /// Partitions of the newest snapshot also held by another snapshot
    /// (structurally shared via `Arc`).
    pub shared_partitions: u64,
    /// Partitions the newest snapshot holds alone.
    pub owned_partitions: u64,
    /// Deduplicated deep size of everything retained, in bytes (each
    /// shared partition counted once).
    pub retained_bytes: u64,
}

/// The error taxonomy counters: framing, middleware, and routing
/// rejections by stable kind, plus the last-resort panic bulkhead.
#[derive(Default)]
pub struct Taxonomy {
    /// HTTP framing errors (bad request line/header/content-length,
    /// truncation, oversize, timeout, version).
    pub framing: AtomicU64,
    /// `401` auth rejections.
    pub unauthorized: AtomicU64,
    /// `429` rate-limit rejections.
    pub rate_limited: AtomicU64,
    /// `404` unknown routes or unknown service entities.
    pub not_found: AtomicU64,
    /// `405` method mismatches.
    pub bad_method: AtomicU64,
    /// `400` JSON parse failures on `/query` bodies.
    pub bad_json: AtomicU64,
    /// `413` oversized batches ([`opeer_core::service::MAX_BATCH`]).
    pub batch_too_large: AtomicU64,
    /// `500`s from the per-connection `catch_unwind` bulkhead. Staying
    /// at zero is a test invariant.
    pub internal_panic: AtomicU64,
}

/// The gateway-wide metrics registry. One instance per gateway, shared
/// by reference across workers.
#[derive(Default)]
pub struct MetricsRegistry {
    routes: [RouteSlot; ROUTES.len()],
    /// Connections accepted since start.
    pub connections: AtomicU64,
    /// The taxonomy counters.
    pub taxonomy: Taxonomy,
}

impl MetricsRegistry {
    /// Records one completed request: its route, whether the response
    /// status was an error (>= 400), and its latency.
    pub fn record(&self, route: Route, status: u16, elapsed: Duration) {
        let slot = &self.routes[route.slot()];
        slot.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            slot.errors.fetch_add(1, Ordering::Relaxed);
        }
        slot.latency.record(elapsed);
    }

    /// Total requests across all routes.
    pub fn total_requests(&self) -> u64 {
        self.routes
            .iter()
            .map(|s| s.requests.load(Ordering::Relaxed))
            .sum()
    }

    /// Total error responses across all routes.
    pub fn total_errors(&self) -> u64 {
        self.routes
            .iter()
            .map(|s| s.errors.load(Ordering::Relaxed))
            .sum()
    }

    /// Value of the panic-bulkhead counter.
    pub fn panics(&self) -> u64 {
        self.taxonomy.internal_panic.load(Ordering::Relaxed)
    }

    /// Point-in-time per-route counters, in [`ROUTES`] order.
    pub fn route_stats(&self) -> Vec<RouteStats> {
        ROUTES
            .iter()
            .map(|&route| {
                let slot = &self.routes[route.slot()];
                RouteStats {
                    route: route.label(),
                    requests: slot.requests.load(Ordering::Relaxed),
                    errors: slot.errors.load(Ordering::Relaxed),
                    p50_us: slot.latency.quantile_us(0.50).unwrap_or(0),
                    p99_us: slot.latency.quantile_us(0.99).unwrap_or(0),
                    max_us: slot.latency.max_us(),
                    mean_us: slot.latency.mean_us(),
                }
            })
            .collect()
    }

    /// Renders the registry as the `/metrics` JSON document:
    /// `{epoch, snapshot_age_ms, connections, requests, errors,
    /// snapshot: {retained_epochs, shared_partitions, owned_partitions,
    /// retained_bytes}, taxonomy: {...}, routes: [{route, requests,
    /// errors, p50_us, p99_us, max_us, mean_us}, ...]}`.
    pub fn render(&self, epoch: u64, snapshot_age: Duration, gauges: &SnapshotGauges) -> Value {
        let routes: Vec<Value> = self
            .route_stats()
            .into_iter()
            .map(|stats| {
                obj(vec![
                    ("route", Value::Str(stats.route.to_string())),
                    ("requests", Value::U64(stats.requests)),
                    ("errors", Value::U64(stats.errors)),
                    ("p50_us", Value::U64(stats.p50_us)),
                    ("p99_us", Value::U64(stats.p99_us)),
                    ("max_us", Value::U64(stats.max_us)),
                    ("mean_us", Value::F64(stats.mean_us)),
                ])
            })
            .collect();
        let t = &self.taxonomy;
        let taxonomy = obj(vec![
            ("framing", Value::U64(t.framing.load(Ordering::Relaxed))),
            (
                "unauthorized",
                Value::U64(t.unauthorized.load(Ordering::Relaxed)),
            ),
            (
                "rate_limited",
                Value::U64(t.rate_limited.load(Ordering::Relaxed)),
            ),
            ("not_found", Value::U64(t.not_found.load(Ordering::Relaxed))),
            (
                "bad_method",
                Value::U64(t.bad_method.load(Ordering::Relaxed)),
            ),
            ("bad_json", Value::U64(t.bad_json.load(Ordering::Relaxed))),
            (
                "batch_too_large",
                Value::U64(t.batch_too_large.load(Ordering::Relaxed)),
            ),
            (
                "internal_panic",
                Value::U64(t.internal_panic.load(Ordering::Relaxed)),
            ),
        ]);
        obj(vec![
            ("epoch", Value::U64(epoch)),
            (
                "snapshot_age_ms",
                Value::U64(u64::try_from(snapshot_age.as_millis()).unwrap_or(u64::MAX)),
            ),
            (
                "connections",
                Value::U64(self.connections.load(Ordering::Relaxed)),
            ),
            ("requests", Value::U64(self.total_requests())),
            ("errors", Value::U64(self.total_errors())),
            (
                "snapshot",
                obj(vec![
                    ("retained_epochs", Value::U64(gauges.retained_epochs)),
                    ("shared_partitions", Value::U64(gauges.shared_partitions)),
                    ("owned_partitions", Value::U64(gauges.owned_partitions)),
                    ("retained_bytes", Value::U64(gauges.retained_bytes)),
                ]),
            ),
            ("taxonomy", taxonomy),
            ("routes", Value::Array(routes)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), None);
        for us in [1u64, 3, 3, 3, 100, 1000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max_us(), 1000);
        // p50 falls in the [2,4) bucket → conservative bound 4.
        assert_eq!(h.quantile_us(0.5), Some(4));
        // p99 lands on the slowest sample's bucket [512, 1024) → 1024.
        assert_eq!(h.quantile_us(0.99), Some(1024));
        assert!(h.mean_us() > 0.0);
    }

    #[test]
    fn registry_counts_and_renders() {
        let m = MetricsRegistry::default();
        m.record(Route::Query, 200, Duration::from_micros(50));
        m.record(Route::Query, 404, Duration::from_micros(20));
        m.record(Route::Healthz, 200, Duration::from_micros(5));
        m.taxonomy.not_found.fetch_add(1, Ordering::Relaxed);
        assert_eq!(m.total_requests(), 3);
        assert_eq!(m.total_errors(), 1);
        assert_eq!(m.panics(), 0);

        let gauges = SnapshotGauges {
            retained_epochs: 4,
            shared_partitions: 9,
            owned_partitions: 2,
            retained_bytes: 123_456,
        };
        let doc = m.render(7, Duration::from_millis(120), &gauges);
        let json = serde_json::to_string(&doc).expect("metrics serialize");
        assert!(json.contains("\"epoch\": 7") || json.contains("\"epoch\":7"));
        let back: Value = serde_json::from_str(&json).expect("metrics reparse");
        match back {
            Value::Object(members) => {
                assert!(members.iter().any(|(k, _)| k == "taxonomy"));
                assert!(members.iter().any(|(k, _)| k == "routes"));
            }
            other => panic!("metrics document is not an object: {other:?}"),
        }
        // The structural-sharing gauges land under `snapshot`, finite
        // and as written.
        let snap = &doc["snapshot"];
        assert_eq!(snap["retained_epochs"].as_u64(), Some(4));
        assert_eq!(snap["shared_partitions"].as_u64(), Some(9));
        assert_eq!(snap["owned_partitions"].as_u64(), Some(2));
        assert_eq!(snap["retained_bytes"].as_u64(), Some(123_456));
    }

    #[test]
    fn route_paths_map_to_slots() {
        assert_eq!(Route::of_path("/query"), Route::Query);
        assert_eq!(Route::of_path("/healthz"), Route::Healthz);
        assert_eq!(Route::of_path("/nope"), Route::Other);
        for route in ROUTES {
            assert_eq!(Route::of_path(route.label()), route);
        }
    }
}
