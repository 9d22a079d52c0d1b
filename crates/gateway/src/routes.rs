//! Route dispatch: parsed [`Request`] → HTTP status + JSON body.
//!
//! Every outcome — success or failure — is a value; no handler can
//! panic on untrusted input. Service errors map *totally* onto HTTP
//! statuses: unknown entities ([`ServiceError::UnknownIxp`] /
//! [`ServiceError::UnknownInterface`] / [`ServiceError::UnknownAsn`])
//! are `404`, an oversized batch ([`ServiceError::InvalidBatch`]) is
//! `413`, a body that is not valid JSON for `Vec<QueryRequest>` is
//! `400`. Error bodies are uniform:
//! `{"error": <kind>, "status": <n>, "detail": <text>}`, with the full
//! serialized [`ServiceError`] attached under `"service_error"` when
//! there is one.
//!
//! When a [`SnapshotArchive`] is attached
//! ([`crate::Gateway::serve_with`]), the point-query routes accept an
//! optional `epoch=` parameter for time travel, and `GET /trend` /
//! `GET /churn` serve the longitudinal aggregations. Archive rejections
//! stay total and typed: a not-yet-published epoch is `404
//! future_epoch`, a never-retained one `404 epoch_not_archived`, an
//! `epoch=` query against an archive-less gateway `404 no_archive`, and
//! a garbage epoch value the usual `400 bad_param` — never a `500`.

use crate::http::Request;
use crate::metrics::{MetricsRegistry, Route, SnapshotGauges};
use opeer_core::archive::{ArchiveError, SnapshotArchive};
use opeer_core::service::{QueryRequest, ServiceError, Snapshot};
use serde::{Serialize, Value};
use std::net::Ipv4Addr;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// A fully-formed response: the status and the JSON body bytes.
#[derive(Debug)]
pub struct Outcome {
    /// HTTP status code.
    pub status: u16,
    /// JSON body (always present; errors have error bodies).
    pub body: Vec<u8>,
}

impl Outcome {
    fn ok(body: String) -> Outcome {
        Outcome {
            status: 200,
            body: body.into_bytes(),
        }
    }
}

/// Builds the uniform JSON error body.
pub fn error_body(
    status: u16,
    kind: &str,
    detail: &str,
    service: Option<&ServiceError>,
) -> Vec<u8> {
    let mut members = vec![
        ("error".to_string(), Value::Str(kind.to_string())),
        ("status".to_string(), Value::U64(u64::from(status))),
        ("detail".to_string(), Value::Str(detail.to_string())),
    ];
    if let Some(err) = service {
        members.push(("service_error".to_string(), err.to_value()));
    }
    // The error tree is strings and integers only, so the strict
    // serializer cannot fail on it.
    serde_json::to_string(Value::Object(members))
        .expect("error body has no floats")
        .into_bytes()
}

fn error(status: u16, kind: &'static str, detail: String) -> Outcome {
    Outcome {
        status,
        body: error_body(status, kind, &detail, None),
    }
}

/// Maps a per-lookup [`ServiceError`] to its response.
fn service_error(err: ServiceError) -> Outcome {
    let (status, kind) = match err {
        ServiceError::UnknownIxp { .. }
        | ServiceError::UnknownInterface { .. }
        | ServiceError::UnknownAsn { .. } => (404, "not_found"),
        ServiceError::InvalidBatch { .. } => (413, "batch_too_large"),
    };
    Outcome {
        status,
        body: error_body(status, kind, &err.to_string(), Some(&err)),
    }
}

/// Serializes a successful answer, with the strict non-finite-float
/// check folded into the total mapping: a value the wire serializer
/// refuses becomes a `500` instead of a panic or a silent `null`.
fn serialize_ok<T: Serialize>(answer: &T) -> Outcome {
    match serde_json::to_string(answer) {
        Ok(json) => Outcome::ok(json),
        Err(e) => error(500, "serialization", e.to_string()),
    }
}

fn param<'r>(request: &'r Request, name: &str) -> Result<&'r str, Outcome> {
    request.query.get(name).map(String::as_str).ok_or_else(|| {
        error(
            400,
            "missing_param",
            format!("missing query parameter `{name}`"),
        )
    })
}

fn parse_param<T: std::str::FromStr>(request: &Request, name: &str) -> Result<T, Outcome> {
    let raw = param(request, name)?;
    raw.parse::<T>().map_err(|_| {
        error(
            400,
            "bad_param",
            format!("query parameter `{name}`=`{raw}` is malformed"),
        )
    })
}

/// An optional query parameter: absent is `None`, present-but-malformed
/// is the usual `400 bad_param`.
fn opt_param<T: std::str::FromStr>(request: &Request, name: &str) -> Result<Option<T>, Outcome> {
    if request.query.contains_key(name) {
        parse_param(request, name).map(Some)
    } else {
        Ok(None)
    }
}

/// The rejection for time-travel parameters on a gateway that serves
/// only the live snapshot.
fn no_archive() -> Outcome {
    error(
        404,
        "no_archive",
        "this gateway serves only the live snapshot; no archive is attached".to_string(),
    )
}

/// Maps an [`ArchiveError`] to its response: epoch-resolution failures
/// get their own `404` kinds, a per-snapshot lookup failure maps like
/// any live [`ServiceError`].
fn archive_error(err: ArchiveError) -> Outcome {
    match err {
        ArchiveError::Service(e) => service_error(e),
        ArchiveError::FutureEpoch { .. } => error(404, "future_epoch", err.to_string()),
        ArchiveError::NotArchived { .. } | ArchiveError::Empty => {
            error(404, "epoch_not_archived", err.to_string())
        }
    }
}

/// Point-in-time structural-sharing gauges for the `/metrics`
/// `snapshot` object: archive-wide retained size and the newest
/// snapshot's shared/owned partition split when the time-travel
/// surface is attached, the live snapshot alone otherwise.
fn snapshot_gauges(
    snapshot: &Snapshot,
    archive: Option<&SnapshotArchive<'_, '_>>,
) -> SnapshotGauges {
    let (retained_epochs, retained_bytes, (shared, owned)) = match archive {
        Some(a) => (a.len(), a.retained_bytes(), a.partition_counts()),
        None => (1, snapshot.retained_bytes(), snapshot.partition_counts()),
    };
    SnapshotGauges {
        retained_epochs: retained_epochs as u64,
        shared_partitions: shared as u64,
        owned_partitions: owned as u64,
        retained_bytes: retained_bytes as u64,
    }
}

/// Bumps the taxonomy counter matching an outcome's kind.
fn record_taxonomy(metrics: &MetricsRegistry, outcome: &Outcome) {
    let t = &metrics.taxonomy;
    match outcome.status {
        404 => t.not_found.fetch_add(1, Ordering::Relaxed),
        405 => t.bad_method.fetch_add(1, Ordering::Relaxed),
        413 => t.batch_too_large.fetch_add(1, Ordering::Relaxed),
        400 => t.bad_json.fetch_add(1, Ordering::Relaxed),
        _ => 0,
    };
}

/// Dispatches one parsed request against one snapshot. `snapshot_age`
/// is time since the current snapshot was published (for `/healthz`
/// and `/metrics`). `archive` enables the time-travel surface: the
/// `epoch=` parameter on point queries and the `/trend` / `/churn`
/// routes; without one those map to typed `404`s.
pub fn dispatch(
    request: &Request,
    snapshot: &Snapshot,
    snapshot_age: Duration,
    archive: Option<&SnapshotArchive<'_, '_>>,
    metrics: &MetricsRegistry,
) -> Outcome {
    let route = Route::of_path(&request.path);
    let outcome = match (request.method.as_str(), route) {
        ("POST", Route::Query) => query(request, snapshot),
        ("GET", Route::Verdict) => verdict(request, snapshot, archive),
        ("GET", Route::Asn) => asn(request, snapshot, archive),
        ("GET", Route::Ixp) => ixp(request, snapshot, archive),
        ("GET", Route::Explain) => explain(request, snapshot, archive),
        ("GET", Route::Trend) => trend(request, archive),
        ("GET", Route::Churn) => churn(request, archive),
        ("GET", Route::Healthz) => healthz(snapshot, snapshot_age),
        ("GET", Route::Metrics) => {
            let gauges = snapshot_gauges(snapshot, archive);
            serialize_ok(&metrics.render(snapshot.epoch(), snapshot_age, &gauges))
        }
        (_, Route::Other) => error(404, "not_found", format!("no route `{}`", request.path)),
        (method, _) => error(
            405,
            "bad_method",
            format!("method {method} not allowed on `{}`", request.path),
        ),
    };
    if outcome.status >= 400 {
        record_taxonomy(metrics, &outcome);
    }
    outcome
}

fn query(request: &Request, snapshot: &Snapshot) -> Outcome {
    let batch: Vec<QueryRequest> = match serde_json::from_slice(&request.body) {
        Ok(batch) => batch,
        Err(e) => {
            return error(400, "bad_json", format!("query batch does not parse: {e}"));
        }
    };
    match snapshot.query(&batch) {
        Ok(responses) => serialize_ok(&responses),
        Err(e) => service_error(e),
    }
}

/// Answers a point route from the snapshot its optional `epoch=`
/// parameter selects: the live one when absent, otherwise the archived
/// one (`404 no_archive` without an archive, archive rejections through
/// [`archive_error`]). Entity parameters are parsed before this runs,
/// so their `400`s win over any epoch rejection.
fn answer_at<T: Serialize>(
    request: &Request,
    live: &Snapshot,
    archive: Option<&SnapshotArchive<'_, '_>>,
    query: impl FnOnce(&Snapshot) -> Result<T, ServiceError>,
) -> Outcome {
    let archived;
    let snapshot = match opt_param::<u64>(request, "epoch") {
        Err(o) => return o,
        Ok(None) => live,
        Ok(Some(epoch)) => {
            let Some(archive) = archive else {
                return no_archive();
            };
            archived = match archive.at(epoch) {
                Ok(s) => s,
                Err(e) => return archive_error(e),
            };
            &archived
        }
    };
    match query(snapshot) {
        Ok(answer) => serialize_ok(&answer),
        Err(e) => service_error(e),
    }
}

fn verdict(
    request: &Request,
    snapshot: &Snapshot,
    archive: Option<&SnapshotArchive<'_, '_>>,
) -> Outcome {
    let ixp = match parse_param::<usize>(request, "ixp") {
        Ok(v) => v,
        Err(o) => return o,
    };
    let iface = match parse_param::<Ipv4Addr>(request, "iface") {
        Ok(v) => v,
        Err(o) => return o,
    };
    answer_at(request, snapshot, archive, |s| s.verdict(ixp, iface))
}

fn asn(
    request: &Request,
    snapshot: &Snapshot,
    archive: Option<&SnapshotArchive<'_, '_>>,
) -> Outcome {
    let asn = match parse_param::<u32>(request, "asn") {
        Ok(v) => opeer_net::Asn::new(v),
        Err(o) => return o,
    };
    answer_at(request, snapshot, archive, |s| s.asn_report(asn))
}

fn ixp(
    request: &Request,
    snapshot: &Snapshot,
    archive: Option<&SnapshotArchive<'_, '_>>,
) -> Outcome {
    let ixp = match parse_param::<usize>(request, "ixp") {
        Ok(v) => v,
        Err(o) => return o,
    };
    answer_at(request, snapshot, archive, |s| s.ixp_report(ixp))
}

fn explain(
    request: &Request,
    snapshot: &Snapshot,
    archive: Option<&SnapshotArchive<'_, '_>>,
) -> Outcome {
    let iface = match parse_param::<Ipv4Addr>(request, "iface") {
        Ok(v) => v,
        Err(o) => return o,
    };
    answer_at(request, snapshot, archive, |s| s.explain(iface))
}

fn trend(request: &Request, archive: Option<&SnapshotArchive<'_, '_>>) -> Outcome {
    let ixp = match parse_param::<usize>(request, "ixp") {
        Ok(v) => v,
        Err(o) => return o,
    };
    let from = match opt_param::<u64>(request, "from") {
        Ok(v) => v,
        Err(o) => return o,
    };
    let to = match opt_param::<u64>(request, "to") {
        Ok(v) => v,
        Err(o) => return o,
    };
    let Some(archive) = archive else {
        return no_archive();
    };
    match archive.trend(ixp) {
        Ok(mut line) => {
            if let Some(from) = from {
                line.points.retain(|p| p.epoch >= from);
            }
            if let Some(to) = to {
                line.points.retain(|p| p.epoch <= to);
            }
            serialize_ok(&line)
        }
        Err(e) => archive_error(e),
    }
}

fn churn(request: &Request, archive: Option<&SnapshotArchive<'_, '_>>) -> Outcome {
    let asn = match parse_param::<u32>(request, "asn") {
        Ok(v) => opeer_net::Asn::new(v),
        Err(o) => return o,
    };
    let Some(archive) = archive else {
        return no_archive();
    };
    match archive.churn(asn) {
        Ok(report) => serialize_ok(&report),
        Err(e) => archive_error(e),
    }
}

fn healthz(snapshot: &Snapshot, snapshot_age: Duration) -> Outcome {
    let doc = Value::Object(vec![
        ("status".to_string(), Value::Str("ok".to_string())),
        ("epoch".to_string(), Value::U64(snapshot.epoch())),
        (
            "snapshot_age_ms".to_string(),
            Value::U64(u64::try_from(snapshot_age.as_millis()).unwrap_or(u64::MAX)),
        ),
        ("ixps".to_string(), Value::U64(snapshot.ixp_count() as u64)),
    ]);
    serialize_ok(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opeer_core::engine::ParallelConfig;
    use opeer_core::input::InferenceInput;
    use opeer_core::pipeline::PipelineConfig;
    use opeer_core::service::{PeeringService, QueryResponse};
    use opeer_topology::{World, WorldConfig};
    use std::collections::BTreeMap;

    fn world() -> World {
        WorldConfig::small(42).generate()
    }

    fn get(path: &str, params: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: BTreeMap::new(),
            body: Vec::new(),
            close: false,
        }
    }

    fn post(path: &str, body: &[u8]) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            query: BTreeMap::new(),
            headers: BTreeMap::new(),
            body: body.to_vec(),
            close: false,
        }
    }

    #[test]
    fn dispatch_covers_every_route_and_error_class() {
        let world = world();
        let svc = PeeringService::build(
            InferenceInput::assemble(&world, 42),
            &PipelineConfig::default(),
            &ParallelConfig::new(2),
        );
        let snap = svc.snapshot();
        let metrics = MetricsRegistry::default();
        let age = Duration::from_millis(10);
        let inf = &snap.result().inferences[0];
        let (ixp, iface, asn) = (inf.ixp, inf.addr, inf.asn);

        // Happy paths.
        let ok = dispatch(
            &get(
                "/verdict",
                &[("ixp", &ixp.to_string()), ("iface", &iface.to_string())],
            ),
            &snap,
            age,
            None,
            &metrics,
        );
        assert_eq!(ok.status, 200);
        let answer: opeer_core::service::VerdictAnswer =
            serde_json::from_slice(&ok.body).expect("verdict body parses");
        assert_eq!(answer.addr, iface);

        let ok = dispatch(
            &get("/asn", &[("asn", &asn.value().to_string())]),
            &snap,
            age,
            None,
            &metrics,
        );
        assert_eq!(ok.status, 200);
        let ok = dispatch(&get("/ixp", &[("ixp", "0")]), &snap, age, None, &metrics);
        assert_eq!(ok.status, 200);
        let ok = dispatch(
            &get("/explain", &[("iface", &iface.to_string())]),
            &snap,
            age,
            None,
            &metrics,
        );
        assert_eq!(ok.status, 200);
        let ok = dispatch(&get("/healthz", &[]), &snap, age, None, &metrics);
        assert_eq!(ok.status, 200);
        let health: Value = serde_json::from_slice(&ok.body).expect("health parses");
        assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(health.get("epoch").and_then(Value::as_u64), Some(0));
        let ok = dispatch(&get("/metrics", &[]), &snap, age, None, &metrics);
        assert_eq!(ok.status, 200);

        // A query batch mixing all four families.
        let batch = format!(
            "[{{\"Verdict\":{{\"ixp\":{ixp},\"iface\":\"{iface}\"}}}},\
             {{\"IxpReport\":{{\"ixp\":0}}}},\
             {{\"AsnReport\":{{\"asn\":{}}}}},\
             {{\"Explain\":{{\"iface\":\"{iface}\"}}}}]",
            asn.value()
        );
        let ok = dispatch(
            &post("/query", batch.as_bytes()),
            &snap,
            age,
            None,
            &metrics,
        );
        assert_eq!(ok.status, 200, "{}", String::from_utf8_lossy(&ok.body));
        let responses: Vec<QueryResponse> =
            serde_json::from_slice(&ok.body).expect("query body parses");
        assert_eq!(responses.len(), 4);
        assert!(matches!(responses[0], QueryResponse::Verdict(_)));

        // An empty batch is 200 [] (the fixed contract), not an error.
        let ok = dispatch(&post("/query", b"[]"), &snap, age, None, &metrics);
        assert_eq!(ok.status, 200);
        assert_eq!(ok.body, b"[]");

        // Error classes.
        let e = dispatch(
            &post("/query", b"this is not json"),
            &snap,
            age,
            None,
            &metrics,
        );
        assert_eq!(e.status, 400);
        let e = dispatch(
            &post("/query", b"{\"not\":\"a batch\"}"),
            &snap,
            age,
            None,
            &metrics,
        );
        assert_eq!(e.status, 400);
        let huge = format!(
            "[{}]",
            vec!["{\"IxpReport\":{\"ixp\":0}}"; opeer_core::service::MAX_BATCH + 1].join(",")
        );
        let e = dispatch(&post("/query", huge.as_bytes()), &snap, age, None, &metrics);
        assert_eq!(e.status, 413);
        let body: Value = serde_json::from_slice(&e.body).expect("error body parses");
        assert_eq!(
            body.get("error").and_then(Value::as_str),
            Some("batch_too_large")
        );
        assert!(body.get("service_error").is_some());

        let e = dispatch(
            &get("/verdict", &[("ixp", "0")]),
            &snap,
            age,
            None,
            &metrics,
        );
        assert_eq!(e.status, 400); // missing iface
        let e = dispatch(
            &get(
                "/verdict",
                &[("ixp", "banana"), ("iface", &iface.to_string())],
            ),
            &snap,
            age,
            None,
            &metrics,
        );
        assert_eq!(e.status, 400);
        let e = dispatch(
            &get(
                "/verdict",
                &[("ixp", "999999"), ("iface", &iface.to_string())],
            ),
            &snap,
            age,
            None,
            &metrics,
        );
        assert_eq!(e.status, 404);
        let e = dispatch(
            &get("/asn", &[("asn", "64999")]),
            &snap,
            age,
            None,
            &metrics,
        );
        assert_eq!(e.status, 404);
        let e = dispatch(&get("/nope", &[]), &snap, age, None, &metrics);
        assert_eq!(e.status, 404);
        let e = dispatch(&post("/healthz", b"{}"), &snap, age, None, &metrics);
        assert_eq!(e.status, 405);
        let e = dispatch(&get("/query", &[]), &snap, age, None, &metrics);
        assert_eq!(e.status, 405);

        // Taxonomy counters moved.
        assert!(metrics.taxonomy.not_found.load(Ordering::Relaxed) >= 3);
        assert!(metrics.taxonomy.bad_method.load(Ordering::Relaxed) >= 2);
        assert!(metrics.taxonomy.bad_json.load(Ordering::Relaxed) >= 2);
        assert!(metrics.taxonomy.batch_too_large.load(Ordering::Relaxed) >= 1);
        assert_eq!(metrics.panics(), 0);
    }

    #[test]
    fn a_maximum_size_string_body_gets_a_prompt_400() {
        let world = world();
        let svc = PeeringService::build(
            InferenceInput::assemble_base(&world, 42),
            &PipelineConfig::default(),
            &ParallelConfig::new(2),
        );
        let snap = svc.snapshot();
        let metrics = MetricsRegistry::default();
        // One JSON string filling the default body cap.
        let max = crate::config::GatewayConfig::default().max_body_bytes;
        let mut body = vec![b'a'; max];
        body[0] = b'"';
        body[max - 1] = b'"';
        let started = std::time::Instant::now();
        let e = dispatch(
            &post("/query", &body),
            &snap,
            Duration::ZERO,
            None,
            &metrics,
        );
        let took = started.elapsed();
        assert_eq!(e.status, 400);
        let err: Value = serde_json::from_slice(&e.body).expect("error body parses");
        assert_eq!(err.get("error").and_then(Value::as_str), Some("bad_json"));
        // Parsing quadratic in the string's length took 24–28 s on this
        // body (release build, 2-vCPU host), pinning a gateway worker
        // per request.
        assert!(took < Duration::from_secs(1), "took {took:?}");
    }

    #[test]
    fn dispatch_covers_the_time_travel_surface() {
        use opeer_core::archive::SnapshotArchive;
        use opeer_core::evolution::monthly_deltas;

        let world = world();
        let svc = PeeringService::build(
            InferenceInput::assemble_base(&world, 42),
            &PipelineConfig::default(),
            &ParallelConfig::new(2),
        );
        let archive = SnapshotArchive::attach(&svc);
        for delta in monthly_deltas(&world, 42, 0..=1) {
            archive.apply(delta);
        }
        let snap = svc.snapshot();
        let metrics = MetricsRegistry::default();
        let age = Duration::from_millis(10);
        let inf = &snap.result().inferences[0];
        let (ixp, iface, asn) = (inf.ixp, inf.addr, inf.asn);
        let ixp_s = ixp.to_string();
        let iface_s = iface.to_string();
        let asn_s = asn.value().to_string();
        let latest = archive.latest_epoch().expect("archive non-empty");

        // epoch= round-trips on every point route, at every epoch.
        for epoch in 0..=latest {
            let e = epoch.to_string();
            let ok = dispatch(
                &get(
                    "/verdict",
                    &[("ixp", &ixp_s), ("iface", &iface_s), ("epoch", &e)],
                ),
                &snap,
                age,
                Some(&archive),
                &metrics,
            );
            assert_eq!(ok.status, 200, "{}", String::from_utf8_lossy(&ok.body));
            let answer: opeer_core::service::VerdictAnswer =
                serde_json::from_slice(&ok.body).expect("verdict body parses");
            assert_eq!(answer.epoch, epoch, "answer must carry its epoch");
            for (path, params) in [
                ("/asn", vec![("asn", asn_s.as_str()), ("epoch", e.as_str())]),
                ("/ixp", vec![("ixp", "0"), ("epoch", e.as_str())]),
                (
                    "/explain",
                    vec![("iface", iface_s.as_str()), ("epoch", e.as_str())],
                ),
            ] {
                let ok = dispatch(&get(path, &params), &snap, age, Some(&archive), &metrics);
                assert_eq!(ok.status, 200, "{path} at epoch {e}");
            }
        }

        // Aggregation happy paths.
        let ok = dispatch(
            &get("/trend", &[("ixp", "0")]),
            &snap,
            age,
            Some(&archive),
            &metrics,
        );
        assert_eq!(ok.status, 200);
        let line: opeer_core::archive::TrendLine =
            serde_json::from_slice(&ok.body).expect("trend parses");
        assert_eq!(line.points.len() as u64, latest + 1);
        let ok = dispatch(
            &get("/trend", &[("ixp", "0"), ("from", "1"), ("to", "1")]),
            &snap,
            age,
            Some(&archive),
            &metrics,
        );
        let line: opeer_core::archive::TrendLine =
            serde_json::from_slice(&ok.body).expect("trend parses");
        assert_eq!(line.points.len(), 1, "from/to must clip the window");
        let ok = dispatch(
            &get("/churn", &[("asn", &asn_s)]),
            &snap,
            age,
            Some(&archive),
            &metrics,
        );
        assert_eq!(ok.status, 200);
        let churn: opeer_core::archive::ChurnReport =
            serde_json::from_slice(&ok.body).expect("churn parses");
        assert_eq!(churn.per_epoch.len() as u64, latest);

        // Typed rejections: future epoch, garbage epoch, no archive.
        for (params, want_status, want_kind) in [
            (
                vec![
                    ("ixp", ixp_s.as_str()),
                    ("iface", iface_s.as_str()),
                    ("epoch", "999"),
                ],
                404,
                "future_epoch",
            ),
            (
                vec![
                    ("ixp", ixp_s.as_str()),
                    ("iface", iface_s.as_str()),
                    ("epoch", "banana"),
                ],
                400,
                "bad_param",
            ),
            (
                vec![
                    ("ixp", ixp_s.as_str()),
                    ("iface", iface_s.as_str()),
                    ("epoch", "-1"),
                ],
                400,
                "bad_param",
            ),
        ] {
            let e = dispatch(
                &get("/verdict", &params),
                &snap,
                age,
                Some(&archive),
                &metrics,
            );
            assert_eq!(e.status, want_status);
            let body: Value = serde_json::from_slice(&e.body).expect("error body parses");
            assert_eq!(body.get("error").and_then(Value::as_str), Some(want_kind));
        }
        let e = dispatch(
            &get(
                "/verdict",
                &[("ixp", &ixp_s), ("iface", &iface_s), ("epoch", "0")],
            ),
            &snap,
            age,
            None,
            &metrics,
        );
        assert_eq!(e.status, 404);
        let body: Value = serde_json::from_slice(&e.body).expect("error body parses");
        assert_eq!(
            body.get("error").and_then(Value::as_str),
            Some("no_archive")
        );
        let e = dispatch(&get("/trend", &[("ixp", "0")]), &snap, age, None, &metrics);
        assert_eq!(e.status, 404);
        let e = dispatch(
            &get("/churn", &[("asn", &asn_s)]),
            &snap,
            age,
            None,
            &metrics,
        );
        assert_eq!(e.status, 404);
        // Unknown entities through the archive stay 404, not 500.
        let e = dispatch(
            &get("/trend", &[("ixp", "999999")]),
            &snap,
            age,
            Some(&archive),
            &metrics,
        );
        assert_eq!(e.status, 404);
        let e = dispatch(
            &get("/churn", &[("asn", "64999")]),
            &snap,
            age,
            Some(&archive),
            &metrics,
        );
        assert_eq!(e.status, 404);
        // Wrong method on the new routes is 405 like everywhere else.
        let e = dispatch(&post("/trend", b"{}"), &snap, age, Some(&archive), &metrics);
        assert_eq!(e.status, 405);

        assert_eq!(metrics.panics(), 0);
    }

    #[test]
    fn time_travel_bodies_equal_the_live_route_bodies() {
        use opeer_core::archive::SnapshotArchive;
        use opeer_core::evolution::monthly_deltas;

        let world = world();
        let svc = PeeringService::build(
            InferenceInput::assemble_base(&world, 42),
            &PipelineConfig::default(),
            &ParallelConfig::new(2),
        );
        let archive = SnapshotArchive::attach(&svc);
        for delta in monthly_deltas(&world, 42, 0..=1) {
            archive.apply(delta);
        }
        let live = svc.snapshot();
        let metrics = MetricsRegistry::default();
        let age = Duration::from_millis(10);
        let inf = &live.result().inferences[0];
        let ixp_s = inf.ixp.to_string();
        let iface_s = inf.addr.to_string();
        let asn_s = inf.asn.value().to_string();
        let latest = archive.latest_epoch().expect("archive non-empty");

        let known: [(&str, Vec<(&str, &str)>); 4] = [
            ("/verdict", vec![("ixp", &ixp_s), ("iface", &iface_s)]),
            ("/asn", vec![("asn", &asn_s)]),
            ("/ixp", vec![("ixp", &ixp_s)]),
            ("/explain", vec![("iface", &iface_s)]),
        ];
        let unknown: [(&str, Vec<(&str, &str)>); 4] = [
            (
                "/verdict",
                vec![("ixp", "999999"), ("iface", "203.0.113.1")],
            ),
            ("/asn", vec![("asn", "64999")]),
            ("/ixp", vec![("ixp", "999999")]),
            ("/explain", vec![("iface", "203.0.113.1")]),
        ];
        fn at_epoch<'a>(params: &[(&'a str, &'a str)], epoch: &'a str) -> Vec<(&'a str, &'a str)> {
            let mut params = params.to_vec();
            params.push(("epoch", epoch));
            params
        }

        // `epoch=<latest>` answers exactly what the live route answers.
        for (path, params) in known.iter().chain(&unknown) {
            let live_body = dispatch(&get(path, params), &live, age, None, &metrics);
            let travelled = dispatch(
                &get(path, &at_epoch(params, &latest.to_string())),
                &live,
                age,
                Some(&archive),
                &metrics,
            );
            assert_eq!(travelled.status, live_body.status, "{path} {params:?}");
            assert_eq!(
                String::from_utf8_lossy(&travelled.body),
                String::from_utf8_lossy(&live_body.body),
                "{path} {params:?}"
            );
        }

        // At every archived epoch, `epoch=` answers what the live route
        // answers while that epoch's snapshot is live; for an unknown
        // entity that is a 404 with its `service_error` member.
        for epoch in 0..=latest {
            let snapshot = archive.at(epoch).expect("archived epoch");
            for (i, (path, params)) in known.iter().chain(&unknown).enumerate() {
                let live_body = dispatch(&get(path, params), &snapshot, age, None, &metrics);
                let travelled = dispatch(
                    &get(path, &at_epoch(params, &epoch.to_string())),
                    &live,
                    age,
                    Some(&archive),
                    &metrics,
                );
                assert_eq!(
                    travelled.status, live_body.status,
                    "{path} at epoch {epoch}"
                );
                assert_eq!(
                    String::from_utf8_lossy(&travelled.body),
                    String::from_utf8_lossy(&live_body.body),
                    "{path} at epoch {epoch}"
                );
                if i >= known.len() {
                    assert_eq!(travelled.status, 404, "{path} at epoch {epoch}");
                    let body: Value =
                        serde_json::from_slice(&travelled.body).expect("error body parses");
                    assert_eq!(body.get("error").and_then(Value::as_str), Some("not_found"));
                    assert!(
                        body.get("service_error").is_some(),
                        "{path} at epoch {epoch}"
                    );
                }
            }
        }
        assert_eq!(metrics.panics(), 0);
    }
}
