//! `wire_read`: the API client's path. A cold-built service with a few
//! archived registry-revision epochs is served by the gateway (two
//! workers); two keep-alive clients run a closed loop over equal shares
//! of every read route, in seeded order, for the window. HTTP framing, dispatch, JSON and
//! snapshot/archive reads carry the time; no pipeline work runs.
//!
//! Load-generator discipline: every request is built in setup and sent
//! in one `write` on a `TCP_NODELAY` socket (as curl does), so the only
//! Nagle/delayed-ACK stall left is the server's own; responses are read
//! with `ClientConn::read_response` and byte-compared after the window
//! against the in-process `routes::dispatch` answer, also computed in
//! setup. `/healthz` and `/metrics` are left out: their bodies carry
//! timestamps and uptime.

use super::epoch_stream::{previous_month_registry, query_batch};
use super::{engine, ms, us, Params, Rng, Size, CLIENTS, GATEWAY_WORKERS};
use crate::host::Window;
use crate::report::Outcome;
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;
use opeer_core::archive::SnapshotArchive;
use opeer_core::incremental::InputDelta;
use opeer_core::input::InferenceInput;
use opeer_core::pipeline::PipelineConfig;
use opeer_core::service::{PeeringService, QueryRequest, Snapshot};
use opeer_gateway::http::{ClientConn, Request};
use opeer_gateway::routes::dispatch;
use opeer_gateway::{Gateway, GatewayConfig, MetricsRegistry};
use opeer_net::Asn;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::net::{Ipv4Addr, SocketAddr};
use std::time::{Duration, Instant};

/// Registry revisions archived after the cold build (previous, current,
/// … month), giving `epoch=`, `/trend` and `/churn` history to serve.
pub const REVISIONS: usize = 4;
/// Distinct prepared requests.
const POOL: usize = 256;
/// Requests in each client's seeded order (cycled if the window outlasts it).
const SEQUENCE: usize = 1 << 13;
/// In-process dispatch repetitions per prepared request (traced run).
const DISPATCH_REPS: usize = 8;

/// The read routes in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Verdict,
    Asn,
    Ixp,
    Explain,
    Query,
    Trend,
    Churn,
}

/// The request kinds of the mix, in equal shares. No request trace
/// exists to weight them, so every read route gets the same share of
/// the prepared pool and of each client's sequence; `epoch=` time travel
/// is a kind of its own, spread evenly over the four point routes. The
/// traced run reports per-route cost, so re-weighting from a trace later
/// is a change to this list.
const KINDS: [Kind; 8] = [
    Kind::Live(Route::Verdict),
    Kind::Live(Route::Asn),
    Kind::Live(Route::Ixp),
    Kind::Live(Route::Explain),
    Kind::Live(Route::Query),
    Kind::TimeTravel,
    Kind::Live(Route::Trend),
    Kind::Live(Route::Churn),
];
/// Prepared requests per kind.
const PER_KIND: usize = POOL / KINDS.len();
/// Draws a kind may take to find its [`PER_KIND`] requests that answer
/// `200` before the run fails.
const MAX_DRAWS: usize = 8 * PER_KIND;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Live(Route),
    TimeTravel,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Live(Route::Verdict) => "verdict",
            Kind::Live(Route::Asn) => "asn",
            Kind::Live(Route::Ixp) => "ixp",
            Kind::Live(Route::Explain) => "explain",
            Kind::Live(Route::Query) => "query",
            Kind::Live(Route::Trend) => "trend",
            Kind::Live(Route::Churn) => "churn",
            Kind::TimeTravel => "time_travel",
        }
    }
}

/// What a prepared request asks, for in-process timing of the layer
/// call behind it.
#[derive(Debug, Clone)]
enum Call {
    Verdict { ixp: usize, iface: Ipv4Addr },
    Asn(Asn),
    Ixp(usize),
    Explain(Ipv4Addr),
    Query(Vec<QueryRequest>),
    Trend(usize),
    Churn(Asn),
}

/// One request, prepared in setup.
struct Prepared {
    kind: Kind,
    route: Route,
    call: Call,
    epoch: Option<u64>,
    /// The parsed form, for in-process dispatch.
    request: Request,
    /// The wire form, sent in one write.
    raw: Vec<u8>,
    status: u16,
    body: Vec<u8>,
}

fn call_route(call: &Call) -> Route {
    match call {
        Call::Verdict { .. } => Route::Verdict,
        Call::Asn(_) => Route::Asn,
        Call::Ixp(_) => Route::Ixp,
        Call::Explain(_) => Route::Explain,
        Call::Query(_) => Route::Query,
        Call::Trend(_) => Route::Trend,
        Call::Churn(_) => Route::Churn,
    }
}

/// Builds the parsed and the wire form of a call.
fn encode(call: &Call, epoch: Option<u64>) -> (Request, Vec<u8>) {
    let (path, mut params, body) = match call {
        Call::Verdict { ixp, iface } => (
            "/verdict",
            vec![("ixp", ixp.to_string()), ("iface", iface.to_string())],
            None,
        ),
        Call::Asn(asn) => ("/asn", vec![("asn", asn.value().to_string())], None),
        Call::Ixp(ixp) => ("/ixp", vec![("ixp", ixp.to_string())], None),
        Call::Explain(iface) => ("/explain", vec![("iface", iface.to_string())], None),
        Call::Query(batch) => (
            "/query",
            Vec::new(),
            Some(
                serde_json::to_string(batch)
                    .expect("query batches hold no floats")
                    .into_bytes(),
            ),
        ),
        Call::Trend(ixp) => ("/trend", vec![("ixp", ixp.to_string())], None),
        Call::Churn(asn) => ("/churn", vec![("asn", asn.value().to_string())], None),
    };
    if let Some(e) = epoch {
        params.push(("epoch", e.to_string()));
    }
    let target = if params.is_empty() {
        path.to_string()
    } else {
        let q: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{path}?{}", q.join("&"))
    };
    let mut headers = BTreeMap::from([("host".to_string(), "gateway".to_string())]);
    let (method, raw) = match &body {
        Some(b) => {
            headers.insert("content-type".to_string(), "application/json".to_string());
            headers.insert("content-length".to_string(), b.len().to_string());
            let mut raw = format!(
                "POST {target} HTTP/1.1\r\nhost: gateway\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
                b.len()
            )
            .into_bytes();
            raw.extend_from_slice(b);
            ("POST", raw)
        }
        None => (
            "GET",
            format!("GET {target} HTTP/1.1\r\nhost: gateway\r\n\r\n").into_bytes(),
        ),
    };
    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        query: params
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        headers,
        body: body.unwrap_or_default(),
        close: false,
    };
    (request, raw)
}

/// Draws the seeded request pool, [`PER_KIND`] requests of each kind,
/// keeping only requests the gateway answers `200` (so no operation in
/// the window is expected to fail). Returns the pool and, per kind, the
/// statuses of the draws it skipped; `Err` names a kind that could not
/// fill its share.
///
/// Skips are reported, not expected: every draw at seeds 1–10 and at the
/// canary seed answers `200`, time travel to the previous month's
/// epochs included.
#[allow(clippy::type_complexity)]
fn prepare(
    input: &InferenceInput<'_>,
    snapshot: &Snapshot,
    archive: &SnapshotArchive<'_, '_>,
    seed: u64,
) -> Result<(Vec<Prepared>, Vec<(Kind, BTreeMap<u16, usize>)>), String> {
    let ifaces: Vec<(usize, Ipv4Addr, Asn)> = input
        .observed
        .ixps
        .iter()
        .enumerate()
        .flat_map(|(ixp, x)| x.interfaces.iter().map(move |(&a, &asn)| (ixp, a, asn)))
        .collect();
    let metrics = MetricsRegistry::default();
    let mut rng = Rng::new(seed, 0x317E);
    let mut pool = Vec::with_capacity(POOL);
    let mut skipped = Vec::with_capacity(KINDS.len());
    for kind in KINDS {
        let (mut kept, mut draws) = (0, 0);
        let mut statuses = BTreeMap::new();
        while kept < PER_KIND {
            if draws == MAX_DRAWS {
                return Err(format!(
                    "only {kept} of {PER_KIND} {} requests answer 200 in {MAX_DRAWS} draws \
                     (skipped statuses {statuses:?})",
                    kind.name()
                ));
            }
            draws += 1;
            let (ixp, iface, asn) = ifaces[rng.below(ifaces.len())];
            let (route, epoch) = match kind {
                Kind::Live(route) => (route, None),
                Kind::TimeTravel => {
                    let points = [Route::Verdict, Route::Asn, Route::Ixp, Route::Explain];
                    (points[rng.below(4)], Some(rng.below(REVISIONS + 1) as u64))
                }
            };
            let call = match route {
                Route::Verdict => Call::Verdict { ixp, iface },
                Route::Asn => Call::Asn(asn),
                Route::Ixp => Call::Ixp(ixp),
                Route::Explain => Call::Explain(iface),
                Route::Query => Call::Query(query_batch(input, rng.next_u64(), 64)),
                Route::Trend => Call::Trend(ixp),
                Route::Churn => Call::Churn(asn),
            };
            let (request, raw) = encode(&call, epoch);
            let answer = dispatch(&request, snapshot, Duration::ZERO, Some(archive), &metrics);
            if answer.status != 200 {
                *statuses.entry(answer.status).or_insert(0) += 1;
                continue;
            }
            kept += 1;
            pool.push(Prepared {
                kind,
                route: call_route(&call),
                call,
                epoch,
                request,
                raw,
                status: answer.status,
                body: answer.body,
            });
        }
        skipped.push((kind, statuses));
    }
    Ok((pool, skipped))
}

/// One completed request.
struct Sample {
    entry: usize,
    rtt_us: f64,
    status: u16,
    body: Vec<u8>,
}

/// What one client did in the window.
#[derive(Default)]
struct ClientRun {
    samples: Vec<Sample>,
    errors: u64,
    wall_s: f64,
}

/// One keep-alive closed-loop client: send, wait for the whole
/// response, send the next.
fn client(
    addr: SocketAddr,
    pool: &[Prepared],
    order: &[usize],
    started: Instant,
    window: Duration,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut conn = match ClientConn::connect(addr, Duration::from_secs(10)) {
        Ok(c) => c,
        Err(_) => {
            run.errors += 1;
            return run;
        }
    };
    if conn.stream().set_nodelay(true).is_err() {
        run.errors += 1;
        return run;
    }
    let mut i = 0;
    while started.elapsed() < window {
        let entry = order[i % order.len()];
        i += 1;
        let t = Instant::now();
        let sent = conn.stream().write_all(&pool[entry].raw);
        let response = sent.and_then(|()| conn.read_response());
        let rtt_us = us(t);
        match response {
            Ok(r) => run.samples.push(Sample {
                entry,
                rtt_us,
                status: r.status,
                body: r.body,
            }),
            Err(_) => {
                run.errors += 1;
                break;
            }
        }
    }
    run.wall_s = started.elapsed().as_secs_f64();
    run
}

/// Serves the pool on a fresh gateway for `window` with the closed-loop
/// clients; returns every client's run once the gateway has stopped.
fn serve_window(
    service: &PeeringService<'_>,
    archive: &SnapshotArchive<'_, '_>,
    pool: &[Prepared],
    seed: u64,
    window: Duration,
) -> std::io::Result<Vec<ClientRun>> {
    let gateway = Gateway::bind(GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: GATEWAY_WORKERS,
        max_header_bytes: 8 * 1024,
        max_body_bytes: 1 << 20,
        read_timeout: Duration::from_secs(5),
        api_keys: Vec::new(),
        rate_per_sec: 0.0,
        rate_burst: 0.0,
    })?;
    let addr = gateway.local_addr();
    let control = gateway.control();
    // Each client's order is a run of seeded shuffles of the whole pool,
    // so every stretch of `POOL` requests holds each kind in its share.
    let orders: Vec<Vec<usize>> = (0..CLIENTS)
        .map(|c| {
            let mut rng = Rng::new(seed, 0xC11E + c as u64);
            let mut order = Vec::with_capacity(SEQUENCE);
            while order.len() < SEQUENCE {
                let mut block: Vec<usize> = (0..pool.len()).collect();
                for i in (1..block.len()).rev() {
                    block.swap(i, rng.below(i + 1));
                }
                order.extend(block);
            }
            order
        })
        .collect();
    Ok(std::thread::scope(|s| {
        let server = s.spawn(|| gateway.serve_with(service, Some(archive)));
        let started = Instant::now();
        let clients: Vec<_> = orders
            .iter()
            .map(|order| s.spawn(move || client(addr, pool, order, started, window)))
            .collect();
        let runs: Vec<ClientRun> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        control.stop();
        server.join().expect("gateway thread panicked");
        runs
    }))
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let setup = Instant::now();
    let cfg = PipelineConfig::default();
    let par = engine();
    let world = p.world().generate();
    let generate_ms = ms(setup);
    let mut out = Outcome::default();
    // The setup's cold build and revision epochs are left to the
    // canaries: timed once per run, the large-world build and the median
    // of four revisions spread up to 21 % and 26 % between runs.
    let input = InferenceInput::assemble_parallel(&world, p.seed, &par);
    let service = PeeringService::build(input, &cfg, &par);
    let current = {
        let input = service.input();
        (input.observed.clone(), input.table1.clone())
    };
    let archive = SnapshotArchive::attach_with_retention(&service, None);
    let (previous, _) = previous_month_registry(&world, p.seed);
    for r in 1..=REVISIONS {
        let (observed, table1) = if r % 2 == 0 {
            current.clone()
        } else {
            previous.clone()
        };
        archive.apply_reported(InputDelta::registry(observed, table1));
    }
    drop((current, previous));
    let snapshot = service.snapshot();
    let prepared = prepare(&service.input(), &snapshot, &archive, p.seed);
    let setup_s = super::secs(setup);

    let pool = match prepared {
        Ok((pool, skipped)) => {
            for (kind, statuses) in skipped.iter().filter(|(_, s)| !s.is_empty()) {
                out.notes.push(format!(
                    "{} draws skipped while preparing the pool, by status: {statuses:?}",
                    kind.name()
                ));
            }
            pool
        }
        Err(e) => {
            out.attempted = 1;
            out.check(false, e);
            return out;
        }
    };
    let window_len = Duration::from_secs_f64(p.seconds);
    let window = Window::open();
    let runs = match serve_window(&service, &archive, &pool, p.seed, window_len) {
        Ok(runs) => runs,
        Err(e) => {
            out.attempted = 1;
            out.check(false, format!("gateway failed to bind: {e}"));
            return out;
        }
    };
    let host = window.close();

    let samples: Vec<&Sample> = runs.iter().flat_map(|r| &r.samples).collect();
    let errors: u64 = runs.iter().map(|r| r.errors).sum();
    out.attempted = samples.len() as u64 + errors;
    out.failed = errors;
    let mismatched = samples
        .iter()
        .filter(|s| s.status != pool[s.entry].status || s.body != pool[s.entry].body)
        .count() as u64;
    out.failed += mismatched;
    out.check(
        mismatched == 0,
        format!("{mismatched} responses differ from in-process dispatch"),
    );
    out.check(errors == 0, format!("{errors} requests failed on the wire"));
    // The realized mix: each kind within half of its equal share (a
    // canary's window is too short for its mix to settle).
    for kind in KINDS.into_iter().filter(|_| p.size == Size::Full) {
        let n = samples
            .iter()
            .filter(|s| pool[s.entry].kind == kind)
            .count();
        out.check(
            n * KINDS.len() * 2 >= samples.len(),
            format!(
                "{} got {n} of {} requests, under half its share",
                kind.name(),
                samples.len()
            ),
        );
    }
    if samples.is_empty() {
        out.check(false, "no request completed");
        return out;
    }
    let rtts: Vec<f64> = samples.iter().map(|s| s.rtt_us).collect();
    let wall_s = runs.iter().map(|r| r.wall_s).fold(0.0, f64::max);

    out.host = Some(host);
    if p.trace {
        out.set("topology.generate_ms", generate_ms);
        return traced(out, &pool, &samples, &snapshot, &archive, host);
    }
    let rtt_p99 = if p.strict_tails() {
        tail_percentile(&rtts, 0.99).unwrap_or_else(|e| {
            out.check(false, e);
            percentile(&rtts, 0.99)
        })
    } else {
        percentile(&rtts, 0.99)
    };
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", host.peak_rss_mib);
    out.set("rtt_p50_us", median(&rtts));
    out.set("rtt_p99_us", rtt_p99);
    out.set("rps", samples.len() as f64 / wall_s);
    out
}

/// The per-layer metric (and span name) of the snapshot or archive call
/// behind a prepared request.
fn call_metric(entry: &Prepared) -> &'static str {
    match (&entry.call, entry.epoch) {
        (Call::Trend(_), _) => "archive.trend_us",
        (Call::Churn(_), _) => "archive.churn_us",
        (_, Some(_)) => "archive.at_us",
        (Call::Verdict { .. }, None) => "service.verdict_us",
        (Call::Asn(_), None) => "service.asn_report_us",
        (Call::Ixp(_), None) => "service.ixp_report_us",
        (Call::Explain(_), None) => "service.explain_us",
        (Call::Query(_), None) => "service.query64_us",
    }
}

/// Makes the snapshot or archive call behind a prepared request.
fn layer_call(entry: &Prepared, snapshot: &Snapshot, archive: &SnapshotArchive<'_, '_>) -> bool {
    match (&entry.call, entry.epoch) {
        (Call::Trend(ixp), _) => archive.trend(*ixp).is_ok(),
        (Call::Churn(asn), _) => archive.churn(*asn).is_ok(),
        (_, Some(epoch)) => archive.at(epoch).is_ok(),
        (Call::Verdict { ixp, iface }, None) => snapshot.verdict(*ixp, *iface).is_ok(),
        (Call::Asn(asn), None) => snapshot.asn_report(*asn).is_ok(),
        (Call::Ixp(ixp), None) => snapshot.ixp_report(*ixp).is_ok(),
        (Call::Explain(iface), None) => snapshot.explain(*iface).is_ok(),
        (Call::Query(batch), None) => snapshot.query(batch).is_ok(),
    }
}

fn dispatch_metric(route: Route) -> &'static str {
    match route {
        Route::Verdict => "gateway.dispatch_verdict_us",
        Route::Asn => "gateway.dispatch_asn_us",
        Route::Ixp => "gateway.dispatch_ixp_us",
        Route::Explain => "gateway.dispatch_explain_us",
        Route::Query => "gateway.dispatch_query_us",
        Route::Trend => "gateway.dispatch_trend_us",
        Route::Churn => "gateway.dispatch_churn_us",
    }
}

/// The traced run: in-process `routes::dispatch` and the snapshot /
/// archive call behind each route, timed per prepared request, and the
/// window's client round trips split into dispatch and transport.
fn traced(
    mut out: Outcome,
    pool: &[Prepared],
    samples: &[&Sample],
    snapshot: &Snapshot,
    archive: &SnapshotArchive<'_, '_>,
    host: crate::host::HostReading,
) -> Outcome {
    let metrics = MetricsRegistry::default();
    let mut tr = Tracer::new();
    let mut names = BTreeSet::new();
    let mut dispatch_p50 = Vec::with_capacity(pool.len());
    for entry in pool {
        let (route, call) = (dispatch_metric(entry.route), call_metric(entry));
        names.extend([route, call]);
        let first = tr.spans().len();
        for _ in 0..DISPATCH_REPS {
            let answer = tr.span(route, |_| {
                dispatch(
                    &entry.request,
                    snapshot,
                    Duration::ZERO,
                    Some(archive),
                    &metrics,
                )
            });
            std::hint::black_box(answer);
            std::hint::black_box(tr.span(call, |_| layer_call(entry, snapshot, archive)));
        }
        let own: Vec<f64> = tr.spans()[first..]
            .iter()
            .filter(|s| s.name == route)
            .map(|s| s.ms() * 1e3)
            .collect();
        dispatch_p50.push(median(&own));
    }
    for name in names {
        let times: Vec<f64> = tr.durations_ms(name).iter().map(|ms| ms * 1e3).collect();
        out.set(name, median(&times));
    }
    let transport: Vec<f64> = samples
        .iter()
        .map(|s| s.rtt_us - dispatch_p50[s.entry])
        .collect();
    let explained: f64 = samples.iter().map(|s| dispatch_p50[s.entry]).sum();
    let total: f64 = samples.iter().map(|s| s.rtt_us).sum();
    out.set(
        "gateway.response_bytes",
        samples.iter().map(|s| s.body.len() as f64).sum::<f64>() / samples.len() as f64,
    );
    out.set("gateway.transport_p50_us", median(&transport));
    out.set("trace.coverage", explained / total);
    out.set("host.ref_ms", host.ref_ms());
    out.set("host.steal_pct", host.steal_pct);
    out.spans_json = Some(tr.to_json());
    out
}
