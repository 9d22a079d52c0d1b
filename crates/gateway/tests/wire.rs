//! Wire-level integration tests: a real gateway on a real socket,
//! attacked with a malformed-request corpus and exercised end-to-end
//! against a live streaming writer.
//!
//! The invariant every test enforces on top of its own assertions:
//! the panic bulkhead (`internal_panic` in the metrics taxonomy)
//! stays at **zero** — nothing a client can put on the wire reaches a
//! panic.

use opeer_core::engine::ParallelConfig;
use opeer_core::incremental::InputDelta;
use opeer_core::input::default_configs;
use opeer_core::pipeline::PipelineConfig;
use opeer_core::service::{PeeringService, QueryResponse};
use opeer_core::InferenceInput;
use opeer_gateway::http::ClientConn;
use opeer_gateway::{Gateway, GatewayConfig, MetricsRegistry};
use opeer_measure::campaign::campaign_batches;
use opeer_measure::traceroute::corpus_batches;
use opeer_topology::{World, WorldConfig};
use serde::Value;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn small_world() -> World {
    WorldConfig::small(42).generate()
}

fn test_config() -> GatewayConfig {
    GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        max_header_bytes: 2048,
        max_body_bytes: 64 * 1024,
        // Short enough that the slowloris test completes quickly.
        read_timeout: Duration::from_millis(300),
        ..GatewayConfig::default()
    }
}

/// Runs `f` against a live gateway serving a warm small-world service,
/// then stops the gateway and asserts the panic bulkhead never fired.
fn with_gateway<F>(cfg: GatewayConfig, f: F)
where
    F: FnOnce(SocketAddr, &PeeringService<'_>, &Arc<MetricsRegistry>),
{
    let world = small_world();
    let service = PeeringService::build(
        InferenceInput::assemble(&world, 42),
        &PipelineConfig::default(),
        &ParallelConfig::new(2),
    );
    let gateway = Gateway::bind(cfg).expect("bind ephemeral port");
    let addr = gateway.local_addr();
    let control = gateway.control();
    let metrics = gateway.metrics();
    std::thread::scope(|scope| {
        let gateway = &gateway;
        let service_ref = &service;
        scope.spawn(move || gateway.serve(service_ref));
        // Stop the acceptor even when an assertion in `f` fails —
        // otherwise the scope would block forever joining the serve
        // thread and the test would hang instead of reporting.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(addr, &service, &metrics)));
        control.stop();
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
    assert_eq!(metrics.panics(), 0, "panic bulkhead fired");
}

/// Sends raw bytes, optionally half-closes the write side, and returns
/// the first response status (0 when the server closed with no bytes).
fn raw_status(addr: SocketAddr, payload: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream.write_all(payload).expect("send payload");
    stream.shutdown(Shutdown::Write).expect("half-close");
    read_status(&mut stream)
}

fn read_status(stream: &mut TcpStream) -> u16 {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    head.split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[test]
fn malformed_request_corpus_maps_to_statuses() {
    with_gateway(test_config(), |addr, _service, _metrics| {
        // (payload, expected status) — every framing violation the
        // parser distinguishes, as raw bytes on the socket.
        let corpus: &[(&[u8], u16)] = &[
            // Not HTTP at all.
            (b"hello there\r\n\r\n", 400),
            (b"\x00\x01\x02\x03\r\n\r\n", 400),
            // Bad request lines.
            (b"GET\r\n\r\n", 400),
            (b"GET /healthz\r\n\r\n", 400),
            (b"get /healthz HTTP/1.1\r\n\r\n", 400),
            (b"GET healthz HTTP/1.1\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1 surplus\r\n\r\n", 400),
            // Unsupported versions.
            (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
            (b"GET /healthz HTTP/9.9\r\n\r\n", 505),
            // Header violations.
            (b"GET /healthz HTTP/1.1\r\nno colon line\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\n: nameless\r\n\r\n", 400),
            // Content-length violations.
            (b"POST /query HTTP/1.1\r\n\r\n", 400),
            (
                b"POST /query HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
                400,
            ),
            (b"POST /query HTTP/1.1\r\ncontent-length: -5\r\n\r\n", 400),
            (
                b"POST /query HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 4\r\n\r\nabcd",
                400,
            ),
            // Declared body over the cap (64 KiB in the test config).
            (
                b"POST /query HTTP/1.1\r\ncontent-length: 9999999\r\n\r\n",
                413,
            ),
            // Chunked transfer is refused, not mis-framed.
            (
                b"POST /query HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n",
                501,
            ),
            // Truncations: header cut mid-line, body shorter than
            // declared (the half-close makes these EOF, not timeout).
            (b"GET /healthz HTTP/1.1\r\nhost: tru", 400),
            (b"POST /query HTTP/1.1\r\ncontent-length: 50\r\n\r\n[", 400),
            // Valid frame, hostile JSON body.
            (
                b"POST /query HTTP/1.1\r\ncontent-length: 16\r\n\r\nthis is not json",
                400,
            ),
            (b"POST /query HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}", 400),
        ];
        for (payload, expected) in corpus {
            let got = raw_status(addr, payload);
            assert_eq!(
                got,
                *expected,
                "payload {:?}",
                String::from_utf8_lossy(payload)
            );
        }

        // Oversized head: more header bytes than the 2 KiB test cap.
        let mut oversized = b"GET /healthz HTTP/1.1\r\n".to_vec();
        for i in 0..200 {
            oversized.extend_from_slice(format!("x-pad-{i}: {}\r\n", "y".repeat(64)).as_bytes());
        }
        oversized.extend_from_slice(b"\r\n");
        assert_eq!(raw_status(addr, &oversized), 431);
    });
}

#[test]
fn split_writes_pipelining_and_early_close() {
    with_gateway(test_config(), |addr, _service, _metrics| {
        // A request dribbled in byte-sized writes still parses.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        for chunk in b"GET /healthz HTTP/1.1\r\nhost: split\r\n\r\n".chunks(3) {
            stream.write_all(chunk).expect("dribble");
            stream.flush().expect("flush");
        }
        assert_eq!(read_status(&mut stream), 200);
        drop(stream);

        // Two pipelined requests in one write get two responses in
        // order on the same connection.
        let mut client = ClientConn::connect(addr, Duration::from_secs(5)).expect("connect");
        client
            .stream()
            .write_all(
                b"GET /healthz HTTP/1.1\r\nhost: a\r\n\r\nGET /metrics HTTP/1.1\r\nhost: b\r\n\r\n",
            )
            .expect("pipeline");
        let first = client.read_response().expect("first pipelined response");
        let second = client.read_response().expect("second pipelined response");
        assert_eq!(first.status, 200);
        assert_eq!(second.status, 200);
        let health: Value = serde_json::from_slice(&first.body).expect("healthz JSON");
        assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
        let metrics_doc: Value = serde_json::from_slice(&second.body).expect("metrics JSON");
        assert!(metrics_doc.get("routes").is_some());
        // The structural-sharing snapshot gauges are present and
        // finite: a live gateway retains at least one epoch, its
        // snapshot holds at least one partition, and those partitions
        // weigh something.
        let snap = metrics_doc.get("snapshot").expect("snapshot gauges");
        let gauge = |k: &str| {
            snap.get(k)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("gauge {k} missing or not a finite count"))
        };
        assert!(gauge("retained_epochs") >= 1);
        assert!(gauge("shared_partitions") + gauge("owned_partitions") >= 1);
        assert!(gauge("retained_bytes") > 0);

        // A client that connects and vanishes mid-request burns
        // nothing but its own connection.
        let mut ghost = TcpStream::connect(addr).expect("connect");
        ghost.write_all(b"POST /query HTT").expect("partial");
        ghost.shutdown(Shutdown::Both).expect("vanish");
        drop(ghost);

        // A client that stalls silently is timed out (408), not held.
        let mut slow = TcpStream::connect(addr).expect("connect");
        slow.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        slow.write_all(b"GET /healthz HTTP/1.1\r\nhost: s")
            .expect("stall");
        // No more bytes: the 300ms server read timeout fires.
        assert_eq!(read_status(&mut slow), 408);

        // The gateway is still healthy after all of the above.
        let mut check = ClientConn::connect(addr, Duration::from_secs(5)).expect("connect");
        check.send("GET", "/healthz", &[], b"").expect("send");
        assert_eq!(check.read_response().expect("answers").status, 200);
    });
}

#[test]
fn auth_and_rate_limit_layers_enforce_on_the_wire() {
    let cfg = GatewayConfig {
        api_keys: vec!["sesame".to_string()],
        rate_per_sec: 1.0,
        rate_burst: 2.0,
        ..test_config()
    };
    with_gateway(cfg, |addr, _service, _metrics| {
        let mut client = ClientConn::connect(addr, Duration::from_secs(5)).expect("connect");
        // No key → 401; wrong key → 401; health stays open.
        client.send("GET", "/ixp?ixp=0", &[], b"").expect("send");
        assert_eq!(client.read_response().expect("answers").status, 401);
        client
            .send("GET", "/ixp?ixp=0", &[("x-api-key", "wrong")], b"")
            .expect("send");
        assert_eq!(client.read_response().expect("answers").status, 401);
        client.send("GET", "/healthz", &[], b"").expect("send");
        assert_eq!(client.read_response().expect("answers").status, 200);

        // Valid key: burst of 2 admitted, third rejected 429.
        let key = [("x-api-key", "sesame")];
        client.send("GET", "/ixp?ixp=0", &key, b"").expect("send");
        assert_eq!(client.read_response().expect("answers").status, 200);
        client.send("GET", "/ixp?ixp=0", &key, b"").expect("send");
        assert_eq!(client.read_response().expect("answers").status, 200);
        client.send("GET", "/ixp?ixp=0", &key, b"").expect("send");
        assert_eq!(client.read_response().expect("answers").status, 429);
        // Health bypasses the saturated bucket too.
        client.send("GET", "/healthz", &key, b"").expect("send");
        assert_eq!(client.read_response().expect("answers").status, 200);
    });
}

#[test]
fn time_travel_surface_over_the_wire() {
    use opeer_core::archive::SnapshotArchive;

    // A service replayed through a SnapshotArchive, then served with
    // `serve_with`: every archived epoch must round-trip over the wire,
    // the longitudinal routes must answer, and every hostile epoch
    // parameter must map to a typed 4xx — never a 500, never a panic.
    let world = small_world();
    let seed = 42;
    let service = PeeringService::build(
        InferenceInput::assemble_base(&world, seed),
        &PipelineConfig::default(),
        &ParallelConfig::new(2),
    );
    let archive = SnapshotArchive::attach(&service);
    let (_registry, campaign_cfg, corpus_cfg) = default_configs(seed);
    let camp = campaign_batches(&world, &service.input().vps, campaign_cfg, 3);
    let corp = corpus_batches(&world, corpus_cfg, 3);
    for delta in InputDelta::zip_batches(camp, corp) {
        archive.apply(delta);
    }
    let latest = archive.latest_epoch().expect("epochs archived");
    assert!(latest >= 2, "need a real history to time-travel");
    let probe = archive.latest().result().inferences[0].clone();

    let gateway = Gateway::bind(test_config()).expect("bind");
    let addr = gateway.local_addr();
    let control = gateway.control();
    let metrics = gateway.metrics();

    std::thread::scope(|scope| {
        let gateway = &gateway;
        let service_ref = &service;
        let archive_ref = &archive;
        scope.spawn(move || gateway.serve_with(service_ref, Some(archive_ref)));

        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut client = ClientConn::connect(addr, Duration::from_secs(5)).expect("connect");

            // Every archived epoch round-trips: the answer carries the
            // requested epoch, not the latest one.
            for epoch in 0..=latest {
                client
                    .send(
                        "GET",
                        &format!(
                            "/verdict?ixp={}&iface={}&epoch={epoch}",
                            probe.ixp, probe.addr
                        ),
                        &[],
                        b"",
                    )
                    .expect("send verdict");
                let reply = client.read_response().expect("verdict answers");
                assert_eq!(reply.status, 200, "epoch {epoch}");
                let doc: Value = serde_json::from_slice(&reply.body).expect("verdict JSON");
                assert_eq!(
                    doc.get("epoch").and_then(Value::as_u64),
                    Some(epoch),
                    "answer tagged with a foreign epoch"
                );
            }

            // The longitudinal routes answer with full-history shapes.
            client
                .send("GET", &format!("/trend?ixp={}", probe.ixp), &[], b"")
                .expect("send trend");
            let reply = client.read_response().expect("trend answers");
            assert_eq!(reply.status, 200);
            let doc: Value = serde_json::from_slice(&reply.body).expect("trend JSON");
            let points = doc
                .get("points")
                .and_then(Value::as_array)
                .expect("points array");
            assert_eq!(points.len() as u64, latest + 1, "one point per epoch");

            client
                .send(
                    "GET",
                    &format!("/churn?asn={}", probe.asn.value()),
                    &[],
                    b"",
                )
                .expect("send churn");
            let reply = client.read_response().expect("churn answers");
            assert_eq!(reply.status, 200);
            let doc: Value = serde_json::from_slice(&reply.body).expect("churn JSON");
            assert_eq!(
                doc.get("per_epoch").and_then(Value::as_array).map(Vec::len),
                Some(latest as usize),
                "one churn point per epoch transition"
            );

            // Hostile epoch parameters: typed 4xx with a stable error
            // kind, on every route that accepts them.
            let verdict_path = format!("/verdict?ixp={}&iface={}", probe.ixp, probe.addr);
            for (path, want_status, want_kind) in [
                (format!("{verdict_path}&epoch=999"), 404, "future_epoch"),
                (format!("{verdict_path}&epoch=banana"), 400, "bad_param"),
                (format!("{verdict_path}&epoch=-1"), 400, "bad_param"),
                (
                    format!("/asn?asn={}&epoch=999", probe.asn.value()),
                    404,
                    "future_epoch",
                ),
                (
                    format!("/explain?iface={}&epoch=banana", probe.addr),
                    400,
                    "bad_param",
                ),
                ("/trend?ixp=banana".to_string(), 400, "bad_param"),
                ("/trend?ixp=99999".to_string(), 404, "not_found"),
                ("/churn?asn=4294967295".to_string(), 404, "not_found"),
            ] {
                client.send("GET", &path, &[], b"").expect("send hostile");
                let reply = client.read_response().expect("hostile answers");
                assert_eq!(reply.status, want_status, "{path}");
                let doc: Value = serde_json::from_slice(&reply.body).expect("error JSON");
                assert_eq!(
                    doc.get("error").and_then(Value::as_str),
                    Some(want_kind),
                    "{path}"
                );
            }

            // Wrong method on the new routes: 405, not a parse attempt.
            client
                .send("POST", "/trend?ixp=0", &[], b"{}")
                .expect("send");
            assert_eq!(client.read_response().expect("answers").status, 405);
        }));
        control.stop();
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
    assert_eq!(metrics.panics(), 0, "panic bulkhead fired");
}

#[test]
fn archive_free_gateway_rejects_time_travel_with_typed_404() {
    // `Gateway::serve` (no archive) must refuse the time-travel surface
    // with the `no_archive` kind — not a 500, not a silent fallback to
    // the live snapshot.
    with_gateway(test_config(), |addr, service, _metrics| {
        let inf = service.snapshot().result().inferences[0].clone();
        let mut client = ClientConn::connect(addr, Duration::from_secs(5)).expect("connect");
        for path in [
            format!("/verdict?ixp={}&iface={}&epoch=0", inf.ixp, inf.addr),
            "/trend?ixp=0".to_string(),
            format!("/churn?asn={}", inf.asn.value()),
        ] {
            client.send("GET", &path, &[], b"").expect("send");
            let reply = client.read_response().expect("answers");
            assert_eq!(reply.status, 404, "{path}");
            let doc: Value = serde_json::from_slice(&reply.body).expect("error JSON");
            assert_eq!(
                doc.get("error").and_then(Value::as_str),
                Some("no_archive"),
                "{path}"
            );
        }
        // Without epoch= the same route still serves the live snapshot.
        client
            .send(
                "GET",
                &format!("/verdict?ixp={}&iface={}", inf.ixp, inf.addr),
                &[],
                b"",
            )
            .expect("send");
        assert_eq!(client.read_response().expect("answers").status, 200);
    });
}

#[test]
fn end_to_end_against_a_streaming_writer() {
    // A gateway serving a *base* (measurement-free) service while a
    // writer streams epoch deltas into it: clients must see the epoch
    // climb monotonically and every response parse, mid-publish
    // included. A second keep-alive client sends bad requests between
    // its polls; each must get its mapped status and land in the error
    // taxonomy.
    let world = small_world();
    let seed = 42;
    let service = PeeringService::build(
        InferenceInput::assemble_base(&world, seed),
        &PipelineConfig::default(),
        &ParallelConfig::new(2),
    );
    let (_registry, campaign_cfg, corpus_cfg) = default_configs(seed);
    let epochs = 4;
    let camp = campaign_batches(&world, &service.input().vps, campaign_cfg, epochs);
    let corp = corpus_batches(&world, corpus_cfg, epochs);
    let deltas = InputDelta::zip_batches(camp, corp);
    let total_epochs = deltas.len() as u64;
    assert!(total_epochs > 0);

    let gateway = Gateway::bind(test_config()).expect("bind");
    let addr = gateway.local_addr();
    let control = gateway.control();
    let metrics = gateway.metrics();

    std::thread::scope(|scope| {
        let gateway = &gateway;
        let service_ref = &service;
        scope.spawn(move || gateway.serve(service_ref));

        // The writer: stream every delta with a small gap so readers
        // genuinely interleave with publishes.
        let writer = scope.spawn(move || {
            for delta in deltas {
                std::thread::sleep(Duration::from_millis(20));
                service_ref.apply(delta);
            }
        });

        // The second client: between two /healthz polls, an unknown
        // route (404) and an unparsable query batch (400) on the same
        // connection, until the final epoch is visible. Returns how many
        // of each it sent (at least one).
        let bad_client = scope.spawn(move || {
            let mut client = ClientConn::connect(addr, Duration::from_secs(5)).expect("connect");
            let poll = |client: &mut ClientConn| {
                client
                    .send("GET", "/healthz", &[], b"")
                    .expect("send healthz");
                let health = client.read_response().expect("healthz answers");
                assert_eq!(health.status, 200);
                let doc: Value = serde_json::from_slice(&health.body).expect("healthz JSON");
                doc.get("epoch")
                    .and_then(Value::as_u64)
                    .expect("epoch field")
            };
            let mut last_epoch = poll(&mut client);
            let mut sent = 0u64;
            loop {
                assert!(sent < 2000, "writer never finished publishing");
                client.send("GET", "/nope", &[], b"").expect("send");
                assert_eq!(client.read_response().expect("answers").status, 404);
                client
                    .send("POST", "/query", &[], b"{not json")
                    .expect("send");
                assert_eq!(client.read_response().expect("answers").status, 400);
                sent += 1;
                let epoch = poll(&mut client);
                assert!(
                    epoch >= last_epoch,
                    "second client: epoch went backwards: {last_epoch} -> {epoch}"
                );
                last_epoch = epoch;
                if epoch == total_epochs {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            sent
        });

        // The reader: poll /healthz and /query until the final epoch
        // is visible, checking monotonicity throughout. Wrapped so a
        // failed assertion still stops the acceptor (otherwise the
        // scope join would hang instead of reporting the failure).
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut client = ClientConn::connect(addr, Duration::from_secs(5)).expect("connect");
            let mut last_epoch = 0u64;
            let mut polls = 0u32;
            loop {
                polls += 1;
                assert!(polls < 2000, "writer never finished publishing");
                client
                    .send("GET", "/healthz", &[], b"")
                    .expect("send healthz");
                let health = client.read_response().expect("healthz answers");
                assert_eq!(health.status, 200);
                let doc: Value = serde_json::from_slice(&health.body).expect("healthz JSON");
                let epoch = doc
                    .get("epoch")
                    .and_then(Value::as_u64)
                    .expect("epoch field");
                assert!(
                    epoch >= last_epoch,
                    "epoch went backwards: {last_epoch} -> {epoch}"
                );
                last_epoch = epoch;

                // A query batch against whatever snapshot is current; all
                // answers must carry one consistent epoch tag.
                client
                    .send(
                        "POST",
                        "/query",
                        &[],
                        b"[{\"IxpReport\":{\"ixp\":0}},{\"IxpReport\":{\"ixp\":1}}]",
                    )
                    .expect("send query");
                let reply = client.read_response().expect("query answers");
                assert_eq!(reply.status, 200);
                let responses: Vec<QueryResponse> =
                    serde_json::from_slice(&reply.body).expect("query body parses");
                let tags: Vec<u64> = responses
                    .iter()
                    .filter_map(|r| match r {
                        QueryResponse::Ixp(i) => Some(i.epoch),
                        _ => None,
                    })
                    .collect();
                assert!(!tags.is_empty());
                assert!(
                    tags.windows(2).all(|w| w[0] == w[1]),
                    "mixed epoch tags in one batch"
                );
                assert!(tags[0] >= last_epoch.saturating_sub(total_epochs));

                if epoch == total_epochs {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            writer.join().expect("writer panicked");
            let sent = bad_client.join().expect("second client panicked");
            let taxonomy = &metrics.taxonomy;
            let not_found = taxonomy.not_found.load(Ordering::Relaxed);
            let bad_json = taxonomy.bad_json.load(Ordering::Relaxed);
            assert!(not_found >= sent, "{sent} 404s sent, {not_found} booked");
            assert!(bad_json >= sent, "{sent} 400s sent, {bad_json} booked");

            // Post-stream: the served snapshot answers a point query that
            // only exists once measurements arrived.
            let snapshot = service.snapshot();
            assert_eq!(snapshot.epoch(), total_epochs);
            if let Some(inf) = snapshot.result().inferences.first() {
                client
                    .send(
                        "GET",
                        &format!("/verdict?ixp={}&iface={}", inf.ixp, inf.addr),
                        &[],
                        b"",
                    )
                    .expect("send verdict");
                let verdict = client.read_response().expect("verdict answers");
                assert_eq!(verdict.status, 200);
            }
        }));
        control.stop();
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
    assert_eq!(metrics.panics(), 0, "panic bulkhead fired");
}
