//! # opeer-bench — the experiment harness
//!
//! One experiment per table and figure of the paper's evaluation, each
//! regenerating the corresponding rows/series from a simulated world
//! (the [`experiments`] modules, one per table/figure group; README's
//! "Reproducing the paper's artifacts" runs them at paper scale). Run
//! them all with:
//!
//! ```text
//! cargo run --release -p opeer-bench --bin run_experiments -- --scale paper --out target/experiments
//! ```
//!
//! The end-to-end benchmark of record is `perfbench/` (`BENCHMARK.json`),
//! which calls [`run_sweep`].
//!
//! ## Key types and entry points
//!
//! * [`Session`] — one world's assembled inputs, control campaign,
//!   pipeline result, and baseline, shared by every experiment.
//! * [`run_all`] — renders each experiment into a [`Rendered`]
//!   (`.txt` + `.json` pair) for the `run_experiments` binary.
//! * [`run_sweep`] / [`SweepGrid`] / [`FleetReport`] — the multi-world
//!   sweep fleet behind `run_experiments --sweep GRIDSPEC`: seed ×
//!   `WorldConfig`-knob grids fanned one world per shard, optional
//!   what-if [`opeer_topology::Scenario`] cells scored incrementally
//!   against their baselines, aggregated into mean ± 95 % confidence
//!   bands, serialised as `BENCH_sweep.json` (the `sweep` section)
//!   with an identity gate and thread/permutation-invariant bytes.

#![warn(missing_docs)]

pub mod experiments;
pub mod fleet;
pub mod session;

pub use experiments::{run_all, Rendered};
pub use fleet::{
    run_sweep, Band, BandGroup, CellReport, CellStats, FleetReport, KnobPoint, SweepBenchReport,
    SweepGrid, FLEET_SCHEMA,
};
pub use session::Session;

/// The gateway under load: keep-alive clients mixing batched queries,
/// point lookups, metrics scrapes and deliberately bad requests against
/// a live [`opeer_gateway::Gateway`] with as many worker threads as
/// clients, while a writer streams epochs into the service it fronts.
/// `opeer-gateway`'s `tests/wire.rs` pins the protocol edge cases; this
/// pins that every answer under sustained traffic carries its expected
/// status.
#[cfg(test)]
mod gateway {
    use opeer_core::service::QueryRequest;
    use opeer_gateway::http::ClientConn;
    use serde::Value;
    use std::net::SocketAddr;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// Requests per batched `POST /query` call.
    const BATCH_SIZE: usize = 64;

    /// What one client saw: responses read, the highest `/healthz`
    /// epoch, and every answer it did not expect.
    struct Tally {
        requests: u64,
        max_epoch: u64,
        faults: Vec<String>,
    }

    /// Sends one request and audits its status. `None` on a socket
    /// error, which is a fault too: the server must answer everything.
    fn exchange(
        conn: &mut ClientConn,
        tally: &mut Tally,
        method: &str,
        target: &str,
        body: &[u8],
        expect: u16,
    ) -> Option<Vec<u8>> {
        let response = conn
            .send(method, target, &[], body)
            .and_then(|()| conn.read_response());
        let response = match response {
            Ok(response) => response,
            Err(e) => {
                tally.faults.push(format!("{method} {target}: {e}"));
                return None;
            }
        };
        tally.requests += 1;
        if response.status != expect {
            let status = response.status;
            tally
                .faults
                .push(format!("{method} {target}: {status}, expected {expect}"));
        }
        Some(response.body)
    }

    /// One round of a client: a `/healthz` poll whose epoch may never go
    /// backwards, a query batch and a point lookup over real IXP ids,
    /// bad requests (404, 400) on the first round and every 4th after,
    /// and a `/metrics` scrape every 8th. `None` once the socket fails.
    fn round(
        conn: &mut ClientConn,
        tally: &mut Tally,
        n_ixp: usize,
        n: usize,
        cursor: usize,
    ) -> Option<()> {
        let health = exchange(conn, tally, "GET", "/healthz", b"", 200)?;
        let epoch = serde_json::from_slice::<Value>(&health)
            .ok()
            .and_then(|doc| doc.get("epoch").and_then(Value::as_u64));
        match epoch {
            Some(epoch) if epoch >= tally.max_epoch => tally.max_epoch = epoch,
            other => tally.faults.push(format!(
                "/healthz epoch {other:?} after {}",
                tally.max_epoch
            )),
        }
        if n_ixp > 0 {
            let batch: Vec<QueryRequest> = (0..BATCH_SIZE)
                .map(|k| QueryRequest::IxpReport {
                    ixp: (cursor + k * 7919) % n_ixp,
                })
                .collect();
            let body = serde_json::to_string(&batch).expect("query batch serialises");
            exchange(conn, tally, "POST", "/query", body.as_bytes(), 200)?;
            let target = format!("/ixp?ixp={}", cursor % n_ixp);
            exchange(conn, tally, "GET", &target, b"", 200)?;
        }
        if n.is_multiple_of(4) {
            exchange(conn, tally, "GET", "/nope", b"", 404)?;
            exchange(conn, tally, "POST", "/query", b"{not json", 400)?;
        }
        if n.is_multiple_of(8) {
            exchange(conn, tally, "GET", "/metrics", b"", 200)?;
        }
        Some(())
    }

    /// Runs rounds until `done` flips, sampled before each round so the
    /// last epoch published before the flip is still seen. Faults are
    /// tallied, not asserted: a panicking client would leave the gateway
    /// serving and the test hanging. Stops at the first socket error.
    fn client_loop(addr: SocketAddr, n_ixp: usize, done: &AtomicBool, salt: usize) -> Tally {
        let mut tally = Tally {
            requests: 0,
            max_epoch: 0,
            faults: Vec::new(),
        };
        let mut conn = match ClientConn::connect(addr, Duration::from_secs(10)) {
            Ok(conn) => conn,
            Err(e) => {
                tally.faults.push(format!("connect: {e}"));
                return tally;
            }
        };
        for n in 0.. {
            let last = done.load(Ordering::Acquire);
            let answered = round(&mut conn, &mut tally, n_ixp, n, salt + n * BATCH_SIZE);
            if last || answered.is_none() {
                break;
            }
        }
        tally
    }

    mod tests {
        use super::client_loop;
        use opeer_core::engine::ParallelConfig;
        use opeer_core::incremental::InputDelta;
        use opeer_core::input::default_configs;
        use opeer_core::pipeline::PipelineConfig;
        use opeer_core::service::PeeringService;
        use opeer_core::InferenceInput;
        use opeer_gateway::{Gateway, GatewayConfig};
        use opeer_measure::campaign::campaign_batches;
        use opeer_measure::traceroute::corpus_batches;
        use opeer_topology::WorldConfig;
        use std::sync::atomic::{AtomicBool, Ordering};

        #[test]
        fn gateway_study_serves_expected_statuses_under_load() {
            let (seed, epochs) = (7, 3);
            let world = WorldConfig::small(seed).generate();
            let (_registry, campaign_cfg, corpus_cfg) = default_configs(seed);
            for connections in [1, 2] {
                let service = PeeringService::build(
                    InferenceInput::assemble_base(&world, seed),
                    &PipelineConfig::default(),
                    &ParallelConfig::new(2),
                );
                let n_ixp = service.snapshot().ixp_count();
                let camp = campaign_batches(&world, &service.input().vps, campaign_cfg, epochs);
                let corp = corpus_batches(&world, corpus_cfg, epochs);
                let deltas = InputDelta::zip_batches(camp, corp);
                let published = deltas.len() as u64;
                let gateway = Gateway::bind(GatewayConfig {
                    addr: "127.0.0.1:0".to_string(),
                    threads: connections,
                    ..GatewayConfig::default()
                })
                .expect("bind ephemeral loopback port");
                let addr = gateway.local_addr();
                let metrics = gateway.metrics();
                let control = gateway.control();
                let done = AtomicBool::new(false);
                // Clients are joined before the acceptor stops, and a
                // client panic is reported only after, so it cannot hang
                // the scope.
                let joined: Vec<_> = std::thread::scope(|scope| {
                    let (service, gateway, done) = (&service, &gateway, &done);
                    scope.spawn(move || gateway.serve(service));
                    let clients: Vec<_> = (0..connections)
                        .map(|c| scope.spawn(move || client_loop(addr, n_ixp, done, c * 104_729)))
                        .collect();
                    for delta in deltas {
                        service.apply(delta);
                    }
                    done.store(true, Ordering::Release);
                    let joined = clients.into_iter().map(|h| h.join()).collect();
                    control.stop();
                    joined
                });

                let mut max_epoch = 0;
                for (c, tally) in joined.into_iter().enumerate() {
                    let tally = tally.expect("client panicked");
                    assert!(
                        tally.faults.is_empty(),
                        "{connections} connections, client {c}: {:?}",
                        tally.faults
                    );
                    assert!(tally.requests > 0, "client {c} sent nothing");
                    max_epoch = max_epoch.max(tally.max_epoch);
                }
                // The last epoch published before the stop flag flipped
                // was visible to the clients.
                assert_eq!(max_epoch, published, "{connections} connections");
                // Every client's first round sent one 404 and one 400,
                // and both landed in the error taxonomy.
                let floor = connections as u64;
                assert!(metrics.taxonomy.not_found.load(Ordering::Relaxed) >= floor);
                assert!(metrics.taxonomy.bad_json.load(Ordering::Relaxed) >= floor);
                assert_eq!(metrics.panics(), 0, "panic bulkhead fired");
                let query = metrics
                    .route_stats()
                    .into_iter()
                    .find(|s| s.route == "/query")
                    .expect("query route present");
                assert!(query.requests > 0);
                assert!(query.p99_us >= query.p50_us);
            }
        }
    }
}
