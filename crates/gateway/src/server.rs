//! The accept loop and worker pool: [`Gateway`].
//!
//! Shape: one acceptor thread (the caller of [`Gateway::serve`]) fans
//! accepted connections over an `mpsc` channel to `threads` scoped
//! worker threads, each of which runs connections through a keep-alive
//! loop — read request, middleware, dispatch, write response — until
//! the peer closes, errs, or asks to close. Workers take the receiver
//! from behind a mutex only long enough to `recv()` one connection, so
//! distribution is whoever-is-free-next, which is exactly the right
//! policy for a mix of cheap point queries and heavier batches.
//!
//! `serve` blocks until [`GatewayControl::stop`] is called (from any
//! thread); stop flips an atomic flag and pokes the listener with a
//! throwaway connection so `accept()` returns. Scoped threads mean the
//! gateway borrows the [`PeeringService`] (and its world) instead of
//! demanding `'static` — the binary and the tests both run the server
//! and a live delta writer against the same stack-owned service.
//!
//! No panic is reachable from the socket: every parse and every
//! handler returns `Result`, and each connection additionally runs
//! inside `catch_unwind` as a bulkhead, so a bug that does slip
//! through burns one connection (and increments the `internal_panic`
//! taxonomy counter, which the tests pin to zero) instead of the
//! worker thread.

use crate::config::GatewayConfig;
use crate::http::{write_response, Conn, HttpError};
use crate::metrics::{MetricsRegistry, Route};
use crate::middleware::{ApiKeyAuth, CallerKey, Layer, RateLimit};
use crate::routes::{dispatch, error_body};
use opeer_core::archive::SnapshotArchive;
use opeer_core::service::PeeringService;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Handle for stopping a running [`Gateway`] from another thread.
#[derive(Clone)]
pub struct GatewayControl {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl GatewayControl {
    /// Signals the accept loop to exit. Safe to call more than once.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        // Unblock accept() with a throwaway connection; if the listener
        // already went away that is fine too.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Tracks when the latest snapshot epoch was first observed, so
/// `/healthz` and `/metrics` can report snapshot age without asking
/// the write side.
struct EpochClock {
    state: Mutex<(u64, Instant)>,
}

impl EpochClock {
    fn new(epoch: u64) -> EpochClock {
        EpochClock {
            state: Mutex::new((epoch, Instant::now())),
        }
    }

    /// Observes the current epoch; returns time since the epoch first
    /// changed to this value.
    fn age(&self, epoch: u64) -> std::time::Duration {
        let mut state = self.state.lock().expect("epoch clock poisoned");
        if state.0 != epoch {
            *state = (epoch, Instant::now());
        }
        state.1.elapsed()
    }
}

/// The bound gateway: listener + configuration + shared metrics.
pub struct Gateway {
    listener: TcpListener,
    cfg: GatewayConfig,
    metrics: Arc<MetricsRegistry>,
    stop: Arc<AtomicBool>,
}

impl Gateway {
    /// Binds the configured address (use port `0` for an ephemeral
    /// port; [`Gateway::local_addr`] reports what was bound).
    pub fn bind(cfg: GatewayConfig) -> std::io::Result<Gateway> {
        let listener = TcpListener::bind(&cfg.addr)?;
        Ok(Gateway {
            listener,
            cfg,
            metrics: Arc::new(MetricsRegistry::default()),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// The shared metrics registry (for tests and embedders).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// A stop handle usable from any thread.
    pub fn control(&self) -> GatewayControl {
        GatewayControl {
            stop: Arc::clone(&self.stop),
            addr: self.local_addr(),
        }
    }

    /// Runs the accept loop, blocking the calling thread until
    /// [`GatewayControl::stop`]. Workers are scoped threads, so the
    /// service only needs to outlive this call — not `'static`.
    pub fn serve(&self, service: &PeeringService<'_>) {
        self.serve_with(service, None);
    }

    /// [`Gateway::serve`] with a [`SnapshotArchive`] attached, enabling
    /// the time-travel surface: `epoch=` on the point-query routes and
    /// `GET /trend` / `GET /churn`. The archive borrows the same
    /// service; a writer thread can keep streaming deltas through
    /// [`SnapshotArchive::apply`] while the gateway serves.
    pub fn serve_with(
        &self,
        service: &PeeringService<'_>,
        archive: Option<&SnapshotArchive<'_, '_>>,
    ) {
        let auth = ApiKeyAuth::new(self.cfg.api_keys.clone());
        let limiter = RateLimit::new(self.cfg.rate_per_sec, self.cfg.rate_burst);
        let clock = EpochClock::new(service.epoch());
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Mutex::new(rx);
        let live_workers = AtomicU64::new(0);

        std::thread::scope(|scope| {
            for _ in 0..self.cfg.threads.max(1) {
                let rx = &rx;
                let auth = &auth;
                let limiter = &limiter;
                let clock = &clock;
                let live_workers = &live_workers;
                let metrics = &self.metrics;
                let cfg = &self.cfg;
                scope.spawn(move || {
                    live_workers.fetch_add(1, Ordering::Relaxed);
                    loop {
                        // Hold the receiver lock only for the handoff.
                        let next = {
                            let guard = rx.lock().expect("connection queue poisoned");
                            guard.recv()
                        };
                        let Ok(stream) = next else { break };
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                handle_connection(
                                    stream, cfg, service, archive, auth, limiter, clock, metrics,
                                )
                            }));
                        if outcome.is_err() {
                            metrics
                                .taxonomy
                                .internal_panic
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    live_workers.fetch_sub(1, Ordering::Relaxed);
                });
            }

            for incoming in self.listener.incoming() {
                if self.stop.load(Ordering::Acquire) {
                    break;
                }
                match incoming {
                    Ok(stream) => {
                        self.metrics.connections.fetch_add(1, Ordering::Relaxed);
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                    // Transient accept errors (peer reset between
                    // accept and handshake) are not fatal.
                    Err(_) => continue,
                }
            }
            // Dropping the sender drains the workers: each sees the
            // channel close after finishing its in-flight connections.
            drop(tx);
        });
    }
}

/// Graceful close after an error response: half-close the write side,
/// then discard whatever the peer already sent (bounded by the read
/// timeout and a byte budget). Dropping a socket with unread bytes
/// queued makes the kernel send RST, which can destroy the error
/// response before the client reads it — the drain lets the response
/// land first.
fn drain_and_close(stream: &mut TcpStream) {
    use std::io::Read;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut scratch = [0u8; 4096];
    let mut budget = 1 << 20;
    while budget > 0 {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget -= n.min(budget),
        }
    }
}

/// The caller identity for middleware: the presented API key if any,
/// otherwise the peer IP.
fn caller_key(request: &crate::http::Request, stream: &TcpStream) -> CallerKey {
    if let Some(key) = request.header("x-api-key") {
        return CallerKey::ApiKey(key.to_string());
    }
    match stream.peer_addr() {
        Ok(addr) => CallerKey::Peer(addr.ip()),
        Err(_) => CallerKey::ApiKey(String::new()),
    }
}

/// One connection's keep-alive loop.
#[allow(clippy::too_many_arguments)]
fn handle_connection(
    stream: TcpStream,
    cfg: &GatewayConfig,
    service: &PeeringService<'_>,
    archive: Option<&SnapshotArchive<'_, '_>>,
    auth: &ApiKeyAuth,
    limiter: &RateLimit,
    clock: &EpochClock,
    metrics: &MetricsRegistry,
) {
    let Ok(mut conn) = Conn::new(stream, cfg.read_timeout) else {
        return;
    };
    loop {
        let started = Instant::now();
        let request = match conn.read_request(cfg.max_header_bytes, cfg.max_body_bytes) {
            Ok(request) => request,
            Err(HttpError::Closed) => return,
            Err(err) => {
                // Framing failed: answer the mapped status (best
                // effort) and drop the connection — the stream can no
                // longer be trusted to be request-aligned.
                metrics.taxonomy.framing.fetch_add(1, Ordering::Relaxed);
                let status = err.status();
                let body = error_body(status, err.kind(), &err.to_string(), None);
                let _ = write_response(conn.stream(), status, &body, true);
                drain_and_close(conn.stream());
                metrics.record(Route::Other, status, started.elapsed());
                return;
            }
        };

        let route = Route::of_path(&request.path);
        let close = request.close;
        let caller = caller_key(&request, conn.stream());

        // Middleware layers, in order; then dispatch.
        let (status, body) = if let Some(reject) = auth
            .check(&request, &caller)
            .or_else(|| limiter.check(&request, &caller))
        {
            match reject.status {
                401 => metrics
                    .taxonomy
                    .unauthorized
                    .fetch_add(1, Ordering::Relaxed),
                _ => metrics
                    .taxonomy
                    .rate_limited
                    .fetch_add(1, Ordering::Relaxed),
            };
            (
                reject.status,
                error_body(reject.status, reject.kind, &reject.detail, None),
            )
        } else {
            let snapshot = service.snapshot();
            let age = clock.age(snapshot.epoch());
            let outcome = dispatch(&request, &snapshot, age, archive, metrics);
            (outcome.status, outcome.body)
        };

        metrics.record(route, status, started.elapsed());
        if write_response(conn.stream(), status, &body, close).is_err() {
            return;
        }
        if close {
            return;
        }
    }
}
