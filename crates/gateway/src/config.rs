//! Gateway runtime configuration, following the same environment
//! conventions as [`opeer_core::engine::ParallelConfig`]: every knob
//! has a production default, `0`/unset/garbage fall back to it, and
//! whitespace around a value is tolerated.

use std::time::Duration;

/// Environment variable overriding the listen address.
pub const ADDR_ENV: &str = "OPEER_GATEWAY_ADDR";
/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "OPEER_GATEWAY_THREADS";
/// Environment variable holding comma-separated static API keys.
pub const KEYS_ENV: &str = "OPEER_GATEWAY_KEYS";
/// Environment variable overriding the per-key token refill rate.
pub const RATE_ENV: &str = "OPEER_GATEWAY_RATE";
/// Environment variable overriding the per-key token-bucket burst.
pub const BURST_ENV: &str = "OPEER_GATEWAY_BURST";
/// Environment variable overriding the request-body byte cap.
pub const MAX_BODY_ENV: &str = "OPEER_GATEWAY_MAX_BODY";
/// Environment variable overriding the socket read timeout (ms).
pub const READ_TIMEOUT_ENV: &str = "OPEER_GATEWAY_READ_TIMEOUT_MS";

/// Everything the gateway needs to know at bind time.
///
/// The request-size/header/timeout limits are the innermost middleware
/// layer: they are enforced structurally by the HTTP parser, before any
/// route code sees a byte.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Listen address (`host:port`; port `0` binds an ephemeral port —
    /// the tests and perfbench's `wire_read` workload do exactly that).
    pub addr: String,
    /// Worker threads handling connections (thread-per-core by
    /// default: the machine's available parallelism).
    pub threads: usize,
    /// Largest accepted request head (request line + headers), bytes.
    pub max_header_bytes: usize,
    /// Largest accepted request body, bytes.
    pub max_body_bytes: usize,
    /// Socket read timeout: a peer that stalls mid-request is answered
    /// `408` and disconnected, so a slowloris cannot pin a worker.
    pub read_timeout: Duration,
    /// Static API keys (header `x-api-key`). Empty disables auth.
    pub api_keys: Vec<String>,
    /// Token-bucket refill rate per key, requests/second. `0.0`
    /// disables rate limiting.
    pub rate_per_sec: f64,
    /// Token-bucket capacity (burst allowance) per key.
    pub rate_burst: f64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:7077".to_string(),
            threads: available_parallelism(),
            max_header_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(5),
            api_keys: Vec::new(),
            rate_per_sec: 0.0,
            rate_burst: 0.0,
        }
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn env_parsed<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<T>().ok())
}

impl GatewayConfig {
    /// Reads every `OPEER_GATEWAY_*` knob, falling back to the
    /// defaults for absent or unparsable values (`OPEER_GATEWAY_THREADS=0`
    /// means "auto", like `OPEER_THREADS`).
    pub fn from_env() -> Self {
        let mut cfg = GatewayConfig::default();
        if let Ok(addr) = std::env::var(ADDR_ENV) {
            let addr = addr.trim();
            if !addr.is_empty() {
                cfg.addr = addr.to_string();
            }
        }
        if let Some(threads) = env_parsed::<usize>(THREADS_ENV).filter(|&n| n >= 1) {
            cfg.threads = threads;
        }
        if let Some(body) = env_parsed::<usize>(MAX_BODY_ENV).filter(|&n| n >= 1) {
            cfg.max_body_bytes = body;
        }
        if let Some(ms) = env_parsed::<u64>(READ_TIMEOUT_ENV).filter(|&n| n >= 1) {
            cfg.read_timeout = Duration::from_millis(ms);
        }
        if let Ok(keys) = std::env::var(KEYS_ENV) {
            cfg.api_keys = keys
                .split(',')
                .map(str::trim)
                .filter(|k| !k.is_empty())
                .map(str::to_string)
                .collect();
        }
        if let Some(rate) = env_parsed::<f64>(RATE_ENV).filter(|r| r.is_finite() && *r > 0.0) {
            cfg.rate_per_sec = rate;
            // Default burst: one second's worth, at least 1 request.
            cfg.rate_burst = rate.max(1.0);
        }
        if let Some(burst) = env_parsed::<f64>(BURST_ENV).filter(|b| b.is_finite() && *b >= 1.0) {
            cfg.rate_burst = burst;
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = GatewayConfig::default();
        assert_eq!(cfg.addr, "127.0.0.1:7077");
        assert!(cfg.threads >= 1);
        assert!(cfg.max_body_bytes >= cfg.max_header_bytes);
        assert!(cfg.api_keys.is_empty());
        assert_eq!(cfg.rate_per_sec, 0.0);
    }

    #[test]
    fn env_parsing_edge_cases() {
        // One test owns the OPEER_GATEWAY_* variables for this binary
        // (set_var racing getenv from another test thread is UB), same
        // discipline as ParallelConfig's env test.
        std::env::set_var(ADDR_ENV, " 0.0.0.0:9000 ");
        std::env::set_var(THREADS_ENV, "3");
        std::env::set_var(KEYS_ENV, "alpha, beta,,gamma ");
        std::env::set_var(RATE_ENV, "250");
        std::env::set_var(MAX_BODY_ENV, "4096");
        std::env::set_var(READ_TIMEOUT_ENV, "1500");
        let cfg = GatewayConfig::from_env();
        assert_eq!(cfg.addr, "0.0.0.0:9000");
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.api_keys, ["alpha", "beta", "gamma"]);
        assert_eq!(cfg.rate_per_sec, 250.0);
        assert_eq!(cfg.rate_burst, 250.0);
        assert_eq!(cfg.max_body_bytes, 4096);
        assert_eq!(cfg.read_timeout, Duration::from_millis(1500));

        // Garbage, zeros, and negatives fall back to defaults.
        std::env::set_var(THREADS_ENV, "0");
        std::env::set_var(RATE_ENV, "NaN");
        std::env::set_var(BURST_ENV, "-5");
        std::env::set_var(MAX_BODY_ENV, "banana");
        std::env::set_var(ADDR_ENV, "");
        let cfg = GatewayConfig::from_env();
        let defaults = GatewayConfig::default();
        assert_eq!(cfg.threads, defaults.threads);
        assert_eq!(cfg.rate_per_sec, 0.0);
        assert_eq!(cfg.rate_burst, 0.0);
        assert_eq!(cfg.max_body_bytes, defaults.max_body_bytes);
        assert_eq!(cfg.addr, defaults.addr);

        // Explicit burst rides an explicit rate.
        std::env::set_var(RATE_ENV, "10.5");
        std::env::set_var(BURST_ENV, "40");
        let cfg = GatewayConfig::from_env();
        assert_eq!(cfg.rate_per_sec, 10.5);
        assert_eq!(cfg.rate_burst, 40.0);

        for var in [
            ADDR_ENV,
            THREADS_ENV,
            KEYS_ENV,
            RATE_ENV,
            BURST_ENV,
            MAX_BODY_ENV,
            READ_TIMEOUT_ENV,
        ] {
            std::env::remove_var(var);
        }
    }
}
