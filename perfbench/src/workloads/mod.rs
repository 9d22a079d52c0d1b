//! The four workloads. Each loads one layer family in its timed window
//! and leaves the others idle; see `perfbench/README.md` for why each
//! exists and which metrics it owns.

pub mod cold_build;
pub mod epoch_stream;
pub mod sweep;
pub mod wire_read;

use crate::report::Outcome;
use opeer_core::engine::ParallelConfig;
use opeer_core::input::InferenceInput;
use opeer_topology::WorldConfig;
use std::collections::hash_map::DefaultHasher;
use std::fmt::{self, Write as _};
use std::hash::Hasher;
use std::time::Instant;

/// Engine threads for every timed window (sized for a 2-vCPU host).
pub const ENGINE_THREADS: usize = 2;
/// Gateway worker threads in `wire_read`.
pub const GATEWAY_WORKERS: usize = 2;
/// Closed-loop client connections in `wire_read`.
pub const CLIENTS: usize = 2;

/// How much of a workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The workload as specified: the large world, the 32-seed grid, the
    /// full window. The only size the end-to-end metrics it owns come
    /// from.
    Full,
    /// A small-world, few-seed, short-window run of the same code,
    /// used for the self-tests and to fill the metrics a workload does
    /// not own (see `crate::run`).
    Canary,
}

/// One workload invocation.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// How much to run.
    pub size: Size,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of open-ended windows (`wire_read`), seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of timing the
    /// end-to-end path.
    pub trace: bool,
}

impl Params {
    /// The world every workload but `sweep` runs on.
    pub fn world(&self) -> WorldConfig {
        match self.size {
            Size::Full => WorldConfig::large(self.seed),
            Size::Canary => WorldConfig::small(self.seed),
        }
    }

    /// Whether tail percentiles must meet the [`crate::stats`] sample
    /// rule: a canary times too few operations for it.
    pub fn strict_tails(&self) -> bool {
        self.size == Size::Full
    }
}

/// The engine configuration of every timed window.
pub fn engine() -> ParallelConfig {
    ParallelConfig::new(ENGINE_THREADS)
}

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// World → first published snapshot.
    ColdBuild,
    /// Measurement deltas and registry revisions through the archive.
    EpochStream,
    /// Closed-loop HTTP reads against the gateway.
    WireRead,
    /// A multi-world sweep grid.
    Sweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdBuild,
        Workload::EpochStream,
        Workload::WireRead,
        Workload::Sweep,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdBuild => "cold_build",
            Workload::EpochStream => "epoch_stream",
            Workload::WireRead => "wire_read",
            Workload::Sweep => "sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The end-to-end metrics the workload's full-size run measures
    /// itself; canaries fill the rest.
    pub fn owns(self) -> &'static [&'static str] {
        match self {
            Workload::ColdBuild => &["setup_s", "peak_rss_mb", "build_s"],
            Workload::EpochStream => &[
                "setup_s",
                "peak_rss_mb",
                "fresh_p50_ms",
                "fresh_p90_ms",
                "revision_p50_ms",
            ],
            Workload::WireRead => &["setup_s", "peak_rss_mb", "rtt_p50_us", "rtt_p99_us", "rps"],
            Workload::Sweep => &["setup_s", "peak_rss_mb", "sweep_s"],
        }
    }

    /// Runs the workload.
    pub fn run(self, p: &Params) -> Outcome {
        match self {
            Workload::ColdBuild => cold_build::run(p),
            Workload::EpochStream => epoch_stream::run(p),
            Workload::WireRead => wire_read::run(p),
            Workload::Sweep => sweep::run(p),
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Microseconds since `t`.
pub fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// A content fingerprint of an input's artifacts: their `Debug` text
/// (every field type derives it; floats print exactly) hashed as it is
/// written, so no copy of the input is made. Equal fingerprints stand in
/// for `InferenceInput::content_eq` where holding the other input would
/// cost memory; the world is not part of it.
pub fn fingerprint(input: &InferenceInput<'_>) -> u64 {
    struct Sink(DefaultHasher);
    impl fmt::Write for Sink {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut sink = Sink(DefaultHasher::new());
    write!(
        sink,
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        input.observed,
        input.table1,
        input.vps,
        input.campaign,
        input.corpus,
        input.ip2as,
        input.interns
    )
    .expect("hashing cannot fail");
    sink.0.finish()
}

/// SplitMix64: the benchmark's own seeded generator for request mixes
/// and sample picks (independent of the product's RNG).
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-use `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
