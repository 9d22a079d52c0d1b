//! # opeer-bench — the experiment harness
//!
//! One experiment per table and figure of the paper's evaluation, each
//! regenerating the corresponding rows/series from a simulated world
//! (see DESIGN.md §4 for the complete index and EXPERIMENTS.md for
//! paper-vs-measured numbers). Run them all with:
//!
//! ```text
//! cargo run --release -p opeer-bench --bin run_experiments -- --scale paper --out target/experiments
//! ```
//!
//! Criterion benchmarks (`cargo bench -p opeer-bench`) time the substrate
//! hot paths, the pipeline stages, measurement assembly, and every
//! experiment at test scale.
//!
//! ## Key types and entry points
//!
//! * [`Session`] — one world's assembled inputs, control campaign,
//!   pipeline result, and baseline, shared by every experiment.
//! * [`run_all`] — renders each experiment into a [`Rendered`]
//!   (`.txt` + `.json` pair) for the `run_experiments` binary.
//! * [`run_scaling_study`] / [`ScalingReport`] — the engine scaling
//!   study behind `run_experiments --bench-pipeline`: assembly,
//!   pipeline, end-to-end, and streaming epoch-replay sweeps
//!   with byte-identity gates, serialised as `BENCH_pipeline.json`
//!   (schema documented in the README).
//! * [`run_streaming_session`] / [`StreamingReport`] — the epoch replay
//!   behind `run_experiments --epochs N`: measurements delivered in
//!   batches through the incremental pipeline, per-epoch dirty-shard
//!   accounting, byte-identity audit against the one-shot run.
//! * [`run_serving_study`] / [`ServingReport`] — the serving-throughput
//!   sweep of the `serving` section: reader threads issuing batched
//!   snapshot queries while a writer streams epoch deltas into the
//!   [`opeer_core::service::PeeringService`].
//! * [`run_gateway_study`] / [`GatewayReport`] — the wire-level load
//!   study of the `gateway` section (and the `loadgen` binary): real
//!   HTTP clients over loopback sockets against an
//!   [`opeer_gateway::Gateway`], with expected-status, epoch-monotonic,
//!   taxonomy, and zero-panic gates.
//! * [`run_archive_study`] / [`ArchiveReport`] — the longitudinal
//!   archive replay of the `archive` section (and `run_experiments
//!   --archive-months N`): monthly world revisions streamed through a
//!   [`opeer_core::archive::SnapshotArchive`], per-month dirty
//!   accounting, time-travel query throughput, retained-bytes
//!   estimate, and a byte-identity gate against the one-shot pipeline.
//! * [`run_memory_study`] / [`MemoryReport`] — the structural-sharing
//!   memory study of the `memory` section (and `run_experiments
//!   --memory-study`): epoch streams through a retention-capped
//!   archive, per-epoch publish dirty sets and deduplicated retained
//!   bytes, with flat-ceiling, zero-dirty-speedup, and byte-identity
//!   gates.
//! * [`run_sweep`] / [`SweepGrid`] / [`FleetReport`] — the multi-world
//!   sweep fleet behind `run_experiments --sweep GRIDSPEC`: seed ×
//!   `WorldConfig`-knob grids fanned one world per shard, optional
//!   what-if [`opeer_topology::Scenario`] cells scored incrementally
//!   against their baselines, aggregated into mean ± 95 % confidence
//!   bands, serialised as `BENCH_sweep.json` (the v9 `sweep` section)
//!   with an identity gate and thread/permutation-invariant bytes.
//! * [`compare_reports`] / [`Comparison`] — the schema-tolerant
//!   regression diff behind `run_experiments --compare-bench`: two
//!   `BENCH_pipeline.json` files compared phase by phase, failing on
//!   any >20 % mean wall-clock regression (CI's perf gate).

#![warn(missing_docs)]

pub mod archive;
pub mod compare;
pub mod experiments;
pub mod fleet;
pub mod gateway;
pub mod memory;
pub mod scaling;
pub mod serving;
pub mod session;
pub mod streaming;

pub use archive::{run_archive_study, ArchiveReport, MonthCost, DEFAULT_ARCHIVE_MONTHS};
pub use compare::{compare_reports, Comparison, Regression, DEFAULT_TOLERANCE};
pub use experiments::{run_all, Rendered};
pub use fleet::{
    run_sweep, Band, BandGroup, CellReport, CellStats, FleetReport, KnobPoint, SweepBenchReport,
    SweepGrid, FLEET_SCHEMA,
};
pub use gateway::{run_gateway_study, GatewayPoint, GatewayReport, DEFAULT_CONNECTION_SWEEP};
pub use memory::{
    memory_gates_hold, run_memory_study, MemoryEpoch, MemoryReport, DEFAULT_MEMORY_EPOCHS,
    DEFAULT_MEMORY_RETAIN,
};
pub use scaling::{
    run_scaling_study, PhaseScaling, ScalingReport, DEFAULT_STREAMING_EPOCHS, DEFAULT_THREAD_SWEEP,
};
pub use serving::{run_serving_study, ServingPoint, ServingReport, DEFAULT_READER_SWEEP};
pub use session::Session;
pub use streaming::{run_streaming_session, EpochCost, StreamingReport};
