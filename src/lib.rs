//! # opeer — remote peering inference at IXPs
//!
//! A from-scratch Rust reproduction of *“O Peer, Where Art Thou?
//! Uncovering Remote Peering Interconnections at IXPs”* (Nomikos et al.,
//! IMC 2018): the five-step local/remote peer inference methodology, every
//! substrate it depends on (synthetic Internet topology, measurement
//! plane, registry ecosystem, BGP/MRT stack, traIXroute, MIDAR-style alias
//! resolution), and an experiment harness that regenerates every table and
//! figure of the paper's evaluation.
//!
//! This crate is the facade: it re-exports the workspace crates under one
//! name and hosts the runnable examples and cross-crate integration tests.
//!
//! ## The 60-second tour
//!
//! ```
//! use opeer::prelude::*;
//!
//! // 1. A deterministic synthetic Internet (ground truth).
//! let world = WorldConfig::small(42).generate();
//!
//! // 2. The observable layer: noisy registries, ping campaigns,
//! //    traceroute corpus, IP-to-AS data.
//! let input = InferenceInput::assemble(&world, 42);
//!
//! // 3. The paper's methodology, published as a query service.
//! let service = PeeringService::build(
//!     input,
//!     &PipelineConfig::default(),
//!     &ParallelConfig::from_env(),
//! );
//!
//! // 4. Ask it things — every answer is tagged with the epoch it
//! //    reflects, and point lookups hit snapshot indexes, not scans.
//! let snapshot = service.snapshot();
//! let report = snapshot.ixp_report(0).expect("IXP 0 is observed");
//! println!(
//!     "{}: {:.0}% of inferred peers are remote",
//!     report.rollup.name,
//!     report.rollup.remote_share * 100.0
//! );
//!
//! // 5. Score the underlying result against the Table-2-style lists.
//! let input = service.input();
//! let metrics = score(
//!     &snapshot.result().inferences,
//!     &input.observed.validation,
//!     None,
//! );
//! assert!(metrics.acc() > 0.8);
//! ```
//!
//! See `examples/` for operator-facing workflows (including
//! `query_service`, which races reader threads against a streaming
//! writer) and `opeer-bench::run_experiments` for the full evaluation.

pub use opeer_alias as alias;
pub use opeer_bgp as bgp;
pub use opeer_core as core;
pub use opeer_geo as geo;
pub use opeer_measure as measure;
pub use opeer_net as net;
pub use opeer_registry as registry;
pub use opeer_topology as topology;
pub use opeer_traix as traix;

/// The most common imports in one place, organized around the serving
/// surface: the query service and its wire types first, the pipeline
/// entry points it wraps second, substrate types last.
pub mod prelude {
    // --- the serving layer (the primary public surface) ---
    pub use opeer_core::service::{
        ApplyReport, AsnReport, Explanation, InputGuard, IxpReport, IxpRollup, PartitionPtrs,
        PartitionSeen, PeeringService, QueryRequest, QueryResponse, ServiceError, Snapshot,
        VerdictAnswer, MAX_BATCH,
    };
    // --- the longitudinal archive on top of it ---
    pub use opeer_core::archive::{ArchiveError, ChurnReport, SnapshotArchive, TrendLine};
    pub use opeer_core::evolution::monthly_deltas;
    // --- producer-side entry points the service wraps ---
    pub use opeer_core::baseline::{run_baseline, DEFAULT_THRESHOLD_MS};
    pub use opeer_core::engine::ParallelConfig;
    pub use opeer_core::incremental::{
        run_pipeline_incremental, DirtyCounts, IncrementalPipeline, InputDelta, PublishDirty,
        ShardTotals,
    };
    pub use opeer_core::pipeline::{
        run_pipeline, ConfigError, PipelineConfig, PipelineConfigBuilder, PipelineResult,
        StepCounts,
    };
    // --- scoring and core record types ---
    pub use opeer_core::intern::{AddrId, AsnId, Intern, InternTables};
    pub use opeer_core::metrics::{score, score_per_ixp, Metrics};
    pub use opeer_core::types::{Inference, Step, Verdict};
    pub use opeer_core::InferenceInput;
    // --- substrates ---
    pub use opeer_geo::{GeoPoint, SpeedModel};
    pub use opeer_net::{Asn, Ipv4Prefix};
    pub use opeer_topology::{ValidationRole, World, WorldConfig};
}
