//! # opeer-core — remote peering inference at IXPs
//!
//! The primary contribution of *“O Peer, Where Art Thou? Uncovering
//! Remote Peering Interconnections at IXPs”* (Nomikos et al., IMC 2018):
//! a five-step methodology that classifies each IXP member interface as a
//! **local** or **remote** peer (Definition 1: remote = no physical
//! presence in the IXP's infrastructure and/or connected through a
//! reseller).
//!
//! The pipeline consumes only observables — the fused registry dataset of
//! `opeer-registry`, ping campaigns and traceroute corpora from
//! `opeer-measure`, IP-to-AS data from `opeer-bgp` — and never touches
//! the generator's ground truth. Scoring against the Table 2 validation
//! lists happens in [`metrics`], exactly as the paper scores against
//! operator lists.
//!
//! Steps, in their load-bearing order (§5.2):
//!
//! 1. [`steps::step1`] — **port capacities**: a port below the IXP's
//!    minimum physical capacity can only be a reseller's virtual port.
//! 2. [`steps::step2`] — **ping campaign hygiene**: minimum RTTs with
//!    TTL filters, rounding-LG handling, per-target best VP.
//! 3. [`steps::step3`] — **colocation-informed RTT interpretation**: the
//!    feasibility annulus of Fig. 7 intersected with facility data.
//! 4. [`steps::step4`] — **multi-IXP routers**: alias-resolved routers
//!    seen next to several IXPs propagate verdicts with the facility
//!    distance conditions.
//! 5. [`steps::step5`] — **private connectivity**: the CFS-style facility
//!    vote over private interconnection neighbors.
//!
//! [`baseline`] implements the state of the art the paper compares
//! against (Castro et al.: `RTTmin ≤ 10 ms ⇒ local`), and
//! [`pipeline::run_pipeline`] wires everything together.
//!
//! ## Entry points
//!
//! * [`InferenceInput::assemble`] / [`InferenceInput::assemble_parallel`]
//!   — build the observable inputs (registry fusion, ping campaign,
//!   traceroute corpus, `prefix2as`), on the calling thread or sharded
//!   over the worker pool; byte-identical either way.
//!   [`InferenceInput::assemble_base`] builds the measurement-free
//!   substrate the incremental pipeline streams batches into.
//! * [`pipeline::run_pipeline`] — the sequential five-step reference.
//! * [`incremental::IncrementalPipeline`] /
//!   [`incremental::run_pipeline_incremental`] — the same methodology on
//!   the worker pool, as an incremental dataflow: [`IncrementalPipeline::new`]
//!   runs all five steps once (the parallel one-shot run), then
//!   measurement batches stream in as [`incremental::InputDelta`]s and
//!   only the dirty shards recompute, byte-identical to the one-shot
//!   run after every epoch.
//! * [`engine::shard_ranges`] / [`engine::map_indexed`] — the generic
//!   shard-scheduling primitives behind every parallel path.
//! * [`service::PeeringService`] — the serving layer over the
//!   incremental pipeline: writers `apply` epoch deltas while any
//!   number of readers query immutable, epoch-versioned
//!   [`service::Snapshot`]s through typed point/report/explain lookups
//!   and a batched, serde-serializable request/response API.
//! * [`archive::SnapshotArchive`] — the longitudinal layer over the
//!   service: every published epoch's snapshot retained (Arc-shared)
//!   behind an epoch index, resolving epochs to snapshots
//!   ([`archive::SnapshotArchive::at`] and range lookups) whose
//!   queries answer as of that epoch, plus per-IXP remote-share trend
//!   lines, per-ASN verdict churn, and
//!   per-epoch dirty-shard accounting; driven by
//!   [`evolution::monthly_deltas`]' monthly world revisions.
//!
//! ## Quickstart
//!
//! ```no_run
//! use opeer_core::input::InferenceInput;
//! use opeer_core::pipeline::{run_pipeline, PipelineConfig};
//! use opeer_topology::WorldConfig;
//!
//! let world = WorldConfig::small(1).generate();
//! let input = InferenceInput::assemble(&world, 1);
//! let result = run_pipeline(&input, &PipelineConfig::default());
//! println!("{} interfaces inferred", result.inferences.len());
//! ```

#![warn(missing_docs)]

pub mod archive;
pub mod baseline;
pub mod beyond_pings;
pub mod engine;
pub mod evolution;
pub mod features;
pub mod incremental;
pub mod input;
pub mod intern;
pub mod metrics;
pub mod pipeline;
pub mod routing_impl;
pub mod scenario;
pub mod service;
pub mod steps;
pub mod types;

pub use archive::{ArchiveError, ChurnReport, SnapshotArchive, TrendLine};
pub use baseline::run_baseline;
pub use engine::ParallelConfig;
pub use incremental::{run_pipeline_incremental, IncrementalPipeline, InputDelta, PublishDirty};
pub use input::InferenceInput;
pub use intern::{AddrId, AsnId, Intern, InternTables};
pub use metrics::{score, Metrics};
pub use pipeline::{run_pipeline, ConfigError, PipelineConfig, PipelineResult};
pub use scenario::{run_scenario_epoch, scenario_delta, score_shift, ScenarioShift};
pub use service::{PeeringService, QueryRequest, QueryResponse, ServiceError, Snapshot};
pub use types::{Inference, Step, Verdict};
