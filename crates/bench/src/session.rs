//! A measurement/inference session shared by all experiments.
//!
//! Building the observable inputs (registry fusion, ping campaigns,
//! traceroute corpus) and running the pipeline dominate runtime, so the
//! experiments share one [`Session`] instead of rebuilding per figure.
//!
//! The session *is* a [`PeeringService`]: the input is assembled on the
//! engine's worker pool and moves into the service's write side, the
//! pipeline runs once there ([`PeeringService::build`]), and every
//! experiment reads through the published epoch-0 [`Snapshot`]
//! ([`Session::result`], [`Session::snapshot`]) or the write-side input
//! guard ([`Session::input`]).

use opeer_core::baseline::{run_baseline, DEFAULT_THRESHOLD_MS};
use opeer_core::engine::ParallelConfig;
use opeer_core::input::InferenceInput;
use opeer_core::pipeline::{PipelineConfig, PipelineResult};
use opeer_core::service::{InputGuard, PeeringService, Snapshot};
use opeer_core::types::Inference;
use opeer_measure::campaign::{run_control_campaign, CampaignConfig, CampaignResult};
use opeer_topology::World;
use std::sync::Arc;

/// Everything the experiments read.
pub struct Session<'w> {
    /// The ground-truth world (experiments may consult it for
    /// truth-vs-inference comparisons; the pipeline itself never did).
    pub world: &'w World,
    /// Master seed.
    pub seed: u64,
    /// The query service over the assembled inputs.
    service: PeeringService<'w>,
    /// The snapshot published at session build (epoch 0).
    snapshot: Arc<Snapshot>,
    /// The §4.1 control-subset campaign (operator-internal pings).
    pub control: CampaignResult,
    /// The Castro et al. baseline output.
    pub baseline: Vec<Inference>,
}

impl<'w> Session<'w> {
    /// Builds the session: assembles the inputs on the engine's worker
    /// pool (`OPEER_THREADS` sizes it), runs the baseline over them,
    /// then moves them into a [`PeeringService`], which runs the
    /// five-step pipeline once on the same pool. Both steps are
    /// byte-identical to their sequential references, so every
    /// experiment sees the exact artifacts a sequential session would.
    pub fn new(world: &'w World, seed: u64) -> Self {
        let par = ParallelConfig::from_env();
        let input = InferenceInput::assemble_parallel(world, seed, &par);
        let baseline = run_baseline(&input, DEFAULT_THRESHOLD_MS);
        let control = run_control_campaign(world, CampaignConfig::control(seed));
        let service = PeeringService::build(input, &PipelineConfig::default(), &par);
        let snapshot = service.snapshot();
        Session {
            world,
            seed,
            service,
            snapshot,
            control,
            baseline,
        }
    }

    /// The query service the session reads through. Live: experiments
    /// (or tests) may `apply` further deltas, but [`Session::snapshot`]
    /// stays pinned to the build-time epoch so the figures are
    /// internally consistent.
    pub fn service(&self) -> &PeeringService<'w> {
        &self.service
    }

    /// The snapshot every experiment reads (epoch 0 of the session).
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The pipeline output behind the session snapshot.
    pub fn result(&self) -> &PipelineResult {
        self.snapshot.result()
    }

    /// The assembled observable inputs, read through the service's
    /// write side. Holds the writer lock until dropped.
    pub fn input(&self) -> InputGuard<'_, 'w> {
        self.service.input()
    }

    /// Ground-truth remoteness of a peering-LAN interface (experiments
    /// only — used to label control-set figures the way operator lists
    /// labelled the paper's).
    pub fn truth_remote(&self, addr: std::net::Ipv4Addr) -> Option<bool> {
        let ifc = self.world.iface_by_addr(addr)?;
        let mid = self.world.membership_of_iface(ifc)?;
        Some(self.world.memberships[mid.index()].truth.is_remote())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opeer_core::pipeline::run_pipeline;
    use opeer_topology::WorldConfig;

    #[test]
    fn session_builds_once_and_is_complete() {
        let w = WorldConfig::small(131).generate();
        let s = Session::new(&w, 3);
        assert!(!s.result().inferences.is_empty());
        assert!(!s.baseline.is_empty());
        assert!(!s.control.observations.is_empty());
        let addr = s.result().inferences[0].addr;
        assert!(s.truth_remote(addr).is_some());
        assert_eq!(s.snapshot().epoch(), 0);
    }

    #[test]
    fn session_reads_equal_the_one_shot_pipeline() {
        // The service migration must not change what experiments see:
        // the snapshot result is byte-identical to a sequential
        // one-shot over the same assembly.
        let w = WorldConfig::small(131).generate();
        let s = Session::new(&w, 3);
        let reference = {
            let input = s.input();
            assert!(input.content_eq(&InferenceInput::assemble(&w, 3)));
            run_pipeline(&input, &PipelineConfig::default())
        };
        assert_eq!(*s.result(), reference);
    }
}
