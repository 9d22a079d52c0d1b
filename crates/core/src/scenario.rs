//! Scenario-as-delta: run a what-if world through the incremental
//! pipeline as a single [`InputDelta`] against its baseline.
//!
//! The [`opeer_topology::scenario::Scenario`] transforms preserve the
//! measurement plane (interfaces, addresses, router IP-ID behaviour,
//! VP anchors), so a scenario world differs from its baseline only in
//! ground truth and registry-visible metadata. That makes the cheap
//! path sound: assemble a *measurement-free* base input on the baseline
//! world, then apply one delta carrying the scenario world's registry
//! snapshot plus its re-measured campaign and corpus. The registry
//! revision replaces the fused dataset and triggers a full re-run over
//! the scenario's data — byte-identical to a one-shot
//! [`run_pipeline`](crate::pipeline::run_pipeline) on the scenario
//! world (the fleet's identity gate, and
//! `scenario_epoch_matches_one_shot` below, pin this).
//!
//! [`score_shift`] then compresses baseline → scenario into the fleet's
//! per-cell scenario metrics: remote-share delta, verdict churn and the
//! set of member ASNs whose picture changed.

use crate::engine::ParallelConfig;
use crate::incremental::{IncrementalPipeline, InputDelta};
use crate::input::{default_configs, InferenceInput};
use crate::pipeline::{PipelineConfig, PipelineResult};
use crate::types::Verdict;
use opeer_measure::campaign::run_campaign;
use opeer_measure::traceroute::build_corpus;
use opeer_measure::vp::discover_vps;
use opeer_net::Asn;
use opeer_registry::build_observed_world;
use opeer_topology::World;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Builds the one delta that turns a baseline's measurement-free input
/// into the scenario world's full input: registry revision + campaign +
/// corpus, all measured on `scenario_world` under the shared
/// [`default_configs`] recipe for `seed`.
pub fn scenario_delta(scenario_world: &World, seed: u64) -> InputDelta {
    let (registry_cfg, campaign_cfg, corpus_cfg) = default_configs(seed);
    let (observed, table1) = build_observed_world(scenario_world, &registry_cfg);
    let vps = discover_vps(scenario_world, seed);
    let campaign = run_campaign(scenario_world, &vps, campaign_cfg);
    let corpus = build_corpus(scenario_world, corpus_cfg);
    InputDelta::registry(observed, table1)
        .with_campaign(campaign)
        .with_corpus(corpus)
}

/// Runs a scenario world through the incremental pipeline as one epoch
/// over its baseline, returning the pipeline: its
/// [`result`](IncrementalPipeline::result) is the scenario's, and its
/// [`input`](IncrementalPipeline::input) holds the scenario's fused
/// registry.
///
/// `base_world` anchors the retained input (alias resolution and VP
/// discovery read it); the scenario transforms guarantee the two worlds
/// agree on everything those reads touch, so the result is
/// byte-identical to `run_pipeline(&InferenceInput::assemble(scenario_world, seed), cfg)`.
pub fn run_scenario_epoch<'w>(
    base_world: &'w World,
    scenario_world: &World,
    seed: u64,
    cfg: &PipelineConfig,
    par: &ParallelConfig,
) -> IncrementalPipeline<'w> {
    let base = InferenceInput::assemble_base(base_world, seed);
    let mut pipe = IncrementalPipeline::new(base, cfg, par);
    pipe.apply(scenario_delta(scenario_world, seed));
    pipe
}

/// Canonical verdict index of a result: `(observed IXP index, address)`
/// → `(ASN, verdict)`.
pub fn verdict_map(result: &PipelineResult) -> BTreeMap<(usize, Ipv4Addr), (Asn, Verdict)> {
    result
        .inferences
        .iter()
        .map(|inf| ((inf.ixp, inf.addr), (inf.asn, inf.verdict)))
        .collect()
}

/// How the remote-peering picture moved between a baseline cell and its
/// scenario cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(crate = "serde")]
pub struct ScenarioShift {
    /// Scenario remote share minus baseline remote share.
    pub remote_share_delta: f64,
    /// Classified interfaces whose verdict flipped Local → Remote.
    pub local_to_remote: usize,
    /// Classified interfaces whose verdict flipped Remote → Local.
    pub remote_to_local: usize,
    /// Interfaces classified only in the scenario run.
    pub appeared: usize,
    /// Interfaces classified only in the baseline run.
    pub disappeared: usize,
    /// Member ASNs touched by any flip, appearance or disappearance.
    pub affected_asns: usize,
}

/// Scores a scenario result against its baseline cell.
pub fn score_shift(base: &PipelineResult, scenario: &PipelineResult) -> ScenarioShift {
    let base_map = verdict_map(base);
    let scen_map = verdict_map(scenario);
    let mut local_to_remote = 0usize;
    let mut remote_to_local = 0usize;
    let mut appeared = 0usize;
    let mut disappeared = 0usize;
    let mut affected: BTreeSet<Asn> = BTreeSet::new();

    for (key, &(asn, sv)) in &scen_map {
        match base_map.get(key) {
            Some(&(_, bv)) => match (bv, sv) {
                (Verdict::Local, Verdict::Remote) => {
                    local_to_remote += 1;
                    affected.insert(asn);
                }
                (Verdict::Remote, Verdict::Local) => {
                    remote_to_local += 1;
                    affected.insert(asn);
                }
                _ => {}
            },
            None => {
                appeared += 1;
                affected.insert(asn);
            }
        }
    }
    for (key, &(asn, _)) in &base_map {
        if !scen_map.contains_key(key) {
            disappeared += 1;
            affected.insert(asn);
        }
    }

    ScenarioShift {
        remote_share_delta: scenario.remote_share() - base.remote_share(),
        local_to_remote,
        remote_to_local,
        appeared,
        disappeared,
        affected_asns: affected.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_pipeline;
    use opeer_topology::{Scenario, WorldConfig};

    fn tiny() -> World {
        let mut cfg = WorldConfig::small(5);
        cfg.scale = 0.02;
        cfg.n_small_ixps = 6;
        cfg.n_background_ases = 50;
        cfg.n_switchers = 2;
        cfg.generate()
    }

    #[test]
    fn scenario_epoch_matches_one_shot() {
        let base = tiny();
        let name = base.ixps.iter().find(|x| x.studied).unwrap().name.clone();
        let sworld = Scenario::IxpOutage { ixp: name }.apply(&base);
        let cfg = PipelineConfig::default();
        let par = ParallelConfig::new(2);

        let via_delta = run_scenario_epoch(&base, &sworld, 5, &cfg, &par);
        let one_shot = run_pipeline(&InferenceInput::assemble(&sworld, 5), &cfg);
        assert_eq!(
            *via_delta.result(),
            one_shot,
            "delta path must equal one-shot"
        );
    }

    #[test]
    fn outage_shift_is_visible_and_scored() {
        let base_world = tiny();
        let name = base_world
            .ixps
            .iter()
            .find(|x| x.studied)
            .unwrap()
            .name
            .clone();
        let cfg = PipelineConfig::default();
        let base = run_pipeline(&InferenceInput::assemble(&base_world, 5), &cfg);
        let sworld = Scenario::IxpOutage { ixp: name }.apply(&base_world);
        let scen = run_pipeline(&InferenceInput::assemble(&sworld, 5), &cfg);
        let shift = score_shift(&base, &scen);
        assert!(
            shift.disappeared > 0,
            "outage must remove classified interfaces"
        );
        assert!(shift.affected_asns > 0);
        // Identity: scoring a run against itself is all-zero.
        let zero = score_shift(&base, &base);
        assert_eq!(
            zero,
            ScenarioShift {
                remote_share_delta: 0.0,
                local_to_remote: 0,
                remote_to_local: 0,
                appeared: 0,
                disappeared: 0,
                affected_asns: 0
            }
        );
    }
}
