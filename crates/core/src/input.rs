//! Assembly of everything the pipeline consumes.
//!
//! [`InferenceInput`] owns the observable artifacts: the fused registry
//! dataset, the discovered vantage points, the §5.2 ping campaign, the
//! public traceroute corpus, and the `prefix2as` IP-to-AS map from a
//! simulated route collector. [`InferenceInput::assemble`] produces all
//! of them from a world in one call (the common case for experiments and
//! examples); the fields are public so tests can inject hand-crafted
//! pieces.
//!
//! The `world` reference is retained **only** as the measurement plane —
//! alias resolution must send IP-ID probes somewhere. The pipeline never
//! reads ground-truth fields from it.

use crate::engine::{map_indexed, shard_ranges, ParallelConfig};
use crate::intern::InternTables;
use opeer_bgp::Collector;
use opeer_measure::campaign::{run_campaign, CampaignConfig, CampaignResult};
use opeer_measure::latency::LatencyModel;
use opeer_measure::traceroute::{plan_corpus, CorpusConfig, Traceroute, TracerouteEngine};
use opeer_measure::vp::{discover_vps, VantagePoint};
use opeer_net::IpToAsMap;
use opeer_registry::{build_observed_world, ObservedWorld, RegistryConfig, Table1Stats};
use opeer_topology::{AsId, World};

/// Everything the inference pipeline reads.
pub struct InferenceInput<'w> {
    /// The measurement plane (IP-ID probing only; truth is off limits).
    pub world: &'w World,
    /// The fused registry dataset.
    pub observed: ObservedWorld,
    /// Table 1 accounting from the fusion.
    pub table1: Table1Stats,
    /// Discovered vantage points.
    pub vps: Vec<VantagePoint>,
    /// The §5.2 study ping campaign.
    pub campaign: CampaignResult,
    /// The public traceroute corpus.
    pub corpus: Vec<Traceroute>,
    /// Routeviews-style IP-to-AS mapping.
    pub ip2as: IpToAsMap,
    /// Dense-id tables over the observed member interfaces and ASNs,
    /// built once per observed world (derived from `observed`; rebuilt
    /// whenever a registry revision replaces it).
    pub interns: InternTables,
}

/// The default sub-configurations every assembly entry point derives
/// from one master seed. Shared by [`InferenceInput::assemble_parallel`]
/// and [`InferenceInput::assemble_base`], so the recipe cannot drift
/// between them.
pub fn default_configs(seed: u64) -> (RegistryConfig, CampaignConfig, CorpusConfig) {
    (
        RegistryConfig {
            seed,
            ..RegistryConfig::default()
        },
        CampaignConfig::study(seed),
        CorpusConfig {
            seed,
            ..CorpusConfig::default()
        },
    )
}

/// The AS whose route collector feeds `prefix2as`: the best-connected
/// transit AS.
fn collector_peer(world: &World) -> AsId {
    let peer = world
        .ases
        .iter()
        .position(|a| matches!(a.kind, opeer_topology::AsKind::TransitGlobal))
        .unwrap_or(0);
    AsId::from_index(peer)
}

impl<'w> InferenceInput<'w> {
    /// Builds the full input set from a world with default configurations
    /// derived from `seed`: [`InferenceInput::assemble_parallel`] at one
    /// thread, so every task runs in order on the calling thread.
    pub fn assemble(world: &'w World, seed: u64) -> Self {
        Self::assemble_parallel(world, seed, &ParallelConfig::new(1))
    }

    /// Assembles the measurement-free substrate: registry fusion, VP
    /// discovery, and the route-collector `prefix2as` build, with the
    /// campaign and corpus left **empty**. This is epoch 0 of the
    /// incremental pipeline ([`crate::incremental::IncrementalPipeline`]):
    /// measurement batches stream in afterwards as
    /// [`crate::incremental::InputDelta`]s. Absorbing every epoch batch
    /// of [`opeer_measure::campaign::campaign_batches`] /
    /// [`opeer_measure::traceroute::corpus_batches`] reproduces
    /// [`InferenceInput::assemble`] byte for byte.
    pub fn assemble_base(world: &'w World, seed: u64) -> Self {
        let (registry, _campaign_cfg, _corpus_cfg) = default_configs(seed);
        let (observed, table1) = build_observed_world(world, &registry);
        let vps = discover_vps(world, seed);
        let ip2as = Collector::build(world, collector_peer(world)).prefix2as();
        let interns = InternTables::from_observed(&observed);
        InferenceInput {
            world,
            observed,
            table1,
            vps,
            campaign: CampaignResult::default(),
            corpus: Vec::new(),
            ip2as,
            interns,
        }
    }

    /// Builds the full input set on the engine's worker pool with default
    /// configurations derived from `seed`: one heterogeneous task list,
    /// merged by task index (never by completion time), so the result is
    /// the same for any `par.threads ≥ 1`.
    ///
    /// Shard axes and merge order:
    ///
    /// * registry fusion and the route-collector `prefix2as` build are
    ///   single shard tasks (internally sequential, overlapped with the
    ///   measurement shards);
    /// * the ping campaign shards by **vantage-point chunk** — per-VP
    ///   probing is pure, and partials absorb in VP order;
    /// * the traceroute corpus shards by **destination range** of the
    ///   sorted [`CorpusPlan`][opeer_measure::traceroute::CorpusPlan] —
    ///   per-destination tracing is pure, and
    ///   partials concatenate in range order.
    pub fn assemble_parallel(world: &'w World, seed: u64, par: &ParallelConfig) -> Self {
        /// One task's output; the variant is determined by the task
        /// index, so the merge below can destructure unconditionally.
        enum Partial {
            Observed(Box<(ObservedWorld, Table1Stats)>),
            Ip2As(Box<IpToAsMap>),
            Campaign(CampaignResult),
            Corpus(Vec<Traceroute>),
        }

        let (registry, campaign_cfg, corpus_cfg) = default_configs(seed);
        let threads = par.threads.max(1);
        // VP discovery is trivially cheap and its output shapes the
        // campaign shard plan, so it stays on the calling thread.
        let vps = discover_vps(world, seed);
        let plan = plan_corpus(world, &corpus_cfg);
        // One shared engine for every corpus shard: the routing oracle
        // precomputes its indexes once and is `Sync`, so shards pay
        // zero per-shard setup.
        let engine = TracerouteEngine::new(world, LatencyModel::new(corpus_cfg.seed));
        // Over-shard the measurement axes so the big corpus shards
        // cannot serialise the tail.
        let campaign_shards = shard_ranges(vps.len(), threads * 4);
        let corpus_shards = shard_ranges(plan.len(), threads * 4);

        // Task layout, by index: the two coarse substrate builds first
        // (they are the longest indivisible tasks, so the dynamic
        // scheduler starts them before the fine-grained shards), then
        // campaign chunks, then corpus ranges.
        let campaign_base = 2;
        let corpus_base = campaign_base + campaign_shards.len();
        let n_tasks = corpus_base + corpus_shards.len();

        let partials = map_indexed(n_tasks, threads, |i| match i {
            0 => Partial::Observed(Box::new(build_observed_world(world, &registry))),
            1 => Partial::Ip2As(Box::new(
                Collector::build(world, collector_peer(world)).prefix2as(),
            )),
            i if i < corpus_base => {
                let range = campaign_shards[i - campaign_base].clone();
                Partial::Campaign(run_campaign(world, &vps[range], campaign_cfg))
            }
            i => Partial::Corpus(
                plan.trace_shard_on(&engine, corpus_shards[i - corpus_base].clone()),
            ),
        });

        // Merge in task-index order — the fixed order that makes the
        // result thread-count independent.
        let mut observed_out = None;
        let mut ip2as_out = None;
        let mut campaign = CampaignResult::default();
        let mut corpus: Vec<Traceroute> = Vec::new();
        for p in partials {
            match p {
                Partial::Observed(b) => observed_out = Some(*b),
                Partial::Ip2As(b) => ip2as_out = Some(*b),
                Partial::Campaign(part) => campaign.absorb(part),
                Partial::Corpus(part) => corpus.extend(part),
            }
        }
        let (observed, table1) = observed_out.expect("registry task ran");
        let ip2as = ip2as_out.expect("ip2as task ran");

        // Interning happens once, after the registry-fusion merge, on
        // the calling thread — id assignment can never depend on shard
        // scheduling or thread count.
        let interns = InternTables::from_observed(&observed);
        InferenceInput {
            world,
            observed,
            table1,
            vps,
            campaign,
            corpus,
            ip2as,
            interns,
        }
    }

    /// Whether two inputs hold identical artifacts (the `world` is
    /// compared by reference — it is the measurement plane, not data).
    ///
    /// This is the byte-identity check behind the
    /// `assemble_parallel == assemble` contract: every field type
    /// compares structurally, including IEEE-exact RTTs.
    pub fn content_eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.world, other.world)
            && self.observed == other.observed
            && self.table1 == other.table1
            && self.vps == other.vps
            && self.campaign == other.campaign
            && self.corpus == other.corpus
            && self.ip2as == other.ip2as
            && self.interns == other.interns
    }

    /// The vantage point record for a VP id.
    pub fn vp(&self, id: opeer_measure::vp::VpId) -> Option<&VantagePoint> {
        self.vps.iter().find(|v| v.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opeer_topology::WorldConfig;

    #[test]
    fn parallel_assembly_matches_sequential() {
        let w = WorldConfig::small(91).generate();
        let sequential = InferenceInput::assemble(&w, 91);
        for threads in [1, 2, 5] {
            let parallel = InferenceInput::assemble_parallel(&w, 91, &ParallelConfig::new(threads));
            assert_eq!(parallel.observed, sequential.observed, "{threads} threads");
            assert_eq!(parallel.table1, sequential.table1, "{threads} threads");
            assert_eq!(parallel.vps, sequential.vps, "{threads} threads");
            assert_eq!(parallel.campaign, sequential.campaign, "{threads} threads");
            assert_eq!(parallel.corpus, sequential.corpus, "{threads} threads");
            assert_eq!(parallel.ip2as, sequential.ip2as, "{threads} threads");
            assert!(parallel.content_eq(&sequential));
        }
    }

    #[test]
    fn content_eq_detects_differences() {
        let w = WorldConfig::small(91).generate();
        let a = InferenceInput::assemble(&w, 91);
        let mut b = InferenceInput::assemble(&w, 91);
        assert!(a.content_eq(&b));
        b.campaign.observations.swap(0, 1);
        assert!(
            !a.content_eq(&b),
            "reordered campaign must not compare equal"
        );
    }

    #[test]
    fn assemble_produces_consistent_input() {
        let w = WorldConfig::small(73).generate();
        let input = InferenceInput::assemble(&w, 2);
        assert!(!input.observed.ixps.is_empty());
        assert!(!input.vps.is_empty());
        assert!(!input.campaign.observations.is_empty());
        assert!(!input.corpus.is_empty());
        assert!(input.ip2as.num_prefixes() > 100);
        // Campaign observations resolve through the observed world.
        let mut resolved = 0;
        for o in input.campaign.observations.iter().take(200) {
            if input.observed.member_of_addr(o.target).is_some() {
                resolved += 1;
            }
        }
        assert!(resolved > 50, "campaign targets unresolvable: {resolved}");
    }
}
