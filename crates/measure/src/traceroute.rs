//! The traceroute engine and the public-corpus builder.
//!
//! Traceroutes run over [`opeer_topology::RoutingOracle`] paths; each hop
//! answers with its ingress interface (IXP-LAN addresses surface exactly
//! where `opeer-traix` expects them), per-hop RTTs accumulate link delays
//! from the latency model, and a small per-hop loss produces the `*`
//! entries every real traceroute has.
//!
//! [`build_corpus`] stands in for the paper's 3.15 billion public Atlas
//! traceroutes (§3.1): a deterministic sample of member-to-member paths
//! plus background noise, scaled by configuration instead of by the
//! archive's bulk — the downstream heuristics only consume path
//! *structure*, so corpus size is a fidelity knob, not a semantic one.

use crate::latency::LatencyModel;
use opeer_topology::routing::stable_hash;
use opeer_topology::{AsId, RouteTable, RoutingOracle, World};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// One responding hop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSample {
    /// Responding address.
    pub addr: Ipv4Addr,
    /// RTT from the source to this hop, ms.
    pub rtt_ms: f64,
}

/// A traceroute: source address, destination, and per-TTL results
/// (`None` = no answer at that TTL).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Traceroute {
    /// Source address (the probing host).
    pub src: Ipv4Addr,
    /// Probed destination address.
    pub dst: Ipv4Addr,
    /// Hop results in TTL order.
    pub hops: Vec<Option<TraceSample>>,
}

impl Traceroute {
    /// Responding hops only, in order.
    pub fn responding(&self) -> impl Iterator<Item = &TraceSample> {
        self.hops.iter().flatten()
    }

    /// Whether the destination answered (last responding hop == dst).
    pub fn reached(&self) -> bool {
        self.responding().last().map(|h| h.addr) == Some(self.dst)
    }
}

/// Traceroute engine bound to a world.
pub struct TracerouteEngine<'w> {
    world: &'w World,
    oracle: RoutingOracle<'w>,
    model: LatencyModel,
}

impl<'w> TracerouteEngine<'w> {
    /// Creates the engine with its own routing oracle.
    pub fn new(world: &'w World, model: LatencyModel) -> Self {
        TracerouteEngine {
            world,
            oracle: RoutingOracle::new(world),
            model,
        }
    }

    /// The underlying oracle (for dst-major batching).
    pub fn oracle(&self) -> &RoutingOracle<'w> {
        &self.oracle
    }

    /// Runs a traceroute using a pre-computed destination route table.
    pub fn trace(&self, table: &RouteTable, src: AsId, dst_addr: Ipv4Addr) -> Option<Traceroute> {
        let hops = self.oracle.trace_hops(table, src, dst_addr)?;
        let src_addr = hops.first()?.addr;
        let mut out = Vec::with_capacity(hops.len());
        let mut cum_ms = 0.0f64;
        let mut prev_loc = hops.first()?.location;
        for (ttl, h) in hops.iter().enumerate() {
            if ttl > 0 {
                let key = [
                    stable_hash(&[u64::from(u32::from(h.addr)), u64::from(u32::from(src_addr))]),
                    0x7A,
                ];
                // Links that ride an interconnect physically detour via
                // its facility: a Warsaw member remote-peering in
                // Amsterdam is two Warsaw–Amsterdam legs away from a
                // Warsaw neighbor, not three kilometres.
                let via: Option<opeer_geo::GeoPoint> = match h.entered_via {
                    Some(opeer_topology::routing::EdgeKind::Ixp(i)) => Some(
                        self.world
                            .facility_point(self.world.ixps[i.index()].anchor_facility),
                    ),
                    Some(opeer_topology::routing::EdgeKind::Private(l)) => Some(
                        self.world
                            .facility_point(self.world.private_links[l].facility),
                    ),
                    _ => None,
                };
                cum_ms += match via {
                    Some(mid) => {
                        self.model.base_rtt_ms(prev_loc, mid, &key)
                            + self.model.base_rtt_ms(mid, h.location, &[key[0], 0x7B])
                    }
                    None => self.model.base_rtt_ms(prev_loc, h.location, &key),
                };
                prev_loc = h.location;
            }
            // Per-hop response: ICMP time-exceeded is rate-limited and
            // sometimes filtered.
            let lost = stable_hash(&[
                self.model.seed,
                u64::from(u32::from(h.addr)),
                u64::from(u32::from(dst_addr)),
                ttl as u64,
            ]) % 100
                < 3
                && h.addr != dst_addr;
            if lost {
                out.push(None);
            } else {
                let jitter = self
                    .model
                    .sample_rtt_ms(cum_ms, &[u64::from(u32::from(h.addr))], ttl as u64)
                    .unwrap_or(cum_ms);
                out.push(Some(TraceSample {
                    addr: h.addr,
                    rtt_ms: jitter,
                }));
            }
        }
        Some(Traceroute {
            src: src_addr,
            dst: dst_addr,
            hops: out,
        })
    }

    /// Runs a traceroute, resolving the destination AS itself and
    /// routing only from `src` (one-off convenience; corpus building
    /// batches by destination instead).
    pub fn trace_fresh(&self, src: AsId, dst_addr: Ipv4Addr) -> Option<Traceroute> {
        let dst_as = match self.world.iface_by_addr(dst_addr) {
            Some(ifc) => {
                let r = self.world.interfaces[ifc.index()].router;
                self.world.routers[r.index()].owner
            }
            None => self.world.origin_of_addr(dst_addr)?,
        };
        let mut table = RouteTable::new(&self.oracle);
        self.oracle.routes_for(dst_as, [src], &mut table);
        self.trace(&table, src, dst_addr)
    }
}

/// Corpus configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Seed for source selection and loss.
    pub seed: u64,
    /// Probability that each active membership gets dedicated coverage
    /// (a traceroute from a co-member towards the member's network).
    pub per_membership_prob: f64,
    /// Sources tried per covered membership.
    pub sources_per_membership: usize,
    /// Extra fully random member-to-member traceroutes.
    pub n_random: usize,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 0xACE,
            per_membership_prob: 0.9,
            sources_per_membership: 2,
            n_random: 2000,
        }
    }
}

/// A probe target deep inside an AS's first prefix: a high host index
/// never allocated to infrastructure interfaces, standing in for the
/// end hosts real traceroute campaigns target. Probing the border
/// router's own address would legitimately *hide* the peering-LAN hop
/// (the destination reply replaces the ingress time-exceeded), which is
/// exactly what must not happen to the crossing-detection corpus.
pub fn deep_host(world: &World, asid: AsId, salt: u64) -> Ipv4Addr {
    let prefix = world.ases[asid.index()]
        .prefixes
        .first()
        .expect("every AS originates a prefix");
    let span = prefix.num_addresses();
    let idx = span / 2 + (stable_hash(&[salt, u64::from(asid.0)]) % (span / 4).max(1));
    prefix.addr_at(idx).expect("index below span")
}

/// The deterministic probe schedule behind [`build_corpus`]: every
/// planned `(source AS, destination address)` pair, grouped by
/// destination AS so one route table serves all traceroutes towards it.
///
/// Destinations are sorted, which makes a contiguous destination range
/// an independent unit of work: [`CorpusPlan::trace_shard_on`] over
/// consecutive ranges, concatenated in range order, is byte-identical
/// to tracing the whole plan sequentially.
#[derive(Debug, Clone)]
pub struct CorpusPlan {
    /// Destination ASes in ascending order (the shard axis).
    dsts: Vec<AsId>,
    /// Per-destination `(source, target address)` pairs, in planning
    /// order.
    plans: std::collections::HashMap<AsId, Vec<(AsId, Ipv4Addr)>>,
}

impl CorpusPlan {
    /// Number of destination ASes (the shardable length).
    pub fn len(&self) -> usize {
        self.dsts.len()
    }

    /// Whether the plan schedules no traceroutes at all.
    pub fn is_empty(&self) -> bool {
        self.dsts.is_empty()
    }

    /// The `i`-th destination AS in sorted order, with its planned
    /// `(source, target address)` pairs.
    pub fn destination(&self, i: usize) -> (AsId, &[(AsId, Ipv4Addr)]) {
        let dst = self.dsts[i];
        (dst, &self.plans[&dst])
    }

    /// Traces the destinations in `range` (indices into the sorted
    /// destination list) with a fresh engine.
    ///
    /// Pure per shard: the engine holds only immutable derived indexes,
    /// and the latency model keys every draw by `(hop, target, ttl)`,
    /// so a shard's output is independent of what other shards (or a
    /// previous whole-plan pass) computed. Parallel callers should
    /// prefer [`CorpusPlan::trace_shard_on`] with one shared engine —
    /// it skips the per-shard index build.
    pub fn trace_shard(
        &self,
        world: &World,
        cfg: &CorpusConfig,
        range: std::ops::Range<usize>,
    ) -> Vec<Traceroute> {
        let engine = TracerouteEngine::new(world, LatencyModel::new(cfg.seed));
        self.trace_shard_on(&engine, range)
    }

    /// Traces the destinations in `range` on an existing engine. The
    /// engine is `Sync` (its routing oracle precomputes all indexes and
    /// holds no interior mutability), so worker threads share one
    /// instance; each shard owns one route table, refilled per
    /// destination for that destination's sources only. The engine must
    /// have been built with the plan's corpus seed for the output to
    /// match [`build_corpus`].
    pub fn trace_shard_on(
        &self,
        engine: &TracerouteEngine<'_>,
        range: std::ops::Range<usize>,
    ) -> Vec<Traceroute> {
        let mut out = Vec::new();
        let mut table = RouteTable::new(engine.oracle());
        for i in range {
            let (dst, pairs) = self.destination(i);
            let sources = pairs.iter().map(|&(src, _)| src);
            engine.oracle().routes_for(dst, sources, &mut table);
            for &(src, dst_addr) in pairs {
                if let Some(tr) = engine.trace(&table, src, dst_addr) {
                    out.push(tr);
                }
            }
        }
        out
    }
}

/// Plans the public corpus: for (most) memberships, paths from
/// co-members of the same IXP towards the member's originated space —
/// these are the paths that cross IXP LANs — plus random background
/// traffic that also exercises transit and private links.
///
/// Planning is cheap (hashing over memberships); the expensive part —
/// route tables and hop-by-hop tracing — happens in
/// [`CorpusPlan::trace_shard_on`].
pub fn plan_corpus(world: &World, cfg: &CorpusConfig) -> CorpusPlan {
    let month = world.observation_month;

    // Plan (src, dst_as, dst_addr) grouped by dst_as for table reuse.
    use std::collections::HashMap;
    let mut plans: HashMap<AsId, Vec<(AsId, Ipv4Addr)>> = HashMap::new();

    for (mi, m) in world.memberships.iter().enumerate() {
        if !m.active_at(month) {
            continue;
        }
        let h = stable_hash(&[cfg.seed, mi as u64, 1]);
        if (h % 1000) as f64 >= cfg.per_membership_prob * 1000.0 {
            continue;
        }
        let peers = world.memberships_of_ixp(m.ixp);
        if peers.len() < 2 {
            continue;
        }
        let dst_addr = deep_host(world, m.member, cfg.seed);
        for k in 0..cfg.sources_per_membership {
            let pick =
                peers[(stable_hash(&[cfg.seed, mi as u64, 2, k as u64]) as usize) % peers.len()];
            let other = world.memberships[pick.index()].member;
            if other == m.member || !world.memberships[pick.index()].active_at(month) {
                continue;
            }
            if k % 2 == 0 {
                // Inbound: a co-member probes towards the covered member —
                // its LAN interface shows up as an IXP crossing.
                plans.entry(m.member).or_default().push((other, dst_addr));
            } else {
                // Outbound: the member probes a co-member — the member's
                // border interface precedes the IXP address, the raw
                // material of step 4's `{IPx, IPixp}` pairs.
                let other_addr = deep_host(world, other, cfg.seed);
                plans.entry(other).or_default().push((m.member, other_addr));
            }
        }
    }

    // Random background pairs.
    let actives: Vec<usize> = world
        .memberships
        .iter()
        .enumerate()
        .filter(|(_, m)| m.active_at(month))
        .map(|(i, _)| i)
        .collect();
    if actives.len() >= 2 {
        for k in 0..cfg.n_random {
            let a = actives[(stable_hash(&[cfg.seed, k as u64, 3]) as usize) % actives.len()];
            let b = actives[(stable_hash(&[cfg.seed, k as u64, 4]) as usize) % actives.len()];
            let (src, dst) = (world.memberships[a].member, world.memberships[b].member);
            if src == dst {
                continue;
            }
            let dst_addr = deep_host(world, dst, cfg.seed);
            plans.entry(dst).or_default().push((src, dst_addr));
        }
    }

    let mut dsts: Vec<AsId> = plans.keys().copied().collect();
    dsts.sort();
    CorpusPlan { dsts, plans }
}

/// Builds the public traceroute corpus: [`plan_corpus`] followed by a
/// full sequential trace of the plan (one engine, destinations in
/// sorted order). [`CorpusPlan::trace_shard_on`] over a partition of
/// the destination range produces the same corpus — that is the
/// parallel assembly path.
pub fn build_corpus(world: &World, cfg: CorpusConfig) -> Vec<Traceroute> {
    let plan = plan_corpus(world, &cfg);
    let engine = TracerouteEngine::new(world, LatencyModel::new(cfg.seed));
    plan.trace_shard_on(&engine, 0..plan.len())
}

/// Builds the corpus in at most `epochs` consecutive destination-range
/// batches on one shared engine — the epoch emitter of the streaming
/// ingestion path. Concatenating the batches **in order** reproduces
/// [`build_corpus`] byte for byte (the same contract
/// [`CorpusPlan::trace_shard_on`] gives the parallel assembly), so
/// feeding them to the incremental pipeline one epoch at a time is
/// equivalent to the one-shot corpus.
pub fn corpus_batches(world: &World, cfg: CorpusConfig, epochs: usize) -> Vec<Vec<Traceroute>> {
    let plan = plan_corpus(world, &cfg);
    let engine = TracerouteEngine::new(world, LatencyModel::new(cfg.seed));
    crate::batch_ranges(plan.len(), epochs)
        .into_iter()
        .map(|r| plan.trace_shard_on(&engine, r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use opeer_topology::WorldConfig;

    fn world() -> World {
        WorldConfig::small(23).generate()
    }

    #[test]
    fn trace_reaches_destination() {
        let w = world();
        let engine = TracerouteEngine::new(&w, LatencyModel::new(1));
        let m = &w.memberships[0];
        let src = w.memberships[5].member;
        let dst_addr = w.interfaces[m.iface.index()].addr;
        if let Some(tr) = engine.trace_fresh(src, dst_addr) {
            assert!(tr.reached(), "hops: {:?}", tr.hops);
            // RTTs are monotone along responding hops (cumulative path).
            let rtts: Vec<f64> = tr.responding().map(|h| h.rtt_ms).collect();
            for w2 in rtts.windows(2) {
                assert!(w2[1] + 45.0 >= w2[0], "wildly non-monotone RTTs: {rtts:?}");
            }
        }
    }

    #[test]
    fn corpus_crosses_ixp_lans() {
        let w = world();
        let corpus = build_corpus(
            &w,
            CorpusConfig {
                n_random: 100,
                ..Default::default()
            },
        );
        assert!(!corpus.is_empty());
        let mut lan_hops = 0usize;
        for tr in &corpus {
            for h in tr.responding() {
                if w.ixp_of_lan_addr(h.addr).is_some() {
                    lan_hops += 1;
                }
            }
        }
        assert!(lan_hops > 20, "corpus crossed only {lan_hops} LAN hops");
    }

    #[test]
    fn corpus_has_missing_hops() {
        let w = world();
        let corpus = build_corpus(&w, CorpusConfig::default());
        let stars: usize = corpus
            .iter()
            .map(|t| t.hops.iter().filter(|h| h.is_none()).count())
            .sum();
        let total: usize = corpus.iter().map(|t| t.hops.len()).sum();
        let rate = stars as f64 / total.max(1) as f64;
        assert!(rate > 0.0 && rate < 0.10, "star rate {rate}");
    }

    #[test]
    fn epoch_batches_concatenate_to_one_shot_corpus() {
        let w = world();
        let cfg = CorpusConfig {
            n_random: 150,
            ..CorpusConfig::default()
        };
        let sequential = build_corpus(&w, cfg);
        for epochs in [1, 2, 5] {
            let batches = corpus_batches(&w, cfg, epochs);
            assert!(batches.len() <= epochs);
            let merged: Vec<Traceroute> = batches.into_iter().flatten().collect();
            assert_eq!(merged, sequential, "{epochs} epochs diverged");
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        let w = world();
        let a = build_corpus(&w, CorpusConfig::default());
        let b = build_corpus(&w, CorpusConfig::default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }

    /// `stable_hash` over every hop's address and RTT bits, with the
    /// trace boundaries and unanswered TTLs folded in.
    fn corpus_digest(corpus: &[Traceroute]) -> u64 {
        let mut words = Vec::new();
        for tr in corpus {
            words.push(u64::from(u32::from(tr.src)));
            words.push(u64::from(u32::from(tr.dst)));
            words.push(tr.hops.len() as u64);
            for hop in &tr.hops {
                match hop {
                    Some(s) => {
                        words.push(u64::from(u32::from(s.addr)));
                        words.push(s.rtt_ms.to_bits());
                    }
                    None => words.push(u64::MAX),
                }
            }
        }
        stable_hash(&words)
    }

    /// Pins the corpus bytes: any change to route tables, interconnect
    /// picks, hop expansion or the latency model moves these digests.
    #[test]
    fn corpus_digest_is_pinned() {
        for (seed, traces, digest) in [
            (7, 2971usize, 2132044197706669303u64),
            (42, 2975, 16706059221398838018),
        ] {
            let w = WorldConfig::small(seed).generate();
            let corpus = build_corpus(&w, CorpusConfig::default());
            assert_eq!(
                (corpus.len(), corpus_digest(&corpus)),
                (traces, digest),
                "corpus of small seed {seed} moved"
            );
        }
    }

    /// The campaign and corpus pins at scale, where every Atlas host kind
    /// and rounding looking glasses occur. Release only; CI runs it.
    #[test]
    #[ignore = "release-mode scale test; run with --ignored"]
    fn measurement_digest_is_pinned_at_scale() {
        use crate::campaign::tests::campaign_pin;
        use crate::campaign::{run_campaign, run_control_campaign, CampaignConfig};
        let seed = 1;
        let w = WorldConfig::large(seed).generate();
        let vps = crate::vp::discover_vps(&w, seed);
        let study = run_campaign(&w, &vps, CampaignConfig::study(seed));
        let control = run_control_campaign(&w, CampaignConfig::control(seed));
        let corpus = build_corpus(&w, CorpusConfig::default());
        let got = (
            campaign_pin(&study),
            campaign_pin(&control),
            (corpus.len(), corpus_digest(&corpus)),
        );
        assert_eq!(
            got,
            (
                (12672, 89, 16852866345341458966),
                (1147, 7, 8974253647074741626),
                (24620, 285154937227502405)
            ),
            "measurement plane of large seed {seed} moved"
        );
    }
}
