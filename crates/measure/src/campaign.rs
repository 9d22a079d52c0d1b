//! Measurement campaigns and their observation records.
//!
//! Two protocols from the paper:
//!
//! * **Study campaign** (§5.2 step 2): from every usable VP of an IXP,
//!   ping every member interface every 2 hours for 2 days (24 samples),
//!   apply the TTL-match and TTL-switch filters, keep `RTTmin`.
//! * **Control campaign** (§4.1): operator-internal access, every 20
//!   minutes for two days (144 samples), same filters.
//!
//! The campaign also reproduces the §6.1 probe hygiene: Atlas probes that
//! never answer are dropped, and Atlas probes with `RTTmin ≥ 1 ms` to
//! their route server are discarded as management-LAN impostors.

use crate::latency::LatencyModel;
use crate::ping::PingEngine;
use crate::vp::{operator_vp, VantagePoint, VpId};
use opeer_net::TtlFilter;
use opeer_topology::{IxpId, World};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Campaign parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Number of probe rounds per (VP, target) pair.
    pub samples: u64,
    /// Seed for the latency model.
    pub seed: u64,
    /// Atlas probes with route-server RTTmin at or above this are dropped
    /// (ms). The paper uses 1 ms.
    pub rs_filter_ms: f64,
}

impl CampaignConfig {
    /// §5.2 protocol: 24 samples (every 2 h for 2 days).
    pub fn study(seed: u64) -> Self {
        CampaignConfig {
            samples: 24,
            seed,
            rs_filter_ms: 1.0,
        }
    }

    /// §4.1 control protocol: 144 samples (every 20 min for 2 days).
    pub fn control(seed: u64) -> Self {
        CampaignConfig {
            samples: 144,
            seed,
            rs_filter_ms: 1.0,
        }
    }
}

/// The minimum-RTT observation for one (VP, interface) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PingObservation {
    /// The vantage point.
    pub vp: VpId,
    /// The IXP whose member LAN the target belongs to.
    pub ixp: IxpId,
    /// Target interface address on the peering LAN.
    pub target: Ipv4Addr,
    /// Minimum RTT over all TTL-accepted samples, ms (as reported by the
    /// VP — integer for rounding LGs).
    pub min_rtt_ms: f64,
    /// Whether the reporting VP rounds RTTs up to integer ms (the
    /// inference must widen the annulus inward for these, §6.1).
    pub vp_rounds_up: bool,
    /// Number of samples that answered and passed the TTL-match filter.
    pub accepted: usize,
    /// Total probes sent.
    pub sent: usize,
}

/// Per-VP campaign statistics (Fig. 9a, Table 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VpStats {
    /// The VP.
    pub vp: VpId,
    /// Its IXP.
    pub ixp: IxpId,
    /// Whether it is an Atlas probe.
    pub atlas: bool,
    /// Interfaces probed.
    pub targets: usize,
    /// Interfaces with at least one accepted reply.
    pub responsive: usize,
    /// Whether the VP was discarded entirely (dead, or failed the
    /// route-server filter).
    pub discarded: bool,
    /// RTTmin to the route server, if measured.
    pub rs_rtt_ms: Option<f64>,
}

/// Full result of a campaign.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// One record per (usable VP, responsive target) with a consistent
    /// TTL series.
    pub observations: Vec<PingObservation>,
    /// Per-VP statistics including discarded VPs.
    pub vp_stats: Vec<VpStats>,
}

impl CampaignResult {
    /// Appends another campaign partial **in shard order**.
    ///
    /// [`run_campaign`] is the in-order concatenation of independent
    /// per-VP units (see [`probe_vp`]), so absorbing per-chunk partials
    /// built over consecutive VP ranges reproduces the sequential
    /// campaign byte for byte. Callers must absorb partials in ascending
    /// range order — the order, not the thread schedule, decides the
    /// result.
    pub fn absorb(&mut self, other: CampaignResult) {
        self.observations.extend(other.observations);
        self.vp_stats.extend(other.vp_stats);
    }

    /// The best (lowest) RTTmin per target address across VPs of its IXP,
    /// preferring non-rounding VPs on ties. This is what Step 3 consumes.
    pub fn best_per_target(&self) -> Vec<&PingObservation> {
        use std::collections::HashMap;
        let mut best: HashMap<Ipv4Addr, &PingObservation> = HashMap::new();
        for o in &self.observations {
            best.entry(o.target)
                .and_modify(|cur| {
                    let better = o.min_rtt_ms < cur.min_rtt_ms
                        || (o.min_rtt_ms == cur.min_rtt_ms && !o.vp_rounds_up && cur.vp_rounds_up);
                    if better {
                        *cur = o;
                    }
                })
                .or_insert(o);
        }
        let mut v: Vec<&PingObservation> = best.into_values().collect();
        v.sort_by_key(|o| o.target);
        v
    }
}

/// Probes everything one VP measures: the route-server hygiene check,
/// then every active member interface of the VP's IXP.
///
/// Per target (and once for the route server) the engine builds the
/// pair's fixed part once — interface lookup, drop checks, base RTT,
/// reply TTL — and then draws only each sample's loss, jitter and
/// off-subnet TTL, so every reply equals [`PingEngine::ping`]'s for the
/// same `(vp, target, sample)`.
///
/// This is the campaign's unit of parallelism — **pure** per VP. It
/// reads only the immutable world through the stateless [`PingEngine`]
/// (every RTT/TTL draw is keyed by `(vp, interface, sample)`, so the
/// per-VP RNG sub-stream is independent of which thread, shard, or call
/// order produced it) and returns this VP's observations and stats
/// without touching shared state.
pub fn probe_vp(
    engine: &PingEngine<'_>,
    world: &World,
    vp: &VantagePoint,
    cfg: CampaignConfig,
) -> (Vec<PingObservation>, VpStats) {
    // Route-server hygiene for Atlas probes.
    let mut rs_min: Option<f64> = None;
    if let Some(pair) = engine.route_server_pair(vp) {
        for i in 0..cfg.samples {
            if let Some(r) = engine.sample(&pair, i) {
                rs_min = Some(rs_min.map_or(r.rtt_ms, |m: f64| m.min(r.rtt_ms)));
            }
        }
    }
    let discarded_rs = vp.is_atlas() && rs_min.is_none_or(|m| m >= cfg.rs_filter_ms);
    let mut stats = VpStats {
        vp: vp.id,
        ixp: vp.ixp,
        atlas: vp.is_atlas(),
        targets: 0,
        responsive: 0,
        discarded: discarded_rs,
        rs_rtt_ms: rs_min,
    };
    let mut observations = Vec::new();
    if discarded_rs {
        return (observations, stats);
    }

    let month = world.observation_month;
    for &mid in world.memberships_of_ixp(vp.ixp) {
        let m = &world.memberships[mid.index()];
        if !m.active_at(month) {
            continue;
        }
        let target = world.interfaces[m.iface.index()].addr;
        stats.targets += 1;
        let mut filter = TtlFilter::new(vp.ttl_max_hops());
        let mut min_rtt = f64::INFINITY;
        // Every probe counts as sent, answered or not.
        let sent = cfg.samples as usize;
        if let Some(pair) = engine.pair(vp, target) {
            for i in 0..cfg.samples {
                if let Some(reply) = engine.sample(&pair, i) {
                    if filter.accept(reply.ttl) {
                        min_rtt = min_rtt.min(reply.rtt_ms);
                    }
                }
            }
        }
        // TTL-switch rule: a series answered by different devices is
        // discarded wholesale.
        if filter.accepted() > 0 && filter.is_consistent() {
            stats.responsive += 1;
            observations.push(PingObservation {
                vp: vp.id,
                ixp: vp.ixp,
                target,
                min_rtt_ms: min_rtt,
                vp_rounds_up: vp.rounds_up(),
                accepted: filter.accepted(),
                sent,
            });
        }
    }
    (observations, stats)
}

/// Runs a campaign from the given VPs against the member interfaces of
/// their own IXPs.
///
/// The result is the in-order concatenation of [`probe_vp`] outputs, so
/// any consecutive partition of `vps` — `run_campaign(&vps[a..b])` per
/// chunk, merged with [`CampaignResult::absorb`] in range order —
/// reproduces this exact byte sequence. The parallel assembly in
/// `opeer-core` relies on that contract.
pub fn run_campaign(world: &World, vps: &[VantagePoint], cfg: CampaignConfig) -> CampaignResult {
    let engine = PingEngine::new(world, LatencyModel::new(cfg.seed));
    let mut result = CampaignResult::default();
    for vp in vps {
        let (observations, stats) = probe_vp(&engine, world, vp, cfg);
        result.observations.extend(observations);
        result.vp_stats.push(stats);
    }
    result
}

/// Runs the campaign in at most `epochs` consecutive vantage-point
/// batches — the epoch emitter of the streaming ingestion path. Each
/// batch is `run_campaign` over one VP slice, so absorbing the batches
/// **in order** with [`CampaignResult::absorb`] reproduces
/// `run_campaign(world, vps, cfg)` byte for byte; feeding them to the
/// incremental pipeline one epoch at a time is therefore equivalent to
/// the one-shot campaign.
pub fn campaign_batches(
    world: &World,
    vps: &[VantagePoint],
    cfg: CampaignConfig,
    epochs: usize,
) -> Vec<CampaignResult> {
    crate::batch_ranges(vps.len(), epochs)
        .into_iter()
        .map(|r| run_campaign(world, &vps[r], cfg))
        .collect()
}

/// Runs the §4.1 control-subset campaign: operator-internal VPs at every
/// control-validation IXP.
pub fn run_control_campaign(world: &World, cfg: CampaignConfig) -> CampaignResult {
    let control: Vec<IxpId> = world
        .ixps
        .iter()
        .enumerate()
        .filter(|(_, x)| x.validation == opeer_topology::ValidationRole::Control)
        .map(|(i, _)| IxpId::from_index(i))
        .collect();
    let vps: Vec<VantagePoint> = control
        .iter()
        .enumerate()
        .map(|(k, &ixp)| operator_vp(world, ixp, 1_000_000 + k as u32))
        .collect();
    run_campaign(world, &vps, cfg)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::vp::discover_vps;
    use opeer_topology::{AccessTruth, WorldConfig};

    fn world() -> World {
        WorldConfig::small(19).generate()
    }

    #[test]
    fn study_campaign_produces_observations() {
        let w = world();
        let vps = discover_vps(&w, 2);
        let res = run_campaign(&w, &vps, CampaignConfig::study(2));
        assert!(!res.observations.is_empty());
        for o in &res.observations {
            assert!(o.min_rtt_ms.is_finite());
            assert!(o.min_rtt_ms > 0.0);
            assert!(o.accepted <= o.sent);
        }
    }

    #[test]
    fn lg_response_rate_exceeds_atlas() {
        let w = world();
        let vps = discover_vps(&w, 2);
        let res = run_campaign(&w, &vps, CampaignConfig::study(2));
        let rate = |atlas: bool| -> Option<f64> {
            let (mut t, mut r) = (0usize, 0usize);
            for s in res
                .vp_stats
                .iter()
                .filter(|s| s.atlas == atlas && !s.discarded)
            {
                t += s.targets;
                r += s.responsive;
            }
            (t > 0).then(|| r as f64 / t as f64)
        };
        let lg = rate(false).expect("LG stats");
        assert!(lg > 0.85, "LG response rate {lg}");
        if let Some(atlas) = rate(true) {
            assert!(
                atlas < lg,
                "Atlas {atlas} should respond less than LGs {lg}"
            );
        }
    }

    #[test]
    fn mgmt_lan_probes_get_discarded() {
        let w = world();
        let vps = discover_vps(&w, 2);
        let res = run_campaign(&w, &vps, CampaignConfig::study(2));
        let mgmt: Vec<_> = vps
            .iter()
            .filter(|v| {
                matches!(
                    v.kind,
                    crate::vp::VpKind::Atlas {
                        host: crate::vp::AtlasHost::MgmtLan(_),
                        dead: false
                    }
                )
            })
            .collect();
        for vp in mgmt {
            let s = res
                .vp_stats
                .iter()
                .find(|s| s.vp == vp.id)
                .expect("stats recorded");
            assert!(s.discarded, "{} should fail the RS filter", vp.name);
        }
    }

    #[test]
    fn control_campaign_covers_control_ixps_only() {
        let w = world();
        let res = run_control_campaign(&w, CampaignConfig::control(2));
        assert!(!res.observations.is_empty());
        for o in &res.observations {
            assert_eq!(
                w.ixps[o.ixp.index()].validation,
                opeer_topology::ValidationRole::Control
            );
        }
    }

    #[test]
    fn control_rtts_separate_local_from_far_remote() {
        // Fig. 1b's shape: locals cluster < 1 ms, far remotes ≫ 10 ms.
        let w = world();
        let res = run_control_campaign(&w, CampaignConfig::control(2));
        let mut local_under_1ms = 0usize;
        let mut locals = 0usize;
        for o in &res.observations {
            let ifc = w.iface_by_addr(o.target).expect("campaign target exists");
            let mid = w.membership_of_iface(ifc).expect("LAN iface");
            let m = &w.memberships[mid.index()];
            if let AccessTruth::Local { .. } = m.truth {
                locals += 1;
                if o.min_rtt_ms < 1.0 {
                    local_under_1ms += 1;
                }
            }
        }
        assert!(locals > 10, "too few locals observed: {locals}");
        let frac = local_under_1ms as f64 / locals as f64;
        // Wide-area control IXPs may hold a few distant locals; the bulk
        // must still be sub-millisecond.
        assert!(frac > 0.75, "only {frac} of locals under 1 ms");
    }

    #[test]
    fn best_per_target_prefers_lower() {
        let w = world();
        let vps = discover_vps(&w, 2);
        let res = run_campaign(&w, &vps, CampaignConfig::study(2));
        let best = res.best_per_target();
        let mut seen = std::collections::HashSet::new();
        for o in &best {
            assert!(seen.insert(o.target), "duplicate target in best_per_target");
        }
        // Every observation's target is covered.
        let all: std::collections::HashSet<_> = res.observations.iter().map(|o| o.target).collect();
        assert_eq!(seen, all);
    }

    #[test]
    fn epoch_batches_absorb_to_one_shot_campaign() {
        let w = world();
        let vps = discover_vps(&w, 2);
        let cfg = CampaignConfig::study(2);
        let sequential = run_campaign(&w, &vps, cfg);
        for epochs in [1, 2, 3, vps.len(), vps.len() + 5] {
            let batches = campaign_batches(&w, &vps, cfg, epochs);
            assert!(batches.len() <= epochs.max(1));
            let mut merged = CampaignResult::default();
            for b in batches {
                merged.absorb(b);
            }
            assert_eq!(merged, sequential, "{epochs} epochs diverged");
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let w = world();
        let vps = discover_vps(&w, 2);
        let a = run_campaign(&w, &vps, CampaignConfig::study(5));
        let b = run_campaign(&w, &vps, CampaignConfig::study(5));
        assert_eq!(a.observations.len(), b.observations.len());
        for (x, y) in a.observations.iter().zip(&b.observations) {
            assert_eq!(x.min_rtt_ms, y.min_rtt_ms);
        }
    }

    /// `stable_hash` over every field of every observation and VP
    /// statistic, each `f64` as its bits and a missing route-server RTT
    /// as `u64::MAX`.
    fn campaign_digest(res: &CampaignResult) -> u64 {
        let mut words = Vec::new();
        for o in &res.observations {
            words.extend([
                u64::from(o.vp.0),
                o.ixp.index() as u64,
                u64::from(u32::from(o.target)),
                o.min_rtt_ms.to_bits(),
                u64::from(o.vp_rounds_up),
                o.accepted as u64,
                o.sent as u64,
            ]);
        }
        for s in &res.vp_stats {
            words.extend([
                u64::from(s.vp.0),
                s.ixp.index() as u64,
                u64::from(s.atlas),
                s.targets as u64,
                s.responsive as u64,
                u64::from(s.discarded),
                s.rs_rtt_ms.map_or(u64::MAX, f64::to_bits),
            ]);
        }
        opeer_topology::routing::stable_hash(&words)
    }

    /// `(observations, VP stats, digest)` of one campaign.
    pub(crate) fn campaign_pin(res: &CampaignResult) -> (usize, usize, u64) {
        (
            res.observations.len(),
            res.vp_stats.len(),
            campaign_digest(res),
        )
    }

    /// Pins the campaign bytes, §5.2 study and §4.1 control protocols:
    /// any change to the ping engine, the latency model or VP discovery
    /// moves these digests.
    #[test]
    fn campaign_digest_is_pinned() {
        for (seed, study, control) in [
            (
                7,
                (789usize, 87usize, 11379771477915922943u64),
                (68usize, 7usize, 73805914068420842u64),
            ),
            (
                42,
                (776, 89, 14539010254649077995),
                (72, 7, 13424218452302934395),
            ),
        ] {
            let w = WorldConfig::small(seed).generate();
            let vps = discover_vps(&w, seed);
            let res = run_campaign(&w, &vps, CampaignConfig::study(seed));
            assert_eq!(
                campaign_pin(&res),
                study,
                "study campaign of small seed {seed} moved"
            );
            let res = run_control_campaign(&w, CampaignConfig::control(seed));
            assert_eq!(
                campaign_pin(&res),
                control,
                "control campaign of small seed {seed} moved"
            );
        }
    }
}
