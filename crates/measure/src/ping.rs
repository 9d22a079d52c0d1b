//! The ping engine.
//!
//! A ping from a vantage point to a target address yields a sampled RTT
//! and a reply TTL. The TTL encodes where the reply really came from:
//! replies off the expected subnet arrive decremented and are discarded
//! by the TTL-match filter upstream (§4.1). Looking glasses that round
//! RTTs up to whole milliseconds do so here, before the campaign layer
//! ever sees the value (§6.1).

use crate::latency::LatencyModel;
use crate::vp::{VantagePoint, VpKind};
use opeer_topology::routing::stable_hash;
use opeer_topology::World;
use std::net::Ipv4Addr;

/// One ping reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PingReply {
    /// Round-trip time in milliseconds, as reported by the VP (i.e.
    /// already rounded if the VP rounds).
    pub rtt_ms: f64,
    /// IP TTL of the reply packet as seen at the VP.
    pub ttl: u8,
}

/// Ping engine bound to a world and a latency model.
pub struct PingEngine<'w> {
    world: &'w World,
    model: LatencyModel,
}

/// What every ping of one (VP, target) pair shares: only the loss,
/// jitter and off-subnet draws vary per sample.
pub(crate) struct PingPair {
    /// The path key every draw of the pair folds in.
    key: [u64; 2],
    /// The path's base RTT, ms.
    base_ms: f64,
    /// The reply TTL at the VP: the target stack's initial TTL minus
    /// the forwarding hops back to it.
    reply_ttl: u16,
    /// Whether the VP rounds RTTs up to whole milliseconds.
    rounds_up: bool,
}

impl<'w> PingEngine<'w> {
    /// Creates the engine.
    pub fn new(world: &'w World, model: LatencyModel) -> Self {
        PingEngine { world, model }
    }

    /// The latency model in use.
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    /// Sends one ping from `vp` to `target`, returning `None` on timeout.
    ///
    /// `sample_idx` distinguishes repeated probes of the same pair (the
    /// campaign layer sweeps it over the measurement schedule).
    pub fn ping(&self, vp: &VantagePoint, target: Ipv4Addr, sample_idx: u64) -> Option<PingReply> {
        self.sample(&self.pair(vp, target)?, sample_idx)
    }

    /// The per-pair half of [`Self::ping`]: `None` when no sample of the
    /// pair can answer (a dead probe, an unknown or silent target, or an
    /// Atlas path that drops ICMP).
    pub(crate) fn pair(&self, vp: &VantagePoint, target: Ipv4Addr) -> Option<PingPair> {
        // Dead probes never hear anything.
        if let VpKind::Atlas { dead: true, .. } = vp.kind {
            return None;
        }
        let iface_id = self.world.iface_by_addr(target)?;
        let iface = &self.world.interfaces[iface_id.index()];
        if !iface.responds_to_ping {
            return None;
        }
        let router = iface.router;
        let target_loc = self.world.router_point(router);
        let pair_key = [(u64::from(vp.id.0) << 32) | u64::from(iface_id.0), 0x50];
        // Atlas probes fail more often end-to-end (filtered ICMP towards
        // off-LAN sources, §6.1's 75% response rate).
        if vp.is_atlas() {
            let h = stable_hash(&[self.model.seed, pair_key[0], 21]);
            if h % 100 < 20 {
                return None;
            }
        }
        // Reply TTL: the target stack's initial TTL minus the forwarding
        // hops back to the VP. LGs sit on the LAN (0 hops), Atlas probes
        // one hop off it.
        let initial_ttl = if stable_hash(&[self.model.seed, u64::from(router.0), 31]) % 100 < 70 {
            255
        } else {
            64
        };
        let base_hops = match vp.kind {
            VpKind::LookingGlass { .. } | VpKind::OperatorInternal => 0,
            VpKind::Atlas { .. } => 1,
        };
        Some(PingPair {
            key: pair_key,
            base_ms: self.model.base_rtt_ms(vp.location, target_loc, &pair_key),
            reply_ttl: initial_ttl - base_hops,
            rounds_up: vp.rounds_up(),
        })
    }

    /// The per-sample half of [`Self::ping`]: `None` when the packet is
    /// lost.
    pub(crate) fn sample(&self, pair: &PingPair, sample_idx: u64) -> Option<PingReply> {
        let rtt = self
            .model
            .sample_rtt_ms(pair.base_ms, &pair.key, sample_idx)?;
        // A small fraction of replies come from off-subnet middleboxes
        // and arrive several hops down — the TTL-match filter exists to
        // kill exactly these.
        let off_subnet = stable_hash(&[self.model.seed, pair.key[0], sample_idx, 32]) % 100 < 2;
        let extra = if off_subnet {
            1 + (stable_hash(&[self.model.seed, pair.key[0], sample_idx, 33]) % 3) as u16
        } else {
            0
        };
        let ttl = pair.reply_ttl.saturating_sub(extra).max(1) as u8;

        let rtt = if pair.rounds_up {
            rtt.ceil().max(1.0)
        } else {
            rtt
        };
        Some(PingReply { rtt_ms: rtt, ttl })
    }

    /// The per-pair half of [`Self::ping_route_server`].
    pub(crate) fn route_server_pair(&self, vp: &VantagePoint) -> Option<PingPair> {
        self.pair(vp, self.world.ixps[vp.ixp.index()].route_server_ip)
    }

    /// Pings the IXP's route server from `vp`: one probe of the §6.1
    /// hygiene check that [`crate::campaign::probe_vp`] runs over every
    /// sample (Atlas probes with ≥ 1 ms to the route server are dropped).
    pub fn ping_route_server(&self, vp: &VantagePoint, sample_idx: u64) -> Option<PingReply> {
        self.sample(&self.route_server_pair(vp)?, sample_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vp::{discover_vps, operator_vp};
    use opeer_topology::{IxpId, WorldConfig};

    fn setup() -> (World, Vec<VantagePoint>) {
        let w = WorldConfig::small(17).generate();
        let vps = discover_vps(&w, 3);
        (w, vps)
    }

    #[test]
    fn lg_ping_to_local_member_is_sub_ms_often() {
        let (w, vps) = setup();
        let engine = PingEngine::new(&w, LatencyModel::new(3));
        // Find an LG and a local member of its IXP at the anchor facility.
        let mut checked = 0;
        for vp in vps
            .iter()
            .filter(|v| matches!(v.kind, VpKind::LookingGlass { rounds_up: false }))
        {
            for &mid in w.memberships_of_ixp(vp.ixp) {
                let m = &w.memberships[mid.index()];
                let anchor = w.ixps[vp.ixp.index()].anchor_facility;
                if m.truth != (opeer_topology::AccessTruth::Local { facility: anchor }) {
                    continue;
                }
                let addr = w.interfaces[m.iface.index()].addr;
                let mut min = f64::INFINITY;
                for i in 0..24 {
                    if let Some(r) = engine.ping(vp, addr, i) {
                        min = min.min(r.rtt_ms);
                    }
                }
                if min.is_finite() {
                    assert!(min < 1.5, "local same-facility member at {min} ms");
                    checked += 1;
                }
                if checked > 10 {
                    return;
                }
            }
        }
        assert!(checked > 0, "no local member pinged");
    }

    #[test]
    fn rounding_lg_reports_integers() {
        let (w, vps) = setup();
        let engine = PingEngine::new(&w, LatencyModel::new(3));
        let vp = vps
            .iter()
            .find(|v| matches!(v.kind, VpKind::LookingGlass { rounds_up: true }))
            .expect("a rounding LG exists (AMS-IX)");
        let mut got = 0;
        for &mid in w.memberships_of_ixp(vp.ixp) {
            let m = &w.memberships[mid.index()];
            let addr = w.interfaces[m.iface.index()].addr;
            if let Some(r) = engine.ping(vp, addr, 0) {
                assert_eq!(r.rtt_ms.fract(), 0.0, "rounded LG must report integers");
                assert!(r.rtt_ms >= 1.0);
                got += 1;
            }
            if got > 20 {
                break;
            }
        }
        assert!(got > 0);
    }

    #[test]
    fn unknown_target_times_out() {
        let (w, vps) = setup();
        let engine = PingEngine::new(&w, LatencyModel::new(3));
        let vp = &vps[0];
        assert!(engine
            .ping(vp, "203.0.113.199".parse().unwrap(), 0)
            .is_none());
    }

    #[test]
    fn dead_probe_never_answers() {
        let (w, vps) = setup();
        let engine = PingEngine::new(&w, LatencyModel::new(3));
        if let Some(vp) = vps
            .iter()
            .find(|v| matches!(v.kind, VpKind::Atlas { dead: true, .. }))
        {
            for &mid in w.memberships_of_ixp(vp.ixp).iter().take(10) {
                let m = &w.memberships[mid.index()];
                let addr = w.interfaces[m.iface.index()].addr;
                assert!(engine.ping(vp, addr, 0).is_none());
            }
        }
    }

    #[test]
    fn reply_ttls_match_vp_kind() {
        let (w, vps) = setup();
        let engine = PingEngine::new(&w, LatencyModel::new(3));
        for vp in vps.iter().take(20) {
            for &mid in w.memberships_of_ixp(vp.ixp).iter().take(20) {
                let m = &w.memberships[mid.index()];
                let addr = w.interfaces[m.iface.index()].addr;
                if let Some(r) = engine.ping(vp, addr, 7) {
                    let hops = opeer_net::ttl::hops_from_ttl(r.ttl).expect("valid ttl");
                    // Allow the off-subnet artifact (up to 3 extra hops).
                    assert!(
                        hops <= vp.ttl_max_hops() + 3,
                        "{hops} hops from {}",
                        vp.name
                    );
                }
            }
        }
    }

    #[test]
    fn mgmt_lan_probe_is_inflated_to_route_server() {
        let (w, vps) = setup();
        let engine = PingEngine::new(&w, LatencyModel::new(3));
        let mgmt = vps.iter().find(|v| {
            matches!(
                v.kind,
                VpKind::Atlas {
                    host: crate::vp::AtlasHost::MgmtLan(_),
                    dead: false
                }
            )
        });
        if let Some(vp) = mgmt {
            let mut min = f64::INFINITY;
            for i in 0..24 {
                if let Some(r) = engine.ping_route_server(vp, i) {
                    min = min.min(r.rtt_ms);
                }
            }
            if min.is_finite() {
                assert!(min >= 1.0, "mgmt-LAN probe should look far: {min} ms");
            }
        }
    }

    #[test]
    fn operator_vp_pings_control_ixp() {
        let w = WorldConfig::small(17).generate();
        let engine = PingEngine::new(&w, LatencyModel::new(3));
        let control = w
            .ixps
            .iter()
            .position(|x| x.validation == opeer_topology::ValidationRole::Control)
            .expect("control IXPs exist");
        let vp = operator_vp(&w, IxpId::from_index(control), 5000);
        let mut got = 0;
        for &mid in w
            .memberships_of_ixp(IxpId::from_index(control))
            .iter()
            .take(30)
        {
            let m = &w.memberships[mid.index()];
            let addr = w.interfaces[m.iface.index()].addr;
            if engine.ping(&vp, addr, 0).is_some() {
                got += 1;
            }
        }
        assert!(got > 0, "operator VP got no replies");
    }
}
