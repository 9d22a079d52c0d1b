//! Simulated route collectors and their derived services.
//!
//! A [`Collector`] peers (logically) with one well-connected AS of the
//! world and builds a full RIB: every originated prefix with the AS path
//! the collector's vantage sees. From the RIB come the artifacts the
//! paper consumes:
//!
//! * MRT `TABLE_DUMP_V2` dumps ([`Collector::to_mrt`]) and their
//!   ingestion ([`Collector::from_mrt`]);
//! * the Routeviews-style `prefix2as` mapping (§5.2 step 5's IP-to-AS);
//! * RIPEstat-style routed-prefix queries (§6.4 picks traceroute targets
//!   from the prefixes an AS announces).
//!
//! Paths are derived from the reverse direction of the world's policy
//! routing (destination-rooted route tables), which is exact for the
//! valley-free spine and a documented approximation for asymmetric
//! corner cases.

use crate::mrt::{self, MrtRecord, PeerEntry, PeerIndexTable, RibEntryRecord, RibIpv4Unicast};
use opeer_net::{Asn, IpToAsMap, Ipv4Prefix};
use opeer_topology::{AsId, RoutingOracle, World};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// One RIB route.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RibEntry {
    /// The prefix.
    pub prefix: Ipv4Prefix,
    /// AS path from the collector's peer to the origin (origin last).
    pub as_path: Vec<Asn>,
}

impl RibEntry {
    /// The origin AS.
    pub fn origin(&self) -> Option<Asn> {
        self.as_path.last().copied()
    }
}

/// A route collector with a single full-feed peer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Collector {
    /// The feeding peer's ASN.
    pub peer_asn: Asn,
    /// The feeding peer's address (synthetic).
    pub peer_addr: Ipv4Addr,
    /// RIB entries, sorted by prefix.
    pub rib: Vec<RibEntry>,
}

impl Collector {
    /// Builds a collector fed by `peer`: all reachable origins' prefixes
    /// with their AS paths as seen from the peer.
    pub fn build(world: &World, peer: AsId) -> Self {
        let oracle = RoutingOracle::new(world);
        let table = oracle.routes_to(peer);
        let peer_asn = world.ases[peer.index()].asn;
        let mut rib = Vec::new();
        for (i, a) in world.ases.iter().enumerate() {
            let origin = AsId::from_index(i);
            // Reverse of origin→peer ≈ peer→origin (documented
            // approximation; exact when the route is customer/provider
            // symmetric).
            let Some(path) = table.as_path(origin) else {
                continue;
            };
            let mut as_path: Vec<Asn> = path
                .iter()
                .map(|&(asid, _)| world.ases[asid.index()].asn)
                .collect();
            as_path.reverse(); // now peer … origin
            if as_path.last() != Some(&a.asn) {
                as_path.push(a.asn);
            }
            for &prefix in &a.prefixes {
                rib.push(RibEntry {
                    prefix,
                    as_path: as_path.clone(),
                });
            }
        }
        rib.sort_by_key(|e| e.prefix);
        Collector {
            peer_asn,
            peer_addr: Ipv4Addr::new(192, 0, 2, 1),
            rib,
        }
    }

    /// RIPEstat-style query: the prefixes this AS originates, as seen in
    /// the RIB.
    pub fn routed_prefixes(&self, asn: Asn) -> Vec<Ipv4Prefix> {
        self.rib
            .iter()
            .filter(|e| e.origin() == Some(asn))
            .map(|e| e.prefix)
            .collect()
    }

    /// Derives the Routeviews-style `prefix2as` mapping.
    pub fn prefix2as(&self) -> IpToAsMap {
        let mut map = IpToAsMap::new();
        for e in &self.rib {
            if let Some(origin) = e.origin() {
                map.insert(e.prefix, origin);
            }
        }
        map
    }

    /// Exports the RIB as an MRT `TABLE_DUMP_V2` byte stream
    /// (PEER_INDEX_TABLE followed by one RIB_IPV4_UNICAST per prefix).
    pub fn to_mrt(&self, timestamp: u32) -> Vec<u8> {
        let mut out = Vec::new();
        let index = MrtRecord::PeerIndexTable(PeerIndexTable {
            collector_id: 0x0A000001,
            view_name: "opeer".into(),
            peers: vec![PeerEntry {
                bgp_id: 1,
                addr: self.peer_addr,
                asn: self.peer_asn,
            }],
        });
        out.extend_from_slice(&index.encode(timestamp));
        for (seq, e) in self.rib.iter().enumerate() {
            let attrs = mrt::rib_attributes(&e.as_path, self.peer_addr);
            let rec = MrtRecord::RibIpv4Unicast(RibIpv4Unicast {
                sequence: seq as u32,
                prefix: e.prefix,
                entries: vec![RibEntryRecord {
                    peer_index: 0,
                    originated: timestamp,
                    attributes: attrs,
                }],
            });
            out.extend_from_slice(&rec.encode(timestamp));
        }
        out
    }

    /// Ingests an MRT `TABLE_DUMP_V2` stream back into a collector.
    /// Returns the collector and the number of records skipped
    /// (unparseable attributes etc.).
    pub fn from_mrt(stream: &[u8]) -> (Option<Self>, usize) {
        let (records, trailing) = mrt::decode_stream(stream);
        let mut skipped = usize::from(trailing > 0);
        let mut peers: Vec<PeerEntry> = Vec::new();
        let mut rib = Vec::new();
        for (_, rec) in records {
            match rec {
                MrtRecord::PeerIndexTable(t) => peers = t.peers,
                MrtRecord::RibIpv4Unicast(r) => {
                    for e in &r.entries {
                        match mrt::parse_rib_attributes(&e.attributes) {
                            Ok(update) => {
                                let as_path = update.as_path().unwrap_or(&[]).to_vec();
                                rib.push(RibEntry {
                                    prefix: r.prefix,
                                    as_path,
                                });
                            }
                            Err(_) => skipped += 1,
                        }
                    }
                }
                MrtRecord::Bgp4mp(_) => skipped += 1,
            }
        }
        let collector = peers.first().map(|p| Collector {
            peer_asn: p.asn,
            peer_addr: p.addr,
            rib,
        });
        (collector, skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opeer_topology::WorldConfig;

    fn collector() -> (World, Collector) {
        let w = WorldConfig::small(71).generate();
        // Feed from a global transit AS for maximal visibility.
        let peer = w
            .ases
            .iter()
            .position(|a| matches!(a.kind, opeer_topology::AsKind::TransitGlobal))
            .expect("tier-1 exists");
        let c = Collector::build(&w, AsId::from_index(peer));
        (w, c)
    }

    #[test]
    fn rib_covers_most_address_space() {
        let (w, c) = collector();
        let total_prefixes: usize = w.ases.iter().map(|a| a.prefixes.len()).sum();
        let coverage = c.rib.len() as f64 / total_prefixes as f64;
        assert!(coverage > 0.9, "RIB coverage {coverage}");
    }

    #[test]
    fn paths_end_at_origin_and_start_at_peer() {
        let (_w, c) = collector();
        for e in c.rib.iter().take(200) {
            assert!(!e.as_path.is_empty());
            assert_eq!(e.as_path.first(), Some(&c.peer_asn));
            assert_eq!(e.origin(), e.as_path.last().copied());
        }
    }

    #[test]
    fn routed_prefixes_matches_world_announcements() {
        let (w, c) = collector();
        // Pick a member AS and compare.
        let m = &w.memberships[0];
        let asn = w.ases[m.member.index()].asn;
        let got = c.routed_prefixes(asn);
        let want = &w.ases[m.member.index()].prefixes;
        assert_eq!(got.len(), want.len());
        for p in want {
            assert!(got.contains(p), "{p} missing from RIPEstat view");
        }
    }

    #[test]
    fn prefix2as_resolves_internal_addresses() {
        let (w, c) = collector();
        let map = c.prefix2as();
        let mut checked = 0;
        for r in w.routers.iter().take(50) {
            let Some(ifc) = w.internal_iface_of(opeer_topology::RouterId::from_index(
                w.routers
                    .iter()
                    .position(|x| std::ptr::eq(x, r))
                    .expect("self"),
            )) else {
                continue;
            };
            let addr = w.interfaces[ifc.index()].addr;
            if let Some(asn) = map.unique_origin(addr) {
                assert_eq!(asn, w.ases[r.owner.index()].asn);
                checked += 1;
            }
        }
        assert!(checked > 10, "too few internal addresses resolved");
    }

    #[test]
    fn mrt_export_import_roundtrip() {
        let (_w, c) = collector();
        let dump = c.to_mrt(1_523_000_000);
        assert!(dump.len() > 1000);
        let (back, skipped) = Collector::from_mrt(&dump);
        let back = back.expect("peer table present");
        assert_eq!(skipped, 0);
        assert_eq!(back.peer_asn, c.peer_asn);
        assert_eq!(back.rib.len(), c.rib.len());
        for (a, b) in back.rib.iter().zip(&c.rib) {
            assert_eq!(a.prefix, b.prefix);
            assert_eq!(a.as_path, b.as_path);
        }
    }

    /// Pins the RIB bytes (every entry's prefix and AS path) of the
    /// collector fed by the first global transit AS.
    #[test]
    fn rib_digest_is_pinned() {
        use opeer_topology::routing::stable_hash;
        for (seed, entries, digest) in [
            (7, 2940usize, 12432227711417914482u64),
            (42, 2779, 9361059522196332176),
        ] {
            let w = WorldConfig::small(seed).generate();
            let peer = w
                .ases
                .iter()
                .position(|a| matches!(a.kind, opeer_topology::AsKind::TransitGlobal))
                .expect("tier-1 exists");
            let c = Collector::build(&w, AsId::from_index(peer));
            let mut words = Vec::new();
            for e in &c.rib {
                words.push(u64::from(u32::from(e.prefix.network())));
                words.push(u64::from(e.prefix.len()));
                words.push(e.as_path.len() as u64);
                words.extend(e.as_path.iter().map(|a| u64::from(a.value())));
            }
            assert_eq!(
                (c.rib.len(), stable_hash(&words)),
                (entries, digest),
                "RIB of small seed {seed} moved"
            );
        }
    }

    #[test]
    fn from_mrt_tolerates_garbage_tail() {
        let (_w, c) = collector();
        let mut dump = c.to_mrt(0);
        dump.extend_from_slice(&[0xde, 0xad]);
        let (back, skipped) = Collector::from_mrt(&dump);
        assert!(back.is_some());
        assert_eq!(skipped, 1);
    }
}
