//! AS relationships (CAIDA serial-1 format) and customer cones.
//!
//! Fig. 11a compares the customer-cone sizes of local, remote and hybrid
//! IXP members using the CAIDA AS-relationship dataset [5, 60]. The same
//! artifacts are derived here from the world's ground-truth transit
//! edges: a `provider|customer|-1` / `peer|peer|0` text file and the
//! customer cone (the set of ASes reachable by descending only
//! provider→customer edges, the AS itself included).

use opeer_net::Asn;
use opeer_topology::World;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A relationship edge class, CAIDA encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Relationship {
    /// `-1`: first AS is provider of the second.
    ProviderCustomer,
    /// `0`: settlement-free peers.
    PeerPeer,
}

/// An AS-relationship dataset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AsRelationships {
    /// Edges `(a, b, rel)`; for [`Relationship::ProviderCustomer`],
    /// `a` is the provider.
    pub edges: Vec<(Asn, Asn, Relationship)>,
}

impl AsRelationships {
    /// Derives the dataset from the world: transit edges become p2c rows;
    /// private interconnects become p2p rows.
    pub fn from_world(world: &World) -> Self {
        let mut edges = Vec::new();
        for &(p, c) in &world.transit_rels {
            edges.push((
                world.ases[p.index()].asn,
                world.ases[c.index()].asn,
                Relationship::ProviderCustomer,
            ));
        }
        let mut seen: BTreeSet<(Asn, Asn)> = BTreeSet::new();
        for l in &world.private_links {
            let (a, b) = (world.ases[l.a.index()].asn, world.ases[l.b.index()].asn);
            let key = (a.min(b), a.max(b));
            if seen.insert(key) {
                edges.push((key.0, key.1, Relationship::PeerPeer));
            }
        }
        edges.sort_by_key(|&(a, b, r)| (a, b, matches!(r, Relationship::PeerPeer)));
        edges.dedup();
        AsRelationships { edges }
    }

    /// Serialises in the CAIDA serial-1 text format.
    pub fn to_serial1(&self) -> String {
        let mut out = String::from("# opeer synthetic AS relationships (serial-1)\n");
        for &(a, b, rel) in &self.edges {
            let code = match rel {
                Relationship::ProviderCustomer => -1,
                Relationship::PeerPeer => 0,
            };
            out.push_str(&format!("{}|{}|{}\n", a.value(), b.value(), code));
        }
        out
    }

    /// Parses the CAIDA serial-1 text format, skipping comments and
    /// malformed lines (returned as the second tuple element).
    pub fn from_serial1(text: &str) -> (Self, usize) {
        let mut edges = Vec::new();
        let mut skipped = 0usize;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split('|');
            let parsed = (|| {
                let a: u32 = parts.next()?.parse().ok()?;
                let b: u32 = parts.next()?.parse().ok()?;
                let code: i32 = parts.next()?.parse().ok()?;
                let rel = match code {
                    -1 => Relationship::ProviderCustomer,
                    0 => Relationship::PeerPeer,
                    _ => return None,
                };
                Some((Asn::new(a), Asn::new(b), rel))
            })();
            match parsed {
                Some(e) => edges.push(e),
                None => skipped += 1,
            }
        }
        (AsRelationships { edges }, skipped)
    }

    /// Provider → customers adjacency.
    pub fn customers_map(&self) -> BTreeMap<Asn, Vec<Asn>> {
        let mut map: BTreeMap<Asn, Vec<Asn>> = BTreeMap::new();
        for &(a, b, rel) in &self.edges {
            if rel == Relationship::ProviderCustomer {
                map.entry(a).or_default().push(b);
            }
        }
        map
    }
}

impl fmt::Display for AsRelationships {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} relationship edges", self.edges.len())
    }
}

/// Computes every AS's customer cone size (the AS itself plus all ASes
/// reachable through provider→customer edges). Returns `ASN → cone size`.
///
/// Runs one reverse-topological accumulation over the p2c DAG; cycles
/// (which a correct dataset should not contain) are broken by the visit
/// guard rather than looping forever.
pub fn customer_cones(rels: &AsRelationships) -> BTreeMap<Asn, usize> {
    let customers = rels.customers_map();
    let mut all: BTreeSet<Asn> = BTreeSet::new();
    for &(a, b, _) in &rels.edges {
        all.insert(a);
        all.insert(b);
    }
    let mut cone_sets: BTreeMap<Asn, BTreeSet<Asn>> = BTreeMap::new();

    fn cone_of(
        asn: Asn,
        customers: &BTreeMap<Asn, Vec<Asn>>,
        memo: &mut BTreeMap<Asn, BTreeSet<Asn>>,
        in_progress: &mut BTreeSet<Asn>,
    ) -> BTreeSet<Asn> {
        if let Some(c) = memo.get(&asn) {
            return c.clone();
        }
        if !in_progress.insert(asn) {
            // Cycle guard: treat as leaf.
            return BTreeSet::from([asn]);
        }
        let mut set = BTreeSet::from([asn]);
        if let Some(kids) = customers.get(&asn) {
            for &k in kids {
                set.extend(cone_of(k, customers, memo, in_progress));
            }
        }
        in_progress.remove(&asn);
        memo.insert(asn, set.clone());
        set
    }

    let mut in_progress = BTreeSet::new();
    for &asn in &all {
        cone_of(asn, &customers, &mut cone_sets, &mut in_progress);
    }
    cone_sets.into_iter().map(|(a, s)| (a, s.len())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use opeer_topology::WorldConfig;

    #[test]
    fn serial1_roundtrip() {
        let w = WorldConfig::small(67).generate();
        let rels = AsRelationships::from_world(&w);
        assert!(!rels.edges.is_empty());
        let text = rels.to_serial1();
        let (back, skipped) = AsRelationships::from_serial1(&text);
        assert_eq!(skipped, 0);
        assert_eq!(back.edges.len(), rels.edges.len());
        assert_eq!(back.edges, rels.edges);
    }

    #[test]
    fn serial1_skips_junk() {
        let text = "# comment\n1|2|-1\nbroken line\n3|4|7\n5|6|0\n";
        let (rels, skipped) = AsRelationships::from_serial1(text);
        assert_eq!(rels.edges.len(), 2);
        assert_eq!(skipped, 2);
    }

    #[test]
    fn cones_hierarchy() {
        // p1 → c1 → c2 ; p1 → c3. Cones: c2=1, c3=1, c1=2, p1=4.
        let rels = AsRelationships {
            edges: vec![
                (Asn::new(1), Asn::new(10), Relationship::ProviderCustomer),
                (Asn::new(10), Asn::new(20), Relationship::ProviderCustomer),
                (Asn::new(1), Asn::new(30), Relationship::ProviderCustomer),
                (Asn::new(1), Asn::new(2), Relationship::PeerPeer),
            ],
        };
        let cones = customer_cones(&rels);
        assert_eq!(cones[&Asn::new(20)], 1);
        assert_eq!(cones[&Asn::new(30)], 1);
        assert_eq!(cones[&Asn::new(10)], 2);
        assert_eq!(cones[&Asn::new(1)], 4);
        // Peers don't contribute to cones.
        assert_eq!(cones[&Asn::new(2)], 1);
    }

    #[test]
    fn multihomed_customer_counted_once() {
        let rels = AsRelationships {
            edges: vec![
                (Asn::new(1), Asn::new(10), Relationship::ProviderCustomer),
                (Asn::new(1), Asn::new(11), Relationship::ProviderCustomer),
                (Asn::new(10), Asn::new(99), Relationship::ProviderCustomer),
                (Asn::new(11), Asn::new(99), Relationship::ProviderCustomer),
            ],
        };
        let cones = customer_cones(&rels);
        assert_eq!(
            cones[&Asn::new(1)],
            4,
            "shared customer must not double-count"
        );
    }

    #[test]
    fn world_cones_have_heavy_tail() {
        let w = WorldConfig::small(67).generate();
        let rels = AsRelationships::from_world(&w);
        let cones = customer_cones(&rels);
        let max = cones.values().copied().max().unwrap_or(0);
        let ones = cones.values().filter(|&&c| c == 1).count();
        assert!(max > 50, "transit tops should have big cones, max={max}");
        assert!(
            ones as f64 / cones.len() as f64 > 0.5,
            "most ASes are stubs"
        );
    }

    #[test]
    fn cycle_guard_terminates() {
        let rels = AsRelationships {
            edges: vec![
                (Asn::new(1), Asn::new(2), Relationship::ProviderCustomer),
                (Asn::new(2), Asn::new(1), Relationship::ProviderCustomer),
            ],
        };
        let cones = customer_cones(&rels);
        assert!(cones[&Asn::new(1)] >= 1);
    }
}
