//! The validation dataset (Table 2).
//!
//! Fifteen IXPs have best-effort local/remote lists: six straight from
//! operators, nine scraped from websites that publish member port types.
//! The lists are *partial* — operators know which ports are resold but
//! not what happens "beyond that cable", so remote peers are
//! over-represented relative to their population. The per-IXP sampling
//! fractions below are taken directly from Table 2
//! (validated-local / validated-remote vs. total members) so the dataset
//! reproduces at any world scale.

use opeer_net::Asn;
use opeer_topology::routing::stable_hash;
use opeer_topology::{IxpId, ValidationRole, World};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// One validated peer interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidationEntry {
    /// Peering-LAN interface address.
    pub addr: Ipv4Addr,
    /// Member ASN.
    pub asn: Asn,
    /// `true` = remote (Definition 1), `false` = local.
    pub remote: bool,
}

/// Validation data for one IXP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationIxp {
    /// IXP name.
    pub name: String,
    /// Control or test subset.
    pub role: ValidationRole,
    /// Validated entries (interface level; `VDR ∩ VDL = ∅` by
    /// construction, Table 3).
    pub entries: Vec<ValidationEntry>,
}

impl ValidationIxp {
    /// Count of validated locals.
    pub fn locals(&self) -> usize {
        self.entries.iter().filter(|e| !e.remote).count()
    }

    /// Count of validated remotes.
    pub fn remotes(&self) -> usize {
        self.entries.iter().filter(|e| e.remote).count()
    }
}

/// The whole Table 2 dataset.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ValidationDataset {
    /// Per-IXP lists.
    pub ixps: Vec<ValidationIxp>,
}

impl ValidationDataset {
    /// Looks up the validation verdict for an interface address.
    pub fn verdict(&self, addr: Ipv4Addr) -> Option<bool> {
        for v in &self.ixps {
            for e in &v.entries {
                if e.addr == addr {
                    return Some(e.remote);
                }
            }
        }
        None
    }

    /// Totals: (validated, locals, remotes).
    pub fn totals(&self) -> (usize, usize, usize) {
        let mut l = 0;
        let mut r = 0;
        for v in &self.ixps {
            l += v.locals();
            r += v.remotes();
        }
        (l + r, l, r)
    }
}

/// Table 2's validated-local / validated-remote counts against total
/// members, per IXP. Used as sampling fractions.
const TABLE2: &[(&str, usize, usize, usize)] = &[
    // (name, total members, validated local, validated remote)
    ("AMS-IX", 878, 258, 205),
    ("DE-CIX FRA", 795, 103, 220),
    ("LINX LON", 770, 71, 99),
    ("DE-CIX NYC", 162, 59, 21),
    ("LINX MAN", 99, 17, 20),
    ("LINX NoVA", 48, 12, 9),
    ("EPIX KAT", 465, 135, 98),
    ("EPIX WAR", 308, 93, 77),
    ("France-IX PAR", 402, 127, 165),
    ("Seattle IX", 296, 180, 66),
    ("Any2 LA", 299, 147, 65),
    ("D.Realty ATL", 142, 42, 43),
    ("France-IX MRS", 77, 19, 12),
    ("AMS-IX HK", 46, 14, 10),
    ("AMS-IX SF", 36, 16, 7),
];

/// Builds the validation dataset by sampling each Table-2 IXP's active
/// members at the published per-class coverage.
pub fn build_validation(world: &World, seed: u64) -> ValidationDataset {
    let month = world.observation_month;
    let mut out = ValidationDataset::default();
    for (i, ixp) in world.ixps.iter().enumerate() {
        if ixp.validation == ValidationRole::None {
            continue;
        }
        let Some(&(_, total, vl, vr)) = TABLE2.iter().find(|row| row.0 == ixp.name) else {
            continue;
        };
        let frac_local = vl as f64 / total as f64;
        let frac_remote = vr as f64 / total as f64;

        let mut locals: Vec<(Ipv4Addr, Asn)> = Vec::new();
        let mut remotes: Vec<(Ipv4Addr, Asn)> = Vec::new();
        for &mid in world.memberships_of_ixp(IxpId::from_index(i)) {
            let m = &world.memberships[mid.index()];
            if !m.active_at(month) {
                continue;
            }
            let addr = world.interfaces[m.iface.index()].addr;
            let asn = world.ases[m.member.index()].asn;
            if m.truth.is_remote() {
                remotes.push((addr, asn));
            } else {
                locals.push((addr, asn));
            }
        }
        let members = locals.len() + remotes.len();
        let n_local = ((members as f64) * frac_local).round() as usize;
        let n_remote = ((members as f64) * frac_remote).round() as usize;

        let mut entries = Vec::new();
        for (cls, pool, n, remote) in [
            (1u64, &mut locals, n_local, false),
            (2u64, &mut remotes, n_remote, true),
        ] {
            // Deterministic shuffle by hash order.
            pool.sort_by_key(|&(addr, _)| {
                stable_hash(&[seed, i as u64, cls, u64::from(u32::from(addr))])
            });
            for &(addr, asn) in pool.iter().take(n) {
                entries.push(ValidationEntry { addr, asn, remote });
            }
        }
        entries.sort_by_key(|e| e.addr);
        out.ixps.push(ValidationIxp {
            name: ixp.name.clone(),
            role: ixp.validation,
            entries,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use opeer_topology::WorldConfig;

    #[test]
    fn fifteen_ixps_with_roles() {
        let w = WorldConfig::small(47).generate();
        let v = build_validation(&w, 3);
        assert_eq!(v.ixps.len(), 15);
        let count = |role| v.ixps.iter().filter(|x| x.role == role).count();
        assert_eq!(count(ValidationRole::Test), 8);
        assert_eq!(count(ValidationRole::Control), 7);
    }

    #[test]
    fn entries_match_ground_truth_labels() {
        let w = WorldConfig::small(47).generate();
        let v = build_validation(&w, 3);
        for vixp in &v.ixps {
            for e in &vixp.entries {
                let ifc = w.iface_by_addr(e.addr).expect("validated iface exists");
                let mid = w.membership_of_iface(ifc).expect("LAN iface");
                let truth_remote = w.memberships[mid.index()].truth.is_remote();
                assert_eq!(e.remote, truth_remote, "operator label must be truth");
            }
        }
    }

    #[test]
    fn coverage_is_partial() {
        let w = WorldConfig::small(47).generate();
        let v = build_validation(&w, 3);
        for vixp in &v.ixps {
            let ixp_idx = w
                .ixps
                .iter()
                .position(|x| x.name == vixp.name)
                .expect("IXP exists");
            let members = w
                .active_memberships_of_ixp(IxpId::from_index(ixp_idx))
                .len();
            assert!(
                vixp.entries.len() < members || members < 5,
                "{}: validated {} of {} members — should be partial",
                vixp.name,
                vixp.entries.len(),
                members
            );
        }
    }

    #[test]
    fn no_interface_validated_twice() {
        let w = WorldConfig::small(47).generate();
        let v = build_validation(&w, 3);
        let mut seen = std::collections::HashSet::new();
        for vixp in &v.ixps {
            for e in &vixp.entries {
                assert!(seen.insert(e.addr), "duplicate validated addr {}", e.addr);
            }
        }
    }

    #[test]
    fn verdict_lookup() {
        let w = WorldConfig::small(47).generate();
        let v = build_validation(&w, 3);
        let first = v.ixps[0].entries.first().expect("entries exist");
        assert_eq!(v.verdict(first.addr), Some(first.remote));
        assert_eq!(v.verdict("9.9.9.9".parse().expect("valid")), None);
    }
}
