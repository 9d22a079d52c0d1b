//! Dense-id interning for the hot paths.
//!
//! The pipeline's working sets are small, fixed universes — the member
//! interface addresses and member ASNs of the fused registry dataset —
//! but the seed implementation kept them in `BTreeMap`s keyed by
//! `Ipv4Addr`/`Asn`, paying a pointer-chasing tree probe per lookup.
//! This module assigns every member of each universe a dense `u32` id
//! ([`AddrId`], [`AsnId`]) so the hot structures (the incremental
//! pipeline's per-interface caches, step 4's step-3 rows, the
//! publish-time snapshot indexes) can be flat arrays indexed or
//! binary-searched by id.
//!
//! Invariants:
//!
//! * **Dense**: ids are `0..len`, no holes.
//! * **Deterministic**: ids are assigned in sorted key order, so the
//!   same `ObservedWorld` always produces the same table regardless of
//!   `OPEER_THREADS` or assembly sharding (the tables are built once,
//!   after the registry fusion merge, never per shard).
//! * **Boundary-only conversion**: `Ipv4Addr`/`Asn` appear at API
//!   boundaries; conversion happens once per key, not per probe.
//!
//! The tables are snapshotted into [`crate::input::InferenceInput`] at
//! assembly and rebuilt by the incremental pipeline only when a
//! registry revision replaces the observed world.

use opeer_net::Asn;
use opeer_registry::ObservedWorld;
use std::net::Ipv4Addr;

/// Dense id of an interned member-interface address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AddrId(pub u32);

/// Dense id of an interned member ASN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsnId(pub u32);

/// A sorted-vec interner: key → dense id by binary search, id → key by
/// index. Keys are stored once, sorted, deduplicated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Intern<T> {
    sorted: Vec<T>,
}

// Manual impl: the derive would bound `T: Default`, which an empty
// table does not need.
impl<T> Default for Intern<T> {
    fn default() -> Self {
        Self { sorted: Vec::new() }
    }
}

impl<T: Ord + Copy> Intern<T> {
    /// Builds the table from an arbitrary (possibly duplicated,
    /// unsorted) key collection. Ids are assigned in sorted key order.
    pub fn build(mut keys: Vec<T>) -> Self {
        keys.sort_unstable();
        keys.dedup();
        Self { sorted: keys }
    }

    /// The dense id of a key, if interned.
    #[inline]
    pub fn id(&self, key: T) -> Option<u32> {
        self.sorted.binary_search(&key).ok().map(|i| i as u32)
    }

    /// The key behind a dense id.
    ///
    /// # Panics
    /// Panics if `id >= self.len()` — ids are dense, so any id obtained
    /// from [`Intern::id`] of the same table is in range.
    #[inline]
    pub fn resolve(&self, id: u32) -> T {
        self.sorted[id as usize]
    }

    /// Number of interned keys (ids are exactly `0..len`).
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// All keys in id order (i.e. sorted).
    pub fn keys(&self) -> &[T] {
        &self.sorted
    }
}

/// The two interning tables the pipeline shares, built once per
/// observed world.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InternTables {
    /// Member-interface addresses across every observed IXP.
    pub addrs: Intern<Ipv4Addr>,
    /// Member ASNs across every observed IXP.
    pub asns: Intern<Asn>,
}

impl InternTables {
    /// Builds both tables from the fused registry dataset: the address
    /// universe is every peering-LAN interface of every observed IXP;
    /// the ASN universe is every member ASN assigned to one. Iteration
    /// is over `BTreeMap`s inside a fixed `ixps` order, so the input to
    /// [`Intern::build`] — and therefore the id assignment — is
    /// reproducible byte for byte.
    pub fn from_observed(observed: &ObservedWorld) -> Self {
        let mut addrs = Vec::with_capacity(observed.total_interfaces());
        let mut asns = Vec::new();
        for ixp in &observed.ixps {
            for (&addr, &asn) in &ixp.interfaces {
                addrs.push(addr);
                asns.push(asn);
            }
        }
        Self {
            addrs: Intern::build(addrs),
            asns: Intern::build(asns),
        }
    }

    /// The dense id of a member-interface address.
    #[inline]
    pub fn addr_id(&self, addr: Ipv4Addr) -> Option<AddrId> {
        self.addrs.id(addr).map(AddrId)
    }

    /// The dense id of a member ASN.
    #[inline]
    pub fn asn_id(&self, asn: Asn) -> Option<AsnId> {
        self.asns.id(asn).map(AsnId)
    }

    /// The address behind a dense id.
    #[inline]
    pub fn resolve_addr(&self, id: AddrId) -> Ipv4Addr {
        self.addrs.resolve(id.0)
    }

    /// The ASN behind a dense id.
    #[inline]
    pub fn resolve_asn(&self, id: AsnId) -> Asn {
        self.asns.resolve(id.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_and_dedups() {
        let t = Intern::build(vec![5u32, 1, 5, 3, 1]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.keys(), &[1, 3, 5]);
        assert_eq!(t.id(1), Some(0));
        assert_eq!(t.id(3), Some(1));
        assert_eq!(t.id(5), Some(2));
        assert_eq!(t.id(4), None);
        assert_eq!(t.resolve(2), 5);
    }

    #[test]
    fn tables_cover_observed_interfaces() {
        use opeer_registry::ObservedIxp;
        let mut ow = ObservedWorld::default();
        let mut ixp = ObservedIxp::default();
        ixp.interfaces
            .insert("185.1.0.10".parse().expect("valid"), Asn::new(65001));
        ixp.interfaces
            .insert("185.1.0.11".parse().expect("valid"), Asn::new(65002));
        ow.ixps.push(ixp);
        let t = InternTables::from_observed(&ow);
        assert_eq!(t.addrs.len(), 2);
        assert_eq!(t.asns.len(), 2);
        let id = t.addr_id("185.1.0.11".parse().expect("valid")).expect("in");
        assert_eq!(
            t.resolve_addr(id),
            "185.1.0.11".parse::<Ipv4Addr>().expect("valid")
        );
        assert_eq!(t.addr_id("10.0.0.1".parse().expect("valid")), None);
        let aid = t.asn_id(Asn::new(65002)).expect("in");
        assert_eq!(t.resolve_asn(aid), Asn::new(65002));
    }
}
