//! The five methodology steps (§5.2), in application order.
//!
//! Each step module exposes a pure function from the shared
//! [`crate::input::InferenceInput`] (plus the ledger of already-made
//! inferences) to new inferences. The order is load-bearing (§5.2):
//! step 1 first because it is near-certain where it applies; step 2
//! produces the RTT material step 3 interprets; steps 4 and 5 only touch
//! interfaces the earlier steps left unknown, with step 5 as the last
//! resort.

pub mod step1;
pub mod step2;
pub mod step3;
pub mod step4;
pub mod step5;

use crate::types::{Inference, Verdict};
use std::collections::btree_map::{BTreeMap, Entry};
use std::net::Ipv4Addr;

/// The running record of inferences, keyed by interface address.
///
/// Iteration ([`Ledger::all`]) presents **address order**, the order
/// every downstream merge and report relies on. [`Ledger::record`] and
/// [`Ledger::absorb`] keep the first writer (earlier steps win);
/// [`Ledger::replace`] and [`Ledger::remove`] let the incremental
/// pipeline patch one address in place when its inference changes.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    map: BTreeMap<Ipv4Addr, Inference>,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether an interface already has a verdict.
    pub fn known(&self, addr: Ipv4Addr) -> bool {
        self.map.contains_key(&addr)
    }

    /// The verdict for an interface, if any.
    pub fn verdict(&self, addr: Ipv4Addr) -> Option<Verdict> {
        self.map.get(&addr).map(|inf| inf.verdict)
    }

    /// The full inference for an interface, if any (owned).
    pub fn get(&self, addr: Ipv4Addr) -> Option<Inference> {
        self.map.get(&addr).cloned()
    }

    /// Records an inference unless the interface is already classified
    /// (earlier steps win). Returns whether it was recorded.
    pub fn record(&mut self, inf: Inference) -> bool {
        match self.map.entry(inf.addr) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(inf);
                true
            }
        }
    }

    /// Records an inference whether or not the interface is already
    /// classified. Returns the inference it displaced, if any.
    pub fn replace(&mut self, inf: Inference) -> Option<Inference> {
        self.map.insert(inf.addr, inf)
    }

    /// Drops the inference for an interface. Returns it, if any.
    pub fn remove(&mut self, addr: Ipv4Addr) -> Option<Inference> {
        self.map.remove(&addr)
    }

    /// Merges another ledger into this one, preserving the
    /// earlier-steps-win rule: on an address collision the entry already
    /// present in `self` survives. Absorbing per-shard ledgers in shard
    /// order therefore reproduces exactly what a sequential pass over
    /// the same work would have recorded. Returns how many entries were
    /// actually taken from `other`.
    pub fn absorb(&mut self, other: Ledger) -> usize {
        let mut taken = 0;
        for inf in other.map.into_values() {
            if self.record(inf) {
                taken += 1;
            }
        }
        taken
    }

    /// All inferences, sorted by address (owned).
    pub fn all(&self) -> impl Iterator<Item = Inference> + '_ {
        self.map.values().cloned()
    }

    /// The recorded addresses in address order, without cloning any
    /// inference.
    pub fn addrs(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.map.keys().copied()
    }

    /// Number of inferences.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no inference has been made.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Step;
    use opeer_net::Asn;

    fn inf(addr: &str, verdict: Verdict) -> Inference {
        Inference {
            addr: addr.parse().expect("valid"),
            ixp: 0,
            asn: Asn::new(1),
            verdict,
            step: Step::PortCapacity,
            evidence: String::new(),
        }
    }

    #[test]
    fn earlier_steps_win() {
        let mut ledger = Ledger::new();
        assert!(ledger.record(inf("185.0.0.10", Verdict::Remote)));
        assert!(!ledger.record(inf("185.0.0.10", Verdict::Local)));
        assert_eq!(
            ledger.verdict("185.0.0.10".parse().expect("valid")),
            Some(Verdict::Remote)
        );
        assert_eq!(ledger.len(), 1);
    }

    #[test]
    fn absorb_keeps_existing_on_conflict() {
        // Two shards classified the same address: the shard absorbed
        // first (lower shard index) must win, mirroring the order a
        // sequential pass would have reached that address in.
        let mut shard0 = Ledger::new();
        shard0.record(inf("185.0.0.10", Verdict::Remote));
        let mut shard1 = Ledger::new();
        shard1.record(inf("185.0.0.10", Verdict::Local));
        shard1.record(inf("185.0.0.11", Verdict::Local));

        let mut merged = Ledger::new();
        assert_eq!(merged.absorb(shard0.clone()), 1);
        assert_eq!(merged.absorb(shard1.clone()), 1, "conflict must be dropped");
        assert_eq!(
            merged.verdict("185.0.0.10".parse().expect("valid")),
            Some(Verdict::Remote),
            "first-absorbed shard wins"
        );

        // Reversed order flips the winner — merge order, not content,
        // decides, so the engine must always absorb in shard order.
        let mut reversed = Ledger::new();
        reversed.absorb(shard1);
        reversed.absorb(shard0);
        assert_eq!(
            reversed.verdict("185.0.0.10".parse().expect("valid")),
            Some(Verdict::Local)
        );
        assert_eq!(reversed.len(), 2);
    }

    #[test]
    fn lookups_and_order_survive_normalization() {
        // Adversarially interleaved addresses; every query must behave
        // exactly like a map keyed by address.
        let mut ledger = Ledger::new();
        let n = 199;
        let mut expect: Vec<Ipv4Addr> = Vec::new();
        for k in 0..n {
            // Zig-zag so insertion order is never address order.
            let octet = if k % 2 == 0 { k } else { n * 2 - k };
            let addr: Ipv4Addr = format!("10.{}.{}.1", octet / 250, octet % 250)
                .parse()
                .expect("valid");
            assert!(ledger.record(Inference {
                addr,
                ixp: k,
                asn: Asn::new((k % 5) as u32),
                verdict: if k % 3 == 0 {
                    Verdict::Remote
                } else {
                    Verdict::Local
                },
                step: Step::PortCapacity,
                evidence: format!("e{k}"),
            }));
            expect.push(addr);
        }
        expect.sort_unstable();
        assert_eq!(ledger.len(), n);
        let iterated: Vec<Ipv4Addr> = ledger.all().map(|i| i.addr).collect();
        assert_eq!(iterated, expect, "iteration is address-sorted");
        for (k, addr) in expect.iter().enumerate() {
            let got = ledger.get(*addr).expect("recorded");
            assert_eq!(got.addr, *addr);
            assert!(ledger.known(*addr), "entry {k} known");
        }
    }
}
