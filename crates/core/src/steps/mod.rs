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

use crate::types::{Inference, Step, Verdict};
use opeer_net::Asn;
use std::net::Ipv4Addr;

/// Tail length at which the sorted index vector is re-normalized.
/// Lookups scan at most this many unsorted slots after the binary
/// search, and each normalization is a linear merge, so inserts stay
/// amortized O(log n) with no per-insert memmove.
const TAIL_MAX: usize = 64;

/// The running record of inferences, keyed by interface address.
///
/// Struct-of-arrays layout: each recorded inference occupies one *slot*
/// across the parallel columns (`addrs`/`ixps`/`asns`/`verdicts`/
/// `steps`/`evidence`). Columns are append-only — a slot never moves —
/// so ordering is carried entirely by one index vector, `order`: slot
/// ids sorted by interface address — a sorted prefix (`..sorted_len`)
/// plus an unsorted tail of at most `TAIL_MAX` recent inserts.
///
/// Lookups binary-search the sorted prefix and linearly scan the short
/// tail; the tail is merged back into the prefix whenever it reaches
/// `TAIL_MAX`. Iteration ([`Ledger::all`]) always presents **address
/// order** — exactly the order the old `BTreeMap`-backed implementation
/// produced — so every downstream merge and report is byte-identical to
/// the seed layout.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    addrs: Vec<Ipv4Addr>,
    ixps: Vec<usize>,
    asns: Vec<Asn>,
    verdicts: Vec<Verdict>,
    steps: Vec<Step>,
    evidence: Vec<String>,
    order: Vec<u32>,
    sorted_len: usize,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot holding `addr`, if recorded: binary search over the
    /// sorted prefix, then a linear scan of the short insertion tail.
    #[inline]
    fn slot_of(&self, addr: Ipv4Addr) -> Option<u32> {
        let prefix = &self.order[..self.sorted_len];
        if let Ok(i) = prefix.binary_search_by(|&s| self.addrs[s as usize].cmp(&addr)) {
            return Some(prefix[i]);
        }
        self.order[self.sorted_len..]
            .iter()
            .copied()
            .find(|&s| self.addrs[s as usize] == addr)
    }

    /// Materializes one slot as an owned [`Inference`].
    fn inference_at(&self, slot: u32) -> Inference {
        let s = slot as usize;
        Inference {
            addr: self.addrs[s],
            ixp: self.ixps[s],
            asn: self.asns[s],
            verdict: self.verdicts[s],
            step: self.steps[s],
            evidence: self.evidence[s].clone(),
        }
    }

    /// Merges the index tail back into the sorted prefix (linear, out of
    /// place; slots themselves never move).
    fn normalize(&mut self) {
        if self.sorted_len < self.order.len() {
            let addrs = &self.addrs;
            self.order[self.sorted_len..].sort_unstable_by_key(|&s| addrs[s as usize]);
            self.order = merge_sorted(
                &self.order[..self.sorted_len],
                &self.order[self.sorted_len..],
                |&s| addrs[s as usize],
            );
            self.sorted_len = self.order.len();
        }
    }

    /// All slots in address order, tolerating a pending tail.
    fn sorted_order(&self) -> Vec<u32> {
        if self.sorted_len == self.order.len() {
            return self.order.clone();
        }
        let mut tail: Vec<u32> = self.order[self.sorted_len..].to_vec();
        tail.sort_unstable_by_key(|&s| self.addrs[s as usize]);
        merge_sorted(&self.order[..self.sorted_len], &tail, |&s| {
            self.addrs[s as usize]
        })
    }

    /// Whether an interface already has a verdict.
    pub fn known(&self, addr: Ipv4Addr) -> bool {
        self.slot_of(addr).is_some()
    }

    /// The verdict for an interface, if any.
    pub fn verdict(&self, addr: Ipv4Addr) -> Option<Verdict> {
        self.slot_of(addr).map(|s| self.verdicts[s as usize])
    }

    /// The full inference for an interface, if any (owned — the ledger
    /// stores columns, not `Inference` structs).
    pub fn get(&self, addr: Ipv4Addr) -> Option<Inference> {
        self.slot_of(addr).map(|s| self.inference_at(s))
    }

    /// Records an inference unless the interface is already classified
    /// (earlier steps win). Returns whether it was recorded.
    pub fn record(&mut self, inf: Inference) -> bool {
        if self.slot_of(inf.addr).is_some() {
            return false;
        }
        self.push(inf);
        if self.order.len() - self.sorted_len >= TAIL_MAX {
            self.normalize();
        }
        true
    }

    /// Records a batch of inferences with pairwise distinct addresses,
    /// skipping those already known: the ledger [`Ledger::record`] on
    /// each in turn would build, with one normalization instead of one
    /// per `TAIL_MAX` inserts. Returns how many were recorded.
    pub fn record_distinct(&mut self, infs: impl IntoIterator<Item = Inference>) -> usize {
        let fresh: Vec<Inference> = infs
            .into_iter()
            .filter(|inf| !self.known(inf.addr))
            .collect();
        let recorded = fresh.len();
        for inf in fresh {
            self.push(inf);
        }
        self.normalize();
        debug_assert!(
            self.order
                .windows(2)
                .all(|w| self.addrs[w[0] as usize] < self.addrs[w[1] as usize]),
            "record_distinct got a repeated address"
        );
        recorded
    }

    /// Appends one record to every column and the index tail.
    fn push(&mut self, inf: Inference) {
        let slot = self.addrs.len() as u32;
        self.addrs.push(inf.addr);
        self.ixps.push(inf.ixp);
        self.asns.push(inf.asn);
        self.verdicts.push(inf.verdict);
        self.steps.push(inf.step);
        self.evidence.push(inf.evidence);
        self.order.push(slot);
    }

    /// Merges another ledger into this one, preserving the
    /// earlier-steps-win rule: on an address collision the entry already
    /// present in `self` survives. Absorbing per-shard ledgers in shard
    /// order therefore reproduces exactly what a sequential pass over
    /// the same work would have recorded. Returns how many entries were
    /// actually taken from `other`.
    pub fn absorb(&mut self, other: Ledger) -> usize {
        let mut taken = 0;
        for inf in other.into_sorted_vec() {
            if self.record(inf) {
                taken += 1;
            }
        }
        taken
    }

    /// Consumes the ledger into owned inferences in address order,
    /// moving the evidence strings out without cloning.
    fn into_sorted_vec(self) -> Vec<Inference> {
        let order = self.sorted_order();
        let Ledger {
            addrs,
            ixps,
            asns,
            verdicts,
            steps,
            mut evidence,
            ..
        } = self;
        order
            .into_iter()
            .map(|slot| {
                let s = slot as usize;
                Inference {
                    addr: addrs[s],
                    ixp: ixps[s],
                    asn: asns[s],
                    verdict: verdicts[s],
                    step: steps[s],
                    evidence: std::mem::take(&mut evidence[s]),
                }
            })
            .collect()
    }

    /// All inferences, sorted by address (owned — see [`Ledger::get`]).
    pub fn all(&self) -> impl Iterator<Item = Inference> + '_ {
        self.sorted_order()
            .into_iter()
            .map(move |s| self.inference_at(s))
    }

    /// The recorded addresses in insertion order, without materializing
    /// any inference.
    pub fn addrs(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.addrs.iter().copied()
    }

    /// Number of inferences.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether no inference has been made.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }
}

/// Merges two key-sorted slices (disjoint keys) into one sorted vec.
fn merge_sorted<T: Copy, K: Ord>(a: &[T], b: &[T], key: impl Fn(&T) -> K) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if key(&a[i]) <= key(&b[j]) {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Step;

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
    fn record_distinct_matches_one_record_per_inference() {
        let mut one_by_one = Ledger::new();
        one_by_one.record(inf("185.0.0.40", Verdict::Local));
        let mut batched = one_by_one.clone();
        // Enough inserts to cross several normalizations one by one; one
        // address collides with the existing record and must lose.
        let batch: Vec<Inference> = (0..TAIL_MAX * 3)
            .map(|k| {
                let addr = format!("185.0.{}.{}", k % 7, 40 + k / 7);
                inf(&addr, Verdict::Remote)
            })
            .collect();
        let taken = batch
            .iter()
            .filter(|i| one_by_one.record((*i).clone()))
            .count();
        assert_eq!(batched.record_distinct(batch), taken);
        assert_eq!(taken, TAIL_MAX * 3 - 1, "the colliding address lost");
        assert_eq!(
            batched.all().collect::<Vec<_>>(),
            one_by_one.all().collect::<Vec<_>>()
        );
        assert_eq!(batched.len(), one_by_one.len());
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
        // Cross the TAIL_MAX boundary several times with adversarially
        // interleaved addresses; every query must behave exactly like
        // the old map-backed ledger.
        let mut ledger = Ledger::new();
        let n = TAIL_MAX * 3 + 7;
        let mut expect: Vec<Ipv4Addr> = Vec::new();
        for k in 0..n {
            // Zig-zag so the insertion tail is never already sorted.
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
