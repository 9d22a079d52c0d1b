//! Model-based oracle for the [`Ledger`].
//!
//! The ledger's contract is the paper's combined run: one verdict per
//! member interface, earliest step first (first write wins), iterated
//! in address order, because every downstream shard merge and report
//! relies on that order byte for byte. The incremental pipeline also
//! patches it in place across epochs, so `replace` and `remove` must
//! behave like the map operations they name. These proptests drive the
//! real ledger and a trivial `BTreeMap` reference model through the
//! same operation sequences and demand equal answers to every query,
//! on synthetic sequences with address collisions, on shard absorption
//! and on inference streams from generated worlds.

use opeer::core::steps::Ledger;
use opeer::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// The reference model: a plain map keyed by interface address.
#[derive(Default)]
struct ModelLedger {
    map: BTreeMap<Ipv4Addr, Inference>,
}

impl ModelLedger {
    /// First write wins, exactly like `Ledger::record`.
    fn record(&mut self, inf: Inference) -> bool {
        if self.map.contains_key(&inf.addr) {
            return false;
        }
        self.map.insert(inf.addr, inf);
        true
    }

    /// Last write wins, exactly like `Ledger::replace`.
    fn replace(&mut self, inf: Inference) -> Option<Inference> {
        self.map.insert(inf.addr, inf)
    }

    /// Drops the address, exactly like `Ledger::remove`.
    fn remove(&mut self, addr: Ipv4Addr) -> Option<Inference> {
        self.map.remove(&addr)
    }

    fn all(&self) -> Vec<Inference> {
        self.map.values().cloned().collect()
    }
}

/// One synthetic insertion: a small address pool forces collisions.
fn op_strategy() -> impl Strategy<Value = Inference> {
    (0u16..400, 0usize..9, 0u32..6, any::<bool>(), 0usize..4).prop_map(
        |(addr, ixp, asn, remote, step)| Inference {
            addr: Ipv4Addr::new(10, (addr / 250) as u8, (addr % 250) as u8, 1),
            ixp,
            asn: Asn::new(64_000 + asn),
            verdict: if remote {
                Verdict::Remote
            } else {
                Verdict::Local
            },
            step: [
                Step::PortCapacity,
                Step::RttColo,
                Step::MultiIxp,
                Step::PrivateLinks,
            ][step],
            evidence: format!("ev-{addr}-{ixp}"),
        },
    )
}

/// Checks every observable of `ledger` against `model` (panics on the
/// first divergence; the proptest harness reports the failing inputs).
fn assert_matches_model(ledger: &Ledger, model: &ModelLedger) {
    assert_eq!(ledger.len(), model.map.len());
    assert_eq!(ledger.is_empty(), model.map.is_empty());
    let all: Vec<Inference> = ledger.all().collect();
    assert_eq!(&all, &model.all(), "iteration order/content diverged");
    for inf in model.map.values() {
        assert!(ledger.known(inf.addr));
        assert_eq!(ledger.verdict(inf.addr), Some(inf.verdict));
        assert_eq!(ledger.get(inf.addr).as_ref(), Some(inf));
    }
    // Probe addresses outside the recorded set too.
    for miss in [
        Ipv4Addr::new(192, 0, 2, 1),
        Ipv4Addr::new(10, 200, 200, 200),
    ] {
        if !model.map.contains_key(&miss) {
            assert!(!ledger.known(miss));
            assert_eq!(ledger.verdict(miss), None);
            assert_eq!(ledger.get(miss), None);
        }
    }
}

/// One synthetic operation: the three ways a ledger is written.
#[derive(Debug, Clone)]
enum Op {
    Record(Inference),
    Replace(Inference),
    Remove(Ipv4Addr),
}

fn write_strategy() -> impl Strategy<Value = Op> {
    (op_strategy(), 0u8..3).prop_map(|(inf, kind)| match kind {
        0 => Op::Record(inf),
        1 => Op::Replace(inf),
        _ => Op::Remove(inf.addr),
    })
}

proptest! {
    /// Long synthetic sequences with address collisions exercising
    /// first-write-wins.
    #[test]
    fn ledger_matches_map_model_on_random_sequences(
        ops in proptest::collection::vec(op_strategy(), 0..260),
    ) {
        let mut ledger = Ledger::new();
        let mut model = ModelLedger::default();
        for inf in ops {
            prop_assert_eq!(
                ledger.record(inf.clone()),
                model.record(inf),
                "record accept/reject diverged"
            );
        }
        assert_matches_model(&ledger, &model);
    }

    /// Random record/replace/remove sequences, the writes the
    /// incremental pipeline makes across epochs: every return value and
    /// the final state must match the model.
    #[test]
    fn in_place_writes_match_map_model(
        ops in proptest::collection::vec(write_strategy(), 0..260),
    ) {
        let mut ledger = Ledger::new();
        let mut model = ModelLedger::default();
        for op in ops {
            match op {
                Op::Record(inf) => prop_assert_eq!(ledger.record(inf.clone()), model.record(inf)),
                Op::Replace(inf) => prop_assert_eq!(ledger.replace(inf.clone()), model.replace(inf)),
                Op::Remove(addr) => prop_assert_eq!(ledger.remove(addr), model.remove(addr)),
            }
        }
        assert_matches_model(&ledger, &model);
    }

    /// Split a synthetic sequence into shards, absorb them in shard
    /// order, and demand the same state a sequential replay (the model)
    /// reaches — the engine's merge contract.
    #[test]
    fn absorb_in_shard_order_equals_sequential_replay(
        ops in proptest::collection::vec(op_strategy(), 1..180),
        shards in 2usize..5,
    ) {
        let mut model = ModelLedger::default();
        // Shard round-robin, then replay shard by shard: within a
        // shard, record order is op order; absorbing shard k after
        // shards 0..k reproduces a sequential pass over shard 0's ops,
        // then shard 1's, etc.
        let mut shard_ledgers: Vec<Ledger> = (0..shards).map(|_| Ledger::new()).collect();
        let mut shard_ops: Vec<Vec<Inference>> = vec![Vec::new(); shards];
        for (k, inf) in ops.iter().enumerate() {
            shard_ledgers[k % shards].record(inf.clone());
            shard_ops[k % shards].push(inf.clone());
        }
        for shard in &shard_ops {
            for inf in shard {
                model.record(inf.clone());
            }
        }
        let mut merged = Ledger::new();
        for shard in shard_ledgers {
            merged.absorb(shard);
        }
        assert_matches_model(&merged, &model);
    }

    /// Real inference streams: run the pipeline on a generated world,
    /// then replay its inferences into both implementations in a
    /// seed-rotated order (so insertion order differs from address
    /// order) and compare every observable.
    #[test]
    fn ledger_matches_map_model_on_generated_worlds(seed in 0u64..5_000) {
        let mut cfg = WorldConfig::small(seed);
        cfg.scale = 0.02;
        cfg.n_small_ixps = 6;
        cfg.n_background_ases = 50;
        cfg.n_switchers = 2;
        let world = cfg.generate();
        let input = InferenceInput::assemble(&world, seed);
        let result = run_pipeline(&input, &PipelineConfig::default());

        let mut stream = result.inferences.clone();
        if !stream.is_empty() {
            let rot = (seed as usize) % stream.len();
            stream.rotate_left(rot);
        }
        let mut ledger = Ledger::new();
        let mut model = ModelLedger::default();
        for inf in stream {
            prop_assert_eq!(ledger.record(inf.clone()), model.record(inf));
        }
        assert_matches_model(&ledger, &model);
        // The rotated replay must land on the pipeline's own address
        // order — the order every downstream consumer assumes.
        let replayed: Vec<Inference> = ledger.all().collect();
        prop_assert_eq!(&replayed, &result.inferences);
    }
}
