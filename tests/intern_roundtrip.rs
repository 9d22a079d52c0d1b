//! Properties of the dense-id interning layer.
//!
//! The intern tables back every dense structure on the hot paths (the
//! incremental pipeline's per-interface caches, the snapshot's per-ASN
//! rows), so their contract is load-bearing:
//!
//! * **round trip** — `id` then `resolve` is the identity on every
//!   interned key, and `id` rejects everything else;
//! * **density** — ids are exactly `0..len`, assigned in sorted key
//!   order, no holes;
//! * **determinism** — the tables are a pure function of the observed
//!   world: sequential and parallel assembly at any thread count
//!   produce identical tables (they are built once after the registry
//!   fusion merge, never per shard).

use opeer::prelude::*;
use proptest::prelude::*;

/// Same tiny world the equivalence suites use: assembly dominates each
/// case, so keep it small.
fn tiny_world(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::small(seed);
    cfg.scale = 0.02;
    cfg.n_small_ixps = 6;
    cfg.n_background_ases = 50;
    cfg.n_switchers = 2;
    cfg
}

proptest! {
    /// Raw table round trip on arbitrary key multisets: every input key
    /// gets an id, resolve inverts it, ids are dense and sorted-order.
    #[test]
    fn intern_round_trips_and_ids_are_dense(raw in proptest::collection::vec(0u32..500, 0..120)) {
        let table = Intern::build(raw.clone());
        let mut keys = raw;
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(table.len(), keys.len());
        prop_assert_eq!(table.keys(), keys.as_slice());
        for (expect_id, &k) in keys.iter().enumerate() {
            // Dense: the id is the key's sorted position.
            prop_assert_eq!(table.id(k), Some(expect_id as u32));
            prop_assert_eq!(table.resolve(expect_id as u32), k);
        }
        // Keys outside the universe resolve to no id.
        for k in [500u32, 501, u32::MAX] {
            prop_assert_eq!(table.id(k), None);
        }
    }

    /// The assembled tables cover exactly the observed interface
    /// universe, round trip on it, and are identical across sequential
    /// and parallel assembly at any thread count.
    #[test]
    fn assembled_tables_cover_the_observed_world_deterministically(
        seed in 0u64..10_000,
        threads in 2usize..=8,
    ) {
        let world = tiny_world(seed).generate();
        let input = InferenceInput::assemble(&world, seed);
        let interns = &input.interns;

        let mut seen_addrs = 0usize;
        for ixp in &input.observed.ixps {
            for (&addr, &asn) in &ixp.interfaces {
                seen_addrs += 1;
                let aid = interns.addr_id(addr);
                prop_assert!(aid.is_some(), "observed addr {addr} not interned");
                prop_assert_eq!(interns.resolve_addr(aid.expect("checked")), addr);
                let nid = interns.asn_id(asn);
                prop_assert!(nid.is_some(), "observed asn {asn:?} not interned");
                prop_assert_eq!(interns.resolve_asn(nid.expect("checked")), asn);
            }
        }
        // Addresses are unique across IXP peering LANs, so the table is
        // exactly the observed universe — dense, no extras.
        prop_assert_eq!(interns.addrs.len(), seen_addrs);
        prop_assert!(interns.asns.len() <= seen_addrs);
        // Sorted-unique id order.
        prop_assert!(interns.addrs.keys().windows(2).all(|w| w[0] < w[1]));
        prop_assert!(interns.asns.keys().windows(2).all(|w| w[0] < w[1]));

        for n in [1usize, threads] {
            let par = ParallelConfig::new(n);
            let parallel = InferenceInput::assemble_parallel(&world, seed, &par);
            prop_assert_eq!(
                &parallel.interns,
                interns,
                "intern tables diverged at {} threads on seed {}",
                n,
                seed
            );
        }
    }
}
