//! Differential test of scoped route tables against full ones.
//!
//! `RoutingOracle::routes_for` runs the waves of `routes_into` over the
//! closure of its sources under `World::providers_of` only. Every
//! source's AS path, and the entry of every AS on it, must equal the
//! full table's. The worlds are those of `gao_rexford_reference.rs`:
//! three small seeds and an AMS-IX outage.
//!
//! The default run checks every source towards 60 strided destinations
//! per world. The ignored test checks every pair; run it in release:
//! `cargo test --release -p opeer-topology --test scoped_routes -- --ignored`.

use opeer_measure::traceroute::{plan_corpus, CorpusConfig};
use opeer_topology::{AsId, RouteKind, RouteTable, RoutingOracle, Scenario, World, WorldConfig};

fn worlds() -> Vec<World> {
    let mut worlds: Vec<World> = [3, 17, 101]
        .into_iter()
        .map(|seed| WorldConfig::small(seed).generate())
        .collect();
    let base = WorldConfig::small(29).generate();
    let outage = Scenario::IxpOutage {
        ixp: "AMS-IX".into(),
    };
    outage.validate(&base).expect("AMS-IX exists");
    worlds.push(outage.apply(&base));
    worlds
}

/// Asserts that `scoped` routes `src` as `reference` does: the same AS
/// path and the same entry for every AS on it. Returns how many ASes on
/// the path lie outside the destination's customer cone.
fn assert_same_route(reference: &RouteTable<'_>, scoped: &RouteTable<'_>, src: AsId) -> usize {
    let dst = reference.dst();
    let path = reference.as_path(src);
    assert_eq!(scoped.as_path(src), path, "path of {src:?} towards {dst:?}");
    let mut above_cone = 0;
    for &(a, _) in path.iter().flatten() {
        let entry = reference.entry(a);
        assert_eq!(
            scoped.entry(a),
            entry,
            "entry of {a:?} on the path of {src:?} towards {dst:?}"
        );
        above_cone += usize::from(entry.is_some_and(|e| e.kind != RouteKind::Customer));
    }
    above_cone
}

/// One-source fills of one reused table against a full table per
/// destination, for every source towards each of `dsts`. Returns the
/// number of paths with three or more ASes outside the destination's
/// cone: the source, a provider and a provider's provider, which a
/// scope of direct providers alone would miss.
fn check_one_source_fills(w: &World, dsts: impl Iterator<Item = AsId>) -> usize {
    let oracle = RoutingOracle::new(w);
    let mut scoped = RouteTable::new(&oracle);
    let mut deep = 0;
    for dst in dsts {
        let full = oracle.routes_to(dst);
        for src in all_ases(w) {
            oracle.routes_for(dst, [src], &mut scoped);
            if assert_same_route(&full, &scoped, src) >= 3 {
                deep += 1;
            }
        }
    }
    deep
}

fn all_ases(w: &World) -> impl Iterator<Item = AsId> {
    (0..w.ases.len()).map(AsId::from_index)
}

#[test]
fn one_source_fills_match_full_tables() {
    for w in worlds() {
        let stride = (w.ases.len() / 60).max(1);
        let deep = check_one_source_fills(&w, all_ases(&w).step_by(stride).take(60));
        assert!(deep > 0, "no path leaves the cone for three ASes");
    }
}

#[test]
#[ignore = "every pair of four worlds; run in release"]
fn every_pair_matches_full_tables() {
    for w in worlds() {
        let deep = check_one_source_fills(&w, all_ases(&w));
        assert!(deep > 0, "no path leaves the cone for three ASes");
    }
}

#[test]
fn corpus_fills_match_one_source_fills() {
    for w in worlds() {
        let plan = plan_corpus(&w, &CorpusConfig::default());
        assert!(!plan.is_empty());
        let oracle = RoutingOracle::new(&w);
        let mut multi = RouteTable::new(&oracle);
        let mut single = RouteTable::new(&oracle);
        let mut shared = 0;
        for i in 0..plan.len() {
            let (dst, pairs) = plan.destination(i);
            oracle.routes_for(dst, pairs.iter().map(|&(src, _)| src), &mut multi);
            shared += usize::from(pairs.len() > 1);
            for &(src, _) in pairs {
                oracle.routes_for(dst, [src], &mut single);
                assert_same_route(&single, &multi, src);
            }
        }
        assert!(shared > 0, "no destination has several sources");
    }
}

#[test]
fn alternating_refills_match_fresh_tables() {
    for w in worlds() {
        let plan = plan_corpus(&w, &CorpusConfig::default());
        let oracle = RoutingOracle::new(&w);
        let mut table = RouteTable::new(&oracle);
        let stride = (plan.len() / 40).max(1);
        for (k, i) in (0..plan.len()).step_by(stride).enumerate() {
            let (dst, pairs) = plan.destination(i);
            let sources = pairs.iter().map(|&(src, _)| src);
            if k % 2 == 0 {
                oracle.routes_into(dst, &mut table);
                let fresh = oracle.routes_to(dst);
                assert_eq!(table.reachable_count(), fresh.reachable_count());
                for a in all_ases(&w) {
                    assert_eq!(table.entry(a), fresh.entry(a), "{a:?} towards {dst:?}");
                }
            } else {
                oracle.routes_for(dst, sources.clone(), &mut table);
                let mut fresh = RouteTable::new(&oracle);
                oracle.routes_for(dst, sources.clone(), &mut fresh);
                assert_eq!(table.reachable_count(), fresh.reachable_count());
                for src in sources {
                    assert_same_route(&fresh, &table, src);
                }
            }
        }
    }
}

/// `src` and every AS above it in the provider DAG.
fn provider_closure(w: &World, src: AsId) -> Vec<bool> {
    let mut marked = vec![false; w.ases.len()];
    let mut stack = vec![src];
    while let Some(x) = stack.pop() {
        if !std::mem::replace(&mut marked[x.index()], true) {
            stack.extend(w.providers_of(x));
        }
    }
    marked
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "outside the scope")]
fn scoped_entry_outside_the_scope_panics_in_debug_builds() {
    let w = WorldConfig::small(3).generate();
    let oracle = RoutingOracle::new(&w);
    let dst = w.memberships[0].member;
    let src = w.memberships.last().expect("memberships exist").member;
    let full = oracle.routes_to(dst);
    let scope = provider_closure(&w, src);
    let outside = all_ases(&w)
        .find(|&a| {
            !scope[a.index()] && full.entry(a).is_some_and(|e| e.kind != RouteKind::Customer)
        })
        .expect("a routed AS above neither src nor the cone");
    let mut table = RouteTable::new(&oracle);
    oracle.routes_for(dst, [src], &mut table);
    table.entry(outside);
}
