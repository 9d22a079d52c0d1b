//! Differential test of the route tables against a naive Gao–Rexford
//! decision process.
//!
//! The reference knows nothing of the three waves: every AS repeatedly
//! takes the best route its neighbours offer — customer over peer over
//! provider, then the shorter path — until no AS changes its choice.
//! Export follows the valley-free rules: a customer or peer announces
//! only routes it learned from its own customers (or its own prefix), a
//! provider announces every route to its customers. The peer adjacency
//! is rebuilt here from the world's memberships and private links.

use opeer_topology::{
    AsId, EdgeKind, IxpId, RouteKind, RouteTable, RoutingOracle, Scenario, World, WorldConfig,
};
use std::collections::{BTreeMap, BTreeSet};

/// A converged choice: route class and AS-path length.
type Best = (RouteKind, u32);

/// Private-link neighbours plus open-policy co-members at IXPs where
/// both memberships are active in the observation month.
fn peer_lists(w: &World) -> Vec<BTreeSet<AsId>> {
    let mut peers = vec![BTreeSet::new(); w.ases.len()];
    for l in &w.private_links {
        peers[l.a.index()].insert(l.b);
        peers[l.b.index()].insert(l.a);
    }
    let mut open_members: BTreeMap<IxpId, BTreeSet<AsId>> = BTreeMap::new();
    for m in &w.memberships {
        if m.active_at(w.observation_month) && w.ases[m.member.index()].open_peering {
            open_members.entry(m.ixp).or_default().insert(m.member);
        }
    }
    for members in open_members.values() {
        for &a in members {
            peers[a.index()].extend(members.iter().copied().filter(|&b| b != a));
        }
    }
    peers
}

/// Iterates every AS's decision to a fixpoint.
fn reference(w: &World, peers: &[BTreeSet<AsId>], dst: AsId) -> Vec<Option<Best>> {
    let mut best: Vec<Option<Best>> = vec![None; w.ases.len()];
    best[dst.index()] = Some((RouteKind::Customer, 0));
    loop {
        let mut changed = false;
        for i in 0..w.ases.len() {
            let x = AsId::from_index(i);
            if x == dst {
                continue;
            }
            let exports_up = |n: &AsId| best[n.index()].filter(|b| b.0 == RouteKind::Customer);
            let offers = w
                .customers_of(x)
                .iter()
                .filter_map(exports_up)
                .map(|b| (RouteKind::Customer, b.1 + 1))
                .chain(
                    peers[i]
                        .iter()
                        .filter_map(exports_up)
                        .map(|b| (RouteKind::Peer, b.1 + 1)),
                )
                .chain(
                    w.providers_of(x)
                        .iter()
                        .filter_map(|q| best[q.index()])
                        .map(|b| (RouteKind::Provider, b.1 + 1)),
                );
            let choice = offers.min();
            if choice != best[i] {
                best[i] = choice;
                changed = true;
            }
        }
        if !changed {
            return best;
        }
    }
}

/// Route counts by class, so a run can show it was not vacuous.
#[derive(Default)]
struct Checked {
    customer: usize,
    peer: usize,
    provider: usize,
}

fn check_table(
    w: &World,
    oracle: &RoutingOracle<'_>,
    peers: &[BTreeSet<AsId>],
    table: &RouteTable,
    dst: AsId,
    checked: &mut Checked,
) {
    let expected = reference(w, peers, dst);
    assert_eq!(
        table.reachable_count(),
        expected.iter().flatten().count(),
        "reachable count towards {dst:?}"
    );
    for (i, want) in expected.iter().enumerate() {
        let x = AsId::from_index(i);
        let got = table.entry(x);
        assert_eq!(
            got.map(|e| (e.kind, e.len)),
            *want,
            "route of {x:?} towards {dst:?}"
        );
        let Some(e) = got else { continue };
        if x == dst {
            assert_eq!((e.next, e.via), (None, None), "destination entry");
            continue;
        }
        let next = e.next.expect("non-destination routes have a next hop");
        let next_entry = table.entry(next).expect("next hop reaches the destination");
        assert_eq!(next_entry.len + 1, e.len, "{x:?} → {next:?} length");
        match e.kind {
            RouteKind::Customer => {
                assert!(
                    w.customers_of(x).contains(&next),
                    "{x:?}: next not a customer"
                );
                assert_eq!(
                    next_entry.kind,
                    RouteKind::Customer,
                    "{x:?}: customer export"
                );
                assert_eq!(e.via, Some(EdgeKind::Transit));
                checked.customer += 1;
            }
            RouteKind::Peer => {
                // Wave 2's tie-break: the lowest-numbered peer holding a
                // customer route one hop shorter.
                let lowest = peers[i]
                    .iter()
                    .copied()
                    .find(|y| expected[y.index()] == Some((RouteKind::Customer, e.len - 1)));
                assert_eq!(Some(next), lowest, "{x:?}: peer tie-break");
                let via = e.via.expect("peer routes carry an interconnect");
                assert!(
                    oracle.interconnect_options(x, next).contains(&via),
                    "{x:?}: {via:?} is not an interconnect with {next:?}"
                );
                checked.peer += 1;
            }
            RouteKind::Provider => {
                assert!(
                    w.providers_of(x).contains(&next),
                    "{x:?}: next not a provider"
                );
                assert_eq!(e.via, Some(EdgeKind::Transit));
                checked.provider += 1;
            }
        }
    }
}

/// Twenty destinations spread over the AS index range.
fn check_world(w: &World) {
    let oracle = RoutingOracle::new(w);
    let peers = peer_lists(w);
    for (i, p) in peers.iter().enumerate() {
        let from_oracle: BTreeSet<AsId> = oracle
            .peers_of(AsId::from_index(i))
            .iter()
            .copied()
            .collect();
        assert_eq!(&from_oracle, p, "peer list of AS index {i}");
    }
    let mut checked = Checked::default();
    let stride = (w.ases.len() / 20).max(1);
    for d in (0..w.ases.len()).step_by(stride).take(20) {
        let dst = AsId::from_index(d);
        let table = oracle.routes_to(dst);
        check_table(w, &oracle, &peers, &table, dst, &mut checked);
    }
    assert!(
        checked.customer > 0 && checked.peer > 0 && checked.provider > 0,
        "vacuous run: {} customer, {} peer, {} provider routes",
        checked.customer,
        checked.peer,
        checked.provider
    );
}

#[test]
fn tables_match_the_naive_decision_process() {
    for seed in [3, 17, 101] {
        check_world(&WorldConfig::small(seed).generate());
    }
}

#[test]
fn tables_match_the_naive_decision_process_after_an_ixp_outage() {
    let base = WorldConfig::small(29).generate();
    let outage = Scenario::IxpOutage {
        ixp: "AMS-IX".into(),
    };
    outage.validate(&base).expect("AMS-IX exists");
    check_world(&outage.apply(&base));
}
