//! Policy routing over the synthetic AS graph.
//!
//! AS-level paths follow the Gao–Rexford model: every AS prefers
//! customer-learned routes over peer-learned over provider-learned, then
//! shorter AS paths; routes learned from peers or providers are exported
//! only to customers (valley-free). Peer edges exist over private
//! interconnects and over IXPs where both ASes are members with open
//! policies; the IXP used for a peer hop is chosen hot-potato (closest
//! interconnect to the deciding AS) with a deterministic minority of
//! policy-driven exceptions — §6.4 measures exactly this mixture in the
//! wild (66 % nearest-exit, 34 % policy quirks).
//!
//! Router-level expansion turns an AS path into the interface sequence a
//! traceroute would show (ingress-interface convention): crossing into an
//! AS over an IXP surfaces that member's peering-LAN address — the signal
//! `opeer-traix` detects — and multi-IXP routers appear naturally when one
//! router carries several memberships.

use crate::ids::*;
use crate::world::{IfaceKind, World};
use opeer_geo::GeoPoint;
use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

/// How a path enters the next AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Over a transit (p2c/c2p) adjacency.
    Transit,
    /// Crossing the given IXP's peering LAN.
    Ixp(IxpId),
    /// Over the given private interconnect
    /// (index into [`World::private_links`]).
    Private(usize),
}

/// Gao–Rexford route class, in preference order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RouteKind {
    /// Learned from a customer.
    Customer,
    /// Learned from a peer.
    Peer,
    /// Learned from a provider.
    Provider,
}

/// A routing table entry towards one destination AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Route class.
    pub kind: RouteKind,
    /// AS-path length in hops.
    pub len: u32,
    /// Next hop AS (`None` at the destination itself).
    pub next: Option<AsId>,
    /// Edge used towards the next hop.
    pub via: Option<EdgeKind>,
}

/// `Slot::next` at the destination itself.
const NO_NEXT: u32 = u32::MAX;

/// One AS's route in a [`RouteTable`]. It holds a route only while
/// `stamp` equals the table's generation; stamp 0 never does.
#[derive(Debug, Clone, Copy)]
struct Slot {
    stamp: u32,
    next: u32,
    len: u32,
    kind: RouteKind,
}

impl Slot {
    const EMPTY: Slot = Slot {
        stamp: 0,
        next: NO_NEXT,
        len: 0,
        kind: RouteKind::Customer,
    };
}

/// Best routes towards one destination AS, from every AS (a full
/// table) or from a set of sources (a scoped table).
///
/// Routes live in a dense slot array indexed by [`AsId`] plus the list
/// of ASes that hold one. [`RoutingOracle::routes_into`] refills a
/// table in place: it bumps the generation instead of clearing the
/// slots, so a reused table needs no O(world) reset and no new
/// allocation per destination. [`RoutingOracle::routes_for`] refills it
/// for some sources only; a scoped table answers for those sources,
/// the ASes above them in the provider DAG and the destination's
/// customer cone. Peer routes store only their next hop; the table
/// borrows its oracle and picks the interconnect when the route is read
/// ([`RouteTable::entry`], [`RouteTable::as_path`]).
#[derive(Clone)]
pub struct RouteTable<'o> {
    oracle: &'o RoutingOracle<'o>,
    dst: AsId,
    generation: u32,
    slots: Vec<Slot>,
    /// Whether this fill routes only the ASes marked in `scope`.
    scoped: bool,
    /// `scope[a] == generation` marks `a` in a scoped fill's scope;
    /// stamped and reset like `slots`.
    scope: Vec<u32>,
    reached: Vec<AsId>,
    // Wave scratch, kept so refills reuse its allocations.
    queue: VecDeque<AsId>,
    order: Vec<u64>,
}

impl std::fmt::Debug for RouteTable<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteTable")
            .field("dst", &self.dst)
            .field("scoped", &self.scoped)
            .field("reachable", &self.reached.len())
            .finish_non_exhaustive()
    }
}

impl<'o> RouteTable<'o> {
    /// An empty table for `oracle`'s world (no AS reaches anything),
    /// to be filled by [`RoutingOracle::routes_into`] or
    /// [`RoutingOracle::routes_for`].
    pub fn new(oracle: &'o RoutingOracle<'o>) -> Self {
        let n = oracle.world.ases.len();
        RouteTable {
            oracle,
            dst: AsId(0),
            generation: 1,
            slots: vec![Slot::EMPTY; n],
            scoped: false,
            scope: vec![0; n],
            reached: Vec::new(),
            queue: VecDeque::new(),
            order: Vec::new(),
        }
    }

    /// The destination the table routes towards.
    pub fn dst(&self) -> AsId {
        self.dst
    }

    fn slot(&self, a: AsId) -> Option<&Slot> {
        self.slots
            .get(a.index())
            .filter(|s| s.stamp == self.generation)
    }

    /// Installs (or overwrites) `a`'s route.
    fn set(&mut self, a: AsId, kind: RouteKind, len: u32, next: u32) {
        let slot = &mut self.slots[a.index()];
        if slot.stamp != self.generation {
            self.reached.push(a);
        }
        *slot = Slot {
            stamp: self.generation,
            next,
            len,
            kind,
        };
    }

    /// Starts a new generation towards `dst`: every slot and scope mark
    /// goes stale at once. Stamps are reset only when the generation
    /// counter wraps.
    fn restart(&mut self, oracle: &'o RoutingOracle<'o>, dst: AsId, scoped: bool) {
        let n = oracle.world.ases.len();
        self.oracle = oracle;
        self.dst = dst;
        self.scoped = scoped;
        self.reached.clear();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 || self.slots.len() != n {
            self.slots.clear();
            self.slots.resize(n, Slot::EMPTY);
            self.scope.clear();
            self.scope.resize(n, 0);
            self.generation = 1;
        }
    }

    /// Marks `sources` and every AS above them in the provider DAG:
    /// the scope of a scoped fill.
    fn mark_scope(&mut self, sources: impl IntoIterator<Item = AsId>) {
        let (world, generation) = (self.oracle.world, self.generation);
        let mut queue = std::mem::take(&mut self.queue);
        queue.clear();
        queue.extend(sources);
        while let Some(x) = queue.pop_front() {
            let mark = &mut self.scope[x.index()];
            if *mark != generation {
                *mark = generation;
                queue.extend(world.providers_of(x));
            }
        }
        self.queue = queue;
    }

    /// Whether this fill routes `a`: every AS in a full fill, the
    /// marked ones in a scoped fill.
    fn in_scope(&self, a: AsId) -> bool {
        !self.scoped || self.scope[a.index()] == self.generation
    }

    /// Sort keys `(len, AsId)` of every AS holding a route, ascending.
    fn fill_order_by_len(&mut self) {
        self.order.clear();
        for &a in &self.reached {
            let len = self.slots[a.index()].len;
            self.order.push(u64::from(len) << 32 | u64::from(a.0));
        }
        self.order.sort_unstable();
    }

    /// The entry for `src`, if `src` can reach the destination. A peer
    /// route's interconnect is picked here, from the table's oracle.
    ///
    /// A scoped table answers only for its scope and the destination's
    /// customer cone; debug builds panic on any other AS.
    pub fn entry(&self, src: AsId) -> Option<RouteEntry> {
        debug_assert!(
            self.in_scope(src)
                || self
                    .slot(src)
                    .is_some_and(|s| s.kind == RouteKind::Customer),
            "{src:?} is outside the scope of this table towards {:?}",
            self.dst
        );
        let slot = self.slot(src)?;
        let next = (slot.next != NO_NEXT).then_some(AsId(slot.next));
        let via = next.map(|y| match slot.kind {
            RouteKind::Peer => self.oracle.pick_interconnect(src, y).expect(
                "peers_of and interconnect_options agree: private peers and \
                 the PNI index both come from private_links, and open \
                 co-members list their common IXP in ixps_of",
            ),
            RouteKind::Customer | RouteKind::Provider => EdgeKind::Transit,
        });
        Some(RouteEntry {
            kind: slot.kind,
            len: slot.len,
            next,
            via,
        })
    }

    /// Number of ASes that can reach the destination. Only a full
    /// table ([`RoutingOracle::routes_into`]) counts every one; a
    /// scoped table counts those it routed.
    pub fn reachable_count(&self) -> usize {
        self.reached.len()
    }

    /// Reconstructs the AS-level path `src → dst` with the edges used.
    /// `hops[i].1` is the edge from `hops[i]` into `hops[i+1]`.
    pub fn as_path(&self, src: AsId) -> Option<Vec<(AsId, Option<EdgeKind>)>> {
        let mut path = Vec::new();
        let mut cur = src;
        loop {
            let e = self.entry(cur)?;
            path.push((cur, e.via));
            match e.next {
                Some(n) => cur = n,
                None => return Some(path),
            }
            if path.len() > 64 {
                return None; // defensive: corrupt table
            }
        }
    }
}

/// One hop of an expanded router-level path.
#[derive(Debug, Clone, Copy)]
pub struct TraceHop {
    /// Address the hop answers with (its ingress interface).
    pub addr: Ipv4Addr,
    /// Owning AS of the responding interface (by assignment).
    pub asid: AsId,
    /// The responding router (if the address belongs to a modelled
    /// interface; synthesized destination hosts have none).
    pub router: Option<RouterId>,
    /// The modelled interface.
    pub iface: Option<IfaceId>,
    /// How the path entered this AS (None for the source hop and
    /// intra-AS hops).
    pub entered_via: Option<EdgeKind>,
    /// Physical location of the hop, for delay computation.
    pub location: GeoPoint,
}

/// Policy-routing oracle over a [`World`].
pub struct RoutingOracle<'w> {
    world: &'w World,
    /// Fraction (percent) of peer-edge decisions that ignore hot-potato
    /// and pick a farther interconnect (policy quirk).
    policy_quirk_pct: u64,
    /// Peer lists per AS (open-peering co-members + private-link peers),
    /// sorted and deduplicated. Built **eagerly** so the oracle holds no
    /// interior mutability and is `Sync` — corpus shards on different
    /// worker threads share one oracle (and its one-time index cost)
    /// instead of re-memoising per shard.
    peers: Vec<Vec<AsId>>,
    /// Active IXPs per AS, sorted (intersection gives common IXPs fast).
    ixps_of: Vec<Vec<IxpId>>,
    /// Private links per unordered AS pair.
    pni_index: HashMap<(AsId, AsId), Vec<usize>>,
    /// Reference point per AS for hot-potato decisions.
    as_points: Vec<GeoPoint>,
}

impl<'w> RoutingOracle<'w> {
    /// Creates an oracle with the default 1/3 policy-quirk rate implied by
    /// §6.4's findings. Builds its lookup indexes once (O(world size)).
    pub fn new(world: &'w World) -> Self {
        let month = world.observation_month;
        let mut ixps_of: Vec<Vec<IxpId>> = vec![Vec::new(); world.ases.len()];
        for m in &world.memberships {
            if m.active_at(month) {
                ixps_of[m.member.index()].push(m.ixp);
            }
        }
        for v in &mut ixps_of {
            v.sort();
            v.dedup();
        }
        let mut pni_index: HashMap<(AsId, AsId), Vec<usize>> = HashMap::new();
        for (i, l) in world.private_links.iter().enumerate() {
            let key = (l.a.min(l.b), l.a.max(l.b));
            pni_index.entry(key).or_default().push(i);
        }
        let as_points: Vec<GeoPoint> = (0..world.ases.len())
            .map(|i| {
                let a = AsId::from_index(i);
                match world.representative_router(a) {
                    Some(r) => world.router_point(r),
                    None => world.city_point(world.ases[i].home_city),
                }
            })
            .collect();
        // Eager peer index, IXP-major: every pair of active open-peering
        // co-members peers, plus private links. Produces exactly the
        // sorted/deduplicated lists the old per-AS lazy memo computed,
        // at a fraction of the lookups.
        let mut peers: Vec<Vec<AsId>> = (0..world.ases.len())
            .map(|i| world.private_peers_of(AsId::from_index(i)).to_vec())
            .collect();
        for xi in 0..world.ixps.len() {
            let mut open_members: Vec<AsId> = world
                .memberships_of_ixp(IxpId::from_index(xi))
                .iter()
                .map(|&mid| &world.memberships[mid.index()])
                .filter(|m| m.active_at(month) && world.ases[m.member.index()].open_peering)
                .map(|m| m.member)
                .collect();
            open_members.sort();
            open_members.dedup();
            for &y in &open_members {
                peers[y.index()].extend(open_members.iter().copied().filter(|&o| o != y));
            }
        }
        for p in &mut peers {
            p.sort();
            p.dedup();
        }
        RoutingOracle {
            world,
            policy_quirk_pct: 34,
            peers,
            ixps_of,
            pni_index,
            as_points,
        }
    }

    /// Overrides the policy-quirk rate (percent of peer decisions).
    pub fn with_policy_quirk_pct(mut self, pct: u64) -> Self {
        self.policy_quirk_pct = pct.min(100);
        self
    }

    /// Whether `a` and `b` would peer over IXP co-membership: both need
    /// open policies (multilateral/route-server peering); private links
    /// peer unconditionally.
    fn open_peering_pair(&self, a: AsId, b: AsId) -> bool {
        self.world.ases[a.index()].open_peering && self.world.ases[b.index()].open_peering
    }

    /// All interconnect options between `x` and `y`: common IXPs and
    /// private links.
    pub fn interconnect_options(&self, x: AsId, y: AsId) -> Vec<EdgeKind> {
        let mut out: Vec<EdgeKind> = Vec::new();
        if self.open_peering_pair(x, y) {
            // Sorted-list intersection of the two IXP sets.
            let (mut i, mut j) = (0usize, 0usize);
            let (xs, ys) = (&self.ixps_of[x.index()], &self.ixps_of[y.index()]);
            while i < xs.len() && j < ys.len() {
                match xs[i].cmp(&ys[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        out.push(EdgeKind::Ixp(xs[i]));
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        if let Some(links) = self.pni_index.get(&(x.min(y), x.max(y))) {
            out.extend(links.iter().map(|&l| EdgeKind::Private(l)));
        }
        out
    }

    /// Location of an interconnect for hot-potato distance computation.
    fn edge_point(&self, e: EdgeKind) -> GeoPoint {
        match e {
            EdgeKind::Ixp(i) => self
                .world
                .facility_point(self.world.ixps[i.index()].anchor_facility),
            EdgeKind::Private(l) => self
                .world
                .facility_point(self.world.private_links[l].facility),
            EdgeKind::Transit => unreachable!("transit edges have no interconnect point"),
        }
    }

    /// Reference location of an AS for exit decisions (premises router or
    /// home city).
    fn as_point(&self, a: AsId) -> GeoPoint {
        self.as_points[a.index()]
    }

    /// Picks the interconnect `x` uses towards peer `y`: hot-potato
    /// (closest to `x`) for most pairs, a deterministic "policy" choice of
    /// a farther interconnect for the quirky minority.
    pub fn pick_interconnect(&self, x: AsId, y: AsId) -> Option<EdgeKind> {
        let mut opts = self.interconnect_options(x, y);
        if opts.is_empty() {
            return None;
        }
        let xp = self.as_point(x);
        opts.sort_by(|&ea, &eb| {
            let da = self.edge_point(ea).distance_km(&xp);
            let db = self.edge_point(eb).distance_km(&xp);
            da.partial_cmp(&db).expect("distances are finite")
        });
        let quirky = stable_hash(&[x.0 as u64, y.0 as u64, 0xC0FFEE]) % 100 < self.policy_quirk_pct;
        if quirky && opts.len() > 1 {
            // Deterministically pick a non-nearest option.
            let pick = 1 + (stable_hash(&[y.0 as u64, x.0 as u64]) as usize) % (opts.len() - 1);
            Some(opts[pick])
        } else {
            Some(opts[0])
        }
    }

    /// Computes best routes from every AS towards `dst` (Gao–Rexford
    /// three-wave construction) into a fresh table. Callers that route
    /// towards many destinations should refill one table with
    /// [`RoutingOracle::routes_into`] instead, and callers that read
    /// only some sources' paths should use [`RoutingOracle::routes_for`].
    pub fn routes_to(&self, dst: AsId) -> RouteTable<'_> {
        let mut table = RouteTable::new(self);
        self.routes_into(dst, &mut table);
        table
    }

    /// Refills `table` with the best routes from every AS towards `dst`
    /// (Gao–Rexford three-wave construction), reusing its storage.
    pub fn routes_into<'o>(&'o self, dst: AsId, table: &mut RouteTable<'o>) {
        table.restart(self, dst, false);
        self.fill(table);
    }

    /// Refills `table` with the best routes from `sources` towards
    /// `dst`: the same three waves, with waves 2 and 3 limited to the
    /// sources and the ASes above them in the provider DAG. Each
    /// source's route and path equal those of a full table.
    pub fn routes_for<'o>(
        &'o self,
        dst: AsId,
        sources: impl IntoIterator<Item = AsId>,
        table: &mut RouteTable<'o>,
    ) {
        table.restart(self, dst, true);
        table.mark_scope(sources);
        self.fill(table);
    }

    /// The three waves into a restarted `table`, over its scope.
    ///
    /// A scoped fill routes every AS in its scope as a full fill does.
    /// Wave 1 routes the whole customer cone. An AS's peer route reads
    /// only the cone and its own slot, so wave 2 may skip the others.
    /// Wave 3 seeds the in-scope ASes in the full fill's order, and
    /// queues an in-scope AS only while popping one of its providers,
    /// which the scope holds too; no AS outside the scope is a provider
    /// of one inside. So the in-scope entries leave the queue in the
    /// same order as in a full fill, read the same lengths and take the
    /// same decisions. A path from a source climbs in-scope providers,
    /// then takes at most one peer hop into the cone.
    fn fill<'o>(&'o self, table: &mut RouteTable<'o>) {
        let dst = table.dst;
        table.set(dst, RouteKind::Customer, 0, NO_NEXT);
        let mut queue = std::mem::take(&mut table.queue);
        queue.clear();

        // Wave 1 — customer routes: BFS up the provider DAG from dst.
        queue.push_back(dst);
        while let Some(x) = queue.pop_front() {
            let xlen = table.slots[x.index()].len;
            for &p in self.world.providers_of(x) {
                let better = match table.slot(p) {
                    None => true,
                    Some(e) => e.kind == RouteKind::Customer && xlen + 1 < e.len,
                };
                if better {
                    table.set(p, RouteKind::Customer, xlen + 1, x.0);
                    queue.push_back(p);
                }
            }
        }

        // Wave 2 — peer routes: single peer hop into the customer cone,
        // visited by (length, AsId). No interconnect is stored:
        // `RouteTable::entry` picks it when a route is read, and most
        // peer routes never are.
        table.fill_order_by_len();
        let cone = std::mem::take(&mut table.order);
        for &key in &cone {
            let (y, ylen) = (AsId(key as u32), (key >> 32) as u32);
            for &x in self.peers_of(y) {
                if !table.in_scope(x) {
                    continue;
                }
                let replace = match table.slot(x) {
                    None => true,
                    Some(e) if e.kind == RouteKind::Customer => false, // customer route wins
                    Some(e) => ylen + 1 < e.len || (ylen + 1 == e.len && y.0 < e.next),
                };
                if replace {
                    table.set(x, RouteKind::Peer, ylen + 1, y.0);
                }
            }
        }
        table.order = cone;

        // Wave 3 — provider routes: everything with a route advertises to
        // its customers; customers prefer the shortest. Seeded by
        // (length, AsId), which keeps tie-breaking deterministic.
        table.fill_order_by_len();
        queue.extend(
            table
                .order
                .iter()
                .map(|&key| AsId(key as u32))
                .filter(|&z| table.in_scope(z)),
        );
        while let Some(z) = queue.pop_front() {
            let zlen = table.slots[z.index()].len;
            for &c in self.world.customers_of(z) {
                if !table.in_scope(c) {
                    continue;
                }
                let better = match table.slot(c) {
                    None => true,
                    Some(e) => e.kind == RouteKind::Provider && zlen + 1 < e.len,
                };
                if better {
                    table.set(c, RouteKind::Provider, zlen + 1, z.0);
                    queue.push_back(c);
                }
            }
        }
        table.queue = queue;
    }

    /// Peers of `y`: private-link neighbors plus open co-members at its
    /// IXPs (active memberships only), sorted. Precomputed at oracle
    /// construction.
    pub fn peers_of(&self, y: AsId) -> &[AsId] {
        &self.peers[y.index()]
    }

    /// AS-level path from `src` to `dst`, from a table scoped to `src`.
    pub fn as_path(&self, src: AsId, dst: AsId) -> Option<Vec<(AsId, Option<EdgeKind>)>> {
        let mut table = RouteTable::new(self);
        self.routes_for(dst, [src], &mut table);
        table.as_path(src)
    }

    /// Expands an AS path to the traceroute hop sequence towards
    /// `dst_addr`. `table` must be the route table of the destination AS
    /// owning `dst_addr`, full or scoped to include `src` (dst-major
    /// callers reuse one table for many sources).
    pub fn trace_hops(
        &self,
        table: &RouteTable,
        src: AsId,
        dst_addr: Ipv4Addr,
    ) -> Option<Vec<TraceHop>> {
        let w = self.world;
        let as_path = table.as_path(src)?;
        let mut hops: Vec<TraceHop> = Vec::new();

        // Source hop: the source AS's representative router.
        let src_router = w.representative_router(src)?;
        if let Some(ifc) = w.internal_iface_of(src_router) {
            hops.push(TraceHop {
                addr: w.interfaces[ifc.index()].addr,
                asid: src,
                router: Some(src_router),
                iface: Some(ifc),
                entered_via: None,
                location: w.router_point(src_router),
            });
        }

        let mut last_router: Option<RouterId> = Some(src_router);
        for win in as_path.windows(2) {
            let (cur, edge) = win[0];
            let (next_as, _) = win[1];
            let edge = edge?;
            // The current AS leaves through a specific border router (its
            // membership router for IXP edges, its PNI router for private
            // edges). If that is a different box than the one that carried
            // the previous hop, the traceroute shows it — this egress hop
            // is exactly what step 4's `{IPx, IPixp}` pairs key on.
            if let Some((egress_router, egress_iface)) = self.egress_of(cur, edge) {
                if Some(egress_router) != last_router {
                    hops.push(TraceHop {
                        addr: w.interfaces[egress_iface.index()].addr,
                        asid: cur,
                        router: Some(egress_router),
                        iface: Some(egress_iface),
                        entered_via: None,
                        location: w.router_point(egress_router),
                    });
                    last_router = Some(egress_router);
                }
            }
            let (router, iface) = self.ingress_of(next_as, edge)?;
            if Some(router) == last_router {
                // Same physical box (multi-IXP router): the previous hop
                // already represented it; a real traceroute shows one TTL.
                continue;
            }
            hops.push(TraceHop {
                addr: w.interfaces[iface.index()].addr,
                asid: next_as,
                router: Some(router),
                iface: Some(iface),
                entered_via: Some(edge),
                location: w.router_point(router),
            });
            last_router = Some(router);
        }

        // Destination hop: the echo reply always carries the probed
        // address. If the last ingress hop was the same physical router,
        // it is replaced (one box answers once, with the target address).
        if hops.last().map(|h| h.addr) != Some(dst_addr) {
            let dst_as = table.dst;
            // If the target is a modelled interface, answer from its router;
            // otherwise synthesize a host at the destination AS's premises.
            match w.iface_by_addr(dst_addr) {
                Some(ifc) => {
                    let r = w.interfaces[ifc.index()].router;
                    if Some(r) == last_router {
                        hops.pop();
                    }
                    hops.push(TraceHop {
                        addr: dst_addr,
                        asid: dst_as,
                        router: Some(r),
                        iface: Some(ifc),
                        entered_via: None,
                        location: w.router_point(r),
                    });
                }
                None => {
                    let loc = match w.representative_router(dst_as) {
                        Some(r) => w.router_point(r),
                        None => w.city_point(w.ases[dst_as.index()].home_city),
                    };
                    hops.push(TraceHop {
                        addr: dst_addr,
                        asid: dst_as,
                        router: None,
                        iface: None,
                        entered_via: None,
                        location: loc,
                    });
                }
            }
        }
        Some(hops)
    }

    /// The border router through which `cur` leaves over `edge`, with its
    /// internal interface (the address a traceroute shows for the egress
    /// hop). For IXP edges this is the membership router — the physical
    /// box whose other interfaces include the member's peering-LAN
    /// addresses, which is what makes multi-IXP routers discoverable.
    fn egress_of(&self, cur: AsId, edge: EdgeKind) -> Option<(RouterId, IfaceId)> {
        let w = self.world;
        let router = match edge {
            EdgeKind::Ixp(ixp) => {
                let month = w.observation_month;
                let mid = w.memberships_of_as(cur).iter().copied().find(|&m| {
                    let mm = &w.memberships[m.index()];
                    mm.ixp == ixp && mm.active_at(month)
                })?;
                w.memberships[mid.index()].router
            }
            EdgeKind::Private(l) => {
                let link = &w.private_links[l];
                let ifc = if link.a == cur {
                    link.a_iface
                } else {
                    link.b_iface
                };
                w.interfaces[ifc.index()].router
            }
            EdgeKind::Transit => w.representative_router(cur)?,
        };
        let ifc = w.internal_iface_of(router)?;
        Some((router, ifc))
    }

    /// The ingress (responding) interface when entering `next_as` over
    /// `edge`: its peering-LAN interface for IXP crossings, its PNI
    /// interface for private links, an internal interface for transit.
    fn ingress_of(&self, next_as: AsId, edge: EdgeKind) -> Option<(RouterId, IfaceId)> {
        let w = self.world;
        match edge {
            EdgeKind::Ixp(ixp) => {
                let month = w.observation_month;
                let mid = w.memberships_of_as(next_as).iter().copied().find(|&m| {
                    let mm = &w.memberships[m.index()];
                    mm.ixp == ixp && mm.active_at(month)
                })?;
                let m = &w.memberships[mid.index()];
                Some((m.router, m.iface))
            }
            EdgeKind::Private(l) => {
                let link = &w.private_links[l];
                let ifc = if link.a == next_as {
                    link.a_iface
                } else {
                    link.b_iface
                };
                Some((w.interfaces[ifc.index()].router, ifc))
            }
            EdgeKind::Transit => {
                let r = w.representative_router(next_as)?;
                let ifc = w.internal_iface_of(r)?;
                Some((r, ifc))
            }
        }
    }
}

/// A small deterministic 64-bit hash (FNV-1a over the words); used for
/// stable pseudo-random decisions that must not depend on `rand` state.
pub fn stable_hash(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Convenience: is the interface an IXP-LAN interface?
pub fn is_ixp_lan_iface(world: &World, ifc: IfaceId) -> bool {
    matches!(world.interfaces[ifc.index()].kind, IfaceKind::IxpLan { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WorldConfig;

    fn world() -> World {
        WorldConfig::small(11).generate()
    }

    #[test]
    fn destination_reachable_from_most_ases() {
        let w = world();
        let oracle = RoutingOracle::new(&w);
        // A well-connected destination: first member of the first IXP.
        let dst = w.memberships[0].member;
        let table = oracle.routes_to(dst);
        let frac = table.reachable_count() as f64 / w.ases.len() as f64;
        assert!(frac > 0.95, "only {frac} of ASes reach {dst}");
    }

    #[test]
    fn paths_are_valley_free() {
        let w = world();
        let oracle = RoutingOracle::new(&w);
        let dst = w.memberships[0].member;
        let table = oracle.routes_to(dst);
        // Walk several sources; after the route leaves the "up" phase it
        // must never go up again: kinds along the path must be
        // monotonically... simpler: route kind of each suffix entry is
        // non-increasing in preference as we near dst? Verify no provider
        // edge follows a customer edge downstream.
        let mut checked = 0;
        for src_idx in (0..w.ases.len()).step_by(7) {
            let src = AsId::from_index(src_idx);
            let Some(path) = table.as_path(src) else {
                continue;
            };
            // Reconstruct phases: while entries are Provider we are going up;
            // a Peer step may occur once; then Customer steps go down.
            let mut phase = 0; // 0 = up, 1 = after peer, 2 = down
            for (asid, _) in &path {
                let kind = table.entry(*asid).expect("on path").kind;
                let p = match kind {
                    RouteKind::Provider => 0,
                    RouteKind::Peer => 1,
                    RouteKind::Customer => 2,
                };
                assert!(p >= phase, "valley in path at {asid:?}");
                phase = p;
            }
            checked += 1;
        }
        assert!(checked > 10, "too few paths checked");
    }

    #[test]
    fn as_path_terminates_at_destination() {
        let w = world();
        let oracle = RoutingOracle::new(&w);
        let dst = w.memberships[2].member;
        let table = oracle.routes_to(dst);
        let src = w.memberships.last().expect("memberships exist").member;
        if let Some(path) = table.as_path(src) {
            assert_eq!(path.last().expect("non-empty").0, dst);
            assert!(path.len() <= 12, "suspiciously long path {}", path.len());
        }
    }

    /// The invariant `RouteTable::entry` relies on when it picks a peer
    /// route's interconnect.
    #[test]
    fn every_peer_has_an_interconnect() {
        use crate::scenario::Scenario;
        for seed in [11, 12] {
            let base = WorldConfig::small(seed).generate();
            let scenarios = [
                Scenario::IxpOutage {
                    ixp: "AMS-IX".into(),
                },
                Scenario::PortMigration {
                    ixp: "AMS-IX".into(),
                    count: 25,
                },
                Scenario::ResellerConsolidation,
                Scenario::CapacityScaling {
                    factor_permille: 2000,
                },
            ];
            let worlds = std::iter::once(base.clone()).chain(scenarios.iter().map(|sc| {
                sc.validate(&base).expect("scenario fits the small world");
                sc.apply(&base)
            }));
            for w in worlds {
                let oracle = RoutingOracle::new(&w);
                let mut pairs = 0;
                for i in 0..w.ases.len() {
                    let x = AsId::from_index(i);
                    for &y in oracle.peers_of(x) {
                        assert!(
                            !oracle.interconnect_options(x, y).is_empty(),
                            "{x:?} peers with {y:?} over nothing"
                        );
                        pairs += 1;
                    }
                }
                assert!(pairs > 0, "no peer pairs checked");
            }
        }
    }

    /// Every AS's entry, interconnects included.
    fn all_entries(w: &World, table: &RouteTable<'_>) -> Vec<Option<RouteEntry>> {
        (0..w.ases.len())
            .map(|i| table.entry(AsId::from_index(i)))
            .collect()
    }

    #[test]
    fn refilled_table_equals_a_fresh_one() {
        let w = world();
        let oracle = RoutingOracle::new(&w);
        let mut table = RouteTable::new(&oracle);
        assert_eq!(table.reachable_count(), 0);
        assert!(
            table.entry(AsId(0)).is_none(),
            "an empty table routes nothing"
        );
        let stride = (w.ases.len() / 10).max(1);
        for d in (0..w.ases.len()).step_by(stride) {
            let dst = AsId::from_index(d);
            oracle.routes_into(dst, &mut table);
            let fresh = oracle.routes_to(dst);
            assert_eq!(table.dst(), dst);
            assert_eq!(table.reachable_count(), fresh.reachable_count());
            assert_eq!(
                all_entries(&w, &table),
                all_entries(&w, &fresh),
                "towards {dst:?}"
            );
        }
    }

    #[test]
    fn generation_wrap_resets_every_slot() {
        let w = world();
        let oracle = RoutingOracle::new(&w);
        let (a, b) = (w.memberships[0].member, w.memberships[3].member);
        let mut table = oracle.routes_to(a);
        // Age `a`'s routes to generation 1 and put the counter at its
        // last value: the next refill wraps, and unless it resets every
        // slot, `a`'s routes read as valid routes towards `b`.
        for slot in &mut table.slots {
            if slot.stamp == table.generation {
                slot.stamp = 1;
            }
        }
        table.generation = u32::MAX;
        oracle.routes_into(b, &mut table);
        assert_eq!(table.generation, 1);
        let fresh = oracle.routes_to(b);
        assert_eq!(table.reachable_count(), fresh.reachable_count());
        assert_eq!(all_entries(&w, &table), all_entries(&w, &fresh));
    }

    #[test]
    fn generation_wrap_resets_scope_marks() {
        let w = world();
        let oracle = RoutingOracle::new(&w);
        let (a, b) = (w.memberships[0].member, w.memberships[3].member);
        let src = w.memberships.last().expect("memberships exist").member;
        let everyone = (0..w.ases.len()).map(AsId::from_index);
        let mut table = RouteTable::new(&oracle);
        oracle.routes_for(a, everyone, &mut table);
        // Age every mark and route to generation 1 and put the counter
        // at its last value: unless the wrap resets the marks, the next
        // fill routes every AS instead of `src`'s scope.
        let generation = table.generation;
        for mark in &mut table.scope {
            if *mark == generation {
                *mark = 1;
            }
        }
        for slot in &mut table.slots {
            if slot.stamp == generation {
                slot.stamp = 1;
            }
        }
        table.generation = u32::MAX;
        oracle.routes_for(b, [src], &mut table);
        assert_eq!(table.generation, 1);
        let mut fresh = RouteTable::new(&oracle);
        oracle.routes_for(b, [src], &mut fresh);
        let scope = |t: &RouteTable<'_>| -> Vec<usize> {
            (0..w.ases.len())
                .filter(|&i| t.in_scope(AsId::from_index(i)))
                .collect()
        };
        assert_eq!(scope(&table), scope(&fresh));
        assert!(scope(&fresh).len() < w.ases.len(), "vacuous scope");
        assert_eq!(table.reachable_count(), fresh.reachable_count());
        assert_eq!(table.as_path(src), fresh.as_path(src));
    }

    #[test]
    fn peer_edge_prefers_common_ixp() {
        let w = world();
        let oracle = RoutingOracle::new(&w).with_policy_quirk_pct(0);
        // Find two open ASes sharing an IXP.
        let mut found = false;
        'outer: for m1 in &w.memberships {
            for m2 in &w.memberships {
                if m1.ixp == m2.ixp
                    && m1.member != m2.member
                    && w.ases[m1.member.index()].open_peering
                    && w.ases[m2.member.index()].open_peering
                    && m1.active_at(w.observation_month)
                    && m2.active_at(w.observation_month)
                {
                    let e = oracle.pick_interconnect(m1.member, m2.member);
                    assert!(e.is_some(), "no interconnect for co-members");
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "no open co-member pair in world");
    }

    #[test]
    fn policy_quirk_changes_some_choices() {
        let w = world();
        let hot = RoutingOracle::new(&w).with_policy_quirk_pct(0);
        let quirky = RoutingOracle::new(&w).with_policy_quirk_pct(100);
        let month = w.observation_month;
        let mut diffs = 0;
        let mut comparable = 0;
        for m1 in w.memberships.iter().take(200) {
            for m2 in w.memberships.iter().take(200) {
                if m1.member == m2.member || !m1.active_at(month) || !m2.active_at(month) {
                    continue;
                }
                let o1 = hot.interconnect_options(m1.member, m2.member);
                if o1.len() < 2 {
                    continue;
                }
                comparable += 1;
                if hot.pick_interconnect(m1.member, m2.member)
                    != quirky.pick_interconnect(m1.member, m2.member)
                {
                    diffs += 1;
                }
            }
        }
        if comparable > 0 {
            assert!(diffs > 0, "quirk rate had no effect on {comparable} pairs");
        }
    }

    #[test]
    fn trace_hops_cross_ixps_visibly() {
        let w = world();
        let oracle = RoutingOracle::new(&w);
        let month = w.observation_month;
        // Find a pair of co-members with open peering; trace src → dst's
        // LAN interface and require an IXP-LAN ingress hop.
        let mut seen_lan_hop = false;
        for mid in 0..w.memberships.len().min(400) {
            let m2 = &w.memberships[mid];
            if !m2.active_at(month) {
                continue;
            }
            let dst = m2.member;
            let dst_addr = w.interfaces[m2.iface.index()].addr;
            let table = oracle.routes_to(dst);
            for m1 in w.memberships.iter().take(100) {
                if m1.member == dst || !m1.active_at(month) {
                    continue;
                }
                if let Some(hops) = oracle.trace_hops(&table, m1.member, dst_addr) {
                    assert!(!hops.is_empty());
                    assert_eq!(hops.last().expect("non-empty").addr, dst_addr);
                    if hops
                        .iter()
                        .any(|h| h.iface.is_some_and(|i| is_ixp_lan_iface(&w, i)))
                    {
                        seen_lan_hop = true;
                    }
                }
            }
            if seen_lan_hop {
                break;
            }
        }
        assert!(seen_lan_hop, "no traceroute crossed an IXP LAN");
    }

    #[test]
    fn stable_hash_is_stable() {
        assert_eq!(stable_hash(&[1, 2, 3]), stable_hash(&[1, 2, 3]));
        assert_ne!(stable_hash(&[1, 2, 3]), stable_hash(&[3, 2, 1]));
    }
}
