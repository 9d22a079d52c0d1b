//! The ground-truth world model.
//!
//! A [`World`] is the synthetic Internet against which everything else
//! runs: the measurement engines probe it, the registries publish noisy
//! views of it, and the inference pipeline is scored against its hidden
//! truth — exactly the role the real Internet played for the paper.
//!
//! Entities live in dense arenas indexed by the typed ids of
//! [`crate::ids`]; cross-references are ids, never pointers, so the whole
//! world is `Clone + Send` and trivially serialisable.

use crate::cities::Region;
use crate::ids::*;
use opeer_geo::GeoPoint;
use opeer_net::{Asn, Ipv4Prefix, PrefixTrie};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// A city hosting facilities and network premises.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct City {
    /// Human-readable name, unique in the world.
    pub name: String,
    /// ISO country code.
    pub country: String,
    /// RIR region.
    pub region: Region,
    /// Coordinates of the city centre.
    pub location: GeoPoint,
}

/// A colocation facility (data centre).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Facility {
    /// Facility name, e.g. `"Equinix AM3-like #12"`.
    pub name: String,
    /// City the facility is in.
    pub city: CityId,
    /// Exact coordinates (jittered within the metro area of the city).
    pub location: GeoPoint,
}

/// Broad classification of an AS's business, which drives its peering
/// and colocation behaviour in the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AsKind {
    /// Global transit backbone (tier-1-like, settlement-free core).
    TransitGlobal,
    /// Regional transit provider.
    TransitRegional,
    /// Content provider / CDN.
    Content,
    /// Access / eyeball network.
    Eyeball,
    /// Enterprise or hosting network.
    Enterprise,
    /// Layer-2 carrier; the pool from which IXP port resellers are drawn.
    Carrier,
}

/// An autonomous system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsNode {
    /// Public ASN.
    pub asn: Asn,
    /// Synthetic operator name.
    pub name: String,
    /// Business type.
    pub kind: AsKind,
    /// Headquarters city (premises routers live here).
    pub home_city: CityId,
    /// Ground-truth colocation: facilities where the AS has equipment.
    pub facilities: Vec<FacilityId>,
    /// Prefixes originated by this AS.
    pub prefixes: Vec<Ipv4Prefix>,
    /// Aggregate traffic level (PeeringDB-style self-reported scale), Mbps.
    pub traffic_mbps: u64,
    /// Estimated served user population (APNIC-style).
    pub user_population: u64,
    /// Whether this AS sells IXP ports as a reseller.
    pub is_reseller: bool,
    /// Whether the AS peers openly (multilateral, route-server) or
    /// selectively.
    pub open_peering: bool,
}

/// Inter-AS business relationship, Gao–Rexford style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Rel {
    /// First AS is provider of the second (p2c).
    ProviderCustomer,
    /// Settlement-free peers (p2p) over a private interconnect.
    PeerPeer,
}

/// Validation-data provenance for an IXP (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValidationRole {
    /// No validation data available.
    None,
    /// Control subset: operator/website lists but no public VP; used to
    /// study inference challenges (§4).
    Control,
    /// Test subset: has colocated VPs; used to validate the methodology
    /// (§5.3).
    Test,
}

/// Where a validation list came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValidationSource {
    /// Provided directly by the IXP operator.
    Operators,
    /// Scraped from the IXP website (port-type pages).
    Websites,
}

/// An Internet exchange point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ixp {
    /// IXP name, e.g. `"AMS-IX"`.
    pub name: String,
    /// The IPv4 peering LAN.
    pub peering_lan: Ipv4Prefix,
    /// Route server address inside the peering LAN.
    pub route_server_ip: Ipv4Addr,
    /// ASN of the IXP's route server / NOC.
    pub route_server_asn: Asn,
    /// Facilities where the switching fabric is deployed.
    pub facilities: Vec<FacilityId>,
    /// The facility hosting the IXP core (route server, looking glass).
    pub anchor_facility: FacilityId,
    /// Minimum capacity of a *physical* port sold by the IXP, Mbps
    /// (the paper's `Cmin` from the pricing page).
    pub min_physical_capacity_mbps: u32,
    /// Physical port capacity options, Mbps.
    pub capacity_options_mbps: Vec<u32>,
    /// Whether the IXP has a reseller programme.
    pub allows_resellers: bool,
    /// Whether a public looking glass exists.
    pub has_looking_glass: bool,
    /// Whether the LG rounds RTTs up to integer milliseconds (§6.1).
    pub lg_rounds_up: bool,
    /// Among the "largest IXPs with usable VPs" studied in §6.
    pub studied: bool,
    /// Validation subset membership (Table 2).
    pub validation: ValidationRole,
    /// Provenance of validation data, if any.
    pub validation_source: Option<ValidationSource>,
}

/// Physical placement of a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterLoc {
    /// Inside a colocation facility.
    Facility(FacilityId),
    /// On the owner's own premises in a city (typical for remote peers'
    /// border routers).
    Premises(CityId),
}

/// How a router generates IP-ID values — the signal MIDAR-style alias
/// resolution keys on (`opeer-alias`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IpIdMode {
    /// One shared, monotonically increasing counter across all interfaces
    /// (classic router behaviour; resolvable).
    SharedCounter {
        /// Counter value at simulation epoch.
        init: u16,
        /// Mean increments per second (traffic-driven).
        rate_per_s: f64,
    },
    /// Pseudo-random IP-ID per packet (unresolvable).
    Random,
    /// Always-zero IP-ID (common on modern stacks; unresolvable).
    Zero,
}

/// A router.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Router {
    /// Owning AS.
    pub owner: AsId,
    /// Physical location.
    pub loc: RouterLoc,
    /// IP-ID behaviour.
    pub ip_id: IpIdMode,
    /// Interfaces on this router.
    pub interfaces: Vec<IfaceId>,
}

/// What an interface is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IfaceKind {
    /// Address on an IXP peering LAN, tied to a membership.
    IxpLan {
        /// The IXP whose LAN the address belongs to.
        ixp: IxpId,
        /// The membership this interface realises.
        membership: MembershipId,
    },
    /// Internal/backbone interface of the owning AS.
    Internal,
    /// Interface on a private interconnect (PNI) at a facility.
    PrivatePeering {
        /// Facility where the PNI is patched.
        facility: FacilityId,
        /// The AS on the other end.
        peer_as: AsId,
    },
}

/// A router interface with an IPv4 address.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Interface {
    /// The interface address (unique in the world).
    pub addr: Ipv4Addr,
    /// Owning router.
    pub router: RouterId,
    /// Attachment kind.
    pub kind: IfaceKind,
    /// Whether the interface answers ICMP echo (some routers filter it).
    pub responds_to_ping: bool,
}

/// How a member's port at the IXP was bought.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PortKind {
    /// A physical port bought directly from the IXP.
    Physical,
    /// A virtual (VLAN) port bought from a reseller, typically
    /// rate-limited below the IXP's minimum physical capacity.
    VirtualReseller {
        /// The reseller AS.
        reseller: AsId,
    },
    /// A legacy physical port below today's `Cmin` (the paper's footnote 6:
    /// rare old members / stale entries) — the precision cost of Step 1.
    LegacyPhysicalSubMin,
}

/// Ground truth of how the member reaches the IXP (Definition 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessTruth {
    /// Own router patched in an IXP facility: a local peer.
    Local {
        /// The facility where the member's router is patched.
        facility: FacilityId,
    },
    /// Reached through a port reseller: remote by definition, even when
    /// the member is colocated with the IXP (§5.1.2).
    RemoteReseller {
        /// The reseller AS.
        reseller: AsId,
        /// Facility where the reseller's physical port is patched.
        reseller_port_facility: FacilityId,
    },
    /// A "long cable" (owned or carrier-provided L2 circuit) into the IXP.
    RemoteLongCable {
        /// Facility where the cable lands on the IXP fabric.
        landing_facility: FacilityId,
    },
    /// Access through an IXP federation partner (e.g. GlobePeer-style).
    RemoteFederation {
        /// Facility of the partner fabric where traffic enters.
        gateway_facility: FacilityId,
    },
}

impl AccessTruth {
    /// Whether this access is remote under the paper's Definition 1.
    pub fn is_remote(&self) -> bool {
        !matches!(self, AccessTruth::Local { .. })
    }
}

/// One AS's connection to one IXP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Membership {
    /// The IXP.
    pub ixp: IxpId,
    /// The member AS.
    pub member: AsId,
    /// The member's border router carrying this peering.
    pub router: RouterId,
    /// The member's interface on the peering LAN.
    pub iface: IfaceId,
    /// Port capacity in Mbps.
    pub port_mbps: u32,
    /// How the port was bought.
    pub port: PortKind,
    /// Ground-truth access type.
    pub truth: AccessTruth,
    /// Month (since simulation start) the member joined.
    pub joined_month: u32,
    /// Month the member left, if it did.
    pub left_month: Option<u32>,
}

impl Membership {
    /// Whether the membership is active at `month`.
    pub fn active_at(&self, month: u32) -> bool {
        self.joined_month <= month && self.left_month.is_none_or(|l| l > month)
    }
}

/// A private network interconnect between two ASes at a facility.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrivateLink {
    /// First endpoint AS.
    pub a: AsId,
    /// Second endpoint AS.
    pub b: AsId,
    /// Facility where the cross-connect is patched. For the rare tethered
    /// case the endpoints' routers sit in different facilities.
    pub facility: FacilityId,
    /// Interface of `a` on the link.
    pub a_iface: IfaceId,
    /// Interface of `b` on the link.
    pub b_iface: IfaceId,
}

/// The complete ground-truth world.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct World {
    /// Cities (facility and premises locations).
    pub cities: Vec<City>,
    /// Colocation facilities.
    pub facilities: Vec<Facility>,
    /// Autonomous systems.
    pub ases: Vec<AsNode>,
    /// Internet exchange points.
    pub ixps: Vec<Ixp>,
    /// Routers.
    pub routers: Vec<Router>,
    /// Interfaces.
    pub interfaces: Vec<Interface>,
    /// IXP memberships.
    pub memberships: Vec<Membership>,
    /// Private interconnects.
    pub private_links: Vec<PrivateLink>,
    /// Transit relationships (provider, customer).
    pub transit_rels: Vec<(AsId, AsId)>,
    /// The month index of "now" — the snapshot the main experiments use.
    pub observation_month: u32,
    /// Seed the world was generated from (for reproducibility records).
    pub seed: u64,

    // ---- derived indexes (rebuilt by `rebuild_indexes`) ----
    #[serde(skip)]
    iface_by_addr: HashMap<Ipv4Addr, IfaceId>,
    #[serde(skip)]
    ixp_lan_trie: PrefixTrie<IxpId>,
    #[serde(skip)]
    memberships_by_ixp: Vec<Vec<MembershipId>>,
    #[serde(skip)]
    memberships_by_as: Vec<Vec<MembershipId>>,
    #[serde(skip)]
    providers_of: Vec<Vec<AsId>>,
    #[serde(skip)]
    customers_of: Vec<Vec<AsId>>,
    #[serde(skip)]
    private_peers_of: Vec<Vec<AsId>>,
    #[serde(skip)]
    routers_by_as: Vec<Vec<RouterId>>,
    #[serde(skip)]
    origin_trie: PrefixTrie<AsId>,
}

impl World {
    /// Rebuilds all derived lookup indexes. Must be called after any
    /// structural mutation (the generator calls it once at the end).
    pub fn rebuild_indexes(&mut self) {
        self.iface_by_addr = self
            .interfaces
            .iter()
            .enumerate()
            .map(|(i, ifc)| (ifc.addr, IfaceId::from_index(i)))
            .collect();

        self.ixp_lan_trie = PrefixTrie::new();
        for (i, ixp) in self.ixps.iter().enumerate() {
            self.ixp_lan_trie
                .insert(ixp.peering_lan, IxpId::from_index(i));
        }

        self.memberships_by_ixp = vec![Vec::new(); self.ixps.len()];
        self.memberships_by_as = vec![Vec::new(); self.ases.len()];
        for (i, m) in self.memberships.iter().enumerate() {
            self.memberships_by_ixp[m.ixp.index()].push(MembershipId::from_index(i));
            self.memberships_by_as[m.member.index()].push(MembershipId::from_index(i));
        }

        self.providers_of = vec![Vec::new(); self.ases.len()];
        self.customers_of = vec![Vec::new(); self.ases.len()];
        for &(p, c) in &self.transit_rels {
            self.providers_of[c.index()].push(p);
            self.customers_of[p.index()].push(c);
        }

        self.private_peers_of = vec![Vec::new(); self.ases.len()];
        for l in &self.private_links {
            self.private_peers_of[l.a.index()].push(l.b);
            self.private_peers_of[l.b.index()].push(l.a);
        }

        self.routers_by_as = vec![Vec::new(); self.ases.len()];
        for (i, r) in self.routers.iter().enumerate() {
            self.routers_by_as[r.owner.index()].push(RouterId::from_index(i));
        }

        self.origin_trie = PrefixTrie::new();
        for (i, a) in self.ases.iter().enumerate() {
            for p in &a.prefixes {
                self.origin_trie.insert(*p, AsId::from_index(i));
            }
        }
    }

    // ---- geometry ----

    /// Coordinates of a city.
    pub fn city_point(&self, c: CityId) -> GeoPoint {
        self.cities[c.index()].location
    }

    /// Coordinates of a facility.
    pub fn facility_point(&self, f: FacilityId) -> GeoPoint {
        self.facilities[f.index()].location
    }

    /// Physical coordinates of a router.
    pub fn router_point(&self, r: RouterId) -> GeoPoint {
        match self.routers[r.index()].loc {
            RouterLoc::Facility(f) => self.facility_point(f),
            RouterLoc::Premises(c) => self.city_point(c),
        }
    }

    /// Geodesic distance between two facilities, km.
    pub fn facility_distance_km(&self, a: FacilityId, b: FacilityId) -> f64 {
        self.facility_point(a).distance_km(&self.facility_point(b))
    }

    // ---- lookups ----

    /// Interface by address.
    pub fn iface_by_addr(&self, addr: Ipv4Addr) -> Option<IfaceId> {
        self.iface_by_addr.get(&addr).copied()
    }

    /// The IXP whose peering LAN contains `addr`, if any.
    pub fn ixp_of_lan_addr(&self, addr: Ipv4Addr) -> Option<IxpId> {
        self.ixp_lan_trie.longest_match(addr).map(|(_, v)| *v)
    }

    /// Memberships of an IXP (all months; filter with
    /// [`Membership::active_at`]).
    pub fn memberships_of_ixp(&self, ixp: IxpId) -> &[MembershipId] {
        &self.memberships_by_ixp[ixp.index()]
    }

    /// Memberships of an AS across IXPs.
    pub fn memberships_of_as(&self, asid: AsId) -> &[MembershipId] {
        &self.memberships_by_as[asid.index()]
    }

    /// Memberships of an IXP active at the observation month.
    pub fn active_memberships_of_ixp(&self, ixp: IxpId) -> Vec<MembershipId> {
        self.memberships_of_ixp(ixp)
            .iter()
            .copied()
            .filter(|&m| self.memberships[m.index()].active_at(self.observation_month))
            .collect()
    }

    /// Transit providers of an AS.
    pub fn providers_of(&self, a: AsId) -> &[AsId] {
        &self.providers_of[a.index()]
    }

    /// Transit customers of an AS.
    pub fn customers_of(&self, a: AsId) -> &[AsId] {
        &self.customers_of[a.index()]
    }

    /// Private (PNI) peers of an AS.
    pub fn private_peers_of(&self, a: AsId) -> &[AsId] {
        &self.private_peers_of[a.index()]
    }

    /// All routers owned by an AS.
    pub fn routers_of_as(&self, a: AsId) -> &[RouterId] {
        &self.routers_by_as[a.index()]
    }

    /// The AS's premises border router if it has one, else any router.
    pub fn representative_router(&self, a: AsId) -> Option<RouterId> {
        let routers = self.routers_of_as(a);
        routers
            .iter()
            .copied()
            .find(|&r| matches!(self.routers[r.index()].loc, RouterLoc::Premises(_)))
            .or_else(|| routers.first().copied())
    }

    /// The internal interface of a router (its first `Internal` one).
    pub fn internal_iface_of(&self, r: RouterId) -> Option<IfaceId> {
        self.routers[r.index()]
            .interfaces
            .iter()
            .copied()
            .find(|&i| matches!(self.interfaces[i.index()].kind, IfaceKind::Internal))
    }

    /// Origin AS of an address per the ground-truth announcements
    /// (longest prefix match over all originated prefixes).
    pub fn origin_of_addr(&self, addr: Ipv4Addr) -> Option<AsId> {
        self.origin_trie.longest_match(addr).map(|(_, v)| *v)
    }

    /// The membership behind an IXP-LAN interface, if the interface is one.
    pub fn membership_of_iface(&self, ifc: IfaceId) -> Option<MembershipId> {
        match self.interfaces[ifc.index()].kind {
            IfaceKind::IxpLan { membership, .. } => Some(membership),
            _ => None,
        }
    }

    /// IXPs where both ASes are active members.
    pub fn common_ixps<'w>(&'w self, a: AsId, b: AsId) -> impl Iterator<Item = IxpId> + 'w {
        let month = self.observation_month;
        let b_ixps: std::collections::HashSet<IxpId> = self
            .memberships_of_as(b)
            .iter()
            .map(|&m| &self.memberships[m.index()])
            .filter(|m| m.active_at(month))
            .map(|m| m.ixp)
            .collect();
        self.memberships_of_as(a)
            .iter()
            .map(move |&m| &self.memberships[m.index()])
            .filter(move |m| m.active_at(month))
            .map(|m| m.ixp)
            .filter(move |i| b_ixps.contains(i))
    }

    /// Whether the IXP's fabric spans multiple metro areas (the paper's
    /// wide-area test, §4.2): any two facilities more than 50 km apart.
    pub fn is_wide_area_ixp(&self, ixp: IxpId) -> bool {
        let facs = &self.ixps[ixp.index()].facilities;
        for (i, &fa) in facs.iter().enumerate() {
            for &fb in &facs[i + 1..] {
                if self.facility_distance_km(fa, fb) > opeer_geo::metro::DEFAULT_METRO_THRESHOLD_KM
                {
                    return true;
                }
            }
        }
        false
    }

    // ---- consistency checking ----

    /// Validates internal referential integrity; returns human-readable
    /// problems (empty = consistent). The generator's tests assert this.
    pub fn check_consistency(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, f) in self.facilities.iter().enumerate() {
            if f.city.index() >= self.cities.len() {
                problems.push(format!("facility {i} has dangling city {:?}", f.city));
            }
        }
        for (i, r) in self.routers.iter().enumerate() {
            if r.owner.index() >= self.ases.len() {
                problems.push(format!("router {i} has dangling owner"));
            }
            for &ifc in &r.interfaces {
                if ifc.index() >= self.interfaces.len() {
                    problems.push(format!("router {i} has dangling interface"));
                } else if self.interfaces[ifc.index()].router.index() != i {
                    problems.push(format!("router {i} interface back-reference broken"));
                }
            }
        }
        for (i, m) in self.memberships.iter().enumerate() {
            if m.ixp.index() >= self.ixps.len() || m.member.index() >= self.ases.len() {
                problems.push(format!("membership {i} dangling ixp/member"));
                continue;
            }
            let iface = &self.interfaces[m.iface.index()];
            if !self.ixps[m.ixp.index()].peering_lan.contains(iface.addr) {
                problems.push(format!(
                    "membership {i}: iface {} outside peering LAN {}",
                    iface.addr,
                    self.ixps[m.ixp.index()].peering_lan
                ));
            }
            if self.routers[m.router.index()].owner != m.member {
                problems.push(format!("membership {i}: router not owned by member"));
            }
            // Local truth requires the member's router in an IXP facility.
            if let AccessTruth::Local { facility } = m.truth {
                if !self.ixps[m.ixp.index()].facilities.contains(&facility) {
                    problems.push(format!("membership {i}: 'local' at non-IXP facility"));
                }
                match self.routers[m.router.index()].loc {
                    RouterLoc::Facility(f) if f == facility => {}
                    other => problems.push(format!(
                        "membership {i}: local member router at {other:?}, expected {facility:?}"
                    )),
                }
            }
            if let Some(left) = m.left_month {
                if left <= m.joined_month {
                    problems.push(format!("membership {i}: left before joining"));
                }
            }
        }
        for (i, l) in self.private_links.iter().enumerate() {
            for ifc in [l.a_iface, l.b_iface] {
                if ifc.index() >= self.interfaces.len() {
                    problems.push(format!("private link {i} dangling interface"));
                }
            }
        }
        let mut seen = HashMap::new();
        for (i, ifc) in self.interfaces.iter().enumerate() {
            if let Some(prev) = seen.insert(ifc.addr, i) {
                problems.push(format!(
                    "duplicate interface address {} ({} and {})",
                    ifc.addr, prev, i
                ));
            }
        }
        problems
    }

    // ---- summary ----

    /// One-line summary used by examples and logs.
    pub fn summary(&self) -> String {
        format!(
            "world: {} cities, {} facilities, {} ASes, {} IXPs, {} routers, {} interfaces, {} memberships, {} private links",
            self.cities.len(),
            self.facilities.len(),
            self.ases.len(),
            self.ixps.len(),
            self.routers.len(),
            self.interfaces.len(),
            self.memberships.len(),
            self.private_links.len()
        )
    }
}
