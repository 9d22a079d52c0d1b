//! Deterministic world generation.
//!
//! [`WorldConfig::generate`] builds a ground-truth [`World`] whose marginal
//! statistics match the populations reported in the paper: 37 named IXPs
//! (the Table 2 validation set plus the other studied exchanges, see
//! [`crate::spec`]), a few hundred generated smaller IXPs (~14 % of the
//! multi-member ones wide-area, §4.2), a heavy-tailed AS population with
//! PDB-like colocation footprints (Fig. 1a), remote peers drawn from the
//! distance mixture implied by Fig. 1b, reseller virtual ports below the
//! IXPs' minimum physical capacity (Fig. 4), and the router-sharing
//! behaviour that produces multi-IXP routers (Fig. 3 / Fig. 9d).
//!
//! Everything is derived from a single `u64` seed; the same seed always
//! produces the same world, byte for byte.

use crate::cities::{Region, CITY_CATALOG, CITY_DIST_KM};
use crate::ids::*;
use crate::spec::{IxpSpec, NAMED_IXPS};
use crate::world::*;
use opeer_geo::GeoPoint;
use opeer_net::{Asn, Ipv4Prefix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// Distance classes for remote peers, with the paper-implied mixture
/// (Fig. 1b: ~18 % of remote peers within 1 ms ≈ same metro, ~40 % within
/// 10 ms ≈ ≲1300 km).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
#[serde(crate = "serde")]
pub struct RemoteMix {
    /// Same metropolitan area as the IXP (reseller in town).
    pub same_metro: f64,
    /// 100–1200 km.
    pub regional: f64,
    /// 1200–3500 km.
    pub continental: f64,
    /// Beyond 3500 km.
    pub intercontinental: f64,
}

use serde::{Deserialize, Serialize};

impl Default for RemoteMix {
    fn default() -> Self {
        RemoteMix {
            same_metro: 0.18,
            regional: 0.25,
            continental: 0.37,
            intercontinental: 0.20,
        }
    }
}

/// Distribution of freshly sold *physical* port capacities — the
/// port-capacity knob of the sweep fleet. The weights pick the tier of a
/// new physical port; the bounds clamp whatever tier was drawn, so whole
/// worlds can be pushed toward rich (all-100GE) or lean (all-GE) port
/// markets. Reseller virtual ports and legacy sub-`Cmin` ports are
/// deliberately outside its reach: resellers stay rate-limited below the
/// IXP minimum and legacy ports stay legacy, whatever the market does.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(crate = "serde")]
pub struct PortCapacityDist {
    /// P(local physical port = GE).
    pub p_local_ge: f64,
    /// P(local physical port = 10GE); the remainder is 100GE.
    pub p_local_10ge: f64,
    /// P(remote long-cable port = GE); the remainder is 10GE.
    pub p_cable_ge: f64,
    /// Lower clamp applied to tier-drawn physical capacities, Mbps.
    pub min_physical_mbps: u32,
    /// Upper clamp applied to tier-drawn physical capacities, Mbps.
    pub max_physical_mbps: u32,
}

impl Default for PortCapacityDist {
    fn default() -> Self {
        PortCapacityDist {
            p_local_ge: 0.55,
            p_local_10ge: 0.35,
            p_cable_ge: 0.70,
            min_physical_mbps: capacity::GE,
            max_physical_mbps: capacity::HUNDRED_GE,
        }
    }
}

impl PortCapacityDist {
    /// A capacity-rich market: most physical ports 10GE or 100GE.
    pub fn rich() -> Self {
        PortCapacityDist {
            p_local_ge: 0.15,
            p_local_10ge: 0.45,
            p_cable_ge: 0.30,
            ..Default::default()
        }
    }

    /// A lean market: nearly everything at the GE minimum.
    pub fn lean() -> Self {
        PortCapacityDist {
            p_local_ge: 0.90,
            p_local_10ge: 0.09,
            p_cable_ge: 0.95,
            ..Default::default()
        }
    }

    /// Clamps a tier-drawn capacity into the configured bounds. `max`
    /// wins over an inverted `min` (`WorldConfig::validate` rejects
    /// inverted bounds up front; an unvalidated config degrades instead
    /// of panicking).
    pub fn bound(&self, cap: u32) -> u32 {
        cap.max(self.min_physical_mbps).min(self.max_physical_mbps)
    }
}

/// Configuration of the world generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Multiplier on the named IXPs' member targets (1.0 = paper scale).
    pub scale: f64,
    /// Number of generated small IXPs beyond the named ones.
    pub n_small_ixps: usize,
    /// Pre-created AS pool beyond what memberships require.
    pub n_background_ases: usize,
    /// Probability that a generated multi-member small IXP is wide-area
    /// (the paper finds 14.4 % of multi-member IXPs wide-area).
    pub p_small_wide_area: f64,
    /// Months in the simulated timeline (the paper's longitudinal window
    /// 2017-07 … 2018-09 is 14 months).
    pub timeline_months: u32,
    /// The month used as "now" by the main experiments.
    pub observation_month: u32,
    /// Distance mixture of remote peers.
    pub remote_mix: RemoteMix,
    /// Distribution (and bounds) of freshly sold physical port
    /// capacities.
    pub port_capacity: PortCapacityDist,
    /// P(remote peer connects via reseller | IXP allows resellers).
    pub p_reseller_given_remote: f64,
    /// P(virtual port below Cmin | reseller port).
    pub p_submin_given_reseller: f64,
    /// P(remote-via-reseller member is nevertheless colocated with the
    /// IXP) — the 5 % artifact of Fig. 5.
    pub p_colocated_reseller: f64,
    /// P(local member holds a legacy physical port below Cmin) — Step 1's
    /// precision cost (footnote 6).
    pub p_legacy_submin_local: f64,
    /// P(local member reuses an existing router in the same facility for
    /// an additional IXP) — Fig. 3a.
    pub p_local_share_router: f64,
    /// P(remote member reuses its premises border router for an
    /// additional remote IXP) — Fig. 3b.
    pub p_remote_share_router: f64,
    /// P(remote membership attaches to an existing colocation router of
    /// the member instead of premises) — the hybrid case, Fig. 3c.
    pub p_hybrid_attach_facility: f64,
    /// Router IP-ID behaviour: P(shared counter) and P(random); the
    /// remainder send zero.
    pub p_ipid_shared: f64,
    /// See [`WorldConfig::p_ipid_shared`].
    pub p_ipid_random: f64,
    /// P(an IXP-LAN interface answers ping).
    pub p_iface_responds: f64,
    /// Mean number of private interconnects per local membership.
    pub mean_pnis_per_local: f64,
    /// Probability that a local member joined during the observation
    /// window rather than before it.
    pub p_join_window_local: f64,
    /// Same for remote members. Calibrated so that in-window remote joins
    /// outnumber local joins ≈2:1 despite remote members being ~¼ of the
    /// population (Fig. 12a).
    pub p_join_window_remote: f64,
    /// Extra departed memberships per in-window join.
    pub departures_per_join: f64,
    /// Number of remote→local switchers to plant at the evolution IXPs.
    pub n_switchers: usize,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0xBEE5,
            scale: 1.0,
            n_small_ixps: 670,
            n_background_ases: 1500,
            p_small_wide_area: 0.144,
            timeline_months: 14,
            observation_month: 12,
            remote_mix: RemoteMix::default(),
            port_capacity: PortCapacityDist::default(),
            p_reseller_given_remote: 0.62,
            p_submin_given_reseller: 0.60,
            p_colocated_reseller: 0.05,
            p_legacy_submin_local: 0.006,
            p_local_share_router: 0.80,
            p_remote_share_router: 0.85,
            p_hybrid_attach_facility: 0.25,
            p_ipid_shared: 0.75,
            p_ipid_random: 0.15,
            p_iface_responds: 0.95,
            mean_pnis_per_local: 1.6,
            p_join_window_local: 0.08,
            p_join_window_remote: 0.48,
            departures_per_join: 0.45,
            n_switchers: 18,
        }
    }
}

impl WorldConfig {
    /// Full paper-scale world (~20 k memberships over the timeline, ~15 k
    /// ASes). Generation takes ~0.15 s on a 2-vCPU host.
    pub fn paper(seed: u64) -> Self {
        WorldConfig {
            seed,
            ..Default::default()
        }
    }

    /// A small world for unit tests: same structure, ~5 % of the scale.
    pub fn small(seed: u64) -> Self {
        WorldConfig {
            seed,
            scale: 0.06,
            n_small_ixps: 20,
            n_background_ases: 120,
            n_switchers: 4,
            ..Default::default()
        }
    }

    /// A large world for scaling studies: full paper scale on the named
    /// IXPs' member targets, with a trimmed long tail of generated small
    /// IXPs and background ASes. Generation takes ~0.1 s on a 2-vCPU
    /// host, a fraction of the ~0.6 s two-thread cold build that measures
    /// it. Sized for the parallel engine era — both
    /// measurement assembly and inference now shard across the worker
    /// pool, so the identity and speedup tests in
    /// `tests/parallel_equivalence.rs` run at the member scale the paper
    /// measured instead of the half-scale world the sequential
    /// assembler could afford.
    pub fn large(seed: u64) -> Self {
        WorldConfig {
            seed,
            scale: 1.0,
            n_small_ixps: 400,
            n_background_ases: 1000,
            n_switchers: 14,
            ..Default::default()
        }
    }

    /// An extra-large world for saturation studies: roughly double the
    /// membership scale of [`WorldConfig::large`] with a deeper long
    /// tail of small IXPs and background ASes. Sized to keep the
    /// per-thread shards of the pipeline phase busy well past 8
    /// workers, so the scaling curve measures the engine rather than
    /// shard-scheduling overhead. On a 2-vCPU host generation takes
    /// ~0.5 s and sequential assembly ~2.1 s; CI's release identity test
    /// (`parallel_equals_sequential_at_scale`) runs it on every CI run.
    pub fn xlarge(seed: u64) -> Self {
        WorldConfig {
            seed,
            scale: 2.0,
            n_small_ixps: 900,
            n_background_ases: 2500,
            n_switchers: 24,
            ..Default::default()
        }
    }

    /// Generates the world.
    pub fn generate(&self) -> World {
        Gen::new(self.clone()).run()
    }
}

// ---------------------------------------------------------------------
// generator internals
// ---------------------------------------------------------------------

struct Gen {
    cfg: WorldConfig,
    rng: StdRng,
    w: World,
    /// Facilities per city.
    city_facilities: Vec<Vec<FacilityId>>,
    /// (AS, facility) → routers there.
    facility_routers: HashMap<(AsId, FacilityId), Vec<RouterId>>,
    /// AS → premises border router.
    premises_router: HashMap<AsId, RouterId>,
    /// Next host index inside each AS's /16.
    as_next_host: Vec<u32>,
    /// Next member slot on each IXP LAN.
    lan_next_slot: Vec<u32>,
    /// Whether each IXP has a site outside its anchor's metro.
    ixp_wide_area: Vec<bool>,
    /// Resellers serving each IXP, with their port facility there, in
    /// ascending reseller order.
    ixp_resellers: Vec<Vec<(AsId, FacilityId)>>,
    /// Per AS, the IXP whose membership fill last added it.
    filled_into: Vec<Option<IxpId>>,
    /// ASes other than resellers, per home city, ascending by `AsId`.
    city_ases: Vec<Vec<AsId>>,
    /// `(min(a, b), max(a, b), facility)` of every private link so far.
    private_link_keys: HashSet<(AsId, AsId, FacilityId)>,
}

/// Capacity constants, Mbps.
pub mod capacity {
    /// Fast Ethernet.
    pub const FE: u32 = 100;
    /// Gigabit Ethernet — the usual minimum physical port (`Cmin`).
    pub const GE: u32 = 1_000;
    /// 10GE.
    pub const TEN_GE: u32 = 10_000;
    /// 100GE.
    pub const HUNDRED_GE: u32 = 100_000;
}

impl Gen {
    fn new(cfg: WorldConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        Gen {
            cfg,
            rng,
            w: World::default(),
            city_facilities: Vec::new(),
            facility_routers: HashMap::new(),
            premises_router: HashMap::new(),
            as_next_host: Vec::new(),
            lan_next_slot: Vec::new(),
            ixp_wide_area: Vec::new(),
            ixp_resellers: Vec::new(),
            filled_into: Vec::new(),
            city_ases: Vec::new(),
            private_link_keys: HashSet::new(),
        }
    }

    fn run(mut self) -> World {
        self.make_cities();
        self.make_background_ases();
        self.make_named_ixps();
        self.make_small_ixps();
        self.make_resellers();
        self.populate_memberships();
        self.make_private_links();
        self.ensure_premises_routers();
        self.assign_timeline();
        // Transit is wired last so every minted member/ghost AS gets
        // providers too.
        self.make_transit_edges();
        self.colocate_providers();
        self.w.observation_month = self.cfg.observation_month;
        self.w.seed = self.cfg.seed;
        self.w.rebuild_indexes();
        self.w
    }

    // ---- phase 1: cities & facility pools ----

    fn make_cities(&mut self) {
        for c in CITY_CATALOG {
            self.w.cities.push(City {
                name: c.name.to_string(),
                country: c.country.to_string(),
                region: c.region,
                location: GeoPoint::new(c.lat, c.lon).expect("catalog coords valid"),
            });
        }
        self.city_facilities = vec![Vec::new(); self.w.cities.len()];
        self.city_ases = vec![Vec::new(); self.w.cities.len()];
        // A base stock of neutral colo facilities per city (1–5).
        for city_idx in 0..self.w.cities.len() {
            let count = self.rng.gen_range(1..=5);
            for k in 0..count {
                self.new_facility(CityId::from_index(city_idx), &format!("Colo {k}"));
            }
        }
    }

    fn new_facility(&mut self, city: CityId, label: &str) -> FacilityId {
        // Jitter within ~15 km of the centre: 0.1° lat ≈ 11 km.
        let base = self.w.cities[city.index()].location;
        let lat = (base.lat() + self.rng.gen_range(-0.12..0.12)).clamp(-89.9, 89.9);
        let lon = base.lon() + self.rng.gen_range(-0.18..0.18);
        let id = FacilityId::from_index(self.w.facilities.len());
        self.w.facilities.push(Facility {
            name: format!("{} {} #{}", self.w.cities[city.index()].name, label, id.0),
            city,
            location: GeoPoint::new(lat, lon).expect("jittered coords valid"),
        });
        self.city_facilities[city.index()].push(id);
        id
    }

    // ---- phase 2: the AS population ----

    fn make_background_ases(&mut self) {
        // Global transit clique.
        let majors = [
            "Frankfurt",
            "London",
            "New York",
            "Tokyo",
            "Amsterdam",
            "Paris",
            "Singapore",
            "Los Angeles",
            "Ashburn",
            "Hong Kong",
            "Stockholm",
            "Madrid",
        ];
        for (i, home) in majors.iter().enumerate() {
            let home = self.city_id(home);
            let asid = self.new_as(&format!("GlobalBackbone{i}"), AsKind::TransitGlobal, home);
            // Present in many facilities worldwide.
            let n_fac = self.rng.gen_range(15..35);
            self.add_random_facilities(asid, n_fac, None);
        }
        // Regional transit.
        let n_regional = (self.cfg.n_background_ases / 12).max(8);
        for i in 0..n_regional {
            let home = self.random_city_weighted();
            let asid = self.new_as(
                &format!("RegionalTransit{i}"),
                AsKind::TransitRegional,
                home,
            );
            let n_fac = self.rng.gen_range(2..8);
            self.add_random_facilities(asid, n_fac, Some(self.w.cities[home.index()].region));
        }
        // Carriers (reseller pool).
        for i in 0..40usize.min(self.cfg.n_background_ases / 4).max(10) {
            let home = self.random_city_weighted();
            let asid = self.new_as(&format!("Carrier{i}"), AsKind::Carrier, home);
            let n_fac = self.rng.gen_range(2..10);
            self.add_random_facilities(asid, n_fac, None);
        }
        // Content providers with heavy-tailed footprints.
        let n_content = self.cfg.n_background_ases / 5;
        for i in 0..n_content {
            let home = self.random_city_weighted();
            let asid = self.new_as(&format!("Content{i}"), AsKind::Content, home);
            let n_fac = self.heavy_tail_facility_count();
            self.add_random_facilities(asid, n_fac, None);
        }
        // The rest: eyeballs & enterprises, mostly single-facility or none.
        let remaining = self
            .cfg
            .n_background_ases
            .saturating_sub(majors.len() + n_regional + 40 + n_content);
        for i in 0..remaining {
            let home = self.random_city_weighted();
            let kind = if self.rng.gen_bool(0.6) {
                AsKind::Eyeball
            } else {
                AsKind::Enterprise
            };
            let asid = self.new_as(&format!("Net{i}"), kind, home);
            if self.rng.gen_bool(0.5) {
                let n_fac = if self.rng.gen_bool(0.75) {
                    1
                } else {
                    self.rng.gen_range(2..4)
                };
                self.add_random_facilities(asid, n_fac, Some(self.w.cities[home.index()].region));
            }
        }
    }

    /// Fig. 1a-compatible facility-count tail: ~60 % single, ~5 % > 10.
    fn heavy_tail_facility_count(&mut self) -> usize {
        let r: f64 = self.rng.gen();
        if r < 0.60 {
            1
        } else if r < 0.85 {
            self.rng.gen_range(2..5)
        } else if r < 0.95 {
            self.rng.gen_range(5..11)
        } else {
            self.rng.gen_range(11..40)
        }
    }

    fn new_as(&mut self, name: &str, kind: AsKind, home: CityId) -> AsId {
        let idx = self.w.ases.len();
        let asn = public_asn(idx);
        let traffic = self.traffic_for(kind);
        let users = match kind {
            AsKind::Eyeball => traffic * self.rng.gen_range(5..40),
            _ => traffic / 10,
        };
        let open = match kind {
            AsKind::Content | AsKind::Eyeball => self.rng.gen_bool(0.85),
            AsKind::Enterprise | AsKind::Carrier => self.rng.gen_bool(0.7),
            AsKind::TransitRegional => self.rng.gen_bool(0.5),
            AsKind::TransitGlobal => self.rng.gen_bool(0.15),
        };
        // Originated prefixes: the AS /16 plus a few more-specifics.
        let base = as_block(idx);
        let n_subs = match kind {
            AsKind::TransitGlobal | AsKind::TransitRegional => self.rng.gen_range(4..16),
            AsKind::Content | AsKind::Eyeball => self.rng.gen_range(1..8),
            _ => self.rng.gen_range(0..3),
        };
        let mut prefixes = vec![base];
        for _ in 0..n_subs {
            let third = self.rng.gen_range(0..256) as u32;
            let sub = Ipv4Prefix::new(Ipv4Addr::from(u32::from(base.network()) + third * 256), 24)
                .expect("within /16");
            if !prefixes.contains(&sub) {
                prefixes.push(sub);
            }
        }
        self.w.ases.push(AsNode {
            asn,
            name: name.to_string(),
            kind,
            home_city: home,
            facilities: Vec::new(),
            prefixes,
            traffic_mbps: traffic,
            user_population: users,
            is_reseller: false,
            open_peering: open,
        });
        self.as_next_host.push(1);
        self.filled_into.push(None);
        self.city_ases[home.index()].push(AsId::from_index(idx));
        AsId::from_index(idx)
    }

    fn traffic_for(&mut self, kind: AsKind) -> u64 {
        let (lo, hi) = match kind {
            AsKind::TransitGlobal => (4.0, 5.8),
            AsKind::TransitRegional => (3.0, 5.0),
            AsKind::Content => (2.5, 5.5),
            AsKind::Eyeball => (2.0, 5.0),
            AsKind::Enterprise => (1.0, 3.5),
            AsKind::Carrier => (2.5, 4.5),
        };
        10f64.powf(self.rng.gen_range(lo..hi)) as u64
    }

    fn add_random_facilities(&mut self, asid: AsId, count: usize, region: Option<Region>) {
        let mut candidates: Vec<FacilityId> = Vec::new();
        for (ci, facs) in self.city_facilities.iter().enumerate() {
            if let Some(r) = region {
                if self.w.cities[ci].region != r {
                    continue;
                }
            }
            candidates.extend_from_slice(facs);
        }
        candidates.shuffle(&mut self.rng);
        let list = &mut self.w.ases[asid.index()].facilities;
        for f in candidates.into_iter().take(count) {
            if !list.contains(&f) {
                list.push(f);
            }
        }
    }

    fn city_id(&self, name: &str) -> CityId {
        CityId::from_index(crate::cities::city_index(name))
    }

    fn random_city_weighted(&mut self) -> CityId {
        // RIPE-heavy weighting, matching IXP-ecosystem geography.
        let region = match self.rng.gen_range(0..100) {
            0..=54 => Region::Ripe,
            55..=74 => Region::Arin,
            75..=89 => Region::Apnic,
            90..=96 => Region::Lacnic,
            _ => Region::Afrinic,
        };
        let in_region: Vec<usize> = (0..self.w.cities.len())
            .filter(|&i| self.w.cities[i].region == region)
            .collect();
        CityId::from_index(*in_region.choose(&mut self.rng).expect("region has cities"))
    }

    // ---- phase 3: IXPs ----

    fn make_named_ixps(&mut self) {
        let specs: Vec<IxpSpec> = NAMED_IXPS.to_vec();
        for spec in &specs {
            let mut facilities = Vec::new();
            // Anchor city gets the lion's share of facilities.
            let anchor_city = self.city_id(spec.cities[0]);
            let per_extra_city = 1usize;
            let anchor_count = spec
                .facilities
                .saturating_sub(per_extra_city * (spec.cities.len() - 1))
                .max(1);
            for k in 0..anchor_count {
                facilities.push(self.new_facility(anchor_city, &format!("{} site {k}", spec.name)));
            }
            for city in &spec.cities[1..] {
                let cid = self.city_id(city);
                facilities.push(self.new_facility(cid, &format!("{} site", spec.name)));
            }
            self.push_ixp(
                spec.name.to_string(),
                facilities,
                spec.allows_resellers,
                spec.has_looking_glass,
                spec.lg_rounds_up,
                spec.studied,
                spec.validation,
                spec.validation_source,
            );
        }
    }

    fn make_small_ixps(&mut self) {
        for i in 0..self.cfg.n_small_ixps {
            let city = self.random_city_weighted();
            let mut facilities = Vec::new();
            let n_local_fac = self.rng.gen_range(1..=2);
            for _ in 0..n_local_fac {
                // Reuse an existing neutral facility or build a new one.
                let existing = self.city_facilities[city.index()].clone();
                let f = if !existing.is_empty() && self.rng.gen_bool(0.7) {
                    *existing.choose(&mut self.rng).expect("non-empty")
                } else {
                    self.new_facility(city, "IX site")
                };
                if !facilities.contains(&f) {
                    facilities.push(f);
                }
            }
            // Some small multi-member IXPs are wide-area.
            if self.rng.gen_bool(self.cfg.p_small_wide_area) {
                let other = self.random_city_weighted();
                if other != city {
                    facilities.push(self.new_facility(other, "IX remote site"));
                }
            }
            let name = format!("IX-{}-{}", self.w.cities[city.index()].country, i);
            let resellers_ok = self.rng.gen_bool(0.5);
            self.push_ixp(
                name,
                facilities,
                resellers_ok,
                false,
                false,
                false,
                ValidationRole::None,
                None,
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_ixp(
        &mut self,
        name: String,
        facilities: Vec<FacilityId>,
        allows_resellers: bool,
        has_lg: bool,
        lg_rounds_up: bool,
        studied: bool,
        validation: ValidationRole,
        validation_source: Option<ValidationSource>,
    ) {
        let idx = self.w.ixps.len();
        let lan = lan_block(idx);
        let anchor = facilities[0];
        let anchor_city = self.w.facilities[anchor.index()].city;
        let anchor_point = self.w.facility_point(anchor);
        self.ixp_wide_area.push(facilities.iter().any(|&f| {
            self.w.facility_point(f).distance_km(&anchor_point)
                > opeer_geo::metro::DEFAULT_METRO_THRESHOLD_KM
        }));
        // NOC AS operating the route server.
        let noc = self.new_as(&format!("{name} NOC"), AsKind::Enterprise, anchor_city);
        self.w.ases[noc.index()].facilities.push(anchor);
        let rs_ip = lan.addr_at(1).expect("LAN holds route server");
        let rs_router = self.new_router(noc, RouterLoc::Facility(anchor));
        self.new_iface(rs_router, rs_ip, IfaceKind::Internal, true);
        self.w.ixps.push(Ixp {
            name,
            peering_lan: lan,
            route_server_ip: rs_ip,
            route_server_asn: self.w.ases[noc.index()].asn,
            facilities,
            anchor_facility: anchor,
            min_physical_capacity_mbps: capacity::GE,
            capacity_options_mbps: vec![capacity::GE, capacity::TEN_GE, capacity::HUNDRED_GE],
            allows_resellers,
            has_looking_glass: has_lg,
            lg_rounds_up,
            studied,
            validation,
            validation_source,
        });
        self.lan_next_slot.push(10);
    }

    // ---- phase 4: transit edges ----

    fn make_transit_edges(&mut self) {
        let globals: Vec<AsId> = self.as_ids_of_kind(AsKind::TransitGlobal);
        let regionals: Vec<AsId> = self.as_ids_of_kind(AsKind::TransitRegional);
        // Regionals buy transit from 1–2 globals.
        for &r in &regionals {
            let n = self.rng.gen_range(1..=2);
            let mut gs = globals.clone();
            gs.shuffle(&mut self.rng);
            for &g in gs.iter().take(n) {
                self.w.transit_rels.push((g, r));
            }
        }
        // Everyone else buys from regionals in-region (or a global).
        let mut regionals_in: HashMap<Region, Vec<AsId>> = HashMap::new();
        for &r in &regionals {
            regionals_in.entry(self.home_region(r)).or_default().push(r);
        }
        let n_as = self.w.ases.len();
        for i in 0..n_as {
            let kind = self.w.ases[i].kind;
            if matches!(kind, AsKind::TransitGlobal | AsKind::TransitRegional) {
                continue;
            }
            let asid = AsId::from_index(i);
            let n_prov = self.rng.gen_range(1..=2);
            let mut picked = 0;
            let mut pool = regionals_in
                .get(&self.home_region(asid))
                .unwrap_or(&regionals)
                .clone();
            pool.shuffle(&mut self.rng);
            for &p in pool.iter() {
                if picked == n_prov {
                    break;
                }
                self.w.transit_rels.push((p, asid));
                picked += 1;
            }
            if picked == 0 && !globals.is_empty() {
                let g = globals[self.rng.gen_range(0..globals.len())];
                self.w.transit_rels.push((g, asid));
            }
        }
    }

    fn home_region(&self, asid: AsId) -> Region {
        self.w.cities[self.w.ases[asid.index()].home_city.index()].region
    }

    fn as_ids_of_kind(&self, kind: AsKind) -> Vec<AsId> {
        self.w
            .ases
            .iter()
            .enumerate()
            .filter(|(_, a)| a.kind == kind)
            .map(|(i, _)| AsId::from_index(i))
            .collect()
    }

    // ---- phase 5: resellers ----

    fn make_resellers(&mut self) {
        let carriers = self.as_ids_of_kind(AsKind::Carrier);
        let reseller_count = (carriers.len() * 2 / 3).max(1);
        let reseller_friendly: Vec<IxpId> = (0..self.w.ixps.len())
            .filter(|&i| self.w.ixps[i].allows_resellers)
            .map(IxpId::from_index)
            .collect();
        self.ixp_resellers = vec![Vec::new(); self.w.ixps.len()];
        // Carriers come in ascending order, so every IXP's reseller list
        // does too.
        for &carrier in carriers.iter().take(reseller_count) {
            self.w.ases[carrier.index()].is_reseller = true;
            let home = self.w.ases[carrier.index()].home_city;
            self.city_ases[home.index()].retain(|&a| a != carrier);
            let n_served = self.rng.gen_range(3..=15).min(reseller_friendly.len());
            let mut served = reseller_friendly.clone();
            served.shuffle(&mut self.rng);
            for &ixp in served.iter().take(n_served) {
                let facs = &self.w.ixps[ixp.index()].facilities;
                let port_fac = *facs.choose(&mut self.rng).expect("IXP has facilities");
                // The reseller is colocated at its port facility.
                if !self.w.ases[carrier.index()].facilities.contains(&port_fac) {
                    self.w.ases[carrier.index()].facilities.push(port_fac);
                }
                self.ixp_resellers[ixp.index()].push((carrier, port_fac));
            }
        }
    }

    // ---- phase 6: memberships ----

    fn populate_memberships(&mut self) {
        let n_named = NAMED_IXPS.len();
        for (i, spec) in NAMED_IXPS.iter().enumerate() {
            let target = ((spec.members as f64) * self.cfg.scale).round().max(4.0) as usize;
            self.fill_ixp(IxpId::from_index(i), target, spec.remote_fraction);
        }
        for i in n_named..self.w.ixps.len() {
            // Small IXPs: mostly tiny; a Zipf-ish tail up to ~60 members.
            let r: f64 = self.rng.gen();
            let base = if r < 0.35 {
                self.rng.gen_range(1..=2) // sub-threshold (PDB lists 703 total, 446 with ≥2)
            } else if r < 0.85 {
                self.rng.gen_range(3..=20)
            } else {
                self.rng.gen_range(21..=60)
            };
            let target = ((base as f64) * self.cfg.scale.max(0.3)).round().max(1.0) as usize;
            let remote_fraction = self.rng.gen_range(0.05..0.35);
            self.fill_ixp(IxpId::from_index(i), target, remote_fraction);
        }
    }

    fn fill_ixp(&mut self, ixp: IxpId, target: usize, remote_fraction: f64) {
        for _ in 0..target {
            let remote = self.rng.gen_bool(remote_fraction);
            let m = if remote {
                self.add_remote_member(ixp)
            } else {
                self.add_local_member(ixp)
            };
            if let Some(asid) = m {
                self.filled_into[asid.index()] = Some(ixp);
            }
        }
    }

    /// Whether the current fill of `ixp` already added `asid`.
    fn already_member(&self, asid: AsId, ixp: IxpId) -> bool {
        self.filled_into[asid.index()] == Some(ixp)
    }

    /// Creates a local membership: member router patched in an IXP facility.
    fn add_local_member(&mut self, ixp: IxpId) -> Option<AsId> {
        let facs = &self.w.ixps[ixp.index()].facilities;
        // Metro IXPs concentrate locals at the anchor site; the whole
        // point of a wide-area fabric (NL-IX, NET-IX, §4.2) is members
        // patching in at whichever distant site is nearest to them, so
        // there locals spread uniformly — this is what defeats plain
        // RTT thresholds.
        let facility = if !self.ixp_wide_area[ixp.index()] && self.rng.gen_bool(0.75) {
            facs[0]
        } else {
            *facs.choose(&mut self.rng).expect("IXP has facilities")
        };
        // Members patch in near home: pick/mint an AS around the chosen
        // facility's metro (for wide-area fabrics this is the distant
        // site's city, not the anchor's).
        let member_city = self.w.facilities[facility.index()].city;
        let member = if self.rng.gen_bool(0.45) {
            self.pick_as_near(member_city, 0.0, 300.0, ixp)
                .unwrap_or_else(|| self.mint_member_as(member_city))
        } else {
            self.mint_member_as(member_city)
        };
        if self.already_member(member, ixp) {
            return None;
        }
        // Ground truth: the member is present at the chosen facility.
        if !self.w.ases[member.index()].facilities.contains(&facility) {
            self.w.ases[member.index()].facilities.push(facility);
        }
        let router = self.local_router_for(member, facility);
        let (port_mbps, port) = self.local_port(ixp);
        self.push_membership(
            ixp,
            member,
            router,
            port_mbps,
            port,
            AccessTruth::Local { facility },
        );
        Some(member)
    }

    /// Creates a remote membership per the distance mixture.
    fn add_remote_member(&mut self, ixp: IxpId) -> Option<AsId> {
        let anchor = self.w.ixps[ixp.index()].anchor_facility;
        let anchor_city = self.w.facilities[anchor.index()].city;
        let mix = self.cfg.remote_mix;
        let r: f64 = self.rng.gen();
        let (lo_km, hi_km) = if r < mix.same_metro {
            (0.0, 50.0)
        } else if r < mix.same_metro + mix.regional {
            (100.0, 1200.0)
        } else if r < mix.same_metro + mix.regional + mix.continental {
            (1200.0, 3500.0)
        } else {
            (3500.0, 20000.0)
        };
        let member = if self.rng.gen_bool(0.5) {
            self.pick_as_near(anchor_city, lo_km, hi_km, ixp)
        } else {
            None
        }
        .unwrap_or_else(|| {
            let city = self
                .pick_city_in_band(anchor_city, lo_km, hi_km)
                .unwrap_or(anchor_city);
            self.mint_member_as(city)
        });
        if self.already_member(member, ixp) {
            return None;
        }

        let allows = self.w.ixps[ixp.index()].allows_resellers;
        let via_reseller = allows && self.rng.gen_bool(self.cfg.p_reseller_given_remote);
        let (truth, port_mbps, port) = if via_reseller {
            let reseller = self.pick_reseller(ixp);
            match reseller {
                Some((res, port_fac)) => {
                    // The 5% artifact: reseller customer colocated with the IXP.
                    if self.rng.gen_bool(self.cfg.p_colocated_reseller) {
                        let f = self.w.ixps[ixp.index()].facilities[0];
                        if !self.w.ases[member.index()].facilities.contains(&f) {
                            self.w.ases[member.index()].facilities.push(f);
                        }
                    }
                    let submin = self.rng.gen_bool(self.cfg.p_submin_given_reseller);
                    let cap = if submin {
                        *[
                            capacity::FE,
                            2 * capacity::FE,
                            3 * capacity::FE,
                            5 * capacity::FE,
                        ]
                        .choose(&mut self.rng)
                        .expect("non-empty")
                    } else {
                        *[capacity::GE, 2 * capacity::GE]
                            .choose(&mut self.rng)
                            .expect("non-empty")
                    };
                    (
                        AccessTruth::RemoteReseller {
                            reseller: res,
                            reseller_port_facility: port_fac,
                        },
                        cap,
                        PortKind::VirtualReseller { reseller: res },
                    )
                }
                None => {
                    // No reseller actually serves this IXP: fall back to a cable.
                    let landing = self.w.ixps[ixp.index()].facilities[0];
                    (
                        AccessTruth::RemoteLongCable {
                            landing_facility: landing,
                        },
                        capacity::GE,
                        PortKind::Physical,
                    )
                }
            }
        } else {
            let facs = self.w.ixps[ixp.index()].facilities.clone();
            let landing = *facs.choose(&mut self.rng).expect("IXP has facilities");
            let ports = self.cfg.port_capacity;
            let cap = if self.rng.gen_bool(ports.p_cable_ge) {
                capacity::GE
            } else {
                capacity::TEN_GE
            };
            (
                AccessTruth::RemoteLongCable {
                    landing_facility: landing,
                },
                ports.bound(cap),
                PortKind::Physical,
            )
        };

        let router = self.remote_router_for(member);
        self.push_membership(ixp, member, router, port_mbps, port, truth);
        Some(member)
    }

    fn pick_reseller(&mut self, ixp: IxpId) -> Option<(AsId, FacilityId)> {
        self.ixp_resellers[ixp.index()]
            .choose(&mut self.rng)
            .copied()
    }

    fn local_port(&mut self, _ixp: IxpId) -> (u32, PortKind) {
        if self.rng.gen_bool(self.cfg.p_legacy_submin_local) {
            return (5 * capacity::FE, PortKind::LegacyPhysicalSubMin);
        }
        let ports = self.cfg.port_capacity;
        let r: f64 = self.rng.gen();
        let cap = if r < ports.p_local_ge {
            capacity::GE
        } else if r < ports.p_local_ge + ports.p_local_10ge {
            capacity::TEN_GE
        } else {
            capacity::HUNDRED_GE
        };
        (ports.bound(cap), PortKind::Physical)
    }

    /// Mints a fresh member AS homed in `city` (single-facility bias).
    fn mint_member_as(&mut self, city: CityId) -> AsId {
        let idx = self.w.ases.len();
        let kind = match self.rng.gen_range(0..100) {
            0..=44 => AsKind::Eyeball,
            45..=69 => AsKind::Enterprise,
            70..=92 => AsKind::Content,
            _ => AsKind::TransitRegional,
        };
        self.new_as(&format!("Member{idx}"), kind, city)
    }

    /// Picks an AS homed `lo_km..=hi_km` from `from_city` that is neither a
    /// reseller nor already added by the current fill of `ixp`. The
    /// candidates are in ascending `AsId` order, ASes minted during the
    /// fill included.
    fn pick_as_near(
        &mut self,
        from_city: CityId,
        lo_km: f64,
        hi_km: f64,
        ixp: IxpId,
    ) -> Option<AsId> {
        // Mark the candidates of every in-band city on a bitset over AS
        // ids, then read them back in ascending order.
        let dist = &CITY_DIST_KM[from_city.index()];
        let mut marks = vec![0u64; self.w.ases.len().div_ceil(64)];
        for (city, ases) in self.city_ases.iter().enumerate() {
            if dist[city] >= lo_km && dist[city] <= hi_km {
                for &a in ases {
                    if !self.already_member(a, ixp) {
                        marks[a.index() / 64] |= 1 << (a.index() % 64);
                    }
                }
            }
        }
        let mut candidates: Vec<AsId> = Vec::new();
        for (i, &word) in marks.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                candidates.push(AsId::from_index(i * 64 + bits.trailing_zeros() as usize));
                bits &= bits - 1;
            }
        }
        candidates.choose(&mut self.rng).copied()
    }

    fn pick_city_in_band(&mut self, from: CityId, lo_km: f64, hi_km: f64) -> Option<CityId> {
        let f = from.index();
        let band: Vec<usize> = (0..self.w.cities.len())
            .filter(|&i| {
                let d = CITY_DIST_KM[f][i];
                (i == f && lo_km == 0.0) || (d >= lo_km && d <= hi_km && i != f)
            })
            .collect();
        band.choose(&mut self.rng).map(|&i| CityId::from_index(i))
    }

    // ---- routers & interfaces ----

    fn new_router(&mut self, owner: AsId, loc: RouterLoc) -> RouterId {
        let id = RouterId::from_index(self.w.routers.len());
        let r: f64 = self.rng.gen();
        let ip_id = if r < self.cfg.p_ipid_shared {
            IpIdMode::SharedCounter {
                init: self.rng.gen(),
                rate_per_s: self.rng.gen_range(5.0..2000.0),
            }
        } else if r < self.cfg.p_ipid_shared + self.cfg.p_ipid_random {
            IpIdMode::Random
        } else {
            IpIdMode::Zero
        };
        self.w.routers.push(Router {
            owner,
            loc,
            ip_id,
            interfaces: Vec::new(),
        });
        // Every router gets one internal interface for traceroute hops.
        let host = self.next_host_addr(owner);
        self.new_iface(id, host, IfaceKind::Internal, true);
        if let RouterLoc::Facility(f) = loc {
            self.facility_routers
                .entry((owner, f))
                .or_default()
                .push(id);
        }
        id
    }

    fn next_host_addr(&mut self, asid: AsId) -> Ipv4Addr {
        let block = as_block(asid.index());
        let slot = self.as_next_host[asid.index()];
        self.as_next_host[asid.index()] = slot + 1;
        block
            .addr_at(u64::from(slot))
            .unwrap_or_else(|| panic!("AS {asid} exhausted its /16"))
    }

    fn new_iface(
        &mut self,
        router: RouterId,
        addr: Ipv4Addr,
        kind: IfaceKind,
        responds: bool,
    ) -> IfaceId {
        let id = IfaceId::from_index(self.w.interfaces.len());
        self.w.interfaces.push(Interface {
            addr,
            router,
            kind,
            responds_to_ping: responds,
        });
        self.w.routers[router.index()].interfaces.push(id);
        id
    }

    fn local_router_for(&mut self, member: AsId, facility: FacilityId) -> RouterId {
        let existing = self
            .facility_routers
            .get(&(member, facility))
            .and_then(|v| v.last().copied());
        match existing {
            Some(r) if self.rng.gen_bool(self.cfg.p_local_share_router) => r,
            _ => self.new_router(member, RouterLoc::Facility(facility)),
        }
    }

    fn remote_router_for(&mut self, member: AsId) -> RouterId {
        // Hybrid case: reuse a colocation router the member already has.
        if self.rng.gen_bool(self.cfg.p_hybrid_attach_facility) {
            let facs = self.w.ases[member.index()].facilities.clone();
            for f in facs {
                if let Some(r) = self
                    .facility_routers
                    .get(&(member, f))
                    .and_then(|v| v.last().copied())
                {
                    return r;
                }
            }
        }
        match self.premises_router.get(&member).copied() {
            Some(r) if self.rng.gen_bool(self.cfg.p_remote_share_router) => r,
            _ => {
                let home = self.w.ases[member.index()].home_city;
                let r = self.new_router(member, RouterLoc::Premises(home));
                self.premises_router.insert(member, r);
                r
            }
        }
    }

    fn push_membership(
        &mut self,
        ixp: IxpId,
        member: AsId,
        router: RouterId,
        port_mbps: u32,
        port: PortKind,
        truth: AccessTruth,
    ) {
        let lan = self.w.ixps[ixp.index()].peering_lan;
        let slot = self.lan_next_slot[ixp.index()];
        self.lan_next_slot[ixp.index()] = slot + 1;
        let addr = lan
            .addr_at(u64::from(slot))
            .unwrap_or_else(|| panic!("IXP {ixp} LAN exhausted"));
        let mid = MembershipId::from_index(self.w.memberships.len());
        let responds = self.rng.gen_bool(self.cfg.p_iface_responds);
        let iface = self.new_iface(
            router,
            addr,
            IfaceKind::IxpLan {
                ixp,
                membership: mid,
            },
            responds,
        );
        self.w.memberships.push(Membership {
            ixp,
            member,
            router,
            iface,
            port_mbps,
            port,
            truth,
            joined_month: 0,
            left_month: None,
        });
    }

    // ---- phase 7: private links ----

    fn make_private_links(&mut self) {
        // PNIs between colocated members at IXP facilities (feeds Step 5),
        // plus the tier-1 clique.
        //
        // Each facility's tenants, ascending by AsId, built once: the PNI
        // loop cannot change them. `add_local_member` already put the
        // facility on the member's list and the peer is a tenant by
        // construction, so `pni_router` never pushes a facility there.
        let mut tenants: Vec<Vec<AsId>> = vec![Vec::new(); self.w.facilities.len()];
        for (i, a) in self.w.ases.iter().enumerate() {
            for f in &a.facilities {
                tenants[f.index()].push(AsId::from_index(i));
            }
        }
        let mut peers = Vec::new();
        for mi in 0..self.w.memberships.len() {
            let m = &self.w.memberships[mi];
            let AccessTruth::Local { facility } = m.truth else {
                continue;
            };
            let member = m.member;
            let n_pnis = poisson_like(&mut self.rng, self.cfg.mean_pnis_per_local);
            if n_pnis == 0 {
                continue;
            }
            let here = &tenants[facility.index()];
            debug_assert!(
                here.binary_search(&member).is_ok(),
                "add_local_member put the facility on the member's list"
            );
            peers.clear();
            peers.extend(here.iter().copied().filter(|&a| a != member));
            for _ in 0..n_pnis {
                if let Some(&peer) = peers.choose(&mut self.rng) {
                    self.add_private_link(member, peer, facility);
                }
            }
        }
        // Tier-1 clique over shared facilities.
        let globals = self.as_ids_of_kind(AsKind::TransitGlobal);
        for i in 0..globals.len() {
            for j in (i + 1)..globals.len() {
                let (a, b) = (globals[i], globals[j]);
                let fa = self.w.ases[a.index()].facilities.clone();
                let shared: Vec<FacilityId> = fa
                    .into_iter()
                    .filter(|f| self.w.ases[b.index()].facilities.contains(f))
                    .collect();
                let fac = shared
                    .choose(&mut self.rng)
                    .copied()
                    .unwrap_or_else(|| self.w.ases[a.index()].facilities[0]);
                self.add_private_link(a, b, fac);
            }
        }
    }

    fn add_private_link(&mut self, a: AsId, b: AsId, facility: FacilityId) {
        // Skip duplicates.
        if !self
            .private_link_keys
            .insert((a.min(b), a.max(b), facility))
        {
            return;
        }
        let ra = self.pni_router(a, facility);
        let rb = self.pni_router(b, facility);
        let addr_a = self.next_host_addr(a);
        let addr_b = self.next_host_addr(b);
        let ia = self.new_iface(
            ra,
            addr_a,
            IfaceKind::PrivatePeering {
                facility,
                peer_as: b,
            },
            true,
        );
        let ib = self.new_iface(
            rb,
            addr_b,
            IfaceKind::PrivatePeering {
                facility,
                peer_as: a,
            },
            true,
        );
        self.w.private_links.push(PrivateLink {
            a,
            b,
            facility,
            a_iface: ia,
            b_iface: ib,
        });
    }

    /// Router for a PNI endpoint; reuses the AS's router at the facility.
    fn pni_router(&mut self, asid: AsId, facility: FacilityId) -> RouterId {
        if let Some(r) = self
            .facility_routers
            .get(&(asid, facility))
            .and_then(|v| v.last().copied())
        {
            return r;
        }
        if !self.w.ases[asid.index()].facilities.contains(&facility) {
            self.w.ases[asid.index()].facilities.push(facility);
        }
        self.new_router(asid, RouterLoc::Facility(facility))
    }

    /// Transit providers deploy PoPs inside the colocation facilities
    /// where their customers sit — carrier-dense colos are the norm, and
    /// this is precisely the signal that makes facility-vote heuristics
    /// (CFS, §5.2 step 5) work in the wild.
    fn colocate_providers(&mut self) {
        // Providers of each AS, in `transit_rels` order.
        let mut providers_of: Vec<Vec<AsId>> = vec![Vec::new(); self.w.ases.len()];
        for &(p, c) in &self.w.transit_rels {
            providers_of[c.index()].push(p);
        }
        let mut additions: Vec<(AsId, FacilityId)> = Vec::new();
        for m in &self.w.memberships {
            let AccessTruth::Local { facility } = m.truth else {
                continue;
            };
            for &p in &providers_of[m.member.index()] {
                if !self.w.ases[p.index()].facilities.contains(&facility) {
                    additions.push((p, facility));
                }
            }
        }
        for (p, f) in additions {
            if self.rng.gen_bool(0.55) && !self.w.ases[p.index()].facilities.contains(&f) {
                self.w.ases[p.index()].facilities.push(f);
            }
        }
    }

    /// Every AS needs at least one router so transit traceroute hops have
    /// real interfaces to show.
    fn ensure_premises_routers(&mut self) {
        let mut has_router = vec![false; self.w.ases.len()];
        for r in &self.w.routers {
            has_router[r.owner.index()] = true;
        }
        for (i, has) in has_router.into_iter().enumerate() {
            if !has {
                let asid = AsId::from_index(i);
                let home = self.w.ases[i].home_city;
                let r = self.new_router(asid, RouterLoc::Premises(home));
                self.premises_router.insert(asid, r);
            }
        }
    }

    // ---- phase 8: timeline ----

    fn assign_timeline(&mut self) {
        let months = self.cfg.timeline_months;
        let n = self.w.memberships.len();
        // In-window joins: remote at twice the local rate (Fig. 12a).
        for i in 0..n {
            let remote = self.w.memberships[i].truth.is_remote();
            let p = if remote {
                self.cfg.p_join_window_remote
            } else {
                self.cfg.p_join_window_local
            };
            if self.rng.gen_bool(p) {
                self.w.memberships[i].joined_month = self.rng.gen_range(1..=months);
            }
        }
        // Departures: extra memberships that left during the window; the
        // remote departure *rate* is 1.25× the local one.
        let joins = self
            .w
            .memberships
            .iter()
            .filter(|m| m.joined_month > 0)
            .count();
        let n_departures = ((joins as f64) * self.cfg.departures_per_join) as usize;
        let base: Vec<usize> = (0..n).collect();
        for k in 0..n_departures {
            let &src = base
                .get(self.rng.gen_range(0..n.max(1)))
                .expect("non-empty world");
            let template = self.w.memberships[src].clone();
            let remote = template.truth.is_remote();
            // Accept with probability shaped by the 1.25 rate ratio.
            let accept = if remote { 1.0 } else { 0.8 };
            if !self.rng.gen_bool(accept) {
                continue;
            }
            let left = self.rng.gen_range(1..=months);
            let joined = 0;
            // A departed twin of an existing member class, on a fresh AS so
            // the active world is untouched.
            let city = self.w.ases[template.member.index()].home_city;
            let ghost = self.mint_member_as(city);
            let router = match template.truth {
                AccessTruth::Local { facility } => {
                    if !self.w.ases[ghost.index()].facilities.contains(&facility) {
                        self.w.ases[ghost.index()].facilities.push(facility);
                    }
                    self.new_router(ghost, RouterLoc::Facility(facility))
                }
                _ => {
                    let home = self.w.ases[ghost.index()].home_city;
                    self.new_router(ghost, RouterLoc::Premises(home))
                }
            };
            self.push_membership(
                template.ixp,
                ghost,
                router,
                template.port_mbps,
                template.port,
                template.truth,
            );
            let mid = self.w.memberships.len() - 1;
            self.w.memberships[mid].joined_month = joined;
            self.w.memberships[mid].left_month = Some(left);
            let _ = k;
        }
        // Remote→local switchers at the evolution IXPs (§6.3).
        let evo_names = ["LINX LON", "HKIX", "LONAP", "THINX", "UA-IX"];
        let evo_ixps: Vec<IxpId> = self
            .w
            .ixps
            .iter()
            .enumerate()
            .filter(|(_, x)| evo_names.contains(&x.name.as_str()))
            .map(|(i, _)| IxpId::from_index(i))
            .collect();
        let mut switched = 0;
        for i in 0..n {
            if switched >= self.cfg.n_switchers {
                break;
            }
            let m = self.w.memberships[i].clone();
            if !evo_ixps.contains(&m.ixp) || !m.truth.is_remote() || m.joined_month != 0 {
                continue;
            }
            let month = self.rng.gen_range(2..=months.saturating_sub(1).max(2));
            self.w.memberships[i].left_month = Some(month);
            // The same AS rejoins locally in the same month.
            let facility = self.w.ixps[m.ixp.index()].facilities[0];
            if !self.w.ases[m.member.index()].facilities.contains(&facility) {
                self.w.ases[m.member.index()].facilities.push(facility);
            }
            let router = self.new_router(m.member, RouterLoc::Facility(facility));
            let (port_mbps, port) = self.local_port(m.ixp);
            self.push_membership(
                m.ixp,
                m.member,
                router,
                port_mbps,
                port,
                AccessTruth::Local { facility },
            );
            let mid = self.w.memberships.len() - 1;
            self.w.memberships[mid].joined_month = month;
            switched += 1;
        }
    }
}

// ---------------------------------------------------------------------
// address plan
// ---------------------------------------------------------------------

/// The /16 block owned by the `i`-th AS: carved sequentially from
/// 20.0.0.0 upward (synthetic, collision-free with the 185/8 LAN space).
pub fn as_block(i: usize) -> Ipv4Prefix {
    let base = u32::from(Ipv4Addr::new(20, 0, 0, 0)) + (i as u32) * 65536;
    Ipv4Prefix::new(Ipv4Addr::from(base), 16).expect("valid /16")
}

/// The /21 peering LAN of the `i`-th IXP, carved from 185.0.0.0/8.
pub fn lan_block(i: usize) -> Ipv4Prefix {
    let base = u32::from(Ipv4Addr::new(185, 0, 0, 0)) + (i as u32) * 2048;
    Ipv4Prefix::new(Ipv4Addr::from(base), 21).expect("valid /21")
}

/// Public ASN for the `i`-th AS, skipping reserved/private ranges.
pub fn public_asn(i: usize) -> Asn {
    let mut v = 1000 + i as u32;
    // Hop over AS_TRANS and the 64496..65551 reserved/private band.
    if v >= 23456 {
        v += 1;
    }
    if v >= 64496 {
        v += 65552 - 64496;
    }
    Asn::new(v)
}

fn poisson_like(rng: &mut StdRng, mean: f64) -> usize {
    // Knuth's method is fine for small means.
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l || k > 50 {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::stable_hash;

    fn small_world() -> World {
        WorldConfig::small(7).generate()
    }

    /// Digest of the whole ground truth: the `Debug` text of every public
    /// `Vec` field, then the observation month and the seed. Any change
    /// to what the generator draws, or in which order, moves it.
    fn world_digest(w: &World) -> u64 {
        fn text_digest(text: String) -> u64 {
            let mut words = vec![text.len() as u64];
            words.extend(text.as_bytes().chunks(8).map(|chunk| {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                u64::from_le_bytes(word)
            }));
            stable_hash(&words)
        }
        stable_hash(&[
            text_digest(format!("{:?}", w.cities)),
            text_digest(format!("{:?}", w.facilities)),
            text_digest(format!("{:?}", w.ases)),
            text_digest(format!("{:?}", w.ixps)),
            text_digest(format!("{:?}", w.routers)),
            text_digest(format!("{:?}", w.interfaces)),
            text_digest(format!("{:?}", w.memberships)),
            text_digest(format!("{:?}", w.private_links)),
            text_digest(format!("{:?}", w.transit_rels)),
            u64::from(w.observation_month),
            w.seed,
        ])
    }

    /// `(ASes, memberships, private links, world digest)`.
    fn fingerprint(w: &World) -> (usize, usize, usize, u64) {
        (
            w.ases.len(),
            w.memberships.len(),
            w.private_links.len(),
            world_digest(w),
        )
    }

    /// The sweep fleet's `tiny` base with every generator knob family off
    /// its default: fewer resold ports, a lean port market and remote
    /// members drawn closer to the IXP.
    fn knob_world() -> WorldConfig {
        WorldConfig {
            scale: 0.02,
            n_small_ixps: 6,
            n_background_ases: 50,
            n_switchers: 2,
            p_reseller_given_remote: 0.3,
            port_capacity: PortCapacityDist::lean(),
            remote_mix: RemoteMix {
                same_metro: 0.40,
                regional: 0.35,
                continental: 0.15,
                intercontinental: 0.10,
            },
            ..WorldConfig::small(1)
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = WorldConfig::small(42).generate();
        let b = WorldConfig::small(42).generate();
        assert_eq!(a.summary(), b.summary());
        assert_eq!(world_digest(&a), world_digest(&b));
    }

    /// Pins the world bytes. Any change to the generator's draws or their
    /// order moves these, and with them every downstream pin (corpus and
    /// RIB digests, the determinism snapshot).
    #[test]
    fn world_digest_is_pinned() {
        for (name, cfg, expected) in [
            (
                "small(7)",
                WorldConfig::small(7),
                (630, 716, 587, 119202737411854606),
            ),
            (
                "small(42)",
                WorldConfig::small(42),
                (613, 693, 583, 16877693053217825444),
            ),
            (
                "knob world",
                knob_world(),
                (268, 290, 228, 15601787068232751181),
            ),
        ] {
            assert_eq!(fingerprint(&cfg.generate()), expected, "world {name} moved");
        }
    }

    /// The pin at full scale, with the consistency check. Slow in a debug
    /// build; CI runs it in release.
    #[test]
    #[ignore]
    fn world_digest_is_pinned_at_scale() {
        for (name, cfg, expected) in [
            (
                "large(1)",
                WorldConfig::large(1),
                (11584, 15447, 15337, 7764907228712746373),
            ),
            (
                "paper(42)",
                WorldConfig::paper(42),
                (14640, 20006, 20872, 7487306122791961246),
            ),
        ] {
            let w = cfg.generate();
            let problems = w.check_consistency();
            assert!(problems.is_empty(), "world {name}: {problems:?}");
            assert_eq!(fingerprint(&w), expected, "world {name} moved");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorldConfig::small(1).generate();
        let b = WorldConfig::small(2).generate();
        assert_ne!(
            a.memberships.len(),
            b.memberships.len(),
            "suspiciously identical worlds"
        );
    }

    #[test]
    fn world_is_consistent() {
        let w = small_world();
        let problems = w.check_consistency();
        assert!(problems.is_empty(), "problems: {problems:?}");
    }

    #[test]
    fn named_ixps_present_with_roles() {
        let w = small_world();
        let ams = w
            .ixps
            .iter()
            .find(|x| x.name == "AMS-IX")
            .expect("AMS-IX exists");
        assert_eq!(ams.validation, ValidationRole::Test);
        assert!(ams.has_looking_glass);
        let nyc = w
            .ixps
            .iter()
            .find(|x| x.name == "DE-CIX NYC")
            .expect("DE-CIX NYC exists");
        assert_eq!(nyc.validation, ValidationRole::Control);
        assert!(!nyc.has_looking_glass);
        assert_eq!(w.ixps.iter().filter(|x| x.studied).count(), 30);
    }

    #[test]
    fn wide_area_ixps_detected() {
        let w = small_world();
        let nlix = w
            .ixps
            .iter()
            .position(|x| x.name == "NL-IX")
            .expect("NL-IX exists");
        assert!(w.is_wide_area_ixp(IxpId::from_index(nlix)));
        let ams = w
            .ixps
            .iter()
            .position(|x| x.name == "AMS-IX")
            .expect("AMS-IX exists");
        assert!(!w.is_wide_area_ixp(IxpId::from_index(ams)));
    }

    #[test]
    fn membership_truth_and_ports_align() {
        let w = small_world();
        let mut submin_local_physical = 0usize;
        let mut remote = 0usize;
        for m in &w.memberships {
            match m.port {
                PortKind::VirtualReseller { .. } => {
                    assert!(m.truth.is_remote(), "reseller port must be remote truth")
                }
                PortKind::LegacyPhysicalSubMin => {
                    submin_local_physical += 1;
                    assert!(!m.truth.is_remote());
                }
                PortKind::Physical => {}
            }
            if m.truth.is_remote() {
                remote += 1;
            }
            assert!(m.port_mbps >= 100);
        }
        assert!(remote > 0, "no remote members generated");
        // Legacy sub-min locals are rare but should exist at paper scale;
        // in a small world they may be absent.
        let _ = submin_local_physical;
    }

    #[test]
    fn remote_share_is_plausible() {
        let w = small_world();
        let month = w.observation_month;
        let (mut remote, mut total) = (0usize, 0usize);
        for m in &w.memberships {
            if m.active_at(month) {
                total += 1;
                if m.truth.is_remote() {
                    remote += 1;
                }
            }
        }
        let share = remote as f64 / total as f64;
        assert!(
            (0.12..=0.45).contains(&share),
            "remote share {share} out of plausible band"
        );
    }

    #[test]
    fn lan_addresses_within_lan() {
        let w = small_world();
        for m in &w.memberships {
            let ixp = &w.ixps[m.ixp.index()];
            let addr = w.interfaces[m.iface.index()].addr;
            assert!(ixp.peering_lan.contains(addr));
            assert_eq!(w.ixp_of_lan_addr(addr), Some(m.ixp));
        }
    }

    #[test]
    fn multi_ixp_routers_exist() {
        let w = small_world();
        let mut per_router: HashMap<RouterId, std::collections::HashSet<IxpId>> = HashMap::new();
        for m in &w.memberships {
            per_router.entry(m.router).or_default().insert(m.ixp);
        }
        let multi = per_router.values().filter(|s| s.len() > 1).count();
        assert!(multi > 0, "no multi-IXP routers generated");
    }

    #[test]
    fn private_links_reference_colocated_ases() {
        let w = small_world();
        assert!(!w.private_links.is_empty());
        for l in &w.private_links {
            assert!(w.ases[l.a.index()].facilities.contains(&l.facility));
            assert!(w.ases[l.b.index()].facilities.contains(&l.facility));
        }
    }

    #[test]
    fn timeline_switchers_exist() {
        let w = small_world();
        // Each switcher is a (member, ixp) with a remote membership that
        // ended the month a local one started.
        let mut switches = 0;
        for a in &w.memberships {
            if !a.truth.is_remote() || a.left_month.is_none() {
                continue;
            }
            let left = a.left_month.expect("checked");
            for b in &w.memberships {
                if b.member == a.member
                    && b.ixp == a.ixp
                    && !b.truth.is_remote()
                    && b.joined_month == left
                {
                    switches += 1;
                }
            }
        }
        assert!(switches >= 1, "no remote→local switchers");
    }

    #[test]
    fn address_plan_no_overlap() {
        // AS blocks and LAN blocks must never collide.
        let a = as_block(0);
        let z = as_block(9000);
        let l = lan_block(0);
        let l2 = lan_block(800);
        assert!(!a.overlaps(&l));
        assert!(!z.overlaps(&l2));
        assert!(u32::from(z.network()) < u32::from(Ipv4Addr::new(185, 0, 0, 0)));
    }

    #[test]
    fn public_asn_skips_reserved() {
        for i in 0..70000 {
            let asn = public_asn(i);
            assert!(asn.is_public(), "index {i} → {asn}");
        }
    }

    #[test]
    fn active_membership_filter() {
        let m = Membership {
            ixp: IxpId(0),
            member: AsId(0),
            router: RouterId(0),
            iface: IfaceId(0),
            port_mbps: 1000,
            port: PortKind::Physical,
            truth: AccessTruth::Local {
                facility: FacilityId(0),
            },
            joined_month: 3,
            left_month: Some(7),
        };
        assert!(!m.active_at(2));
        assert!(m.active_at(3));
        assert!(m.active_at(6));
        assert!(!m.active_at(7));
    }
}
