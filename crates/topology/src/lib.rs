//! # opeer-topology — the synthetic Internet/IXP world
//!
//! The paper measured the live Internet; this crate builds the stand-in:
//! a deterministic, seeded world of cities, colocation facilities, ASes,
//! IXPs with peering LANs, port resellers, routers and private
//! interconnects, together with Gao–Rexford policy routing and a
//! fourteen-month membership timeline.
//!
//! The world holds *ground truth* (who is actually local or remote at each
//! IXP, Definition 1 of the paper). The measurement and registry crates
//! deliberately expose only noisy projections of it; the inference
//! pipeline in `opeer-core` never reads the truth — it is scored against
//! it, exactly as the paper's methodology was scored against operator
//! validation lists.
//!
//! ## Quick tour
//!
//! ```
//! use opeer_topology::{WorldConfig, RoutingOracle};
//!
//! let world = WorldConfig::small(42).generate();
//! assert!(world.check_consistency().is_empty());
//!
//! // AMS-IX exists with its Table-2 validation role.
//! let ams = world.ixps.iter().find(|x| x.name == "AMS-IX").unwrap();
//! assert!(ams.has_looking_glass);
//!
//! // Policy routing between two member ASes.
//! let oracle = RoutingOracle::new(&world);
//! let src = world.memberships[0].member;
//! let dst = world.memberships[1].member;
//! let table = oracle.routes_to(dst);
//! assert!(table.entry(src).is_some());
//! ```

pub mod builder;
pub mod cities;
pub mod evolution;
pub mod gen;
pub mod ids;
pub mod routing;
pub mod scenario;
pub mod spec;
pub mod world;

pub use builder::WorldConfigError;
pub use cities::{CityRecord, Region, CITY_CATALOG};
pub use gen::{capacity, PortCapacityDist, RemoteMix, WorldConfig};
pub use ids::{AsId, CityId, FacilityId, IfaceId, IxpId, MembershipId, RouterId};
pub use routing::{EdgeKind, RouteKind, RouteTable, RoutingOracle, TraceHop};
pub use scenario::Scenario;
pub use spec::{IxpSpec, NAMED_IXPS};
pub use world::{
    AccessTruth, AsKind, AsNode, City, Facility, IfaceKind, Interface, IpIdMode, Ixp, Membership,
    PortKind, PrivateLink, Router, RouterLoc, ValidationRole, ValidationSource, World,
};
