//! # opeer-alias — MIDAR-style alias resolution
//!
//! §5.2 step 4 maps interfaces to routers with MIDAR \[55\] (IP-ID based)
//! plus iffinder, deliberately choosing the conservative dataset "to
//! favor accuracy over completeness" over the kapar-extended one
//! (footnote 8). This crate implements the same trade-off:
//!
//! * **MBT** — the Monotonic Bound Test: two interfaces alias iff their
//!   interleaved IP-ID sample trains form one monotonically increasing
//!   (mod 2¹⁶) counter with a plausible velocity. Routers with random or
//!   constant-zero IP-ID are unresolvable, exactly like in the wild.
//! * **iffinder** — a fraction of routers answer probes to one interface
//!   from another; such a reply aliases the pair directly.
//!
//! Like the paper, it has no kapar-style closure over graph-analysis
//! hints: that raises coverage at a false-merge cost.

use opeer_measure::ipid::{probe_train, IpIdSample};
use opeer_topology::routing::stable_hash;
use opeer_topology::{IfaceId, World};
use std::collections::HashMap;

/// Resolution configuration.
#[derive(Debug, Clone, Copy)]
pub struct AliasConfig {
    /// Probe seed (folds into IP-ID sampling).
    pub seed: u64,
    /// Samples per interface train.
    pub samples: usize,
    /// Spacing between samples of one train, seconds.
    pub interval_s: f64,
    /// Maximum plausible counter velocity (IP-ID increments per second);
    /// MBT rejects merges that would require more.
    pub max_velocity: f64,
    /// Probability that a router replies to iffinder probes from its
    /// primary interface.
    pub p_iffinder: f64,
}

impl Default for AliasConfig {
    fn default() -> Self {
        AliasConfig {
            seed: 0xA11A5,
            samples: 12,
            interval_s: 2.0,
            max_velocity: 3000.0,
            p_iffinder: 0.3,
        }
    }
}

/// The result: disjoint alias sets over the queried interfaces.
#[derive(Debug, Clone, Default)]
pub struct AliasSets {
    /// Groups of aliased interfaces (singletons omitted).
    pub groups: Vec<Vec<IfaceId>>,
    map: HashMap<IfaceId, usize>,
}

impl AliasSets {
    /// The group index of an interface, if it was aliased to anything.
    pub fn group_of(&self, ifc: IfaceId) -> Option<usize> {
        self.map.get(&ifc).copied()
    }

    /// Whether two interfaces were resolved to the same router.
    pub fn aliased(&self, a: IfaceId, b: IfaceId) -> bool {
        match (self.group_of(a), self.group_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    fn from_groups(groups: Vec<Vec<IfaceId>>) -> Self {
        let mut map = HashMap::new();
        for (gi, g) in groups.iter().enumerate() {
            for &i in g {
                map.insert(i, gi);
            }
        }
        AliasSets { groups, map }
    }
}

/// Interleaved-train MBT: do the two sample trains describe one shared,
/// monotonically increasing counter?
///
/// Trains must be time-offset (the resolver probes them interleaved).
/// The test unwraps mod-2¹⁶ differences and rejects negative advances or
/// velocities beyond `max_velocity`.
pub fn mbt_shared_counter(a: &[IpIdSample], b: &[IpIdSample], max_velocity: f64) -> bool {
    if a.len() < 3 || b.len() < 3 {
        return false;
    }
    // Interleaved monotonicity with a velocity budget.
    let mut merged: Vec<IpIdSample> = a.iter().chain(b.iter()).copied().collect();
    merged.sort_by(|x, y| x.t_s.partial_cmp(&y.t_s).expect("finite times"));
    let mut advance_total = 0u64;
    for w in merged.windows(2) {
        let dt = w[1].t_s - w[0].t_s;
        let dv = (i32::from(w[1].ip_id) - i32::from(w[0].ip_id)).rem_euclid(65536) as u64;
        // A genuine shared counter advances a little; a mismatched pair
        // produces huge apparent advances (≈ uniform over the ring).
        let budget = (max_velocity * dt.max(1e-3)).ceil() as u64 + 64;
        if dv > budget {
            return false;
        }
        advance_total += dv;
    }
    // Constant series (all zero / frozen counters) are not usable: MIDAR
    // requires an actually advancing counter.
    if advance_total == 0 {
        return false;
    }
    // Velocity agreement and cross-prediction: the interleaving test alone
    // merges unrelated slow counters that happen to start near each other,
    // so (like MIDAR's estimation stage) fit each train linearly and
    // require the fits to describe one counter.
    let (va, ca) = linear_fit(a);
    let (vb, _cb) = linear_fit(b);
    if va <= 0.0 || vb <= 0.0 {
        return false;
    }
    let vmaxf = va.max(vb);
    if (va - vb).abs() > 0.2 * vmaxf + 5.0 {
        return false;
    }
    // Predict b's samples from a's fit; tolerate burst noise.
    let tolerance = 96.0 + 0.05 * vmaxf;
    b.iter().all(|s| {
        let pred = (ca + va * s.t_s).rem_euclid(65536.0);
        ring_distance(pred, f64::from(s.ip_id)) <= tolerance
    })
}

/// Least-squares linear fit of an unwrapped IP-ID train:
/// returns (velocity per second, value at t = 0).
fn linear_fit(train: &[IpIdSample]) -> (f64, f64) {
    let mut unwrapped = Vec::with_capacity(train.len());
    let mut acc = f64::from(train[0].ip_id);
    unwrapped.push(acc);
    for w in train.windows(2) {
        let dv = (i32::from(w[1].ip_id) - i32::from(w[0].ip_id)).rem_euclid(65536);
        acc += f64::from(dv);
        unwrapped.push(acc);
    }
    let n = train.len() as f64;
    let mean_t: f64 = train.iter().map(|s| s.t_s).sum::<f64>() / n;
    let mean_v: f64 = unwrapped.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (s, &v) in train.iter().zip(&unwrapped) {
        num += (s.t_s - mean_t) * (v - mean_v);
        den += (s.t_s - mean_t) * (s.t_s - mean_t);
    }
    let slope = if den > 0.0 { num / den } else { 0.0 };
    let intercept = mean_v - slope * mean_t;
    // Intercept on the mod-2¹⁶ ring.
    (slope, intercept.rem_euclid(65536.0))
}

/// Distance on the 2¹⁶ ring.
fn ring_distance(a: f64, b: f64) -> f64 {
    let d = (a - b).rem_euclid(65536.0);
    d.min(65536.0 - d)
}

/// Probes an interface's IP-ID train with the configured schedule,
/// time-offset by `slot` so trains interleave.
fn train(world: &World, cfg: &AliasConfig, ifc: IfaceId, slot: usize) -> Vec<IpIdSample> {
    let offset = cfg.interval_s * (slot as f64) / 4.0;
    probe_train(world, cfg.seed, ifc, offset, cfg.interval_s, cfg.samples)
}

/// iffinder: probing a high port on `ifc` may elicit a reply sourced from
/// the router's primary interface, directly aliasing the two.
pub fn iffinder_probe(world: &World, cfg: &AliasConfig, ifc: IfaceId) -> Option<IfaceId> {
    let iface = &world.interfaces[ifc.index()];
    if !iface.responds_to_ping {
        return None;
    }
    let router = iface.router;
    let responds = stable_hash(&[cfg.seed, 0x1FF, u64::from(router.0)]) % 1000
        < (cfg.p_iffinder * 1000.0) as u64;
    if !responds {
        return None;
    }
    let primary = world.internal_iface_of(router)?;
    (primary != ifc).then_some(primary)
}

/// Resolves a set of interfaces (typically: all interfaces of one AS,
/// as in §5.2 step 4) into alias groups.
pub fn resolve(world: &World, ifaces: &[IfaceId], cfg: &AliasConfig) -> AliasSets {
    // Union-find over the interfaces (plus iffinder-discovered primaries).
    let mut ids: Vec<IfaceId> = ifaces.to_vec();
    ids.sort();
    ids.dedup();
    let mut extra: Vec<IfaceId> = Vec::new();
    let mut edges: Vec<(IfaceId, IfaceId)> = Vec::new();

    // iffinder pass.
    for &i in &ids {
        if let Some(primary) = iffinder_probe(world, cfg, i) {
            edges.push((i, primary));
            if !ids.contains(&primary) && !extra.contains(&primary) {
                extra.push(primary);
            }
        }
    }
    let mut all = ids.clone();
    all.extend(extra);

    // MBT pass: pairwise over the queried set.
    let trains: Vec<(IfaceId, Vec<IpIdSample>)> = all
        .iter()
        .enumerate()
        .map(|(slot, &i)| (i, train(world, cfg, i, slot)))
        .collect();
    for x in 0..trains.len() {
        for y in (x + 1)..trains.len() {
            if mbt_shared_counter(&trains[x].1, &trains[y].1, cfg.max_velocity) {
                edges.push((trains[x].0, trains[y].0));
            }
        }
    }

    // Union-find.
    let index: HashMap<IfaceId, usize> = all.iter().enumerate().map(|(k, &i)| (i, k)).collect();
    let mut parent: Vec<usize> = (0..all.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (a, b) in edges {
        let (ra, rb) = (find(&mut parent, index[&a]), find(&mut parent, index[&b]));
        if ra != rb {
            parent[ra] = rb;
        }
    }
    let mut groups: HashMap<usize, Vec<IfaceId>> = HashMap::new();
    for (k, &i) in all.iter().enumerate() {
        let root = find(&mut parent, k);
        groups.entry(root).or_default().push(i);
    }
    let mut out: Vec<Vec<IfaceId>> = groups.into_values().filter(|g| g.len() > 1).collect();
    for g in &mut out {
        g.sort();
    }
    out.sort();
    AliasSets::from_groups(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opeer_topology::{IpIdMode, WorldConfig};

    fn world() -> World {
        WorldConfig::small(61).generate()
    }

    /// Finds a router with the given IP-ID mode and ≥ `n` ping-responding
    /// interfaces.
    fn router_with(world: &World, want_shared: bool, n: usize) -> Option<Vec<IfaceId>> {
        for r in &world.routers {
            let matches = match r.ip_id {
                IpIdMode::SharedCounter { .. } => want_shared,
                _ => !want_shared,
            };
            if !matches {
                continue;
            }
            let ifaces: Vec<IfaceId> = r
                .interfaces
                .iter()
                .copied()
                .filter(|&i| world.interfaces[i.index()].responds_to_ping)
                .collect();
            if ifaces.len() >= n {
                return Some(ifaces);
            }
        }
        None
    }

    #[test]
    fn same_router_shared_counter_resolves() {
        let w = world();
        let ifaces = router_with(&w, true, 2).expect("multi-iface shared-counter router");
        let sets = resolve(&w, &ifaces[..2], &AliasConfig::default());
        assert!(
            sets.aliased(ifaces[0], ifaces[1]),
            "same-router interfaces must alias"
        );
    }

    #[test]
    fn different_routers_do_not_alias() {
        let w = world();
        // Two shared-counter routers with different rates.
        let mut found: Vec<IfaceId> = Vec::new();
        for r in &w.routers {
            if let IpIdMode::SharedCounter { .. } = r.ip_id {
                if let Some(&i) = r
                    .interfaces
                    .iter()
                    .find(|&&i| w.interfaces[i.index()].responds_to_ping)
                {
                    found.push(i);
                    if found.len() == 2 {
                        break;
                    }
                }
            }
        }
        assert_eq!(found.len(), 2, "need two shared-counter routers");
        let cfg = AliasConfig {
            p_iffinder: 0.0,
            ..Default::default()
        };
        let sets = resolve(&w, &found, &cfg);
        assert!(
            !sets.aliased(found[0], found[1]),
            "distinct routers merged by MBT"
        );
    }

    #[test]
    fn random_and_zero_ipid_stay_unresolved() {
        let w = world();
        if let Some(ifaces) = router_with(&w, false, 2) {
            let cfg = AliasConfig {
                p_iffinder: 0.0,
                ..Default::default()
            };
            let sets = resolve(&w, &ifaces[..2], &cfg);
            assert!(
                !sets.aliased(ifaces[0], ifaces[1]),
                "random/zero IP-ID must be unresolvable by MBT"
            );
        }
    }

    #[test]
    fn mbt_rejects_short_trains_and_constants() {
        let mk = |vals: &[(f64, u16)]| -> Vec<IpIdSample> {
            vals.iter()
                .map(|&(t_s, ip_id)| IpIdSample { t_s, ip_id })
                .collect()
        };
        let a = mk(&[(0.0, 5), (1.0, 10)]);
        let b = mk(&[(0.5, 7), (1.5, 12)]);
        assert!(!mbt_shared_counter(&a, &b, 1000.0), "too short");

        let za = mk(&[(0.0, 0), (1.0, 0), (2.0, 0)]);
        let zb = mk(&[(0.5, 0), (1.5, 0), (2.5, 0)]);
        assert!(
            !mbt_shared_counter(&za, &zb, 1000.0),
            "frozen counter unusable"
        );
    }

    #[test]
    fn mbt_accepts_interleaved_counter_with_wrap() {
        let mk = |vals: &[(f64, u16)]| -> Vec<IpIdSample> {
            vals.iter()
                .map(|&(t_s, ip_id)| IpIdSample { t_s, ip_id })
                .collect()
        };
        // Counter at ~100/s crossing the 2^16 boundary.
        let a = mk(&[(0.0, 65400), (2.0, 65600u32 as u16), (4.0, 264)]);
        let b = mk(&[(1.0, 65500), (3.0, 164), (5.0, 364)]);
        assert!(mbt_shared_counter(&a, &b, 1000.0));
    }

    #[test]
    fn precision_over_whole_world_sample() {
        // MIDAR's promise: essentially no false merges. Sample interface
        // pairs across the world and check aliasing implies same router.
        let w = world();
        let lan_ifaces: Vec<IfaceId> = (0..w.interfaces.len())
            .map(IfaceId::from_index)
            .filter(|&i| {
                matches!(
                    w.interfaces[i.index()].kind,
                    opeer_topology::IfaceKind::IxpLan { .. }
                ) && w.interfaces[i.index()].responds_to_ping
            })
            .take(60)
            .collect();
        let cfg = AliasConfig {
            p_iffinder: 0.0,
            ..Default::default()
        };
        let sets = resolve(&w, &lan_ifaces, &cfg);
        for g in &sets.groups {
            let routers: std::collections::HashSet<_> =
                g.iter().map(|&i| w.interfaces[i.index()].router).collect();
            assert_eq!(routers.len(), 1, "false merge across routers: {g:?}");
        }
    }
}
