//! The multi-world sweep fleet: seed × knob grids, what-if scenarios,
//! confidence-banded figures.
//!
//! Every other experiment in this crate runs **one** world. The fleet
//! runs a [`SweepGrid`] of them — the cross product of seeds and
//! `WorldConfig` knob points (remote mix, reseller rate, port-capacity
//! distribution, scale), optionally extended with what-if
//! [`Scenario`]s — fanning one world per shard over the engine's
//! heterogeneous [`map_indexed`] and aggregating per-cell remote
//! shares, verdict tallies and accuracy into mean ± 95 % confidence
//! bands.
//!
//! ## Determinism
//!
//! Cells run the *sequential* assemble + pipeline internally
//! (`ParallelConfig::new(1)`), so the outer thread count only changes
//! which worker computes which cell; [`map_indexed`]'s index-ordered
//! merge and the canonical grid order (knob label ↑, seed ↑, scenario
//! label ↑) make [`FleetReport::stats_bytes`] byte-identical across
//! `OPEER_THREADS` and across grid-spec permutations
//! (`crates/bench/tests/fleet_determinism.rs` proptests both).
//! Wall-clock fields are the only nondeterministic content and
//! `stats_bytes` scrubs them.
//!
//! ## Identity gate
//!
//! Scenario cells take the cheap path — one `InputDelta` (registry
//! revision + re-measured campaign/corpus) applied over the baseline's
//! measurement-free input via
//! [`run_scenario_epoch`].
//! The report's `identity` flag re-runs the first baseline cell and
//! recomputes the first scenario cell as a **one-shot** assemble +
//! pipeline on the scenario world, requiring both to match the fleet's
//! results exactly; CI's `sweep-fleet` job gates on it.
//!
//! ## Grid-spec syntax
//!
//! `;`-separated axes, each `key=value[,value…]`:
//!
//! | axis | values |
//! |---|---|
//! | `base` | `tiny` \| `small` \| `paper` (default `tiny`) |
//! | `seeds` | comma-separated u64 list (default `42`) |
//! | `scale` | member-target multipliers, e.g. `0.02,0.05` |
//! | `remote` | `paper` \| `near` \| `far` remote-distance mixes |
//! | `reseller` | `p_reseller_given_remote` values, e.g. `0.3,0.62` |
//! | `ports` | `default` \| `rich` \| `lean` port-capacity mixes |
//! | `scenario` | `ixp-outage:NAME`, `port-migration:NAME:COUNT`, `reseller-consolidation`, `capacity-scaling:PERMILLE` |
//!
//! Knob axes cross-multiply; e.g.
//! `base=tiny;seeds=1,2;reseller=0.3,0.62;scenario=ixp-outage:AMS-IX`
//! is 2 seeds × 2 knobs × (baseline + 1 scenario) = 8 cells.

use opeer_core::engine::{map_indexed, ParallelConfig};
use opeer_core::input::InferenceInput;
use opeer_core::pipeline::{run_pipeline, PipelineConfig, PipelineResult, StepCounts};
use opeer_core::scenario::{run_scenario_epoch, score_shift, ScenarioShift};
use opeer_core::types::Verdict;
use opeer_registry::ObservedWorld;
use opeer_topology::{PortCapacityDist, RemoteMix, Scenario, World, WorldConfig, NAMED_IXPS};
use serde::Serialize;
use serde_json::Value;
use std::time::Instant;

/// Schema tag of the standalone [`FleetReport`].
pub const FLEET_SCHEMA: &str = "opeer-fleet/1";

/// Schema tag of `BENCH_sweep.json` ([`SweepBenchReport`]). It is the
/// tag of the scaling report this file once shared a schema with, kept
/// so that readers of the file see the same bytes.
pub const BENCH_SCHEMA: &str = "opeer-bench-pipeline/10";

/// One knob point of the grid: a label (stable across runs, used for
/// ordering and band grouping) and the world configuration it denotes.
#[derive(Debug, Clone)]
pub struct KnobPoint {
    /// Canonical label, e.g. `reseller=0.3|ports=lean` or `default`.
    pub label: String,
    /// The world configuration (seed overwritten per cell).
    pub config: WorldConfig,
}

/// A parsed, normalised sweep grid.
///
/// Normalisation sorts seeds ascending, knob points and scenarios by
/// label, and rebuilds `spec` canonically — two specs naming the same
/// grid in different axis/value order parse to identical grids (and
/// therefore identical reports).
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Canonical spec string (reconstructed, not the raw input).
    pub spec: String,
    /// Seeds, ascending and deduplicated.
    pub seeds: Vec<u64>,
    /// Knob points, sorted by label.
    pub knobs: Vec<KnobPoint>,
    /// Scenarios, sorted by label and deduplicated.
    pub scenarios: Vec<Scenario>,
}

fn base_config(label: &str) -> Result<WorldConfig, String> {
    match label {
        // The CI-smoke scale: a handful of small IXPs over the named
        // roster, a few hundred interfaces, sub-second per cell.
        "tiny" => {
            let mut cfg = WorldConfig::small(0);
            cfg.scale = 0.02;
            cfg.n_small_ixps = 6;
            cfg.n_background_ases = 50;
            cfg.n_switchers = 2;
            Ok(cfg)
        }
        "small" => Ok(WorldConfig::small(0)),
        "paper" => Ok(WorldConfig::paper(0)),
        other => Err(format!(
            "unknown base `{other}` (expected tiny|small|paper)"
        )),
    }
}

fn remote_mix(label: &str) -> Result<RemoteMix, String> {
    match label {
        "paper" => Ok(RemoteMix::default()),
        // Remote members cluster close to the IXP (reseller-in-town
        // heavy) …
        "near" => Ok(RemoteMix {
            same_metro: 0.45,
            regional: 0.30,
            continental: 0.15,
            intercontinental: 0.10,
        }),
        // … or sit oceans away (long-cable heavy).
        "far" => Ok(RemoteMix {
            same_metro: 0.05,
            regional: 0.15,
            continental: 0.30,
            intercontinental: 0.50,
        }),
        other => Err(format!(
            "unknown remote mix `{other}` (expected paper|near|far)"
        )),
    }
}

fn port_dist(label: &str) -> Result<PortCapacityDist, String> {
    match label {
        "default" => Ok(PortCapacityDist::default()),
        "rich" => Ok(PortCapacityDist::rich()),
        "lean" => Ok(PortCapacityDist::lean()),
        other => Err(format!(
            "unknown ports mix `{other}` (expected default|rich|lean)"
        )),
    }
}

fn parse_scenario(token: &str) -> Result<Scenario, String> {
    let mut parts = token.split(':');
    let kind = parts.next().unwrap_or_default();
    let rest: Vec<&str> = parts.collect();
    let named_ixp = |name: &str| -> Result<String, String> {
        if NAMED_IXPS.iter().any(|s| s.name == name) {
            Ok(name.to_string())
        } else {
            Err(format!("scenario `{token}`: `{name}` is not a named IXP"))
        }
    };
    match (kind, rest.as_slice()) {
        ("ixp-outage", [name]) => Ok(Scenario::IxpOutage {
            ixp: named_ixp(name)?,
        }),
        ("port-migration", [name, count]) => Ok(Scenario::PortMigration {
            ixp: named_ixp(name)?,
            count: count
                .parse()
                .map_err(|_| format!("scenario `{token}`: bad count `{count}`"))?,
        }),
        ("reseller-consolidation", []) => Ok(Scenario::ResellerConsolidation),
        ("capacity-scaling", [permille]) => {
            let factor_permille: u32 = permille
                .parse()
                .map_err(|_| format!("scenario `{token}`: bad permille `{permille}`"))?;
            if factor_permille == 0 {
                return Err(format!("scenario `{token}`: permille must be > 0"));
            }
            Ok(Scenario::CapacityScaling { factor_permille })
        }
        _ => Err(format!(
            "unknown scenario `{token}` (expected ixp-outage:NAME, \
             port-migration:NAME:COUNT, reseller-consolidation, \
             capacity-scaling:PERMILLE)"
        )),
    }
}

fn parse_f64_axis(axis: &str, raw: &[String]) -> Result<Vec<f64>, String> {
    let mut vals = Vec::new();
    for v in raw {
        let f: f64 = v
            .parse()
            .map_err(|_| format!("axis `{axis}`: bad number `{v}`"))?;
        if !f.is_finite() {
            return Err(format!("axis `{axis}`: `{v}` is not finite"));
        }
        vals.push(f);
    }
    vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    vals.dedup();
    Ok(vals)
}

impl SweepGrid {
    /// Parses and normalises a grid spec (syntax in the module docs).
    pub fn parse(spec: &str) -> Result<SweepGrid, String> {
        let mut axes: Vec<(String, Vec<String>)> = Vec::new();
        for seg in spec.split(';') {
            let seg = seg.trim();
            if seg.is_empty() {
                continue;
            }
            let (key, vals) = seg
                .split_once('=')
                .ok_or_else(|| format!("bad axis `{seg}` (expected key=value,…)"))?;
            let key = key.trim();
            if axes.iter().any(|(k, _)| k == key) {
                return Err(format!("duplicate axis `{key}`"));
            }
            let vals: Vec<String> = vals
                .split(',')
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
                .collect();
            if vals.is_empty() {
                return Err(format!("axis `{key}` has no values"));
            }
            axes.push((key.to_string(), vals));
        }

        let take = |name: &str| -> Option<Vec<String>> {
            axes.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
        };
        for (k, _) in &axes {
            if !matches!(
                k.as_str(),
                "base" | "seeds" | "scale" | "remote" | "reseller" | "ports" | "scenario"
            ) {
                return Err(format!("unknown axis `{k}`"));
            }
        }

        let base_label = match take("base") {
            Some(v) if v.len() == 1 => v[0].clone(),
            Some(_) => return Err("axis `base` takes exactly one value".to_string()),
            None => "tiny".to_string(),
        };
        let base = base_config(&base_label)?;

        let mut seeds: Vec<u64> = match take("seeds") {
            Some(v) => v
                .iter()
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| format!("axis `seeds`: bad seed `{s}`"))
                })
                .collect::<Result<_, _>>()?,
            None => vec![42],
        };
        seeds.sort_unstable();
        seeds.dedup();

        // Knob axes in canonical order; each axis' values sorted so the
        // cross product (and thus the report) is permutation-invariant.
        let scales = take("scale")
            .map(|v| parse_f64_axis("scale", &v))
            .transpose()?;
        let remotes = take("remote")
            .map(|mut v| {
                v.sort();
                v.dedup();
                v.iter()
                    .map(|l| remote_mix(l).map(|m| (l.clone(), m)))
                    .collect::<Result<Vec<_>, _>>()
            })
            .transpose()?;
        let resellers = take("reseller")
            .map(|v| parse_f64_axis("reseller", &v))
            .transpose()?;
        let ports = take("ports")
            .map(|mut v| {
                v.sort();
                v.dedup();
                v.iter()
                    .map(|l| port_dist(l).map(|d| (l.clone(), d)))
                    .collect::<Result<Vec<_>, _>>()
            })
            .transpose()?;

        /// One knob-axis value: display label plus the config edit it
        /// applies.
        type KnobValue = (String, Box<dyn Fn(&mut WorldConfig)>);

        let mut knobs: Vec<KnobPoint> = vec![KnobPoint {
            label: String::new(),
            config: base.clone(),
        }];
        let extend =
            |knobs: Vec<KnobPoint>, axis: &str, values: Vec<KnobValue>| -> Vec<KnobPoint> {
                let mut out = Vec::with_capacity(knobs.len() * values.len());
                for k in &knobs {
                    for (vlabel, apply) in &values {
                        let mut config = k.config.clone();
                        apply(&mut config);
                        let label = if k.label.is_empty() {
                            format!("{axis}={vlabel}")
                        } else {
                            format!("{}|{axis}={vlabel}", k.label)
                        };
                        out.push(KnobPoint { label, config });
                    }
                }
                out
            };
        if let Some(scales) = scales {
            let values = scales
                .into_iter()
                .map(|s| {
                    let f: Box<dyn Fn(&mut WorldConfig)> = Box::new(move |c| c.scale = s);
                    (format!("{s}"), f)
                })
                .collect();
            knobs = extend(knobs, "scale", values);
        }
        if let Some(remotes) = remotes {
            let values = remotes
                .into_iter()
                .map(|(l, m)| {
                    let f: Box<dyn Fn(&mut WorldConfig)> = Box::new(move |c| c.remote_mix = m);
                    (l, f)
                })
                .collect();
            knobs = extend(knobs, "remote", values);
        }
        if let Some(resellers) = resellers {
            let values = resellers
                .into_iter()
                .map(|p| {
                    let f: Box<dyn Fn(&mut WorldConfig)> =
                        Box::new(move |c| c.p_reseller_given_remote = p);
                    (format!("{p}"), f)
                })
                .collect();
            knobs = extend(knobs, "reseller", values);
        }
        if let Some(ports) = ports {
            let values = ports
                .into_iter()
                .map(|(l, d)| {
                    let f: Box<dyn Fn(&mut WorldConfig)> = Box::new(move |c| c.port_capacity = d);
                    (l, f)
                })
                .collect();
            knobs = extend(knobs, "ports", values);
        }
        for k in knobs.iter_mut() {
            if k.label.is_empty() {
                k.label = "default".to_string();
            }
            k.config
                .validate()
                .map_err(|e| format!("knob `{}`: {e}", k.label))?;
        }
        knobs.sort_by(|a, b| a.label.cmp(&b.label));

        let mut scenarios: Vec<Scenario> = match take("scenario") {
            Some(v) => v
                .iter()
                .map(|t| parse_scenario(t))
                .collect::<Result<_, _>>()?,
            None => Vec::new(),
        };
        scenarios.sort_by_key(|s| s.label());
        scenarios.dedup();

        let mut spec_parts = vec![
            format!("base={base_label}"),
            format!(
                "seeds={}",
                seeds
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ];
        if knobs.len() > 1 || knobs[0].label != "default" {
            spec_parts.push(format!(
                "knobs={}",
                knobs
                    .iter()
                    .map(|k| k.label.clone())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
        }
        if !scenarios.is_empty() {
            spec_parts.push(format!(
                "scenario={}",
                scenarios
                    .iter()
                    .map(|s| s.label())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
        }

        Ok(SweepGrid {
            spec: spec_parts.join(";"),
            seeds,
            knobs,
            scenarios,
        })
    }

    /// Total cell count: baseline cells plus one scenario cell per
    /// (knob, seed, scenario) triple.
    pub fn n_cells(&self) -> usize {
        self.knobs.len() * self.seeds.len() * (1 + self.scenarios.len())
    }
}

/// Mean ± 95 % confidence interval over a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
#[serde(crate = "serde")]
pub struct Band {
    /// Sample count.
    pub n: usize,
    /// Sample mean (0 when empty).
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 when n < 2).
    pub stddev: f64,
    /// `mean − 1.96·stddev/√n`.
    pub lo: f64,
    /// `mean + 1.96·stddev/√n`.
    pub hi: f64,
}

impl Band {
    /// Computes the band in a fixed left-to-right accumulation order —
    /// callers pass samples in canonical (seed-ascending) order so the
    /// float results are bit-stable.
    pub fn from_samples(samples: &[f64]) -> Band {
        let n = samples.len();
        if n == 0 {
            return Band {
                n: 0,
                mean: 0.0,
                stddev: 0.0,
                lo: 0.0,
                hi: 0.0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let stddev = if n < 2 {
            0.0
        } else {
            let ss = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>();
            (ss / (n - 1) as f64).sqrt()
        };
        let half = 1.96 * stddev / (n as f64).sqrt();
        Band {
            n,
            mean,
            stddev,
            lo: mean - half,
            hi: mean + half,
        }
    }

    /// Width of the confidence interval (`hi − lo`).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Per-IXP remote share within one cell (studied IXPs only).
#[derive(Debug, Clone, PartialEq, Serialize)]
#[serde(crate = "serde")]
pub struct IxpShare {
    /// IXP name.
    pub ixp: String,
    /// Inferences at this IXP.
    pub classified: usize,
    /// Remote fraction among them.
    pub remote_share: f64,
}

/// The paper-table statistics of one cell, scored against the cell
/// world's ground truth.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[serde(crate = "serde")]
pub struct CellStats {
    /// Member interfaces in the observed (registry) world.
    pub interfaces: usize,
    /// Interfaces the pipeline classified.
    pub classified: usize,
    /// Interfaces no step could classify.
    pub unclassified: usize,
    /// Local verdicts.
    pub local: usize,
    /// Remote verdicts.
    pub remote: usize,
    /// Remote fraction among classified interfaces.
    pub remote_share: f64,
    /// Ground-truth remote fraction among classified interfaces.
    pub truth_remote_share: f64,
    /// Fraction of classified interfaces whose verdict matches truth.
    pub accuracy: f64,
    /// Verdicts per inference step (Fig. 10a's data).
    pub steps: StepCounts,
    /// Remote share per studied IXP (Fig. 9's data).
    pub ixp_shares: Vec<IxpShare>,
}

fn cell_stats(world: &World, observed: &ObservedWorld, result: &PipelineResult) -> CellStats {
    let classified = result.inferences.len();
    let remote = result
        .inferences
        .iter()
        .filter(|i| i.verdict == Verdict::Remote)
        .count();
    let mut truth_known = 0usize;
    let mut truth_remote = 0usize;
    let mut correct = 0usize;
    for inf in &result.inferences {
        let Some(t) = world
            .iface_by_addr(inf.addr)
            .and_then(|ifc| world.membership_of_iface(ifc))
            .map(|mid| world.memberships[mid.index()].truth.is_remote())
        else {
            continue;
        };
        truth_known += 1;
        if t {
            truth_remote += 1;
        }
        if t == (inf.verdict == Verdict::Remote) {
            correct += 1;
        }
    }
    let frac = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let ixp_shares = observed
        .ixps
        .iter()
        .enumerate()
        .filter(|(_, x)| x.studied)
        .map(|(idx, x)| {
            let cell: Vec<&opeer_core::types::Inference> =
                result.inferences.iter().filter(|i| i.ixp == idx).collect();
            let rem = cell.iter().filter(|i| i.verdict == Verdict::Remote).count();
            IxpShare {
                ixp: x.name.clone(),
                classified: cell.len(),
                remote_share: frac(rem, cell.len()),
            }
        })
        .collect();
    CellStats {
        interfaces: observed.total_interfaces(),
        classified,
        unclassified: result.unclassified.len(),
        local: classified - remote,
        remote,
        remote_share: frac(remote, classified),
        truth_remote_share: frac(truth_remote, truth_known),
        accuracy: frac(correct, truth_known),
        steps: result.counts,
        ixp_shares,
    }
}

/// One cell of the fleet report.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[serde(crate = "serde")]
pub struct CellReport {
    /// Position in the canonical cell order.
    pub index: usize,
    /// Knob label.
    pub knob: String,
    /// World seed.
    pub seed: u64,
    /// Scenario label, `None` for baseline cells.
    pub scenario: Option<String>,
    /// Cell wall-clock, milliseconds (scrubbed from `stats_bytes`).
    pub wall_ms: f64,
    /// Paper-table statistics.
    pub stats: CellStats,
    /// Shift vs the baseline cell, `None` for baseline cells.
    pub shift: Option<ScenarioShift>,
}

/// Confidence bands over the seed axis for one (knob, scenario) group.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[serde(crate = "serde")]
pub struct BandGroup {
    /// Knob label.
    pub knob: String,
    /// Scenario label, `None` for the baseline group.
    pub scenario: Option<String>,
    /// Remote share across seeds.
    pub remote_share: Band,
    /// Truth accuracy across seeds.
    pub accuracy: Band,
    /// Classified / observed-interface coverage across seeds.
    pub coverage: Band,
    /// Scenario remote-share delta across seeds (scenario groups only).
    pub share_delta: Option<Band>,
}

/// The full fleet result: every cell, every band, the identity gate.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[serde(crate = "serde")]
pub struct FleetReport {
    /// Report schema tag ([`FLEET_SCHEMA`]).
    pub schema: &'static str,
    /// Canonical grid spec.
    pub spec: String,
    /// Seeds swept.
    pub seeds: Vec<u64>,
    /// Knob labels swept.
    pub knobs: Vec<String>,
    /// Scenario labels swept.
    pub scenarios: Vec<String>,
    /// Outer worker threads the fleet ran on (scrubbed from
    /// `stats_bytes`; the results must not depend on it).
    pub threads: usize,
    /// Every cell in canonical order: baselines (knob ↑, seed ↑), then
    /// scenario cells (knob ↑, seed ↑, scenario ↑).
    pub cells: Vec<CellReport>,
    /// Confidence bands per (knob, scenario) group, same order.
    pub bands: Vec<BandGroup>,
    /// Identity gate: first baseline cell reproduces on a fresh re-run
    /// AND the first scenario cell's delta-path result equals a
    /// one-shot assemble + pipeline on the scenario world.
    pub identity: bool,
    /// Total fleet wall-clock, ms (scrubbed from `stats_bytes`).
    pub total_wall_ms: f64,
    /// Mean per-cell wall-clock, ms (scrubbed from `stats_bytes`).
    pub mean_cell_wall_ms: f64,
}

fn scrub_nondeterministic(v: &mut Value) {
    match v {
        Value::Object(members) => {
            members.retain(|(k, _)| {
                !matches!(
                    k.as_str(),
                    "wall_ms" | "total_wall_ms" | "mean_cell_wall_ms" | "threads"
                )
            });
            for (_, m) in members.iter_mut() {
                scrub_nondeterministic(m);
            }
        }
        Value::Array(items) => {
            for item in items.iter_mut() {
                scrub_nondeterministic(item);
            }
        }
        _ => {}
    }
}

impl FleetReport {
    /// The deterministic projection of the report: serialised JSON with
    /// every wall-clock (and thread-count) key scrubbed. Byte-identical
    /// across `OPEER_THREADS` and grid-spec permutations.
    pub fn stats_bytes(&self) -> Vec<u8> {
        let mut v = serde_json::to_value(self).expect("report to value");
        scrub_nondeterministic(&mut v);
        serde_json::to_string(&v)
            .expect("report serialises")
            .into_bytes()
    }
}

/// What one baseline cell leaves behind for the scenario phase.
struct BaseCell {
    world: World,
    result: PipelineResult,
    stats: CellStats,
    wall_ms: f64,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs the whole grid and aggregates the [`FleetReport`].
///
/// `par.threads` is the outer fan-out over cells; each cell runs its
/// assemble + pipeline sequentially so results cannot depend on the
/// thread count.
pub fn run_sweep(grid: &SweepGrid, par: &ParallelConfig) -> Result<FleetReport, String> {
    let pipe_cfg = PipelineConfig::default();
    let inner = ParallelConfig::new(1);
    let n_seeds = grid.seeds.len();
    let n_base = grid.knobs.len() * n_seeds;
    let t_total = Instant::now();

    // Phase 1: baseline cells, one world per shard.
    let base_cells: Vec<BaseCell> = map_indexed(n_base, par.threads, |i| {
        let knob = &grid.knobs[i / n_seeds];
        let seed = grid.seeds[i % n_seeds];
        let mut cfg = knob.config.clone();
        cfg.seed = seed;
        let t = Instant::now();
        let world = cfg.generate();
        let (result, stats) = {
            let input = InferenceInput::assemble(&world, seed);
            let result = run_pipeline(&input, &pipe_cfg);
            let stats = cell_stats(&world, &input.observed, &result);
            (result, stats)
        };
        BaseCell {
            wall_ms: ms(t),
            world,
            result,
            stats,
        }
    });

    // Validate scenarios against the worlds they will perturb before
    // paying for phase 2.
    for sc in &grid.scenarios {
        sc.validate(&base_cells[0].world)?;
    }

    // Phase 2: scenario cells over the delta path.
    struct ScenCell {
        result: PipelineResult,
        stats: CellStats,
        shift: ScenarioShift,
        wall_ms: f64,
    }
    let n_scen = n_base * grid.scenarios.len();
    let scen_cells: Vec<ScenCell> = map_indexed(n_scen, par.threads, |i| {
        let base = &base_cells[i / grid.scenarios.len()];
        let sc = &grid.scenarios[i % grid.scenarios.len()];
        let seed = grid.seeds[(i / grid.scenarios.len()) % n_seeds];
        let t = Instant::now();
        let sworld = sc.apply(&base.world);
        let pipe = run_scenario_epoch(&base.world, &sworld, seed, &pipe_cfg, &inner);
        let result = pipe.result();
        let stats = cell_stats(&sworld, &pipe.input().observed, result);
        let shift = score_shift(&base.result, result);
        ScenCell {
            wall_ms: ms(t),
            result: result.clone(),
            stats,
            shift,
        }
    });

    // Identity gate. Leg 1: the first baseline cell reproduces from
    // scratch. Leg 2: the first scenario cell's delta path equals a
    // one-shot assemble + pipeline on the scenario world.
    let identity = {
        let seed = grid.seeds[0];
        let mut cfg = grid.knobs[0].config.clone();
        cfg.seed = seed;
        let world = cfg.generate();
        let fresh = run_pipeline(&InferenceInput::assemble(&world, seed), &pipe_cfg);
        let baseline_ok = fresh == base_cells[0].result;
        let scenario_ok = grid.scenarios.first().is_none_or(|sc| {
            let sworld = sc.apply(&base_cells[0].world);
            let one_shot = run_pipeline(&InferenceInput::assemble(&sworld, seed), &pipe_cfg);
            one_shot == scen_cells[0].result
        });
        baseline_ok && scenario_ok
    };

    // Canonical cell order: baselines first, then scenario cells.
    let mut cells = Vec::with_capacity(n_base + n_scen);
    for (i, c) in base_cells.iter().enumerate() {
        cells.push(CellReport {
            index: cells.len(),
            knob: grid.knobs[i / n_seeds].label.clone(),
            seed: grid.seeds[i % n_seeds],
            scenario: None,
            wall_ms: c.wall_ms,
            stats: c.stats.clone(),
            shift: None,
        });
    }
    for (i, c) in scen_cells.iter().enumerate() {
        let b = i / grid.scenarios.len();
        cells.push(CellReport {
            index: cells.len(),
            knob: grid.knobs[b / n_seeds].label.clone(),
            seed: grid.seeds[b % n_seeds],
            scenario: Some(grid.scenarios[i % grid.scenarios.len()].label()),
            wall_ms: c.wall_ms,
            stats: c.stats.clone(),
            shift: Some(c.shift),
        });
    }

    // Bands: per knob, the baseline group then one group per scenario,
    // samples in seed-ascending order.
    let mut bands = Vec::new();
    for (k, knob) in grid.knobs.iter().enumerate() {
        let base_of = |s: usize| &base_cells[k * n_seeds + s];
        bands.push(BandGroup {
            knob: knob.label.clone(),
            scenario: None,
            remote_share: Band::from_samples(
                &(0..n_seeds)
                    .map(|s| base_of(s).stats.remote_share)
                    .collect::<Vec<_>>(),
            ),
            accuracy: Band::from_samples(
                &(0..n_seeds)
                    .map(|s| base_of(s).stats.accuracy)
                    .collect::<Vec<_>>(),
            ),
            coverage: Band::from_samples(
                &(0..n_seeds)
                    .map(|s| {
                        let st = &base_of(s).stats;
                        if st.interfaces == 0 {
                            0.0
                        } else {
                            st.classified as f64 / st.interfaces as f64
                        }
                    })
                    .collect::<Vec<_>>(),
            ),
            share_delta: None,
        });
        for (c, sc) in grid.scenarios.iter().enumerate() {
            let cell_of = |s: usize| &scen_cells[(k * n_seeds + s) * grid.scenarios.len() + c];
            bands.push(BandGroup {
                knob: knob.label.clone(),
                scenario: Some(sc.label()),
                remote_share: Band::from_samples(
                    &(0..n_seeds)
                        .map(|s| cell_of(s).stats.remote_share)
                        .collect::<Vec<_>>(),
                ),
                accuracy: Band::from_samples(
                    &(0..n_seeds)
                        .map(|s| cell_of(s).stats.accuracy)
                        .collect::<Vec<_>>(),
                ),
                coverage: Band::from_samples(
                    &(0..n_seeds)
                        .map(|s| {
                            let st = &cell_of(s).stats;
                            if st.interfaces == 0 {
                                0.0
                            } else {
                                st.classified as f64 / st.interfaces as f64
                            }
                        })
                        .collect::<Vec<_>>(),
                ),
                share_delta: Some(Band::from_samples(
                    &(0..n_seeds)
                        .map(|s| cell_of(s).shift.remote_share_delta)
                        .collect::<Vec<_>>(),
                )),
            });
        }
    }

    let total_wall_ms = ms(t_total);
    let mean_cell_wall_ms = if cells.is_empty() {
        0.0
    } else {
        cells.iter().map(|c| c.wall_ms).sum::<f64>() / cells.len() as f64
    };
    Ok(FleetReport {
        schema: FLEET_SCHEMA,
        spec: grid.spec.clone(),
        seeds: grid.seeds.clone(),
        knobs: grid.knobs.iter().map(|k| k.label.clone()).collect(),
        scenarios: grid.scenarios.iter().map(|s| s.label()).collect(),
        threads: par.threads,
        cells,
        bands,
        identity,
        total_wall_ms,
        mean_cell_wall_ms,
    })
}

/// The `BENCH_sweep.json` wrapper: the fleet report as its `sweep`
/// section.
#[derive(Debug, Clone, Serialize)]
#[serde(crate = "serde")]
pub struct SweepBenchReport {
    /// BENCH schema tag ([`BENCH_SCHEMA`]).
    pub schema: &'static str,
    /// The fleet result.
    pub sweep: FleetReport,
}

impl SweepBenchReport {
    /// Wraps a fleet report under [`BENCH_SCHEMA`].
    pub fn new(sweep: FleetReport) -> Self {
        SweepBenchReport {
            schema: BENCH_SCHEMA,
            sweep,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_parse_normalises_and_crosses() {
        let g = SweepGrid::parse("seeds=7,3,7;reseller=0.62,0.3;ports=lean,rich").unwrap();
        assert_eq!(g.seeds, vec![3, 7]);
        assert_eq!(g.knobs.len(), 4);
        let labels: Vec<&str> = g.knobs.iter().map(|k| k.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "reseller=0.3|ports=lean",
                "reseller=0.3|ports=rich",
                "reseller=0.62|ports=lean",
                "reseller=0.62|ports=rich",
            ]
        );
        assert_eq!(g.n_cells(), 8);
        // Permuted spec → identical grid.
        let h = SweepGrid::parse("ports=rich,lean;seeds=3,7,3;reseller=0.3,0.62").unwrap();
        assert_eq!(g.spec, h.spec);
        assert_eq!(g.seeds, h.seeds);
    }

    #[test]
    fn grid_parse_rejects_bad_specs() {
        for bad in [
            "bogus=1",
            "seeds=1;seeds=2",
            "base=tiny;base=small",
            "seeds=x",
            "scale=NaN",
            "remote=weird",
            "ports=gold",
            "scenario=ixp-outage:NOPE",
            "scenario=capacity-scaling:0",
            "scenario=port-migration:AMS-IX:many",
            "base=tiny,small",
            "seeds=",
            "base",
        ] {
            assert!(SweepGrid::parse(bad).is_err(), "`{bad}` must be rejected");
        }
        // Knob values that parse but fail `WorldConfig::validate`: the
        // error names the knob point that failed.
        for (bad, label) in [
            ("reseller=1.5", "reseller=1.5"),
            ("reseller=-0.1", "reseller=-0.1"),
            ("scale=0", "scale=0"),
        ] {
            let err = SweepGrid::parse(bad).expect_err(bad);
            assert!(
                err.starts_with(&format!("knob `{label}`: ")),
                "`{bad}` gave `{err}`"
            );
        }
    }

    #[test]
    fn grid_parse_scenarios_sorted_and_deduped() {
        let g = SweepGrid::parse(
            "scenario=reseller-consolidation,capacity-scaling:500,reseller-consolidation",
        )
        .unwrap();
        assert_eq!(
            g.scenarios,
            vec![
                Scenario::CapacityScaling {
                    factor_permille: 500
                },
                Scenario::ResellerConsolidation,
            ]
        );
        assert_eq!(g.knobs.len(), 1);
        assert_eq!(g.knobs[0].label, "default");
    }

    #[test]
    fn band_math_basics() {
        let b = Band::from_samples(&[]);
        assert_eq!((b.n, b.mean, b.stddev), (0, 0.0, 0.0));
        let b = Band::from_samples(&[0.5]);
        assert_eq!((b.n, b.mean, b.stddev, b.lo, b.hi), (1, 0.5, 0.0, 0.5, 0.5));
        let b = Band::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(b.mean, 2.0);
        assert_eq!(b.stddev, 1.0);
        assert!(b.lo < 2.0 && b.hi > 2.0);
        assert!((b.width() - 2.0 * 1.96 / 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn stats_bytes_scrubs_wall_clock_keys() {
        let report = FleetReport {
            schema: FLEET_SCHEMA,
            spec: "base=tiny;seeds=1".into(),
            seeds: vec![1],
            knobs: vec!["default".into()],
            scenarios: vec![],
            threads: 8,
            cells: vec![],
            bands: vec![],
            identity: true,
            total_wall_ms: 123.456,
            mean_cell_wall_ms: 7.89,
        };
        let s = String::from_utf8(report.stats_bytes()).unwrap();
        assert!(!s.contains("wall_ms") && !s.contains("threads"), "{s}");
        assert!(s.contains("\"identity\":true"));
    }
}
