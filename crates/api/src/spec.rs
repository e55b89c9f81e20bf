//! The unified run description: one serde-able [`RunSpec`] names everything
//! a cell needs — graph family and size, reception rule, step kernel,
//! dynamics recipe, task key, optional step cap, and the seed all
//! randomness derives from.

use crate::events::{EventKind, ScenarioEvent};
use crate::hash::{canonical_value, SpecHash};
use crate::seeds::mix;
use radionet_graph::families::Family;
use radionet_graph::Graph;
use radionet_journal::ClassMask;
use radionet_mobility::{GroupDriftParams, MobilityModel, WalkParams, WaypointParams};
use radionet_sim::{Kernel, PositionSource, ReceptionMode};
use radionet_traffic::TrafficSpec;
use serde::{Deserialize, Serialize};

/// What [`Driver::run_journaled`](crate::Driver::run_journaled) records
/// (see `radionet-journal`). Absent from a spec (`RunSpec::journal =
/// None`), a journaled run records every class at the derived cadence; a
/// plain [`Driver::run`](crate::Driver::run) ignores the section and runs
/// on the quiet [`Observer`](radionet_sim::Observer), whose journal
/// branches fold away at compile time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JournalSpec {
    /// Comma-separated event classes to keep (`"radio,topology,phase,sched"`;
    /// `"all"`/empty keeps everything, `"none"` records waypoints only).
    pub classes: String,
    /// Waypoint cadence in completed steps; `0` lets the driver derive one
    /// from the task's timebase (≈ timebase / 8).
    pub checkpoint_every: u64,
}

impl Default for JournalSpec {
    fn default() -> Self {
        JournalSpec { classes: "all".into(), checkpoint_every: 0 }
    }
}

impl JournalSpec {
    /// The parsed class filter.
    ///
    /// # Errors
    ///
    /// Returns the unknown class token verbatim.
    pub fn mask(&self) -> Result<ClassMask, String> {
        ClassMask::parse(&self.classes)
    }

    /// Resolves the waypoint cadence against a task timebase: an explicit
    /// cadence wins, `0` derives `max(timebase / 8, 1)`.
    pub fn cadence(&self, timebase: u64) -> u64 {
        if self.checkpoint_every != 0 {
            self.checkpoint_every
        } else {
            (timebase / 8).max(1)
        }
    }
}

/// Staggered (asynchronous) wake-up: every node except 0 wakes at a
/// deterministic pseudo-random time in `[0, spread × timebase]`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StaggerSpec {
    /// Wake-time spread as a fraction of the task timebase.
    pub spread: f64,
}

/// Node churn: a fraction of nodes crash at staggered times and rejoin
/// `down` later.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// Fraction of nodes (excluding node 0) that crash.
    pub victims: f64,
    /// First crash, as a fraction of the timebase.
    pub start: f64,
    /// Crash times spread over this additional fraction.
    pub spread: f64,
    /// Downtime per victim, as a fraction of the timebase.
    pub down: f64,
}

/// A k-way partition (contiguous index blocks) later healed.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PartitionSpec {
    /// Number of parts.
    pub parts: u32,
    /// Split time as a fraction of the timebase.
    pub at: f64,
    /// Repair time as a fraction of the timebase.
    pub heal_at: f64,
}

/// Adversarial jammers: a fraction of nodes defect and emit noise during a
/// window.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct JamSpec {
    /// Fraction of nodes (excluding node 0) that become jammers.
    pub jammers: f64,
    /// Jamming starts, as a fraction of the timebase.
    pub from: f64,
    /// Jamming ends, as a fraction of the timebase.
    pub until: f64,
}

/// Continuously moving geometric nodes: the topology is *re-derived from
/// evolving positions* (see `radionet-mobility`) instead of mutated by
/// scripted events. Requires a geometric family — the point set the
/// generators expose via
/// [`Family::instantiate_positioned`](radionet_graph::families::Family::instantiate_positioned)
/// is what moves.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MobilitySpec {
    /// The mobility model (speeds in interaction radii per tick).
    pub model: MobilityModel,
    /// Engine steps per mobility tick (≥ 1; the driver clamps 0 to 1).
    pub tick: u64,
    /// Engine steps between time-resolved α-bounds/diameter samples;
    /// `None` lets the driver pick `timebase / 8`, and `Some(0)` disables
    /// sampling entirely (no trace samples, no sampling cost).
    pub sample_every: Option<u64>,
}

/// A dynamics recipe: how the topology evolves during the run.
///
/// Event times are expressed as *fractions of the task's timebase* (the
/// step budget the paper's bounds are stated in, see
/// [`Task::timebase`](crate::Task::timebase)), so one recipe scales across
/// sizes and families: `0.0` is the start of the run and `1.0` is roughly
/// where the task's own budget would expire. [`Dynamics::Mobility`] is the
/// exception: it scripts no events — the topology follows the moving
/// point set tick by tick.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Dynamics {
    /// The paper's model: nothing changes.
    Static,
    /// Staggered wake-up.
    StaggeredWake(StaggerSpec),
    /// Crash/rejoin churn.
    Churn(ChurnSpec),
    /// Partition then repair.
    PartitionRepair(PartitionSpec),
    /// Jamming window.
    Jamming(JamSpec),
    /// Moving geometric nodes (geometric families only).
    Mobility(MobilitySpec),
}

impl Dynamics {
    /// Short stable name for tables and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Dynamics::Static => "static",
            Dynamics::StaggeredWake(_) => "staggered-wake",
            Dynamics::Churn(_) => "churn",
            Dynamics::PartitionRepair(_) => "partition-repair",
            Dynamics::Jamming(_) => "jamming",
            Dynamics::Mobility(m) => match m.model.kind_name() {
                "waypoint" => "mobility:waypoint",
                "walk" => "mobility:walk",
                "levy" => "mobility:levy",
                "group" => "mobility:group",
                _ => "mobility:static",
            },
        }
    }

    /// The standard presets (the parameter choices the scenario catalogue
    /// has always swept), by dynamics name. `None` for unknown names.
    pub fn preset(name: &str) -> Option<Dynamics> {
        match name {
            "static" => Some(Dynamics::Static),
            "churn" => Some(Dynamics::Churn(ChurnSpec {
                victims: 0.1,
                start: 0.05,
                spread: 0.15,
                down: 0.2,
            })),
            "partition" | "partition-repair" => {
                Some(Dynamics::PartitionRepair(PartitionSpec { parts: 2, at: 0.05, heal_at: 0.35 }))
            }
            "jamming" => Some(Dynamics::Jamming(JamSpec { jammers: 0.05, from: 0.05, until: 0.4 })),
            "staggered" | "staggered-wake" => {
                Some(Dynamics::StaggeredWake(StaggerSpec { spread: 0.1 }))
            }
            // Classic random waypoint: whole-domain waypoints, short
            // pauses — the fleet is in motion most of the time.
            "mobility:waypoint" | "waypoint" => Some(Dynamics::Mobility(MobilitySpec {
                model: MobilityModel::RandomWaypoint(WaypointParams {
                    speed_lo: 0.02,
                    speed_hi: 0.08,
                    pause_lo: 10,
                    pause_hi: 60,
                    range: 0.0,
                }),
                tick: 1,
                sample_every: None,
            })),
            "mobility:walk" | "walk" => Some(Dynamics::Mobility(MobilitySpec {
                model: MobilityModel::RandomWalk(WalkParams {
                    step: 0.04,
                    levy_alpha: 0.0,
                    run_lo: 10,
                    run_hi: 40,
                    pause_lo: 5,
                    pause_hi: 30,
                }),
                tick: 1,
                sample_every: None,
            })),
            "mobility:levy" | "levy" => Some(Dynamics::Mobility(MobilitySpec {
                model: MobilityModel::RandomWalk(WalkParams {
                    step: 0.02,
                    levy_alpha: 1.5,
                    run_lo: 5,
                    run_hi: 20,
                    pause_lo: 10,
                    pause_hi: 80,
                }),
                tick: 1,
                sample_every: None,
            })),
            "mobility:group" | "group" => Some(Dynamics::Mobility(MobilitySpec {
                model: MobilityModel::GroupDrift(GroupDriftParams {
                    groups: 8,
                    speed: 0.03,
                    jitter: 0.01,
                    hold: 40,
                }),
                tick: 1,
                sample_every: None,
            })),
            _ => None,
        }
    }

    /// Every preset name accepted by [`Dynamics::preset`], in display order.
    pub const PRESETS: [&'static str; 9] = [
        "static",
        "churn",
        "partition-repair",
        "jamming",
        "staggered-wake",
        "mobility:waypoint",
        "mobility:walk",
        "mobility:levy",
        "mobility:group",
    ];

    /// Materializes the event script for one cell.
    ///
    /// Deterministic in `(graph, timebase, seed)`; fractions in the recipe
    /// are scaled by `timebase` steps.
    pub fn events_for(&self, g: &Graph, timebase: u64, seed: u64) -> Vec<ScenarioEvent> {
        let h = timebase as f64;
        let at = |frac: f64| (frac * h).round().max(0.0) as u64;
        let n = g.n();
        match *self {
            Dynamics::Static => Vec::new(),
            // Mobility scripts no events: the topology is derived from the
            // moving point set instead.
            Dynamics::Mobility(_) => Vec::new(),
            Dynamics::StaggeredWake(s) => (1..n)
                .map(|v| {
                    let t = mix(seed ^ 0x5a5a ^ v as u64) as f64 / u64::MAX as f64;
                    ScenarioEvent::new(at(t * s.spread), EventKind::Wake(v))
                })
                .collect(),
            Dynamics::Churn(c) => {
                let count = ((n as f64 * c.victims).round() as usize).max(1);
                let victims = pick_victims(n, count, seed ^ 0xc4u64);
                let mut script = Vec::with_capacity(2 * victims.len());
                for (i, &v) in victims.iter().enumerate() {
                    let frac =
                        if victims.len() > 1 { i as f64 / (victims.len() - 1) as f64 } else { 0.0 };
                    let crash = at(c.start + frac * c.spread);
                    script.push(ScenarioEvent::new(crash, EventKind::Crash(v)));
                    script.push(ScenarioEvent::new(crash + at(c.down).max(1), EventKind::Join(v)));
                }
                script
            }
            Dynamics::PartitionRepair(p) => vec![
                ScenarioEvent::new(at(p.at), EventKind::Partition(p.parts)),
                ScenarioEvent::new(at(p.heal_at), EventKind::Heal),
            ],
            Dynamics::Jamming(j) => {
                let count = ((n as f64 * j.jammers).round() as usize).max(1);
                let victims = pick_victims(n, count, seed ^ 0x7a_7au64);
                let mut script = Vec::with_capacity(2 * victims.len());
                for &v in &victims {
                    script.push(ScenarioEvent::new(at(j.from), EventKind::JammerOn(v)));
                    script.push(ScenarioEvent::new(at(j.until), EventKind::JammerOff(v)));
                }
                script
            }
        }
    }
}

/// Picks `count` distinct victims from `1..n` (node 0 — the instrumented
/// source — is never picked), deterministically from `seed`.
fn pick_victims(n: usize, count: usize, seed: u64) -> Vec<usize> {
    assert!(n >= 2, "victim selection needs n >= 2");
    let count = count.min(n - 1);
    let mut picked = Vec::with_capacity(count);
    let mut i = 0u64;
    while picked.len() < count {
        let v = 1 + (mix(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % (n as u64 - 1)) as usize;
        if !picked.contains(&v) {
            picked.push(v);
        }
        i += 1;
    }
    picked
}

/// One fully specified run: the single typed entry point of the workspace.
///
/// A `RunSpec` is a pure description — the graph, the event script, the
/// simulator RNGs, and every node-private lottery all derive from `seed`
/// (see [`seeds`](crate::seeds)) — so identical specs produce bit-identical
/// [`RunReport`](crate::RunReport)s on any machine, any thread count, and
/// either step kernel.
///
/// ```
/// use radionet_api::{Driver, RunSpec};
/// use radionet_graph::families::Family;
///
/// let spec = RunSpec::new("broadcast", Family::Grid, 36).with_seed(7);
/// let report = Driver::standard().run(&spec).unwrap();
/// assert!(report.success, "static grid broadcast completes");
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// Key of the task to run ([`Task::key`](crate::Task::key)).
    pub task: String,
    /// The base graph family (geometry is the family's own parametrization).
    pub family: Family,
    /// Requested node count (families may round, e.g. to a square grid).
    pub n: usize,
    /// The reception rule.
    pub reception: ReceptionMode,
    /// The step kernel executing the run.
    pub kernel: Kernel,
    /// The dynamics recipe.
    pub dynamics: Dynamics,
    /// Optional cap on the task's own step budget. Honored by the tasks
    /// with an explicit budget knob (`cd-wakeup` steps, `luby-mis` /
    /// `ghaffari-mis` rounds); the `Compete`-based tasks, radio MIS, and
    /// the Decay floods derive their budgets from [`NetInfo`] exactly as
    /// the paper's bounds prescribe and document the cap as ignored.
    ///
    /// [`NetInfo`]: radionet_sim::NetInfo
    pub steps: Option<u64>,
    /// Optional observability section: what
    /// [`Driver::run_journaled`](crate::Driver::run_journaled) records.
    /// `None` (the default, and what journal-less legacy specs parse to)
    /// records every class at the derived cadence.
    pub journal: Option<JournalSpec>,
    /// Optional streaming-traffic axis, read by the `traffic.*` task
    /// family (other tasks ignore it). `None` — the default, and what
    /// every pre-traffic spec document parses to — means a traffic task
    /// runs [`TrafficSpec::default`]; because canonicalization drops
    /// nulls, legacy specs keep their exact spec hashes.
    pub traffic: Option<TrafficSpec>,
    /// The cell seed every random choice derives from.
    pub seed: u64,
}

impl RunSpec {
    /// A spec with the workspace defaults: protocol-model reception, the
    /// sparse kernel, static topology, no step cap, seed 0.
    pub fn new(task: impl Into<String>, family: Family, n: usize) -> Self {
        RunSpec {
            task: task.into(),
            family,
            n,
            reception: ReceptionMode::Protocol,
            kernel: Kernel::default(),
            dynamics: Dynamics::Static,
            steps: None,
            journal: None,
            traffic: None,
            seed: 0,
        }
    }

    /// Sets the cell seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the dynamics recipe.
    pub fn with_dynamics(mut self, dynamics: Dynamics) -> Self {
        self.dynamics = dynamics;
        self
    }

    /// Sets the reception rule.
    pub fn with_reception(mut self, reception: ReceptionMode) -> Self {
        self.reception = reception;
        self
    }

    /// Sets the step kernel.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the journal section.
    pub fn with_journal(mut self, journal: JournalSpec) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Sets the streaming-traffic axis.
    pub fn with_traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = Some(traffic);
        self
    }

    /// The canonical byte form this spec is content-addressed by: its
    /// serialized tree with object keys sorted and `null` entries dropped
    /// (recursively), rendered as compact JSON. Stable across JSON field
    /// order and across the `None`-vs-absent serde forms — a legacy spec
    /// document without the `steps`/`journal` keys canonicalizes
    /// byte-identically to a modern one carrying explicit nulls — so the
    /// result-cache key (see [`RunSpec::spec_hash`]) never depends on how
    /// a spec happened to be written down. See [`crate::hash`] for the
    /// full contract and `pinned_hashes` for the frozen values.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let canon = canonical_value(&serde::Serialize::to_value(self));
        serde_json::to_string(&canon)
            .expect("spec trees contain no non-finite numbers")
            .into_bytes()
    }

    /// The stable 128-bit content hash of [`RunSpec::canonical_bytes`]:
    /// the key under which a deterministic run's report may be cached and
    /// served without re-simulating (`radionet-service`). Equal for specs
    /// that denote the same run; different whenever any semantic field
    /// differs.
    pub fn spec_hash(&self) -> SpecHash {
        SpecHash::of_bytes(&self.canonical_bytes())
    }

    /// Structural validation that needs no task: the family size
    /// floor ([`Family::min_n`]), the dynamics parameters that would
    /// otherwise fail inside the run (a partition needs two parts, the
    /// mobility model's own rules), the mobility × family compatibility
    /// rule, and the SINR position-source × dynamics compatibility rules.
    /// [`Driver::run`](crate::Driver::run) calls this before
    /// instantiating anything, and separately checks the SINR position
    /// count against the **instantiated** graph (families may round `n`,
    /// so the exact count is unknowable here).
    pub fn validate(&self) -> Result<(), String> {
        let floor = self.family.min_n();
        if self.n < floor {
            return Err(format!("n = {} but {} needs n >= {floor}", self.n, self.family));
        }
        match &self.dynamics {
            Dynamics::PartitionRepair(p) if p.parts < 2 => {
                return Err(format!("partition-repair needs at least 2 parts, got {}", p.parts));
            }
            Dynamics::Mobility(m) => m.model.validate()?,
            _ => {}
        }
        if let Some(journal) = &self.journal {
            journal.mask()?;
        }
        if let Some(traffic) = &self.traffic {
            traffic.validate()?;
        }
        let mobility = matches!(self.dynamics, Dynamics::Mobility(_));
        if mobility && !self.family.has_embedding() {
            return Err(format!(
                "dynamics {:?} needs a geometric family with positions \
                 (unit-disk, quasi-udg, unit-ball-3d, geo-radio); {} has no embedding",
                self.dynamics.name(),
                self.family.name()
            ));
        }
        if let ReceptionMode::Sinr(cfg) = &self.reception {
            cfg.validate()?;
            match cfg.positions {
                PositionSource::Snapshot(_) if mobility => {
                    return Err("mobility moves node positions, but the SINR reception carries a \
                         fixed position snapshot; use the geometry or live position source \
                         so reception follows the moving point set"
                        .into());
                }
                PositionSource::Live if !mobility => {
                    return Err("live SINR positions follow a moving point set; they require \
                         mobility dynamics (static and scripted runs use geometry-sourced \
                         or snapshot positions)"
                        .into());
                }
                PositionSource::Geometry if !self.family.has_embedding() => {
                    return Err(format!(
                        "SINR geometry-sourced positions need a geometric family with an \
                         embedding (unit-disk, quasi-udg, unit-ball-3d, geo-radio); {} has \
                         none — supply an explicit position snapshot",
                        self.family.name()
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_sim::NetInfo;

    #[test]
    fn presets_cover_all_dynamics_names() {
        for name in Dynamics::PRESETS {
            let d = Dynamics::preset(name).expect(name);
            assert_eq!(d.name(), name);
        }
        assert!(Dynamics::preset("nope").is_none());
        // Short CLI aliases resolve too.
        assert_eq!(Dynamics::preset("partition").unwrap().name(), "partition-repair");
        assert_eq!(Dynamics::preset("staggered").unwrap().name(), "staggered-wake");
    }

    #[test]
    fn events_deterministic_and_protect_node_zero() {
        let g = Family::Grid.instantiate(49, 1);
        let info = NetInfo::exact(&g);
        let timebase = 100 * info.d as u64;
        for name in Dynamics::PRESETS {
            let d = Dynamics::preset(name).unwrap();
            let a = d.events_for(&g, timebase, 42);
            let b = d.events_for(&g, timebase, 42);
            assert_eq!(a, b, "{name} not deterministic");
            // Every randomized script draws from its seed; static, the
            // fixed partition and the unscripted mobility recipes do not.
            let c = d.events_for(&g, timebase, 43);
            if !matches!(d, Dynamics::Static | Dynamics::PartitionRepair(_) | Dynamics::Mobility(_))
            {
                assert_ne!(a, c, "{name} ignores the seed");
            }
            for e in &a {
                if let Some(v) = e.kind.node() {
                    assert!(v > 0, "{name}: node 0 must stay protected");
                    assert!(v < g.n());
                }
            }
        }
    }

    #[test]
    fn mobility_presets_script_no_events_and_resolve_aliases() {
        let g = Family::UnitDisk.instantiate(49, 1);
        for name in ["mobility:waypoint", "mobility:walk", "mobility:levy", "mobility:group"] {
            let d = Dynamics::preset(name).expect(name);
            assert_eq!(d.name(), name);
            assert!(d.events_for(&g, 1000, 42).is_empty(), "{name} scripted events");
            let Dynamics::Mobility(m) = d else { panic!("{name} is not a mobility recipe") };
            assert_eq!(m.tick, 1);
            assert!(m.sample_every.is_none(), "{name}: driver picks the cadence");
        }
        // Short aliases resolve to the same recipes.
        assert_eq!(Dynamics::preset("waypoint"), Dynamics::preset("mobility:waypoint"));
        assert_eq!(Dynamics::preset("levy"), Dynamics::preset("mobility:levy"));
    }

    #[test]
    fn victims_distinct_and_exclude_source() {
        let v = pick_victims(50, 10, 9);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(v.iter().all(|&x| (1..50).contains(&x)));
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        assert!(RunSpec::new("broadcast", Family::Grid, 3).validate().is_err());
        assert!(RunSpec::new("broadcast", Family::Grid, 36).validate().is_ok());
    }

    /// Cache-key determinism guard: these exact values are what
    /// [`RunSpec::canonical_bytes`] and [`RunSpec::spec_hash`] produce
    /// today. If this test fails, every persisted result-cache entry keyed
    /// by the old hashes silently stops matching — do not re-pin without
    /// migrating or invalidating the stores.
    #[test]
    fn pinned_hashes() {
        let spec = RunSpec::new("broadcast", Family::Grid, 36).with_seed(7);
        let canon = String::from_utf8(spec.canonical_bytes()).unwrap();
        assert_eq!(
            canon,
            "{\"dynamics\":\"Static\",\"family\":\"Grid\",\"kernel\":\"Sparse\",\
             \"n\":36,\"reception\":\"Protocol\",\"seed\":7,\"task\":\"broadcast\"}"
        );
        assert_eq!(spec.spec_hash().to_hex(), "96dc64666f4b0a0b4e886febffda58b4");
        // Any semantic difference must move the hash.
        assert_ne!(spec.spec_hash(), spec.clone().with_seed(8).spec_hash());
        assert_ne!(spec.spec_hash(), RunSpec::new("mis", Family::Grid, 36).spec_hash());
        assert_ne!(spec.spec_hash(), RunSpec::new("broadcast", Family::Path, 36).spec_hash());
        assert_ne!(
            spec.spec_hash(),
            spec.clone().with_kernel(radionet_sim::Kernel::Dense).spec_hash()
        );
        let stepped = RunSpec { steps: Some(100), ..spec };
        assert_ne!(stepped.spec_hash(), stepped.clone().with_seed(8).spec_hash());
    }

    /// Telemetry is deliberately **not** a spec axis: attaching a metrics
    /// registry is a [`Driver`](crate::Driver) property (which process
    /// observes the run), never part of what the run *is*. So the
    /// canonical bytes carry no telemetry field, every persisted cache
    /// key and golden spec document from before telemetry existed stays
    /// valid as-is, and nothing needs regenerating.
    #[test]
    fn telemetry_is_not_a_spec_axis() {
        // A pre-telemetry document (all required fields, no more).
        let legacy = "{\"task\":\"broadcast\",\"family\":\"Grid\",\"n\":36,\
                      \"reception\":\"Protocol\",\"kernel\":\"Sparse\",\
                      \"dynamics\":\"Static\",\"seed\":7}";
        let spec: RunSpec = serde_json::from_str(legacy).unwrap();
        assert_eq!(spec, RunSpec::new("broadcast", Family::Grid, 36).with_seed(7));
        // …and it keys to the exact hash `pinned_hashes` guards.
        assert_eq!(spec.spec_hash().to_hex(), "96dc64666f4b0a0b4e886febffda58b4");
        let canon = String::from_utf8(spec.canonical_bytes()).unwrap();
        assert!(!canon.contains("telemetry"), "telemetry leaked into the canonical form");
    }

    /// The canonical form is a property of the *document*, not of how it
    /// was written down: reordering fields and spelling `None` as explicit
    /// `null` (or omitting it) must not move the cache key.
    #[test]
    fn canonical_form_survives_document_reshaping() {
        use crate::hash::canonical_value;
        use serde::{Serialize, Value};
        let spec = RunSpec::new("broadcast", Family::Grid, 36)
            .with_seed(7)
            .with_journal(JournalSpec::default());
        let Value::Object(mut fields) = spec.to_value() else { panic!("specs are objects") };
        // Reshape: reverse the field order and drop the null-valued
        // `steps` entry (absent and null both mean `None`).
        fields.reverse();
        fields.retain(|(k, v)| !(k == "steps" && matches!(v, Value::Null)));
        let doc = serde_json::to_string(&Value::Object(fields)).unwrap();
        // Canonicalizing the reshaped document directly — without parsing
        // it into a RunSpec first — reproduces the spec's own bytes.
        let doc_value: Value = serde_json::from_str(&doc).unwrap();
        let canon_doc = serde_json::to_string(&canonical_value(&doc_value)).unwrap();
        assert_eq!(canon_doc.into_bytes(), spec.canonical_bytes());
        // And the parsed spec agrees, of course.
        let reparsed: RunSpec = serde_json::from_str(&doc).unwrap();
        assert_eq!(reparsed, spec);
        assert_eq!(reparsed.spec_hash(), spec.spec_hash());
    }

    /// Traffic is an *optional* spec axis: a pre-traffic document (no
    /// `traffic` key) parses to `traffic: None` and keys to the exact
    /// hash `pinned_hashes` guards, so no persisted cache entry or golden
    /// fixture from before the axis existed moves. Attaching a traffic
    /// section *is* semantic and must move the hash.
    #[test]
    fn traffic_axis_preserves_legacy_hashes() {
        let legacy = "{\"task\":\"broadcast\",\"family\":\"Grid\",\"n\":36,\
                      \"reception\":\"Protocol\",\"kernel\":\"Sparse\",\
                      \"dynamics\":\"Static\",\"seed\":7}";
        let spec: RunSpec = serde_json::from_str(legacy).unwrap();
        assert!(spec.traffic.is_none(), "legacy documents parse to no traffic axis");
        assert_eq!(spec, RunSpec::new("broadcast", Family::Grid, 36).with_seed(7));
        assert_eq!(spec.spec_hash().to_hex(), "96dc64666f4b0a0b4e886febffda58b4");
        let canon = String::from_utf8(spec.canonical_bytes()).unwrap();
        assert!(!canon.contains("traffic"), "absent traffic leaked into the canonical form");
        // Attaching the axis is semantic: the hash must move, and every
        // traffic parameter must key differently.
        let t = spec.clone().with_traffic(TrafficSpec::default());
        assert_ne!(t.spec_hash(), spec.spec_hash());
        let wider = TrafficSpec { senders: 16, ..TrafficSpec::default() };
        assert_ne!(t.spec_hash(), spec.clone().with_traffic(wider).spec_hash());
        // The pinned cache key of the default traffic spec (the exact
        // value produced today — same contract as `pinned_hashes`).
        let pinned = RunSpec::new("traffic.gossip", Family::Grid, 36)
            .with_seed(7)
            .with_traffic(TrafficSpec::default());
        assert_eq!(pinned.spec_hash().to_hex(), "0a7601796dfb3fd7b97ca2aa66d98128");
    }

    #[test]
    fn traffic_section_validates() {
        let bad = TrafficSpec { senders: 0, ..TrafficSpec::default() };
        let spec = RunSpec::new("traffic.gossip", Family::Grid, 36).with_traffic(bad);
        assert!(spec.validate().is_err());
        let ok =
            RunSpec::new("traffic.gossip", Family::Grid, 36).with_traffic(TrafficSpec::default());
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn journal_section_validates_and_defaults_off() {
        let spec = RunSpec::new("broadcast", Family::Grid, 36);
        assert!(spec.journal.is_none(), "journaling is opt-in");
        let ok = spec
            .clone()
            .with_journal(JournalSpec { classes: "radio,phase".into(), checkpoint_every: 32 });
        assert!(ok.validate().is_ok());
        let bad = spec.with_journal(JournalSpec { classes: "radioo".into(), checkpoint_every: 0 });
        assert!(bad.validate().is_err());
        // Cadence resolution: explicit wins; 0 derives from the timebase.
        assert_eq!(JournalSpec::default().cadence(80), 10);
        assert_eq!(JournalSpec { classes: "all".into(), checkpoint_every: 7 }.cadence(80), 7);
        assert_eq!(JournalSpec::default().cadence(0), 1, "cadence never degenerates to 0");
    }
}
