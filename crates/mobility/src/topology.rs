//! [`MobileTopology`]: a [`TopologyView`] whose edges are *derived from
//! evolving geometry* rather than scripted.
//!
//! Every engine step the view advances the mobility model (at its tick
//! cadence), re-buckets the nodes that crossed a grid cell, and repairs the
//! adjacency of exactly the nodes that moved:
//!
//! * a pair with **both endpoints stationary** keeps its edge relation (the
//!   distance did not change), so no work is spent on it;
//! * a pair with **a moved endpoint** is re-tested when that endpoint's row
//!   is recomputed from its `3^dim` surrounding cells, and the stationary
//!   endpoint's row is patched in place.
//!
//! Per-step cost is therefore `O(moved × candidates)` instead of the
//! `O(n × candidates)` of a full rebuild — the dwell-heavy mobility models
//! move a small fraction of the fleet per tick, which is where the E17
//! (`exp E17`) speedup comes from. [`IndexStrategy::Rebuild`] and the
//! `O(n²)` [`IndexStrategy::BruteForce`] are kept as differential oracles;
//! the proptests pin all three to the identical edge set.
//!
//! The quasi-UDG gray zone is realized with a **deterministic per-pair
//! coin** (mixed from the seed and the node pair), so a moving quasi
//! instance is a pure function of `(points, rule, seed)` — the same pair at
//! the same distance always gets the same answer, under every strategy.

use crate::model::{MobilityModel, Motion};
use radionet_graph::families::{Geometry, GeometryRule};
use radionet_graph::independent_set::{
    clique_cover_upper_bound, greedy_mis_min_degree, matching_upper_bound,
};
use radionet_graph::spatial::{within, SpatialGrid};
use radionet_graph::traversal;
use radionet_graph::{Graph, GraphBuilder, NodeId};
use radionet_sim::{mix, TopologyView};
use serde::{Deserialize, Serialize};

/// How the derived edge set is maintained as nodes move.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IndexStrategy {
    /// Incremental: re-bucket cell crossers, recompute only moved nodes'
    /// rows, patch their stationary neighbors in place (the default).
    #[default]
    Incremental,
    /// Rebuild the grid and every row from scratch each step (reference).
    Rebuild,
    /// All-pairs `O(n²)` recomputation each step (the ground-truth oracle
    /// the proptests compare both grid paths against).
    BruteForce,
}

impl IndexStrategy {
    /// Short stable name for tables.
    pub fn name(self) -> &'static str {
        match self {
            IndexStrategy::Incremental => "incremental",
            IndexStrategy::Rebuild => "rebuild",
            IndexStrategy::BruteForce => "brute-force",
        }
    }
}

/// Counters of the work the index actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MobilityStats {
    /// Mobility ticks executed.
    pub ticks: u64,
    /// Sum over ticks of the number of nodes that moved that tick.
    pub moved_node_ticks: u64,
    /// Grid cell crossings (the only re-bucketing events).
    pub cell_crossings: u64,
    /// Adjacency rows recomputed from the index.
    pub rows_recomputed: u64,
}

/// One time-resolved snapshot of the derived topology's shape.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MobilitySample {
    /// Global engine clock at the sample.
    pub clock: u64,
    /// Undirected edges in the derived graph.
    pub edges: usize,
    /// Connected components.
    pub components: usize,
    /// Size of the largest component.
    pub largest_component: usize,
    /// Double-sweep diameter lower bound of the largest component.
    pub diameter: u32,
    /// Certified α lower bound (greedy independent set).
    pub alpha_lower: usize,
    /// Certified α upper bound (clique cover / matching).
    pub alpha_upper: usize,
}

/// The index work counters plus the time-resolved samples of one run —
/// what a `RunReport` carries home from a mobility cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MobilityTrace {
    /// Index work counters.
    pub stats: MobilityStats,
    /// Time-resolved α-bounds / diameter samples, in clock order.
    pub samples: Vec<MobilitySample>,
}

/// Hard cap on recorded samples (protects long runs from unbounded trace
/// growth; sampling stops silently once reached).
pub const TRACE_CAP: usize = 512;

/// A [`TopologyView`] over a moving geometric point set.
#[derive(Clone, Debug)]
pub struct MobileTopology {
    dim: usize,
    rule: GeometryRule,
    coin_seed: u64,
    /// Engine steps per mobility tick.
    tick: u64,
    motion: Motion,
    pos: Vec<[f64; 3]>,
    grid: SpatialGrid,
    /// Current derived adjacency; rows are sorted.
    adj: Vec<Vec<NodeId>>,
    strategy: IndexStrategy,
    last_clock: Option<u64>,
    /// Bumped every time at least one node actually moves — the engine's
    /// cheap invalidation signal for caches keyed on the positions (the
    /// sparse SINR kernel rebuilds its own decode-range grid on a bump).
    motion_epoch: u64,
    moved: Vec<u32>,
    moved_mark: Vec<bool>,
    row_scratch: Vec<NodeId>,
    stats: MobilityStats,
    sample_every: Option<u64>,
    trace: Vec<MobilitySample>,
}

impl MobileTopology {
    /// Builds the view over a positioned instance: the point set starts at
    /// the generated embedding and the t = 0 edge set is derived from the
    /// geometry's rule (identical to the generated graph for the
    /// deterministic rules; the quasi gray zone is re-realized with the
    /// seed-derived pair coin).
    ///
    /// `tick` is the number of engine steps per mobility tick (≥ 1); all
    /// motion randomness derives from `seed`.
    ///
    /// # Panics
    ///
    /// Panics on an empty point set, `tick = 0`, or out-of-range model
    /// parameters.
    pub fn new(geometry: &Geometry, model: MobilityModel, tick: u64, seed: u64) -> Self {
        assert!(!geometry.points.is_empty(), "mobility needs at least one node");
        assert!(tick >= 1, "tick must be >= 1 engine step");
        let n = geometry.points.len();
        let dim = geometry.dim as usize;
        let radius = geometry.rule.max_radius();
        assert!(radius > 0.0, "geometry rule has zero interaction radius");
        if let GeometryRule::Radio { ranges } = &geometry.rule {
            assert_eq!(ranges.len(), n, "one range per node");
        }
        let pos = geometry.points.clone();
        let grid = SpatialGrid::new(geometry.side.max(radius), radius, dim, &pos);
        let motion =
            Motion::new(model, dim, geometry.side.max(radius), radius, &pos, mix(seed ^ 0x307));
        let mut topo = MobileTopology {
            dim,
            rule: geometry.rule.clone(),
            coin_seed: mix(seed ^ 0xc01),
            tick,
            motion,
            pos,
            grid,
            adj: vec![Vec::new(); n],
            strategy: IndexStrategy::default(),
            last_clock: None,
            motion_epoch: 0,
            moved: Vec::new(),
            moved_mark: vec![false; n],
            row_scratch: Vec::new(),
            stats: MobilityStats::default(),
            sample_every: None,
            trace: Vec::new(),
        };
        topo.rebuild_all_rows();
        topo
    }

    /// Selects the index maintenance strategy (builder style).
    pub fn with_strategy(mut self, strategy: IndexStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The active index strategy.
    pub fn strategy(&self) -> IndexStrategy {
        self.strategy
    }

    /// Enables (or disables) time-resolved α/D sampling every `every`
    /// engine steps (plus one baseline sample at the first step). At most
    /// [`TRACE_CAP`] samples are kept.
    pub fn set_sample_every(&mut self, every: Option<u64>) {
        self.sample_every = match every {
            Some(0) => Some(1),
            other => other,
        };
    }

    /// Work counters so far.
    pub fn stats(&self) -> &MobilityStats {
        &self.stats
    }

    /// The recorded samples, in clock order.
    pub fn trace(&self) -> &[MobilitySample] {
        &self.trace
    }

    /// Packages counters + samples for a report.
    pub fn to_trace(&self) -> MobilityTrace {
        MobilityTrace { stats: self.stats, samples: self.trace.clone() }
    }

    /// Current node positions.
    pub fn positions(&self) -> &[[f64; 3]] {
        &self.pos
    }

    /// Current number of derived undirected edges.
    pub fn current_edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Materializes the *current* derived topology as a [`Graph`]
    /// (at t = 0 this is the graph the run's `NetInfo` should measure).
    pub fn current_graph(&self) -> Graph {
        let mut b = GraphBuilder::new(self.adj.len());
        for (u, row) in self.adj.iter().enumerate() {
            for &w in row {
                if u < w.index() {
                    b.add_edge(u, w.index());
                }
            }
        }
        b.build()
    }

    /// The t = 0 derived graph (alias of [`current_graph`] before any
    /// motion; named for call sites that build the simulation base).
    ///
    /// [`current_graph`]: MobileTopology::current_graph
    pub fn initial_graph(&self) -> Graph {
        assert!(self.last_clock.is_none(), "initial_graph called after motion began");
        self.current_graph()
    }

    /// An order-insensitive digest of the current adjacency (FNV over the
    /// sorted rows) — the cross-strategy differential check at scale.
    pub fn adjacency_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for row in &self.adj {
            h = (h ^ row.len() as u64).wrapping_mul(0x0000_0100_0000_01b3);
            for &w in row {
                h = (h ^ w.index() as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The deterministic gray-zone coin for pair `{i, j}`, uniform in
    /// `[0, 1)` and symmetric in the pair.
    #[inline]
    fn pair_coin(&self, i: usize, j: usize) -> f64 {
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let key = ((a as u64) << 32) | b as u64;
        (mix(self.coin_seed ^ key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Whether the rule connects `{i, j}` at the current positions.
    #[inline]
    fn connected(&self, i: usize, j: usize) -> bool {
        let near = |r: f64| within(&self.pos[i], &self.pos[j], self.dim, r);
        match &self.rule {
            GeometryRule::Disk { radius } => near(*radius),
            GeometryRule::Quasi { r, big_r, gray_p } => {
                near(*r) || (near(*big_r) && self.pair_coin(i, j) < *gray_p)
            }
            GeometryRule::Radio { ranges } => near(ranges[i].min(ranges[j])),
        }
    }

    /// Recomputes node `i`'s sorted row from the grid into `out`.
    fn compute_row_into(&self, i: usize, out: &mut Vec<NodeId>) {
        out.clear();
        self.grid.for_candidates(self.pos[i], |j| {
            let j = j as usize;
            if j != i && self.connected(i, j) {
                out.push(NodeId::new(j));
            }
        });
        out.sort_unstable();
    }

    /// Recomputes node `i`'s sorted row by brute force into `out`.
    fn compute_row_brute_into(&self, i: usize, out: &mut Vec<NodeId>) {
        out.clear();
        for j in 0..self.pos.len() {
            if j != i && self.connected(i, j) {
                out.push(NodeId::new(j));
            }
        }
    }

    fn rebuild_all_rows(&mut self) {
        let n = self.pos.len();
        self.stats.rows_recomputed += n as u64;
        for i in 0..n {
            let mut row = std::mem::take(&mut self.row_scratch);
            self.compute_row_into(i, &mut row);
            self.row_scratch = std::mem::replace(&mut self.adj[i], row);
        }
    }

    fn rebuild_all_rows_brute(&mut self) {
        let n = self.pos.len();
        self.stats.rows_recomputed += n as u64;
        for i in 0..n {
            let mut row = std::mem::take(&mut self.row_scratch);
            self.compute_row_brute_into(i, &mut row);
            self.row_scratch = std::mem::replace(&mut self.adj[i], row);
        }
    }

    /// Incremental repair: recompute moved rows, patch stationary
    /// neighbors whose relation to a moved node flipped.
    fn incremental_update(&mut self) {
        let moved = std::mem::take(&mut self.moved);
        for &i in &moved {
            if self.grid.update(i as usize, self.pos[i as usize]) {
                self.stats.cell_crossings += 1;
            }
        }
        self.stats.rows_recomputed += moved.len() as u64;
        for &iu in &moved {
            let i = iu as usize;
            let old = std::mem::take(&mut self.adj[i]);
            let mut new_row = std::mem::take(&mut self.row_scratch);
            self.compute_row_into(i, &mut new_row);
            // Two-pointer diff over the sorted rows; only stationary
            // counterparts need patching (moved ones recompute themselves).
            let me = NodeId::new(i);
            let (mut a, mut b) = (0usize, 0usize);
            loop {
                match (old.get(a), new_row.get(b)) {
                    (Some(&x), Some(&y)) if x == y => {
                        a += 1;
                        b += 1;
                    }
                    // Edge {i, x} disappeared.
                    (Some(&x), other) if other.is_none_or(|&y| x < y) => {
                        a += 1;
                        if !self.moved_mark[x.index()] {
                            let row = &mut self.adj[x.index()];
                            if let Ok(pos) = row.binary_search(&me) {
                                row.remove(pos);
                            }
                        }
                    }
                    // Edge {i, y} appeared.
                    (_, Some(&y)) => {
                        b += 1;
                        if !self.moved_mark[y.index()] {
                            let row = &mut self.adj[y.index()];
                            if let Err(pos) = row.binary_search(&me) {
                                row.insert(pos, me);
                            }
                        }
                    }
                    (None, None) => break,
                    // (Some, None) with x >= nothing: covered by the guard
                    // arm above; the guard is total for that shape.
                    (Some(_), None) => unreachable!(),
                }
            }
            self.adj[i] = new_row;
            self.row_scratch = old;
        }
        self.moved = moved;
    }

    fn maybe_sample(&mut self, clock: u64) {
        if self.trace.len() >= TRACE_CAP {
            return;
        }
        let g = self.current_graph();
        let (labels, components) = traversal::connected_components(&g);
        let mut sizes = vec![0usize; components];
        for &l in &labels {
            sizes[l] += 1;
        }
        let (largest_label, largest_component) =
            sizes.iter().copied().enumerate().max_by_key(|&(_, s)| s).unwrap_or((0, g.n().min(1)));
        let diameter = if components <= 1 {
            traversal::diameter_double_sweep(&g)
        } else {
            let keep: Vec<NodeId> =
                g.nodes().filter(|v| labels[v.index()] == largest_label).collect();
            let (sub, _) = g.induced_subgraph(&keep);
            traversal::diameter_double_sweep(&sub)
        };
        // The near-linear α bracket (greedy lower, clique-cover/matching
        // upper): a sample must stay cheap enough to take every few dozen
        // steps, so the exact branch-and-bound solver is never run here.
        let alpha_lower = greedy_mis_min_degree(&g).len();
        let alpha_upper =
            clique_cover_upper_bound(&g).min(matching_upper_bound(&g)).max(alpha_lower);
        self.trace.push(MobilitySample {
            clock,
            edges: g.m(),
            components,
            largest_component,
            diameter,
            alpha_lower,
            alpha_upper,
        });
    }
}

impl TopologyView for MobileTopology {
    fn advance_to(&mut self, _base: &Graph, clock: u64) {
        let prev = match self.last_clock {
            None => {
                self.last_clock = Some(clock);
                if self.sample_every.is_some() {
                    self.maybe_sample(clock);
                }
                return;
            }
            Some(p) => p,
        };
        if clock <= prev {
            return;
        }
        self.last_clock = Some(clock);
        let ticks = clock / self.tick - prev / self.tick;
        if ticks > 0 {
            self.moved.clear();
            for _ in 0..ticks {
                self.stats.ticks += 1;
                self.motion.step(&mut self.pos, &mut self.moved);
            }
            self.stats.moved_node_ticks += self.moved.len() as u64;
            // Dedupe the per-tick move log into a moved-node set.
            let mut w = 0usize;
            for r in 0..self.moved.len() {
                let i = self.moved[r] as usize;
                if !self.moved_mark[i] {
                    self.moved_mark[i] = true;
                    self.moved[w] = self.moved[r];
                    w += 1;
                }
            }
            self.moved.truncate(w);
            if !self.moved.is_empty() {
                self.motion_epoch += 1;
                match self.strategy {
                    IndexStrategy::Incremental => self.incremental_update(),
                    IndexStrategy::Rebuild => {
                        self.grid.rebuild(&self.pos);
                        self.rebuild_all_rows();
                    }
                    IndexStrategy::BruteForce => self.rebuild_all_rows_brute(),
                }
            }
            for &i in &self.moved {
                self.moved_mark[i as usize] = false;
            }
        }
        if let Some(every) = self.sample_every {
            if clock / every > prev / every {
                self.maybe_sample(clock);
            }
        }
    }

    fn neighbors<'a>(&'a self, _base: &'a Graph, v: NodeId) -> &'a [NodeId] {
        &self.adj[v.index()]
    }

    fn is_active(&self, _v: NodeId) -> bool {
        true
    }

    fn is_jammed(&self, _v: NodeId) -> bool {
        false
    }

    /// Mobility never changes node activity or jamming, so the empty
    /// change feed is exact and the sparse kernel applies unmodified.
    fn drain_status_changes(&mut self, _out: &mut Vec<NodeId>) {}

    fn jammed_nodes(&self) -> &[NodeId] {
        &[]
    }

    /// The next tick or sample boundary strictly after `clock`. Landing on
    /// **every** boundary (never batching several ticks into one
    /// `advance_to`) is what keeps the deterministic counters — one
    /// `motion_epoch` bump and one moved-set dedupe per boundary — and the
    /// trace-sample cadence identical to a stepped drive; the engine steps
    /// in the gaps between boundaries are no-ops (`ticks == 0`, no sample
    /// edge), so skipping them is exact.
    fn next_event(&self, clock: u64) -> Option<u64> {
        // Before the baseline call every `advance_to` does work (it
        // anchors `last_clock` and takes the t = 0 trace sample), so no
        // step may be skipped yet.
        if self.last_clock.is_none() {
            return Some(clock + 1);
        }
        let next_tick = (clock / self.tick + 1) * self.tick;
        let next = match self.sample_every {
            Some(every) => next_tick.min((clock / every + 1) * every),
            None => next_tick,
        };
        Some(next)
    }

    /// The live moving point set — what `PositionSource::Live` SINR
    /// reception reads each step.
    fn positions(&self) -> Option<&[[f64; 3]]> {
        Some(&self.pos)
    }

    fn positions_version(&self) -> u64 {
        self.motion_epoch
    }

    /// Cumulative index maintenance, surfaced by the engine into
    /// `SimStats` after every phase. Both counters are deterministic
    /// functions of the advance history, so they stay kernel-invariant.
    fn index_work(&self) -> (u64, u64) {
        (self.stats.cell_crossings, self.stats.rows_recomputed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::WaypointParams;
    use radionet_graph::families::Family;

    fn waypoint() -> MobilityModel {
        MobilityModel::RandomWaypoint(WaypointParams {
            speed_lo: 0.05,
            speed_hi: 0.15,
            pause_lo: 0,
            pause_hi: 3,
            range: 0.0,
        })
    }

    fn udg_topo(n: usize, seed: u64) -> (Graph, MobileTopology) {
        let p = Family::UnitDisk.instantiate_positioned(n, seed);
        let topo = MobileTopology::new(&p.geometry.unwrap(), waypoint(), 1, seed);
        (p.graph, topo)
    }

    #[test]
    fn initial_graph_matches_the_generator_for_deterministic_rules() {
        for fam in [Family::UnitDisk, Family::UnitBall3, Family::GeometricRadio] {
            let p = fam.instantiate_positioned(64, 3);
            let topo = MobileTopology::new(&p.geometry.unwrap(), waypoint(), 1, 3);
            assert_eq!(topo.initial_graph(), p.graph, "{fam}");
        }
    }

    #[test]
    fn quasi_initial_graph_brackets_the_rule() {
        // The gray zone is re-realized with the pair coin, so only the
        // certain/impossible bands must agree with the generated instance.
        let p = Family::QuasiUnitDisk.instantiate_positioned(64, 4);
        let geo = p.geometry.unwrap();
        let topo = MobileTopology::new(&geo, waypoint(), 1, 4);
        let g = topo.initial_graph();
        assert_eq!(g.n(), p.graph.n());
        let (r, big_r) = match geo.rule {
            GeometryRule::Quasi { r, big_r, .. } => (r, big_r),
            _ => unreachable!(),
        };
        for i in 0..g.n() {
            for j in (i + 1)..g.n() {
                let a = &geo.points[i];
                let b = &geo.points[j];
                let d = (a[0] - b[0]).hypot(a[1] - b[1]);
                let has = g.has_edge(g.node(i), g.node(j));
                if d <= r {
                    assert!(has, "certain edge {i}-{j} missing");
                }
                if d > big_r {
                    assert!(!has, "impossible edge {i}-{j} present");
                }
            }
        }
    }

    #[test]
    fn adjacency_stays_symmetric_and_sorted_under_motion() {
        let (g, mut topo) = udg_topo(80, 7);
        for clock in 0..60u64 {
            topo.advance_to(&g, clock);
            for v in 0..g.n() {
                let row = &topo.adj[v];
                assert!(row.windows(2).all(|w| w[0] < w[1]), "row {v} unsorted or duplicated");
                for &w in row {
                    assert!(
                        topo.adj[w.index()].binary_search(&NodeId::new(v)).is_ok(),
                        "edge {v}-{w} asymmetric at clock {clock}"
                    );
                }
            }
        }
    }

    #[test]
    fn motion_actually_changes_the_edge_set() {
        let (g, mut topo) = udg_topo(80, 1);
        let before = topo.adjacency_digest();
        topo.advance_to(&g, 0);
        for clock in 1..=40u64 {
            topo.advance_to(&g, clock);
        }
        assert_ne!(topo.adjacency_digest(), before, "40 ticks moved nothing");
        assert!(topo.stats().ticks == 40);
        assert!(topo.stats().moved_node_ticks > 0);
    }

    #[test]
    fn tick_subsampling_moves_on_boundaries_only() {
        let p = Family::UnitDisk.instantiate_positioned(48, 2);
        let geo = p.geometry.unwrap();
        let mut a = MobileTopology::new(&geo, waypoint(), 4, 9);
        let mut b = MobileTopology::new(&geo, waypoint(), 4, 9);
        a.advance_to(&p.graph, 0);
        b.advance_to(&p.graph, 0);
        // Advancing within a tick window changes nothing…
        a.advance_to(&p.graph, 3);
        assert_eq!(a.stats().ticks, 0);
        assert_eq!(a.adjacency_digest(), b.adjacency_digest());
        // …and one call spanning several windows catches up tick by tick.
        a.advance_to(&p.graph, 12);
        for clock in 1..=12u64 {
            b.advance_to(&p.graph, clock);
        }
        assert_eq!(a.stats().ticks, 3);
        assert_eq!(b.stats().ticks, 3);
        assert_eq!(a.adjacency_digest(), b.adjacency_digest(), "catch-up diverged");
    }

    #[test]
    fn sampling_records_alpha_and_diameter() {
        let (g, mut topo) = udg_topo(64, 5);
        topo.set_sample_every(Some(10));
        for clock in 0..35u64 {
            topo.advance_to(&g, clock);
        }
        let trace = topo.to_trace();
        assert_eq!(trace.samples.len(), 4, "baseline + 3 boundary crossings");
        for s in &trace.samples {
            assert!(s.alpha_lower >= 1 && s.alpha_upper >= s.alpha_lower);
            assert!(s.largest_component >= 1 && s.components >= 1);
            assert!(s.edges > 0);
        }
        assert_eq!(trace.samples[0].clock, 0);
        assert_eq!(trace.stats, *topo.stats());
        let json = serde_json::to_string(&trace).unwrap();
        let back: MobilityTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn static_model_is_free_and_frozen() {
        let p = Family::UnitDisk.instantiate_positioned(48, 6);
        let mut topo = MobileTopology::new(&p.geometry.unwrap(), MobilityModel::Static, 1, 6);
        let before = topo.adjacency_digest();
        for clock in 0..50u64 {
            topo.advance_to(&p.graph, clock);
        }
        assert_eq!(topo.adjacency_digest(), before);
        assert_eq!(topo.stats().moved_node_ticks, 0);
        assert_eq!(topo.stats().rows_recomputed, 48, "only the initial build");
    }

    #[test]
    #[should_panic(expected = "tick must be")]
    fn zero_tick_rejected() {
        let p = Family::UnitDisk.instantiate_positioned(16, 0);
        let _ = MobileTopology::new(&p.geometry.unwrap(), waypoint(), 0, 0);
    }

    #[test]
    fn position_feed_versions_track_actual_motion() {
        // The TopologyView position feed: present, one point per node,
        // and the version stamp bumps exactly when something moved.
        let (g, mut topo) = udg_topo(48, 8);
        let feed = TopologyView::positions(&topo).expect("mobile views carry positions");
        assert_eq!(feed.len(), g.n());
        assert_eq!(topo.positions_version(), 0);
        topo.advance_to(&g, 0); // baseline call moves nothing
        assert_eq!(topo.positions_version(), 0);
        let mut last = 0;
        for clock in 1..=30u64 {
            topo.advance_to(&g, clock);
            let v = topo.positions_version();
            assert!(v >= last, "version must be monotone");
            last = v;
        }
        assert!(last > 0, "30 waypoint ticks must bump the version");

        // A frozen model never bumps it.
        let p = Family::UnitDisk.instantiate_positioned(32, 3);
        let mut frozen = MobileTopology::new(&p.geometry.unwrap(), MobilityModel::Static, 1, 3);
        for clock in 0..20u64 {
            frozen.advance_to(&p.graph, clock);
        }
        assert_eq!(frozen.positions_version(), 0);
    }
}
