//! Deterministic mobility models.
//!
//! A [`Motion`] steps a point set one *mobility tick* at a time. Every
//! trajectory is a pure function of `(model, domain, seed)`: each node owns
//! a private RNG stream derived from the seed, consumed only by that node's
//! own decisions, so stepping is independent of iteration order, index
//! strategy, and step kernel.
//!
//! Speeds and step lengths are expressed as **fractions of the interaction
//! radius per tick** (the scale on which motion changes the topology), so
//! one parameter set behaves comparably across densities and domain sizes.

use radionet_sim::mix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Random-waypoint parameters: travel to a waypoint at a per-leg speed,
/// pause, repeat.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WaypointParams {
    /// Minimum leg speed (fraction of the interaction radius per tick).
    pub speed_lo: f64,
    /// Maximum leg speed.
    pub speed_hi: f64,
    /// Minimum pause at a waypoint, in ticks.
    pub pause_lo: u64,
    /// Maximum pause at a waypoint, in ticks.
    pub pause_hi: u64,
    /// Waypoint draw range in interaction radii around the current
    /// position; `0.0` draws uniformly over the whole domain (the classic
    /// random-waypoint model), positive values give dwell-heavy
    /// micromobility with short legs.
    pub range: f64,
}

/// Random-walk / Lévy-flight parameters: straight legs of a drawn length,
/// then a pause, then a fresh uniform direction.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WalkParams {
    /// Per-tick step length (fraction of the interaction radius). For a
    /// Lévy flight this is the *minimum* step of the heavy-tailed draw.
    pub step: f64,
    /// Lévy tail exponent: `0.0` keeps every leg at `step` (plain walk);
    /// positive values draw per-leg step lengths from a Pareto(α) tail
    /// (capped at 10 interaction radii per tick).
    pub levy_alpha: f64,
    /// Minimum leg duration, in ticks.
    pub run_lo: u64,
    /// Maximum leg duration, in ticks.
    pub run_hi: u64,
    /// Minimum pause between legs, in ticks.
    pub pause_lo: u64,
    /// Maximum pause between legs, in ticks.
    pub pause_hi: u64,
}

/// Correlated group drift: nodes share a per-group drift velocity
/// (re-drawn periodically) plus small per-node jitter.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GroupDriftParams {
    /// Number of drift groups (node `i` belongs to group `i mod groups`).
    pub groups: u32,
    /// Group drift speed per tick (fraction of the interaction radius).
    pub speed: f64,
    /// Per-node jitter per tick (fraction of the interaction radius).
    pub jitter: f64,
    /// Ticks between group-velocity redraws.
    pub hold: u64,
}

/// A mobility model: how the point set evolves per tick.
///
/// Serde note: variants are unit or single-payload tuples so the recipe
/// embeds directly in `RunSpec` dynamics.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum MobilityModel {
    /// Nothing moves: the identity model (zero per-tick cost).
    Static,
    /// Random waypoint with pauses.
    RandomWaypoint(WaypointParams),
    /// Random walk; a positive `levy_alpha` turns it into a Lévy flight.
    RandomWalk(WalkParams),
    /// Correlated group drift.
    GroupDrift(GroupDriftParams),
}

impl MobilityModel {
    /// Short stable name of the model kind, for tables and preset names:
    /// `static`, `waypoint`, `walk`, `levy`, or `group`.
    pub fn kind_name(&self) -> &'static str {
        match self {
            MobilityModel::Static => "static",
            MobilityModel::RandomWaypoint(_) => "waypoint",
            MobilityModel::RandomWalk(w) if w.levy_alpha > 0.0 => "levy",
            MobilityModel::RandomWalk(_) => "walk",
            MobilityModel::GroupDrift(_) => "group",
        }
    }

    /// Checks the model's parameters: positive speeds and steps, ordered
    /// `lo <= hi` ranges, at least one group.
    ///
    /// # Errors
    ///
    /// Names the first parameter rule the model breaks.
    pub fn validate(&self) -> Result<(), String> {
        let rules: &[(bool, &str)] = match self {
            MobilityModel::Static => &[],
            MobilityModel::RandomWaypoint(p) => &[
                (p.speed_lo > 0.0 && p.speed_hi >= p.speed_lo, "waypoint speeds need 0 < lo <= hi"),
                (p.pause_hi >= p.pause_lo, "waypoint pauses need lo <= hi"),
                (p.range >= 0.0 && p.range.is_finite(), "waypoint range must be >= 0"),
            ],
            MobilityModel::RandomWalk(p) => &[
                (p.step > 0.0, "walk step must be positive"),
                (p.levy_alpha >= 0.0, "levy_alpha must be >= 0"),
                (p.run_lo >= 1 && p.run_hi >= p.run_lo, "walk runs need 1 <= lo <= hi"),
                (p.pause_hi >= p.pause_lo, "walk pauses need lo <= hi"),
            ],
            MobilityModel::GroupDrift(p) => &[
                (p.groups >= 1, "group drift needs at least one group"),
                (p.speed >= 0.0 && p.jitter >= 0.0, "group speeds must be >= 0"),
                (p.hold >= 1, "group hold must be >= 1 tick"),
            ],
        };
        rules.iter().find(|(ok, _)| !ok).map_or(Ok(()), |(_, rule)| Err(rule.to_string()))
    }
}

/// Lévy step cap, in interaction radii per tick (keeps a heavy-tailed draw
/// from teleporting a node across the whole domain in one tick).
const LEVY_CAP: f64 = 10.0;

#[derive(Clone, Debug)]
struct WaypointNode {
    target: [f64; 3],
    /// Absolute speed (domain units per tick) of the current leg.
    speed: f64,
    pause_left: u64,
}

#[derive(Clone, Debug)]
struct WalkNode {
    /// Per-tick displacement of the current leg (domain units).
    step: [f64; 3],
    run_left: u64,
    pause_left: u64,
}

#[derive(Clone, Debug)]
enum State {
    Static,
    Waypoint { params: WaypointParams, nodes: Vec<WaypointNode> },
    Walk { params: WalkParams, nodes: Vec<WalkNode> },
    Group { params: GroupDriftParams, vel: Vec<[f64; 3]>, rngs: Vec<SmallRng>, hold_left: u64 },
}

/// A stepping engine for one [`MobilityModel`] over `n` nodes in the
/// domain `[0, side]^dim`.
#[derive(Clone, Debug)]
pub struct Motion {
    dim: usize,
    side: f64,
    /// The interaction radius: the unit all speeds scale by.
    scale: f64,
    rngs: Vec<SmallRng>,
    state: State,
}

fn unit_dir<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> [f64; 3] {
    let theta = rng.gen::<f64>() * std::f64::consts::TAU;
    if dim == 2 {
        [theta.cos(), theta.sin(), 0.0]
    } else {
        // Uniform on the sphere: z uniform, azimuth uniform.
        let z = rng.gen_range(-1.0..=1.0);
        let r = (1.0f64 - z * z).max(0.0).sqrt();
        [r * theta.cos(), r * theta.sin(), z]
    }
}

/// Reflects `x` back into `[0, side]` (mirror boundary).
fn reflect(x: f64, side: f64) -> f64 {
    reflect_dir(x, side).0
}

/// Mirror reflection that also reports whether the direction of travel
/// ended up reversed: each fold flips it, so a step long enough to fold
/// twice (possible for Lévy legs in small domains) comes out *unflipped*.
fn reflect_dir(mut x: f64, side: f64) -> (f64, bool) {
    let mut flipped = false;
    loop {
        if x < 0.0 {
            x = -x;
            flipped = !flipped;
        } else if x > side {
            x = 2.0 * side - x;
            flipped = !flipped;
        } else {
            return (x, flipped);
        }
    }
}

impl Motion {
    /// Builds the engine with initial per-node state drawn from `seed`.
    ///
    /// `scale` is the interaction radius (the unit of every speed in the
    /// model) and `side` the domain side length.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `side`/`scale`, `dim` outside `{2, 3}`, or
    /// out-of-range model parameters.
    pub fn new(
        model: MobilityModel,
        dim: usize,
        side: f64,
        scale: f64,
        positions: &[[f64; 3]],
        seed: u64,
    ) -> Self {
        assert!(matches!(dim, 2 | 3), "mobility supports 2D and 3D only");
        assert!(side > 0.0 && side.is_finite(), "domain side must be positive");
        assert!(scale > 0.0 && scale.is_finite(), "interaction radius must be positive");
        model.validate().unwrap_or_else(|e| panic!("{e}"));
        let n = positions.len();
        let mut rngs: Vec<SmallRng> = (0..n)
            .map(|i| {
                SmallRng::seed_from_u64(mix(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            })
            .collect();
        let state = match model {
            MobilityModel::Static => State::Static,
            MobilityModel::RandomWaypoint(params) => {
                let nodes = positions
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let rng = &mut rngs[i];
                        let target = draw_waypoint(&params, dim, side, scale, p, rng);
                        let speed = rng.gen_range(params.speed_lo..=params.speed_hi) * scale;
                        // Staggered initial pauses desynchronize the fleet.
                        let pause_left = rng.gen_range(0..=params.pause_hi);
                        WaypointNode { target, speed, pause_left }
                    })
                    .collect();
                State::Waypoint { params, nodes }
            }
            MobilityModel::RandomWalk(params) => {
                let nodes = (0..n)
                    .map(|i| {
                        let rng = &mut rngs[i];
                        let (step, run_left) = draw_leg(&params, dim, scale, rng);
                        let pause_left = rng.gen_range(0..=params.pause_hi);
                        WalkNode { step, run_left, pause_left }
                    })
                    .collect();
                State::Walk { params, nodes }
            }
            MobilityModel::GroupDrift(params) => {
                let mut group_rngs: Vec<SmallRng> = (0..params.groups as usize)
                    .map(|g| SmallRng::seed_from_u64(mix(seed ^ 0x6 ^ ((g as u64) << 17))))
                    .collect();
                let vel = group_rngs
                    .iter_mut()
                    .map(|rng| {
                        let d = unit_dir(dim, rng);
                        [
                            d[0] * params.speed * scale,
                            d[1] * params.speed * scale,
                            d[2] * params.speed * scale,
                        ]
                    })
                    .collect();
                State::Group { params, vel, rngs: group_rngs, hold_left: params.hold }
            }
        };
        Motion { dim, side, scale, rngs, state }
    }

    /// Advances every node one tick, reflecting at the domain boundary.
    /// Pushes the index of each node whose position changed onto `moved`.
    pub fn step(&mut self, positions: &mut [[f64; 3]], moved: &mut Vec<u32>) {
        let dim = self.dim;
        let side = self.side;
        let scale = self.scale;
        match &mut self.state {
            State::Static => {}
            State::Waypoint { params, nodes } => {
                for (i, node) in nodes.iter_mut().enumerate() {
                    if node.pause_left > 0 {
                        node.pause_left -= 1;
                        continue;
                    }
                    let p = &mut positions[i];
                    let to = [node.target[0] - p[0], node.target[1] - p[1], node.target[2] - p[2]];
                    let dist = (to[0] * to[0] + to[1] * to[1] + to[2] * to[2]).sqrt();
                    if dist <= node.speed {
                        // Arrive, then draw the pause and the next leg.
                        *p = node.target;
                        let rng = &mut self.rngs[i];
                        node.pause_left = rng.gen_range(params.pause_lo..=params.pause_hi);
                        node.target = draw_waypoint(params, dim, side, scale, p, rng);
                        node.speed = rng.gen_range(params.speed_lo..=params.speed_hi) * scale;
                        if dist > 0.0 {
                            moved.push(i as u32);
                        }
                    } else {
                        let f = node.speed / dist;
                        p[0] += to[0] * f;
                        p[1] += to[1] * f;
                        p[2] += to[2] * f;
                        moved.push(i as u32);
                    }
                }
            }
            State::Walk { params, nodes } => {
                for (i, node) in nodes.iter_mut().enumerate() {
                    if node.pause_left > 0 {
                        node.pause_left -= 1;
                        continue;
                    }
                    if node.run_left == 0 {
                        let rng = &mut self.rngs[i];
                        node.pause_left = rng.gen_range(params.pause_lo..=params.pause_hi);
                        let (step, run_left) = draw_leg(params, dim, scale, rng);
                        node.step = step;
                        node.run_left = run_left;
                        if node.pause_left > 0 {
                            node.pause_left -= 1;
                            continue;
                        }
                    }
                    let p = &mut positions[i];
                    for (coord, step) in p.iter_mut().zip(node.step.iter_mut()).take(dim) {
                        let (reflected, dir_flipped) = reflect_dir(*coord + *step, side);
                        if dir_flipped {
                            *step = -*step;
                        }
                        *coord = reflected;
                    }
                    node.run_left -= 1;
                    moved.push(i as u32);
                }
            }
            State::Group { params, vel, rngs: group_rngs, hold_left } => {
                if *hold_left == 0 {
                    for (g, rng) in group_rngs.iter_mut().enumerate() {
                        let d = unit_dir(dim, rng);
                        vel[g] = [
                            d[0] * params.speed * scale,
                            d[1] * params.speed * scale,
                            d[2] * params.speed * scale,
                        ];
                    }
                    *hold_left = params.hold;
                }
                *hold_left -= 1;
                let groups = params.groups as usize;
                let jitter = params.jitter * scale;
                for (i, p) in positions.iter_mut().enumerate() {
                    let v = vel[i % groups];
                    let j = if jitter > 0.0 {
                        let d = unit_dir(dim, &mut self.rngs[i]);
                        [d[0] * jitter, d[1] * jitter, d[2] * jitter]
                    } else {
                        [0.0; 3]
                    };
                    let mut any = false;
                    for axis in 0..dim {
                        let next = reflect(p[axis] + v[axis] + j[axis], side);
                        if next != p[axis] {
                            any = true;
                        }
                        p[axis] = next;
                    }
                    if any {
                        moved.push(i as u32);
                    }
                }
            }
        }
    }
}

fn draw_waypoint<R: Rng + ?Sized>(
    params: &WaypointParams,
    dim: usize,
    side: f64,
    scale: f64,
    from: &[f64; 3],
    rng: &mut R,
) -> [f64; 3] {
    let mut target = [0.0; 3];
    if params.range > 0.0 {
        let w = params.range * scale;
        for t in target.iter_mut().take(dim) {
            *t = rng.gen_range(-w..=w);
        }
        for axis in 0..dim {
            target[axis] = (from[axis] + target[axis]).clamp(0.0, side);
        }
    } else {
        for t in target.iter_mut().take(dim) {
            *t = rng.gen::<f64>() * side;
        }
    }
    target
}

fn draw_leg<R: Rng + ?Sized>(
    params: &WalkParams,
    dim: usize,
    scale: f64,
    rng: &mut R,
) -> ([f64; 3], u64) {
    let dir = unit_dir(dim, rng);
    let len = if params.levy_alpha > 0.0 {
        // Pareto tail: step · u^(-1/α), capped.
        let u = (1.0 - rng.gen::<f64>()).max(f64::MIN_POSITIVE);
        (params.step * u.powf(-1.0 / params.levy_alpha)).min(LEVY_CAP)
    } else {
        params.step
    } * scale;
    let run = rng.gen_range(params.run_lo..=params.run_hi);
    ([dir[0] * len, dir[1] * len, dir[2] * len], run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_positions(n: usize, dim: usize, side: f64, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut p = [0.0; 3];
                for c in p.iter_mut().take(dim) {
                    *c = rng.gen::<f64>() * side;
                }
                p
            })
            .collect()
    }

    fn run_model(model: MobilityModel, dim: usize, ticks: u64, seed: u64) -> Vec<[f64; 3]> {
        let side = 10.0;
        let mut pos = uniform_positions(50, dim, side, 7);
        let mut motion = Motion::new(model, dim, side, 1.0, &pos, seed);
        let mut moved = Vec::new();
        for _ in 0..ticks {
            motion.step(&mut pos, &mut moved);
        }
        pos
    }

    const WAYPOINT: MobilityModel = MobilityModel::RandomWaypoint(WaypointParams {
        speed_lo: 0.1,
        speed_hi: 0.3,
        pause_lo: 0,
        pause_hi: 3,
        range: 0.0,
    });
    const WALK: MobilityModel = MobilityModel::RandomWalk(WalkParams {
        step: 0.2,
        levy_alpha: 0.0,
        run_lo: 2,
        run_hi: 8,
        pause_lo: 0,
        pause_hi: 2,
    });
    const LEVY: MobilityModel = MobilityModel::RandomWalk(WalkParams {
        step: 0.1,
        levy_alpha: 1.5,
        run_lo: 1,
        run_hi: 4,
        pause_lo: 0,
        pause_hi: 4,
    });
    const GROUP: MobilityModel = MobilityModel::GroupDrift(GroupDriftParams {
        groups: 4,
        speed: 0.2,
        jitter: 0.05,
        hold: 6,
    });

    #[test]
    fn models_are_deterministic_per_seed() {
        for model in [WAYPOINT, WALK, LEVY, GROUP] {
            let a = run_model(model, 2, 40, 3);
            let b = run_model(model, 2, 40, 3);
            assert_eq!(a, b, "{model:?} not deterministic");
            let c = run_model(model, 2, 40, 4);
            assert_ne!(a, c, "{model:?} ignores the seed");
        }
    }

    #[test]
    fn positions_stay_in_the_domain() {
        for model in [WAYPOINT, WALK, LEVY, GROUP] {
            for dim in [2usize, 3] {
                let pos = run_model(model, dim, 200, 9);
                for p in &pos {
                    for axis in 0..dim {
                        assert!((0.0..=10.0).contains(&p[axis]), "{model:?} escaped: {:?}", p);
                    }
                    if dim == 2 {
                        assert_eq!(p[2], 0.0, "{model:?} moved the unused axis");
                    }
                }
            }
        }
    }

    #[test]
    fn static_model_never_moves() {
        let side = 5.0;
        let mut pos = uniform_positions(20, 2, side, 1);
        let before = pos.clone();
        let mut motion = Motion::new(MobilityModel::Static, 2, side, 1.0, &pos, 0);
        let mut moved = Vec::new();
        for _ in 0..10 {
            motion.step(&mut pos, &mut moved);
        }
        assert!(moved.is_empty());
        assert_eq!(pos, before);
    }

    #[test]
    fn pauses_keep_a_fraction_stationary() {
        // Dwell-heavy micromobility: long pauses, short local legs — most
        // nodes must be stationary on any given tick (the property the
        // incremental index exploits).
        let model = MobilityModel::RandomWaypoint(WaypointParams {
            speed_lo: 0.05,
            speed_hi: 0.1,
            pause_lo: 50,
            pause_hi: 150,
            range: 2.0,
        });
        let side = 30.0;
        let mut pos = uniform_positions(400, 2, side, 2);
        let mut motion = Motion::new(model, 2, side, 1.0, &pos, 5);
        let mut moved = Vec::new();
        // Skip the initial stagger transient, then measure.
        for _ in 0..100 {
            motion.step(&mut pos, &mut moved);
        }
        moved.clear();
        for _ in 0..100 {
            motion.step(&mut pos, &mut moved);
        }
        let fraction = moved.len() as f64 / (400.0 * 100.0);
        assert!(fraction < 0.5, "moving fraction {fraction} too high for a dwell-heavy model");
        assert!(fraction > 0.0, "nobody moved at all");
    }

    #[test]
    fn kind_names() {
        assert_eq!(MobilityModel::Static.kind_name(), "static");
        assert_eq!(WAYPOINT.kind_name(), "waypoint");
        assert_eq!(WALK.kind_name(), "walk");
        assert_eq!(LEVY.kind_name(), "levy");
        assert_eq!(GROUP.kind_name(), "group");
    }

    #[test]
    fn model_serde_round_trips() {
        for model in [MobilityModel::Static, WAYPOINT, WALK, LEVY, GROUP] {
            let json = serde_json::to_string(&model).unwrap();
            let back: MobilityModel = serde_json::from_str(&json).unwrap();
            assert_eq!(back, model);
        }
    }

    #[test]
    fn validate_names_the_broken_rule() {
        for model in [MobilityModel::Static, WAYPOINT, WALK, LEVY, GROUP] {
            assert_eq!(model.validate(), Ok(()), "{model:?}");
        }
        let MobilityModel::RandomWaypoint(mut p) = WAYPOINT else { unreachable!() };
        p.speed_lo = 0.0;
        let err = MobilityModel::RandomWaypoint(p).validate().unwrap_err();
        assert!(err.contains("speeds need"), "{err}");
    }

    #[test]
    #[should_panic(expected = "speeds need")]
    fn zero_speed_waypoint_rejected() {
        let model = MobilityModel::RandomWaypoint(WaypointParams {
            speed_lo: 0.0,
            speed_hi: 0.0,
            pause_lo: 0,
            pause_hi: 0,
            range: 0.0,
        });
        let pos = uniform_positions(4, 2, 1.0, 0);
        let _ = Motion::new(model, 2, 1.0, 1.0, &pos, 0);
    }

    #[test]
    fn reflect_maps_into_range() {
        assert_eq!(reflect(-0.25, 2.0), 0.25);
        assert_eq!(reflect(2.5, 2.0), 1.5);
        assert_eq!(reflect(1.0, 2.0), 1.0);
        assert_eq!(reflect(-3.0, 2.0), 1.0);
    }

    #[test]
    fn double_fold_keeps_the_direction() {
        // One fold reverses travel; a second fold un-reverses it. A step
        // overshooting past BOTH walls must not flip the stored leg.
        assert_eq!(reflect_dir(2.5, 2.0), (1.5, true));
        assert_eq!(reflect_dir(-0.5, 2.0), (0.5, true));
        assert_eq!(reflect_dir(4.5, 2.0), (0.5, false), "two folds cancel");
        assert_eq!(reflect_dir(-2.5, 2.0), (1.5, false), "two folds cancel");
        assert_eq!(reflect_dir(1.0, 2.0), (1.0, false));
    }

    #[test]
    fn levy_leg_escapes_a_tight_domain_wall() {
        // Long Lévy legs in a domain smaller than the step cap used to
        // flip their direction on an even fold and grind along the wall;
        // with parity-aware reflection the fleet keeps mixing. Sanity:
        // positions spread over the domain rather than piling at borders.
        let model = MobilityModel::RandomWalk(WalkParams {
            step: 4.0, // ticks can overshoot both walls of a side-10 box
            levy_alpha: 1.2,
            run_lo: 4,
            run_hi: 12,
            pause_lo: 0,
            pause_hi: 0,
        });
        let pos = run_model(model, 2, 300, 17);
        let interior =
            pos.iter().filter(|p| (1.0..=9.0).contains(&p[0]) && (1.0..=9.0).contains(&p[1]));
        assert!(interior.count() > 0, "every node stuck at the boundary");
    }
}
