//! The four workloads: which cells each one runs, and why.
//!
//! Every cell seed derives from the benchmark's `--seed` through
//! [`seeds::seed_for`], so one seed always gives the same specs. Cells use
//! the sparse kernel and protocol reception unless stated otherwise.

use radionet_api::{seeds, Arrival, Dynamics, PoissonArrival, RunSpec, TrafficSpec};
use radionet_graph::families::Family;
use radionet_sim::{ReceptionMode, SinrConfig};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's three algorithms on a static grid (general-graph regime,
    /// α ≈ n/2): α search plus diameter about a quarter of the pass, Compete's
    /// act and scheduling most of the rest.
    PaperGrid,
    /// The geometric regime, one cell per physical-layer cost: SINR
    /// reception, mobility index upkeep, unit-disk generation.
    GeoPhysical,
    /// Streaming gossip under churn on a grid past both `NetInfo`
    /// thresholds: the control on which setup work must not move. Run by
    /// hand, not listed in `BENCHMARK.json`: its 33,124-node working set
    /// makes it two to three times slower whenever the host's memory is
    /// contended, so its wall time spreads beyond any bound between seeds.
    TrafficChurn,
    /// An in-process `radionetd` under a closed loop of mostly cached
    /// submits: the daemon's wire, queue and cache layers.
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::PaperGrid, Workload::GeoPhysical, Workload::TrafficChurn, Workload::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::GeoPhysical => "geo-physical",
            Workload::TrafficChurn => "traffic-churn",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Cell sizes: `Full` is what the benchmark measures, `Tiny` what its smoke
/// test runs through the same code and checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Grid side of `paper-grid`: 1,600 nodes keep the exact α search (run for
/// 129 ≤ n ≤ 16,384) at about a quarter of the pass.
const PAPER_GRID_SIDE: usize = 40;
/// Grid side of `traffic-churn`: 33,124 nodes, past the exact-diameter
/// (32,768) and exact-α (16,384) thresholds, so setup stays near zero.
const TRAFFIC_GRID_SIDE: usize = 182;

/// The traffic axis of `traffic-churn`: Poisson arrivals at 2% per sender
/// per step, 8 senders, 4 messages, a 2,560-step horizon.
fn churn_traffic() -> TrafficSpec {
    TrafficSpec {
        arrival: Arrival::Poisson(PoissonArrival { per_10k: 200 }),
        senders: 8,
        messages: 4,
        horizon: 2560,
        multicast_per_mille: 250,
    }
}

/// The traffic axis of the `serve-mixed` gossip specs: the same arrivals
/// over a 1,024-step horizon, so about 80 arrivals are due in the arrival
/// window (no seed injects nothing) and the drain window lets the small
/// graphs deliver all four messages.
fn pool_traffic() -> TrafficSpec {
    TrafficSpec { horizon: 1024, ..churn_traffic() }
}

fn cell(
    base: u64,
    workload: Workload,
    label: &str,
    task: &str,
    family: Family,
    n: usize,
) -> RunSpec {
    let name = format!("{}/{label}", workload.name());
    RunSpec::new(task, family, n).with_seed(seeds::seed_for(base, &name, n, 0))
}

/// The cells of a run workload (`serve-mixed` has none: its inputs are the
/// request list of [`serve_requests`]).
pub fn run_cells(workload: Workload, seed: u64, scale: Scale) -> Vec<RunSpec> {
    let tiny = scale == Scale::Tiny;
    match workload {
        Workload::PaperGrid => {
            let n = if tiny { 64 } else { PAPER_GRID_SIDE * PAPER_GRID_SIDE };
            ["broadcast", "leader-election", "mis"]
                .into_iter()
                .map(|task| cell(seed, workload, task, task, Family::Grid, n))
                .collect()
        }
        Workload::GeoPhysical => {
            // SINR reception stays above 80% of its cell from n = 1,024; the luby
            // cell must be past the exact-α threshold (n > 16,384) for
            // generation to dominate it.
            let (sinr_n, mobile_n, luby_n) = if tiny { (64, 48, 300) } else { (1024, 192, 16_400) };
            let waypoint = Dynamics::preset("mobility:waypoint").expect("standard preset");
            vec![
                cell(seed, workload, "sinr", "broadcast", Family::UnitDisk, sinr_n)
                    .with_reception(ReceptionMode::Sinr(SinrConfig::geometric())),
                cell(seed, workload, "mobility", "broadcast", Family::UnitDisk, mobile_n)
                    .with_dynamics(waypoint),
                cell(seed, workload, "luby", "luby-mis", Family::UnitDisk, luby_n),
            ]
        }
        Workload::TrafficChurn => {
            // Two cells: a flood that dies (a rare, legitimate outcome)
            // then moves a pass's wall time by a seventh, not a third.
            let n = if tiny { 400 } else { TRAFFIC_GRID_SIDE * TRAFFIC_GRID_SIDE };
            let churn = Dynamics::preset("churn").expect("standard preset");
            ["gossip-a", "gossip-b"]
                .into_iter()
                .map(|label| {
                    cell(seed, workload, label, "traffic.gossip", Family::Grid, n)
                        .with_dynamics(churn)
                        .with_traffic(churn_traffic())
                })
                .collect()
        }
        Workload::ServeMixed => Vec::new(),
    }
}

/// Tasks of the `serve-mixed` pool: the paper's algorithms, two baselines
/// and streaming gossip.
const POOL_TASKS: [&str; 6] =
    ["broadcast", "leader-election", "mis", "luby-mis", "bgi-broadcast", "traffic.gossip"];
/// Families of the pool: general and geometric.
const POOL_FAMILIES: [Family; 4] =
    [Family::Grid, Family::UnitDisk, Family::Gnp, Family::RandomTree];

/// Requests per `serve-mixed` pass: enough that `op_p99_ms` has ten samples
/// beyond it.
pub const SERVE_REQUESTS: usize = 1000;

/// The small specs the `serve-mixed` clients draw from: 6 tasks × 4
/// families × 2 sizes = 48 distinct specs, n ≤ 256.
pub fn serve_pool(seed: u64, scale: Scale) -> Vec<RunSpec> {
    let sizes: [usize; 2] = if scale == Scale::Tiny { [16, 25] } else { [64, 256] };
    let mut pool = Vec::new();
    for task in POOL_TASKS {
        for family in POOL_FAMILIES {
            for n in sizes {
                let label = format!("pool/{task}/{}", family.name());
                let spec = cell(seed, Workload::ServeMixed, &label, task, family, n);
                pool.push(if task.starts_with("traffic.") {
                    spec.with_traffic(pool_traffic())
                } else {
                    spec
                });
            }
        }
    }
    pool
}

/// A uniform draw in `[0, 1)` from the benchmark seed and a stream index.
fn unit(seed: u64, stream: u64, i: u64) -> f64 {
    let x = seeds::mix(seeds::mix(seed ^ stream) ^ i);
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The `serve-mixed` request list: pool specs drawn with Zipf(1) skew over
/// a seed-shuffled pool order, and every tenth request re-seeded with a seed
/// not seen before, which makes it a guaranteed cache miss.
pub fn serve_requests(seed: u64, scale: Scale) -> Vec<RunSpec> {
    let pool = serve_pool(seed, scale);
    let count = if scale == Scale::Tiny { 40 } else { SERVE_REQUESTS };
    // Popularity order: a seeded shuffle, so which specs are hot varies.
    let mut order: Vec<usize> = (0..pool.len()).collect();
    for i in (1..order.len()).rev() {
        let j = (unit(seed, 0x5eed, i as u64) * (i + 1) as f64) as usize;
        order.swap(i, j.min(i));
    }
    let weights: Vec<f64> = (0..pool.len()).map(|rank| 1.0 / (rank + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    (0..count)
        .map(|i| {
            let mut u = unit(seed, 0xd4a3, i as u64) * total;
            let mut rank = 0;
            while rank + 1 < weights.len() && u >= weights[rank] {
                u -= weights[rank];
                rank += 1;
            }
            let spec = pool[order[rank]].clone();
            if i % 10 == 9 {
                let fresh = seeds::seed_for(seed, "serve-mixed/fresh", spec.n, i as u64);
                spec.with_seed(fresh)
            } else {
                spec
            }
        })
        .collect()
}
