//! Independent sets and the independence number `α`.
//!
//! The paper parametrizes broadcast and leader election by the independence
//! number `α(G)` — the size of a maximum independent set (Section 1.1). The
//! harness needs:
//!
//! * validity checks ([`is_independent_set`], [`is_maximal_independent_set`])
//!   used to verify every MIS the radio algorithms output;
//! * greedy maximal independent sets ([`greedy_mis`], [`greedy_mis_order`])
//!   as lower bounds for `α` and as reference MIS solutions;
//! * cheap upper bounds (greedy clique cover, matching/Gallai bound);
//! * an exact branch-and-bound maximum-independent-set solver
//!   ([`maximum_independent_set`]) with a work budget;
//! * [`alpha_bounds`] combining all of the above into an [`AlphaBounds`]
//!   bracket, which is what experiments feed into the `O(D log_D α)`
//!   predictions.

use crate::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Whether `set` is an independent set of `g` (no two members adjacent).
///
/// Duplicates in `set` are tolerated and count once.
pub fn is_independent_set(g: &Graph, set: &[NodeId]) -> bool {
    let mut member = vec![false; g.n()];
    for &v in set {
        member[v.index()] = true;
    }
    for &v in set {
        if g.neighbors(v).iter().any(|&u| member[u.index()]) {
            return false;
        }
    }
    true
}

/// Whether `set` is a *maximal* independent set of `g`: independent, and
/// every node outside `set` has a neighbor inside it.
pub fn is_maximal_independent_set(g: &Graph, set: &[NodeId]) -> bool {
    if !is_independent_set(g, set) {
        return false;
    }
    let mut member = vec![false; g.n()];
    for &v in set {
        member[v.index()] = true;
    }
    g.nodes().all(|v| member[v.index()] || g.neighbors(v).iter().any(|&u| member[u.index()]))
}

/// Greedy maximal independent set in the given node order.
///
/// Deterministic; the returned set is maximal, hence a lower bound for `α`
/// and a valid "MIS" in the paper's sense.
pub fn greedy_mis_order(g: &Graph, order: &[NodeId]) -> Vec<NodeId> {
    let mut blocked = vec![false; g.n()];
    let mut out = Vec::new();
    for &v in order {
        if !blocked[v.index()] {
            out.push(v);
            blocked[v.index()] = true;
            for &u in g.neighbors(v) {
                blocked[u.index()] = true;
            }
        }
    }
    out
}

/// Greedy maximal independent set in a uniformly random node order.
pub fn greedy_mis<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.shuffle(rng);
    greedy_mis_order(g, &order)
}

/// Greedy maximal independent set preferring low-degree nodes, a classic
/// heuristic that gets within `Δ+1` of optimal and is usually much better.
pub fn greedy_mis_min_degree(g: &Graph) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by_key(|&v| g.degree(v));
    greedy_mis_order(g, &order)
}

/// Upper bound on `α` via a greedy clique cover: `V` is covered by `k`
/// cliques, and an independent set meets each clique at most once, so
/// `α ≤ k`.
pub fn clique_cover_upper_bound(g: &Graph) -> usize {
    let n = g.n();
    let mut covered = vec![false; n];
    // Process nodes by descending degree so big cliques form early.
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let mut cliques = 0usize;
    for &seed in &order {
        if covered[seed.index()] {
            continue;
        }
        // Grow a clique from `seed` among uncovered nodes.
        let mut clique = vec![seed];
        // Candidates: uncovered neighbors of seed.
        for &u in g.neighbors(seed) {
            if covered[u.index()] {
                continue;
            }
            // `u` joins if adjacent to every current member.
            if clique.iter().all(|&c| g.has_edge(u, c)) {
                clique.push(u);
            }
        }
        for &c in &clique {
            covered[c.index()] = true;
        }
        cliques += 1;
    }
    cliques
}

/// Upper bound on `α` via matchings: any matching `M` forces one endpoint of
/// each matched edge out of any independent set, so `α ≤ n − |M|`.
///
/// Uses a greedy maximal matching (≥ half of maximum), which still yields a
/// valid bound because `α ≤ n − μ(G) ≤ n − |M_greedy|` fails for greedy —
/// instead we use the safe direction `α ≤ n − |M|` for *any* matching `M`.
pub fn matching_upper_bound(g: &Graph) -> usize {
    let mut matched = vec![false; g.n()];
    let mut size = 0usize;
    for (u, v) in g.edges() {
        if !matched[u.index()] && !matched[v.index()] {
            matched[u.index()] = true;
            matched[v.index()] = true;
            size += 1;
        }
    }
    g.n() - size
}

/// Result of the exact maximum-independent-set search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExactAlpha {
    /// The search finished; this is a maximum independent set.
    Exact(Vec<NodeId>),
    /// The work budget ran out; the best independent set found so far.
    BudgetExhausted(Vec<NodeId>),
}

impl ExactAlpha {
    /// The best independent set found (maximum iff [`ExactAlpha::Exact`]).
    pub fn set(&self) -> &[NodeId] {
        match self {
            ExactAlpha::Exact(s) | ExactAlpha::BudgetExhausted(s) => s,
        }
    }

    /// Whether the search proved optimality.
    pub fn is_exact(&self) -> bool {
        matches!(self, ExactAlpha::Exact(_))
    }
}

/// Exact maximum independent set by branch and bound.
///
/// Branches on a maximum-degree vertex of the remaining subgraph (the lowest
/// index among ties): include it and delete its closed neighborhood, then
/// exclude it. A search node is pruned when the remaining vertices, or the
/// greedy clique cover of them, cannot beat the incumbent, which starts as
/// [`greedy_mis_min_degree`]. `budget` caps the number of search nodes
/// expanded; when exhausted the best set found so far is returned as
/// [`ExactAlpha::BudgetExhausted`].
///
/// The remaining vertices are one bitset; each branch logs the vertices it
/// removes and restores them on backtrack. Adjacency is tested in O(1)
/// against bitset rows, `n²/64` words (hence [`EXACT_SEARCH_MAX_N`] in
/// [`alpha_bounds`]). How a search node finds its branching vertex and its
/// cover depends only on the graph's size: graphs of at most two words per
/// row, and dense ones, scan bitset words (a popcount per vertex, a
/// word-parallel cover); the others keep every vertex's remaining degree up
/// to date and grow each clique of the cover along the sorted adjacency row
/// of its lowest vertex. Both give the same cover, so the search, and the
/// set returned, are the same.
pub fn maximum_independent_set(g: &Graph, budget: u64) -> ExactAlpha {
    let n = g.n();
    if n == 0 {
        return ExactAlpha::Exact(Vec::new());
    }
    let words = n.div_ceil(64);
    let mut adj = vec![0u64; n * words];
    for v in g.nodes() {
        for &u in g.neighbors(v) {
            set_bit(&mut adj[v.index() * words..], u.index());
        }
    }
    let (offsets, targets) = g.csr();
    let rows = scans_rows(n, g.m());
    let mut alive = vec![0u64; words];
    for v in 0..n {
        set_bit(&mut alive, v);
    }
    // Seed the incumbent with a decent greedy solution so pruning bites early.
    let seed = greedy_mis_min_degree(g);
    let mut search = Search {
        offsets,
        targets,
        words,
        adj: &adj,
        rows,
        alive,
        alive_count: n,
        degree: if rows { g.nodes().map(|v| g.degree(v) as u32).collect() } else { Vec::new() },
        removed: Vec::new(),
        remaining: vec![0; words],
        cand: vec![0; words],
        clique: Vec::new(),
        best: seed.iter().map(|v| v.index() as u32).collect(),
        budget,
        exhausted: false,
    };
    search.run(&mut Vec::new());
    let set: Vec<NodeId> = search.best.iter().map(|&i| NodeId::new(i as usize)).collect();
    if search.exhausted {
        ExactAlpha::BudgetExhausted(set)
    } else {
        ExactAlpha::Exact(set)
    }
}

/// Whether [`maximum_independent_set`] walks adjacency rows rather than
/// scanning bitset words: when a row spans more than two words and the
/// average degree is below four per word. A word scan costs a few word
/// operations per vertex and word; a row walk costs about a vertex's degree
/// per vertex, and the square of a clique's size to grow it, so dense
/// graphs keep the word scan at any size.
fn scans_rows(n: usize, m: usize) -> bool {
    let words = n.div_ceil(64);
    words > 2 && 2 * m < 4 * n * words
}

/// The state of [`maximum_independent_set`]'s search.
struct Search<'a> {
    offsets: &'a [u32],
    targets: &'a [NodeId],
    words: usize,
    /// Bitset adjacency: row `v` is `adj[v * words..][..words]`.
    adj: &'a [u64],
    /// Whether pick and cover walk adjacency rows (with `degree` kept up
    /// to date) rather than scan bitset words.
    rows: bool,
    /// The remaining vertices and their number.
    alive: Vec<u64>,
    alive_count: usize,
    /// Every vertex's number of remaining neighbors (row search only).
    degree: Vec<u32>,
    /// The vertices removed from `alive`, in removal order.
    removed: Vec<u32>,
    /// Scratch of [`Search::cover_exceeds`]: the vertices no clique covers
    /// yet, the word-parallel candidates that extend the current clique,
    /// and the row search's members beyond the clique's lowest vertex.
    remaining: Vec<u64>,
    cand: Vec<u64>,
    clique: Vec<u32>,
    best: Vec<u32>,
    budget: u64,
    exhausted: bool,
}

impl Search<'_> {
    fn run(&mut self, current: &mut Vec<u32>) {
        if self.budget == 0 {
            self.exhausted = true;
            return;
        }
        self.budget -= 1;
        if self.alive_count == 0 {
            if current.len() > self.best.len() {
                self.best = current.clone();
            }
            return;
        }
        // Prune when taking every remaining vertex, or one per clique of
        // the cover, still would not beat the incumbent.
        let slack = self.best.len().saturating_sub(current.len());
        if self.alive_count <= slack || !self.cover_exceeds(slack) {
            return;
        }
        let (v, degree) = self.pick();
        if degree == 0 {
            // All remaining vertices are isolated: take them all.
            if current.len() + self.alive_count > self.best.len() {
                self.best = current.clone();
                self.best.extend(iter_bits(&self.alive).map(|i| i as u32));
            }
            return;
        }
        let mark = self.removed.len();
        // Branch 1: include v (delete N[v]).
        self.remove(v);
        for &u in row(self.offsets, self.targets, v) {
            if has_bit(&self.alive, u.index()) {
                self.remove(u.index());
            }
        }
        current.push(v as u32);
        self.run(current);
        current.pop();
        self.restore(mark);
        // Branch 2: exclude v.
        self.remove(v);
        self.run(current);
        self.restore(mark);
    }

    /// A remaining vertex of maximum remaining degree (the lowest index
    /// among ties), with that degree.
    fn pick(&self) -> (usize, usize) {
        let mut pick = usize::MAX;
        let mut max_deg = 0;
        for v in iter_bits(&self.alive) {
            let deg = if self.rows {
                self.degree[v] as usize
            } else {
                let adj = &self.adj[v * self.words..][..self.words];
                adj.iter().zip(&self.alive).map(|(a, b)| (a & b).count_ones() as usize).sum()
            };
            if pick == usize::MAX || deg > max_deg {
                max_deg = deg;
                pick = v;
            }
        }
        (pick, max_deg)
    }

    /// Whether the greedy clique cover of the remaining vertices has more
    /// than `limit` cliques (counting stops there).
    ///
    /// Each clique starts at the lowest uncovered vertex and admits, in
    /// index order, every uncovered neighbor adjacent to all its members so
    /// far. The word-parallel scan only ever clears bits, so each of its
    /// bit searches resumes at the word where it last found one:
    /// `remaining` is zero below `from`, and `cand` (a subset of
    /// `remaining`) is neither read nor written below it.
    fn cover_exceeds(&mut self, limit: usize) -> bool {
        let (words, adj) = (self.words, self.adj);
        let (remaining, cand) = (&mut self.remaining, &mut self.cand);
        remaining.copy_from_slice(&self.alive);
        let mut cliques = 0;
        let mut from = 0;
        while let Some(v) = first_set_bit(remaining, &mut from) {
            if cliques == limit {
                return true;
            }
            cliques += 1;
            clear_bit(remaining, v);
            if self.rows {
                // Every vertex below `v` is covered, so the sorted row
                // offers the candidates in index order.
                self.clique.clear();
                for &u in row(self.offsets, self.targets, v) {
                    let u = u.index();
                    if has_bit(remaining, u)
                        && self.clique.iter().all(|&c| has_bit(&adj[c as usize * words..], u))
                    {
                        clear_bit(remaining, u);
                        self.clique.push(u as u32);
                    }
                }
                continue;
            }
            for w in from..words {
                cand[w] = remaining[w] & adj[v * words + w];
            }
            let mut cand_from = from;
            while let Some(u) = first_set_bit(cand, &mut cand_from) {
                // u is adjacent to all members by construction of cand, and
                // its own row lacks u, so the intersection drops it.
                clear_bit(remaining, u);
                for w in cand_from..words {
                    cand[w] &= adj[u * words + w];
                }
            }
        }
        false
    }

    /// Removes `v` from the remaining vertices, logging it.
    fn remove(&mut self, v: usize) {
        clear_bit(&mut self.alive, v);
        self.alive_count -= 1;
        self.removed.push(v as u32);
        if self.rows {
            for &u in row(self.offsets, self.targets, v) {
                self.degree[u.index()] -= 1;
            }
        }
    }

    /// Puts back every vertex removed since the log had length `mark`.
    fn restore(&mut self, mark: usize) {
        while self.removed.len() > mark {
            let v = self.removed.pop().expect("log longer than mark") as usize;
            set_bit(&mut self.alive, v);
            self.alive_count += 1;
            if self.rows {
                for &u in row(self.offsets, self.targets, v) {
                    self.degree[u.index()] += 1;
                }
            }
        }
    }
}

/// The sorted neighbors of vertex `v` in CSR arrays.
fn row<'a>(offsets: &[u32], targets: &'a [NodeId], v: usize) -> &'a [NodeId] {
    &targets[offsets[v] as usize..offsets[v + 1] as usize]
}

/// The lowest set bit in words `*from..`, leaving `*from` at its word.
fn first_set_bit(set: &[u64], from: &mut usize) -> Option<usize> {
    while let Some(&bits) = set.get(*from) {
        if bits != 0 {
            return Some(*from * 64 + bits.trailing_zeros() as usize);
        }
        *from += 1;
    }
    None
}

fn has_bit(set: &[u64], i: usize) -> bool {
    set[i / 64] >> (i % 64) & 1 != 0
}

fn set_bit(set: &mut [u64], i: usize) {
    set[i / 64] |= 1u64 << (i % 64);
}

fn clear_bit(set: &mut [u64], i: usize) {
    set[i / 64] &= !(1u64 << (i % 64));
}

fn iter_bits(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(w, &bits)| {
        let mut b = bits;
        std::iter::from_fn(move || {
            if b == 0 {
                None
            } else {
                let i = b.trailing_zeros() as usize;
                b &= b - 1;
                Some(w * 64 + i)
            }
        })
    })
}

/// A bracket on the independence number `α(G)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlphaBounds {
    /// Certified lower bound (size of an actual independent set found).
    pub lower: usize,
    /// Certified upper bound.
    pub upper: usize,
    /// Whether `lower == upper` was proven by exact search.
    pub exact: bool,
}

impl AlphaBounds {
    /// A representative value: the geometric mean of the bracket, matching
    /// the paper's tolerance of "any polynomial approximation" of `α`
    /// (Section 1.1).
    pub fn estimate(&self) -> f64 {
        ((self.lower as f64) * (self.upper as f64)).sqrt()
    }
}

/// Computes [`AlphaBounds`] for `g`.
///
/// Runs the exact solver with the given search `budget`; if it completes, the
/// bracket is tight. Otherwise combines the best found independent set
/// (lower) with the minimum of the clique-cover and matching upper bounds.
pub fn alpha_bounds(g: &Graph, budget: u64) -> AlphaBounds {
    if g.n() > EXACT_SEARCH_MAX_N {
        // The branch-and-bound solver materializes Θ(n²/64) bitset
        // adjacency — 125 GB at a million nodes — so huge graphs go
        // straight to the near-linear greedy/cover bracket. Still within
        // the paper's "any polynomial approximation" tolerance.
        let lower = greedy_mis_min_degree(g).len();
        let upper = clique_cover_upper_bound(g).min(matching_upper_bound(g));
        return AlphaBounds { lower, upper: upper.max(lower), exact: upper <= lower };
    }
    match maximum_independent_set(g, budget) {
        ExactAlpha::Exact(set) => AlphaBounds { lower: set.len(), upper: set.len(), exact: true },
        ExactAlpha::BudgetExhausted(set) => {
            let upper = clique_cover_upper_bound(g).min(matching_upper_bound(g));
            AlphaBounds { lower: set.len(), upper: upper.max(set.len()), exact: false }
        }
    }
}

/// Above this node count [`alpha_bounds`] skips the exact solver entirely
/// (its bitset adjacency is quadratic in memory) and reports the
/// greedy-vs-cover bracket computed in near-linear time.
pub const EXACT_SEARCH_MAX_N: usize = 16_384;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn validity_checks() {
        let g = generators::cycle(6);
        let ind = vec![g.node(0), g.node(2)];
        assert!(is_independent_set(&g, &ind));
        // Node 4 is adjacent to neither 0 nor 2 on C6, so {0,2} is not maximal.
        assert!(!is_maximal_independent_set(&g, &ind));
        let not_ind = vec![g.node(0), g.node(1)];
        assert!(!is_independent_set(&g, &not_ind));
    }

    #[test]
    fn maximality_on_cycle5() {
        let g = generators::cycle(5);
        // {0, 2} covers 1, 3 (nbrs of 2,0... ) and 4 (adj 0). So it IS maximal.
        assert!(is_maximal_independent_set(&g, &[g.node(0), g.node(2)]));
        // {0} is independent but not maximal: 2 and 3 uncovered.
        assert!(!is_maximal_independent_set(&g, &[g.node(0)]));
    }

    #[test]
    fn greedy_is_maximal() {
        let mut rng = StdRng::seed_from_u64(42);
        for g in [
            generators::path(20),
            generators::cycle(21),
            generators::grid2d(5, 6),
            generators::complete(8),
            generators::star(15),
            generators::random::gnp(40, 0.15, &mut StdRng::seed_from_u64(1)),
        ] {
            let mis = greedy_mis(&g, &mut rng);
            assert!(is_maximal_independent_set(&g, &mis), "{g:?}");
            let mis2 = greedy_mis_min_degree(&g);
            assert!(is_maximal_independent_set(&g, &mis2), "{g:?}");
        }
    }

    #[test]
    fn exact_alpha_known_families() {
        // α(P_n) = ceil(n/2), α(C_n) = floor(n/2), α(K_n) = 1,
        // α(star_n) = n-1 (leaves), α(grid w×h) = ceil(wh/2).
        let cases: Vec<(Graph, usize)> = vec![
            (generators::path(7), 4),
            (generators::path(8), 4),
            (generators::cycle(7), 3),
            (generators::cycle(8), 4),
            (generators::complete(6), 1),
            (generators::star(9), 8),
            (generators::grid2d(3, 4), 6),
            (generators::hypercube(3), 4),
        ];
        for (g, want) in cases {
            let res = maximum_independent_set(&g, 10_000_000);
            assert!(res.is_exact(), "{g:?}");
            assert_eq!(res.set().len(), want, "{g:?}");
            assert!(is_independent_set(&g, res.set()));
        }
    }

    #[test]
    fn upper_bounds_valid() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let g = generators::random::gnp(30, 0.2, &mut rng);
            let exact = maximum_independent_set(&g, 10_000_000);
            assert!(exact.is_exact());
            let alpha = exact.set().len();
            assert!(clique_cover_upper_bound(&g) >= alpha);
            assert!(matching_upper_bound(&g) >= alpha);
        }
    }

    #[test]
    fn alpha_bounds_bracket() {
        let g = generators::grid2d(4, 5);
        let b = alpha_bounds(&g, 10_000_000);
        assert!(b.exact);
        assert_eq!(b.lower, 10);
        assert_eq!(b.upper, 10);
        assert!((b.estimate() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn budgeted_brackets_are_pinned() {
        use crate::families::Family;
        // Recorded with the word-parallel search that copied its bitsets
        // per search node: an exhausted budget returns whatever the search
        // reached, so these brackets move if the search order does. The
        // budgets are `NetInfo::exact`'s, 500k up to 64 nodes, 50k up to
        // 128 and 2,000 beyond, except the 120-node unit disk.
        let grid = generators::grid2d(40, 40);
        let want = AlphaBounds { lower: 763, upper: 800, exact: false };
        assert_eq!(alpha_bounds(&grid, 2_000), want);
        let udg = Family::UnitDisk.instantiate(120, 1);
        let want = AlphaBounds { lower: 20, upper: 29, exact: false };
        assert_eq!(alpha_bounds(&udg, 5_000), want);
        // Both lower bounds beat the greedy incumbent the search starts from.
        assert_eq!(
            (greedy_mis_min_degree(&grid).len(), greedy_mis_min_degree(&udg).len()),
            (762, 19)
        );
        // The benchmark's graphs, searched by adjacency rows.
        let want = AlphaBounds { lower: 4902, upper: 5000, exact: false };
        assert_eq!(alpha_bounds(&generators::grid2d(100, 100), 2_000), want);
        let want = AlphaBounds { lower: 140, upper: 212, exact: false };
        assert_eq!(alpha_bounds(&Family::UnitDisk.instantiate(1024, 1), 2_000), want);
        // The small budget classes, searched by bitset words.
        let want = AlphaBounds { lower: 26, upper: 26, exact: true };
        assert_eq!(alpha_bounds(&Family::RandomRegular.instantiate(64, 1), 500_000), want);
        let want = AlphaBounds { lower: 38, upper: 65, exact: false };
        assert_eq!(alpha_bounds(&Family::Gnp.instantiate(128, 1), 50_000), want);
    }

    #[test]
    fn huge_graphs_skip_the_exact_solver() {
        // Path of 20k nodes: well past EXACT_SEARCH_MAX_N; the greedy/cover
        // bracket must come back quickly and bracket α = ⌈n/2⌉.
        let g = generators::path(20_000);
        let b = alpha_bounds(&g, u64::MAX);
        assert!(b.lower <= 10_000 && 10_000 <= b.upper, "{b:?}");
        assert!(b.lower as f64 >= 0.4 * 20_000.0, "greedy far below α/2: {b:?}");
    }

    #[test]
    fn budget_exhaustion_still_valid() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::random::gnp(60, 0.1, &mut rng);
        let b = alpha_bounds(&g, 5); // absurdly small budget
        assert!(b.lower >= 1);
        assert!(b.upper >= b.lower);
        match maximum_independent_set(&g, 5) {
            ExactAlpha::BudgetExhausted(s) => assert!(is_independent_set(&g, &s)),
            ExactAlpha::Exact(_) => panic!("budget 5 cannot finish n=60"),
        }
    }

    #[test]
    fn empty_graph_alpha_zero() {
        let g = Graph::from_edges(0, []).unwrap();
        let res = maximum_independent_set(&g, 10);
        assert!(res.is_exact());
        assert!(res.set().is_empty());
    }

    #[test]
    fn edgeless_graph_alpha_n() {
        let g = Graph::from_edges(12, []).unwrap();
        let res = maximum_independent_set(&g, 1_000);
        assert!(res.is_exact());
        assert_eq!(res.set().len(), 12);
    }
}
