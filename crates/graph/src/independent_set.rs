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
    let mut in_clique = vec![false; n];
    for &seed in &order {
        if covered[seed.index()] {
            continue;
        }
        // Grow a clique from `seed` among uncovered nodes.
        let mut clique = vec![seed];
        in_clique[seed.index()] = true;
        // Candidates: uncovered neighbors of seed.
        for &u in g.neighbors(seed) {
            if covered[u.index()] {
                continue;
            }
            // `u` joins if adjacent to every current member.
            if clique.iter().all(|&c| g.has_edge(u, c)) {
                clique.push(u);
                in_clique[u.index()] = true;
            }
        }
        for &c in &clique {
            covered[c.index()] = true;
            in_clique[c.index()] = false;
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
/// Branches on a maximum-degree vertex of the remaining subgraph (exclude it,
/// or include it and delete its closed neighborhood), pruning with the greedy
/// clique-cover bound. `budget` caps the number of search nodes expanded;
/// when exhausted the best set found so far is returned as
/// [`ExactAlpha::BudgetExhausted`].
///
/// Intended for the harness (`n` up to a few hundred sparse / ~100 dense).
pub fn maximum_independent_set(g: &Graph, budget: u64) -> ExactAlpha {
    // Work on an explicit "alive" subset with adjacency via bitsets for speed.
    let n = g.n();
    if n == 0 {
        return ExactAlpha::Exact(Vec::new());
    }
    let words = n.div_ceil(64);
    // Bitset adjacency.
    let mut adj = vec![0u64; n * words];
    for v in g.nodes() {
        for &u in g.neighbors(v) {
            adj[v.index() * words + u.index() / 64] |= 1u64 << (u.index() % 64);
        }
    }

    struct Search<'a> {
        words: usize,
        adj: &'a [u64],
        best: Vec<u32>,
        budget: u64,
        exhausted: bool,
        /// Scratch bitsets of [`Search::bound`]: the vertices no clique
        /// covers yet, and the candidates that extend the current clique.
        remaining: Vec<u64>,
        cand: Vec<u64>,
    }

    impl Search<'_> {
        fn popcount(set: &[u64]) -> usize {
            set.iter().map(|w| w.count_ones() as usize).sum()
        }

        /// Greedy clique-cover bound restricted to `alive`.
        ///
        /// Both scans only ever clear bits, so each resumes at the word
        /// where it last found one: `remaining` is zero below `from`, and
        /// `cand` (a subset of `remaining`) is neither read nor written
        /// below it.
        fn bound(&mut self, alive: &[u64]) -> usize {
            let (words, adj) = (self.words, self.adj);
            let (remaining, cand) = (&mut self.remaining, &mut self.cand);
            remaining.copy_from_slice(alive);
            let mut cliques = 0usize;
            let mut from = 0;
            while let Some(v) = first_set_bit(remaining, &mut from) {
                // Grow a clique from `v` greedily within `remaining`.
                clear_bit(remaining, v);
                for w in from..words {
                    cand[w] = remaining[w] & adj[v * words + w];
                }
                let mut cand_from = from;
                while let Some(u) = first_set_bit(cand, &mut cand_from) {
                    // u is adjacent to all members by construction of cand.
                    clear_bit(remaining, u);
                    for w in cand_from..words {
                        cand[w] &= adj[u * words + w];
                    }
                    clear_bit(cand, u);
                }
                cliques += 1;
            }
            cliques
        }

        fn run(&mut self, alive: &mut Vec<u64>, current: &mut Vec<u32>) {
            if self.budget == 0 {
                self.exhausted = true;
                return;
            }
            self.budget -= 1;
            let alive_count = Self::popcount(alive);
            if alive_count == 0 {
                if current.len() > self.best.len() {
                    self.best = current.clone();
                }
                return;
            }
            if current.len() + alive_count <= self.best.len() {
                return;
            }
            if current.len() + self.bound(alive) <= self.best.len() {
                return;
            }
            // Pick an alive vertex of maximum alive-degree.
            let mut pick = usize::MAX;
            let mut pick_deg = usize::MAX;
            let mut max_deg = 0usize;
            for v in iter_bits(alive) {
                let deg = (0..self.words)
                    .map(|w| (self.adj[v * self.words + w] & alive[w]).count_ones() as usize)
                    .sum();
                if pick == usize::MAX || deg > max_deg {
                    max_deg = deg;
                    pick = v;
                    pick_deg = deg;
                }
            }
            let v = pick;
            if pick_deg == 0 {
                // All alive vertices are isolated: take them all.
                let mut take = current.clone();
                take.extend(iter_bits(alive).map(|i| i as u32));
                if take.len() > self.best.len() {
                    self.best = take;
                }
                return;
            }
            // Branch 1: include v (delete N[v]).
            let saved = alive.clone();
            clear_bit(alive, v);
            for (w, a) in alive.iter_mut().enumerate() {
                *a &= !self.adj[v * self.words + w];
            }
            current.push(v as u32);
            self.run(alive, current);
            current.pop();
            *alive = saved.clone();
            // Branch 2: exclude v.
            clear_bit(alive, v);
            self.run(alive, current);
            *alive = saved;
        }
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

    let mut alive = vec![0u64; words];
    for v in 0..n {
        alive[v / 64] |= 1u64 << (v % 64);
    }
    // Seed the incumbent with a decent greedy solution so pruning bites early.
    let seed = greedy_mis_min_degree(g);
    let mut search = Search {
        words,
        adj: &adj,
        best: seed.iter().map(|v| v.index() as u32).collect(),
        budget,
        exhausted: false,
        remaining: vec![0; words],
        cand: vec![0; words],
    };
    let mut current = Vec::new();
    search.run(&mut alive, &mut current);
    let set: Vec<NodeId> = search.best.iter().map(|&i| NodeId::new(i as usize)).collect();
    if search.exhausted {
        ExactAlpha::BudgetExhausted(set)
    } else {
        ExactAlpha::Exact(set)
    }
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
        // Recorded before the clique-cover bound reused its scratch
        // bitsets: an exhausted budget returns whatever the search reached,
        // so these brackets move if the search order does.
        let grid = generators::grid2d(40, 40);
        let want = AlphaBounds { lower: 763, upper: 800, exact: false };
        assert_eq!(alpha_bounds(&grid, 2_000), want);
        let udg = crate::families::Family::UnitDisk.instantiate(120, 1);
        let want = AlphaBounds { lower: 20, upper: 29, exact: false };
        assert_eq!(alpha_bounds(&udg, 5_000), want);
        // Both lower bounds beat the greedy incumbent the search starts from.
        assert_eq!(
            (greedy_mis_min_degree(&grid).len(), greedy_mis_min_degree(&udg).len()),
            (762, 19)
        );
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
