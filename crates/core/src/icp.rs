//! Intra-Cluster Propagation (paper, Algorithm 9) and its background
//! process (Algorithm 10).
//!
//! An ICP invocation on a clustering with schedule `S` and length `ℓ`
//! executes three stages over the precomputed conflict-free slots:
//!
//! 1. downcast: pipeline the centers' messages out to distance `ℓ`;
//! 2. upcast: converge-cast higher messages back to the centers;
//! 3. downcast again.
//!
//! A scheduled transmitter simply transmits the highest message it knows
//! (the paper's "participate only if higher" test is an optimization that
//! only *reduces* the scheduled transmitter set, so omitting it cannot
//! create within-cluster collisions; receivers take `max`). Listeners
//! opportunistically absorb *any* message they hear — including from
//! adjacent clusters, which is precisely how messages cross cluster
//! boundaries between rounds.
//!
//! The background process (Algorithm 10) runs time-multiplexed: in each
//! `log n`-step block, with probability `2^{-i}` (coordinated within each
//! cluster via a shared pseudorandom coin on the cluster id — the paper
//! coordinates via the cluster schedules) the cluster's informed members
//! perform one Decay iteration, patching collisions at cluster borders.

use radionet_cluster::{ClusterSchedule, Clustering};
use radionet_graph::NodeId;
use radionet_primitives::decay::DecaySchedule;
use rand::Rng;
use std::sync::Arc;

/// Stage of an ICP slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IcpStage {
    /// First downcast.
    Down1,
    /// Upcast towards centers.
    Up,
    /// Second downcast.
    Down2,
}

/// A global ICP timeline: one entry per slot (= per protocol-local step).
#[derive(Clone, Debug)]
pub struct IcpTimeline {
    /// Stage and layer transition of each slot (metadata for debugging).
    pub slots: Vec<(IcpStage, u32)>,
    /// Per node, the sorted list of slots in which it is a scheduled
    /// transmitter.
    pub tx_slots: Vec<Vec<u32>>,
}

impl IcpTimeline {
    /// Builds the timeline for `ICP(ℓ)` from a schedule.
    ///
    /// The slot order is: down transitions `0..ℓ`, up child-layers `ℓ..1`,
    /// down transitions `0..ℓ` again, with per-transition slot groups laid
    /// out consecutively.
    pub fn build(schedule: &ClusterSchedule, n: usize, l: u32) -> Self {
        let l = l.min(schedule.depth);
        let mut slots = Vec::new();
        let mut tx_slots: Vec<Vec<u32>> = vec![Vec::new(); n];
        let push_group = |slots: &mut Vec<(IcpStage, u32)>,
                          tx_slots: &mut Vec<Vec<u32>>,
                          stage: IcpStage,
                          transition: u32,
                          group: &[Vec<NodeId>]| {
            for slot_txs in group {
                let idx = slots.len() as u32;
                slots.push((stage, transition));
                for &v in slot_txs {
                    tx_slots[v.index()].push(idx);
                }
            }
        };
        for i in 0..l {
            push_group(&mut slots, &mut tx_slots, IcpStage::Down1, i, &schedule.down[i as usize]);
        }
        for i in (1..=l).rev() {
            push_group(&mut slots, &mut tx_slots, IcpStage::Up, i, &schedule.up[(i - 1) as usize]);
        }
        for i in 0..l {
            push_group(&mut slots, &mut tx_slots, IcpStage::Down2, i, &schedule.down[i as usize]);
        }
        IcpTimeline { slots, tx_slots }
    }

    /// Builds a downcast-only timeline (used to distribute the coarse
    /// clusters' fine-clustering sequences, Algorithm 2 step 7).
    pub fn build_downcast(schedule: &ClusterSchedule, n: usize, l: u32) -> Self {
        let l = l.min(schedule.depth);
        let mut slots = Vec::new();
        let mut tx_slots: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 0..l {
            for slot_txs in &schedule.down[i as usize] {
                let idx = slots.len() as u32;
                slots.push((IcpStage::Down1, i));
                for &v in slot_txs {
                    tx_slots[v.index()].push(idx);
                }
            }
        }
        IcpTimeline { slots, tx_slots }
    }

    /// Number of slots (protocol-local steps) in the timeline.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the timeline has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Per-node ICP sequencer: walks a shared timeline, transmitting its best
/// message in its scheduled slots. Drive it from a composite protocol.
#[derive(Clone, Debug)]
pub struct IcpSeq {
    timeline: Arc<IcpTimeline>,
    /// This node's scheduled slots (sorted), with a cursor.
    my_slots: Vec<u32>,
    cursor: usize,
}

impl IcpSeq {
    /// Sequencer for node `v` over a shared timeline.
    pub fn new(timeline: Arc<IcpTimeline>, v: NodeId) -> Self {
        let my_slots = timeline.tx_slots[v.index()].clone();
        IcpSeq { timeline, my_slots, cursor: 0 }
    }

    /// Action for protocol-local step `t`: `Some(msg)` to transmit,
    /// `None` to listen. Returns `None` forever once past the timeline.
    pub fn step(&mut self, t: u64, best: Option<u64>) -> Option<u64> {
        if t >= self.timeline.len() as u64 {
            return None;
        }
        while self.cursor < self.my_slots.len() && (self.my_slots[self.cursor] as u64) < t {
            self.cursor += 1;
        }
        if self.cursor < self.my_slots.len() && (self.my_slots[self.cursor] as u64) == t {
            self.cursor += 1;
            best
        } else {
            None
        }
    }

    /// Whether the timeline is exhausted at local step `t`.
    pub fn finished(&self, t: u64) -> bool {
        t >= self.timeline.len() as u64
    }

    /// The first protocol-local step `≥ t` in which this node is a
    /// scheduled transmitter, if any. Does not advance the cursor — this is
    /// the lookahead the sparse kernel's wake hints are built from (a node
    /// sleeps through every slot that isn't its own).
    pub fn next_scheduled_at(&self, t: u64) -> Option<u64> {
        let start = self.cursor + self.my_slots[self.cursor..].partition_point(|&s| (s as u64) < t);
        self.my_slots.get(start).map(|&s| s as u64)
    }

    /// Length of the underlying timeline in slots.
    pub fn timeline_len(&self) -> usize {
        self.timeline.len()
    }
}

/// Per-node sequencer for the ICP background process (Algorithm 10).
#[derive(Clone, Debug)]
pub struct BgDecaySeq {
    /// Cluster identifier (coordinates the per-block coin).
    cluster: u64,
    /// Salt mixed into the coin (differs per Compete round).
    salt: u64,
    schedule: DecaySchedule,
    log_n: u32,
}

impl BgDecaySeq {
    /// Sequencer for a node of cluster `cluster` (use the cluster index of
    /// the currently selected fine clustering; unclustered nodes may pass
    /// any value — they are silent anyway if uninformed).
    pub fn new(cluster: u64, salt: u64, log_n: u32) -> Self {
        BgDecaySeq { cluster, salt, schedule: DecaySchedule::new(log_n), log_n: log_n.max(1) }
    }

    /// Whether the cluster's coin turned this block on, and the in-block
    /// transmit probability. Runs forever (no timeline).
    pub fn step(&self, t: u64, best: Option<u64>, rng: &mut impl Rng) -> Option<u64> {
        let best = best?;
        let block = t / self.log_n as u64;
        let step_in_block = t % self.log_n as u64;
        // Algorithm 10: block i (cycling 1..log n) is active with
        // probability 2^{-i}, coordinated per cluster.
        let i = 1 + (block % self.log_n as u64) as u32;
        let coin = hash01(self.cluster ^ self.salt.wrapping_mul(0x9e37_79b9_7f4a_7c15), block);
        if coin < 2f64.powi(-(i as i32)) && rng.gen_bool(self.schedule.prob(step_in_block)) {
            Some(best)
        } else {
            None
        }
    }
}

/// Deterministic hash of `(key, block)` into `[0, 1)` — the "coordinated in
/// each cluster" coin (every member computes the same value).
pub fn hash01(key: u64, block: u64) -> f64 {
    let x = radionet_sim::mix(key ^ block.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Builds a per-clustering mapping from nodes to cluster ids for
/// [`BgDecaySeq`] (`u64::MAX` for unclustered nodes).
pub fn cluster_ids(clustering: &Clustering) -> Vec<u64> {
    clustering.cluster_of.iter().map(|c| c.map(|x| x as u64).unwrap_or(u64::MAX)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_cluster::mpx::{partition_with_shifts, Shifts};
    use radionet_graph::generators;

    fn line_timeline(n: usize, l: u32) -> (IcpTimeline, radionet_graph::Graph) {
        let g = generators::path(n);
        let c = partition_with_shifts(&g, &Shifts { centers: vec![g.node(0)], deltas: vec![0.0] });
        let s = ClusterSchedule::build(&g, &c);
        (IcpTimeline::build(&s, g.n(), l), g)
    }

    #[test]
    fn timeline_structure_on_path() {
        let (t, _) = line_timeline(6, 3);
        // Path: 1 slot per transition. Down 3 + up 3 + down 3.
        assert_eq!(t.len(), 9);
        assert_eq!(t.slots[0], (IcpStage::Down1, 0));
        assert_eq!(t.slots[3], (IcpStage::Up, 3));
        assert_eq!(t.slots[4], (IcpStage::Up, 2));
        assert_eq!(t.slots[6], (IcpStage::Down2, 0));
        // Node 0 transmits in slots for down transition 0 (slots 0 and 6).
        assert_eq!(t.tx_slots[0], vec![0, 6]);
        // Node 3 transmits: down transition 3? l=3 so transitions 0,1,2:
        // node 2 tx at transition 2 (slots 2, 8); node 3 tx at up layer 3 (slot 3).
        assert_eq!(t.tx_slots[3], vec![3]);
    }

    #[test]
    fn timeline_capped_at_depth() {
        let (t, _) = line_timeline(4, 100);
        // depth = 3: down 3 + up 3 + down 3.
        assert_eq!(t.len(), 9);
    }

    #[test]
    fn seq_transmits_only_when_informed() {
        let (t, _) = line_timeline(6, 3);
        let t = Arc::new(t);
        let mut seq = IcpSeq::new(t.clone(), NodeId::new(0));
        assert_eq!(seq.step(0, None), None); // uninformed: silent
        let mut seq2 = IcpSeq::new(t, NodeId::new(0));
        assert_eq!(seq2.step(0, Some(7)), Some(7));
        assert_eq!(seq2.step(1, Some(7)), None); // not scheduled
        assert_eq!(seq2.step(6, Some(9)), Some(9));
        assert!(seq2.finished(9));
        assert!(!seq2.finished(8));
    }

    #[test]
    fn seq_skips_missed_slots() {
        let (t, _) = line_timeline(6, 3);
        let mut seq = IcpSeq::new(Arc::new(t), NodeId::new(0));
        // Jump straight past slot 0: cursor must advance, not replay it.
        assert_eq!(seq.step(5, Some(1)), None);
        assert_eq!(seq.step(6, Some(1)), Some(1));
    }

    #[test]
    fn hash01_uniformish_and_deterministic() {
        assert_eq!(hash01(5, 9), hash01(5, 9));
        assert_ne!(hash01(5, 9), hash01(5, 10));
        let mean: f64 = (0..1000).map(|b| hash01(42, b)).sum::<f64>() / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
        assert!((0..1000).all(|b| (0.0..1.0).contains(&hash01(b, b * 7))));
    }

    #[test]
    fn bg_decay_silent_when_uninformed() {
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let seq = BgDecaySeq::new(3, 1, 4);
        for t in 0..64 {
            assert_eq!(seq.step(t, None, &mut rng), None);
        }
    }

    #[test]
    fn bg_decay_transmits_sometimes_when_informed() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let seq = BgDecaySeq::new(3, 1, 4);
        let sent = (0..4000).filter(|&t| seq.step(t, Some(5), &mut rng).is_some()).count();
        assert!(sent > 0, "background never transmitted");
        // Active blocks are rare (E[2^{-i}] per block), so so is transmission.
        assert!(sent < 2000, "background too chatty: {sent}/4000");
    }

    #[test]
    fn cluster_ids_mapping() {
        let g = generators::path(4);
        let c = partition_with_shifts(&g, &Shifts { centers: vec![g.node(0)], deltas: vec![0.0] });
        let ids = cluster_ids(&c);
        assert_eq!(ids, vec![0, 0, 0, 0]);
    }
}
