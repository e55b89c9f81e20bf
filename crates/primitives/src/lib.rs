//! Shared radio-network building blocks from the paper.
//!
//! * [`coins`] — draw-ahead coin windows: a node that flips a transmit
//!   coin every step draws its coming coins at once and listens until the
//!   next heads, with every coin and transmission unchanged;
//! * [`decay`] — the classic **Decay** protocol of Bar-Yehuda, Goldreich and
//!   Itai (paper, Algorithm 5) and its whp amplification (Claim 10);
//! * [`effective_degree`] — **EstimateEffectiveDegree** (paper, Algorithm 6)
//!   with the High/Low guarantee of Lemma 11;
//! * [`flood`] — repeated-Decay flooding, the engine behind the BGI
//!   broadcast baseline and several internal subroutines;
//! * [`gossip`] — queue-draining multi-message gossip for streaming
//!   traffic workloads (many concurrent messages, each hot for a Decay
//!   window);
//! * [`ids`] — random identifiers from `[O(n³)]` (paper, Section 1.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coins;
pub mod decay;
pub mod effective_degree;
pub mod flood;
pub mod gossip;
pub mod ids;

pub use coins::CoinWindow;
pub use decay::{DecayConfig, DecayProtocol, DecaySchedule};
pub use effective_degree::{EedConfig, EedCounter, EedProtocol, EedVerdict};
pub use flood::FloodProtocol;
pub use gossip::GossipProtocol;
