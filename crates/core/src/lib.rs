//! # `mincut-core` — the paper's algorithms
//!
//! Implementation of *Adaptive Massively Parallel Algorithms for Cut
//! Problems* (Hajiaghayi, Knittel, Olkowski, Saleh — SPAA 2022):
//!
//! * [`priorities`]: exponential-clock contraction priorities — the unique
//!   random edge weights of §4.1, correct for *weighted* Karger
//!   contraction — ranked per edge or, by each pair's least clock, per
//!   vertex pair;
//! * [`contraction`]: the contraction-process semantics (`bag`, `Δbag`,
//!   Observation 7) plus a sequential **oracle** that tracks every
//!   super-vertex degree over the whole process — the ground truth every
//!   other engine is tested against;
//! * [`intervals`]: Lemma 12–14 — per-(edge, leader) time intervals and
//!   the weighted minimum-stabbing sweep;
//! * [`singleton`]: Algorithm 3 — `SmallestSingletonCut` via the low-depth
//!   decomposition, leader chains and interval sweeps (Theorem 3);
//! * [`mincut`]: Algorithm 1 — the boosted recursive contraction
//!   `AMPC-MinCut` computing a `(2+ε)`-approximate weighted min cut
//!   (Theorem 1);
//! * [`kcut`]: Algorithm 4 — `APX-SPLIT`, the `(4+ε)`-approximate Min
//!   k-Cut (Theorem 2);
//! * [`baselines`]: Karger contraction and Karger–Stein recursion (§2);
//! * [`model`]: the same algorithms executed **in-model** on the
//!   `ampc-model` executor with measured rounds, in AMPC mode (adaptive
//!   multi-hop) or MPC mode (pointer doubling — the Ghaffari–Nowicki-shaped
//!   baseline of Corollary 1).

pub mod baselines;
pub mod contraction;
pub mod intervals;
pub mod kcut;
pub mod mincut;
pub mod model;
pub mod priorities;
pub mod singleton;

pub use contraction::{contract_prefix, contraction_oracle};
pub use kcut::{apx_split, KCutOptions, KCutResult};
pub use mincut::{approx_min_cut, MinCutOptions};
pub use priorities::{exponential_priorities, fold_priorities, pair_priorities};
pub use singleton::{smallest_singleton_cut, SingletonCut, SingletonEngine};
