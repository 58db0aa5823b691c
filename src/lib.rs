//! # `ampc-mincut` — Adaptive Massively Parallel algorithms for cut problems
//!
//! A full reproduction of *"Adaptive Massively Parallel Algorithms for Cut
//! Problems"* (Hajiaghayi, Knittel, Olkowski, Saleh — SPAA 2022): the AMPC
//! model simulator, every substrate the paper builds on, the paper's
//! `(2+ε)`-approximate Min Cut (`O(log log n)` AMPC rounds) and
//! `(4+ε)`-approximate Min k-Cut algorithms, the baselines, and a
//! benchmark harness that regenerates each theorem's measurable claim.
//!
//! ## Quickstart
//!
//! ```
//! use ampc_mincut::prelude::*;
//! use rand::SeedableRng;
//!
//! // A graph with a planted min cut of weight 2.
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let g = cut_graph::gen::planted_cut(40, 120, 2, &mut rng);
//!
//! // (2+ε)-approximate min cut (reference engine).
//! let opts = MinCutOptions::default();
//! let cut = approx_min_cut(&g, &opts);
//! assert!(cut.weight >= 2 && cut.weight <= 5);
//!
//! // The same algorithm in-model, with measured AMPC rounds.
//! let cfg = AmpcConfig::new(g.n(), 0.5);
//! let report = ampc_min_cut(&g, &opts, &cfg);
//! assert_eq!(report.levels, report.rounds_by_level.len());
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`ampc_model`] | AMPC/MPC executor, DHT, round & memory accounting |
//! | [`cut_graph`] | graphs, generators, MST, Stoer–Wagner, Dinic, Gomory–Hu, brute force |
//! | [`cut_tree`] | heavy-light decomposition, binarized paths, low-depth decomposition, RMQ |
//! | [`ampc_primitives`] | in-model chain compression, rooting, aggregation, sort, connectivity, MSF |
//! | [`mincut_core`] | Algorithms 1–4 (reference + in-model), contraction oracle, baselines |
//! | [`cut_index`] | per-graph incremental index: generation-stamped CSR snapshots, fully dynamic connectivity, LRU cache |
//! | [`cut_engine`] | multi-graph cut-query engine: registry, mutations, epoch-cached queries, sharded serving, seeded workloads |
//!
//! ## Serving queries
//!
//! The [`cut_engine`] crate turns the one-shot algorithms into a long-lived
//! service: register named graphs, mutate them (insert/delete weighted
//! edges, contract vertices), and issue queries through one
//! `Engine::execute(Request) -> Response` entry point. Query answers are
//! cached per mutation epoch in an LRU, the [`cut_index`] layer amortizes
//! CSR builds and answers connectivity from a fully dynamic spanning
//! forest, seeded
//! workloads replay deterministically, and
//! `cargo run --release -p cut_bench --bin stress` measures the whole
//! stack (ops/sec, per-action latency percentiles, cache hit rate, index
//! efficiency; `--shards N` for the sharded front-end).
//! See `examples/engine_session.rs` for a guided session.

pub use ampc_model;
pub use ampc_primitives;
pub use cut_engine;
pub use cut_graph;
pub use cut_index;
pub use cut_tree;
pub use mincut_core;

/// The commonly used types and entry points in one import.
pub mod prelude {
    pub use ampc_model::{AmpcConfig, Dht, ExecMode, Executor, RunStats};
    pub use ampc_primitives::{connectivity, minimum_spanning_forest, root_forest, sample_sort};
    pub use cut_engine::{
        Engine, EngineConfig, EngineStats, GraphSpec, Mutation, Query, Request, Response, Workload,
        WorkloadConfig,
    };
    pub use cut_graph::{cut_weight, stoer_wagner, CutResult, Edge, Graph};
    pub use cut_tree::{low_depth_decomposition, validate_decomposition, Hld, RootedForest};
    pub use mincut_core::baselines::{karger, karger_stein, karger_stein_boosted};
    pub use mincut_core::model::{ampc_min_cut, ampc_smallest_singleton_cut, AmpcMinCutReport};
    pub use mincut_core::{
        approx_min_cut, apx_split, contraction_oracle, exponential_priorities,
        smallest_singleton_cut, KCutOptions, MinCutOptions,
    };
}
