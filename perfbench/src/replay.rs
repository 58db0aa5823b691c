//! The in-process replay: one `Engine` per caller with the server's engine
//! configuration and clock, fed exactly the requests the server answered.
//! It yields the reference every run is checked against; with tracing on
//! it also times each layer's public functions around every request.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use cut_engine::{Engine, EngineConfig, GraphStore, MonotonicClock, Query, Request, Response};
use cut_graph::maxflow::min_st_cut;
use cut_graph::{stoer_wagner, Graph};
use cut_store::{Store, StoreOptions};
use mincut_core::singleton::singleton_cut_side;
use mincut_core::{
    approx_min_cut, apx_split, exponential_priorities, smallest_singleton_cut, KCutOptions,
    MinCutOptions,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::spec::{graph_of, Stream};

/// How the engine served a replayed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A `Create` or a mutation.
    Write,
    /// A query answered from the epoch cache.
    Hit,
    /// A query that missed the cache: recomputed, or carried by a
    /// certificate.
    Miss,
}

/// One replayed request, timed from outside the engine.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub class: Class,
    /// `Engine::execute` wall time.
    pub execute_ns: u64,
    /// The algorithm call behind a recomputed cut query, re-timed on a
    /// snapshot: `(Query::kind_index, ns)`.
    pub algo: Option<(usize, u64)>,
    /// Inside the timed window (after the prologue and warm-up).
    pub timed: bool,
}

/// Layer timings from one caller's traced replay.
#[derive(Debug, Default)]
pub struct Trace {
    pub costs: Vec<Cost>,
    /// Re-timed algorithm calls whose answer differed from the engine's.
    pub algo_mismatches: usize,
    /// The replay engine's index-build time inside the timed window.
    pub index_ns_timed: u64,
    /// `GraphStore::log` on a scratch store: total time and appends.
    pub store_ns: u64,
    pub store_appends: u64,
    /// `Request::from_trace_line` and `Response::to_trace_line` over this
    /// caller's lines: total times and line count.
    pub decode_ns: u64,
    pub encode_ns: u64,
    pub lines: u64,
}

/// A caller's reference responses (prologue, then every executed op) and,
/// when traced, its layer timings.
pub struct Replay {
    pub responses: Vec<Response>,
    pub trace: Option<Trace>,
}

/// Replay `stream`'s prologue and its first `answered` ops, as they were
/// sent. `store_dir` turns tracing on; the scratch store for the direct
/// append timing lives there.
pub fn replay(
    stream: &Stream,
    answered: usize,
    store_dir: Option<PathBuf>,
) -> Result<Replay, String> {
    let cfg = EngineConfig::default();
    let mut engine = Engine::with_config(cfg.clone());
    // The server's shard workers attach the same clock, which is also what
    // makes the engine time its index builds.
    engine.set_clock(Arc::new(MonotonicClock::new()));
    let requests = stream.prologue.iter().chain(stream.sent(answered));
    let Some(dir) = store_dir else {
        let responses = requests.map(|request| engine.execute(request.clone())).collect();
        return Ok(Replay { responses, trace: None });
    };
    let store = Store::open(&dir, StoreOptions::default())
        .map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let timed_from = stream.prologue.len() + stream.warmup;
    let mut trace = Trace::default();
    let mut responses = Vec::new();
    let mut index_at_window = None;
    for (i, request) in requests.enumerate() {
        if i == timed_from {
            index_at_window = Some(index_build_ns(&engine));
        }
        let skips = engine.stats().cut_certified_skips;
        let owned = request.clone();
        let start = Instant::now();
        let response = engine.execute(owned);
        let execute_ns = elapsed_ns(start);

        if let Some(name) = graph_of(request) {
            let start = Instant::now();
            store.log(name, request, &response);
            trace.store_ns += elapsed_ns(start);
            trace.store_appends += 1;
        }

        let (class, algo) = match request {
            Request::Query { .. } if response.was_cached() => (Class::Hit, None),
            Request::Query { name, query } => {
                let recomputed = engine.stats().cut_certified_skips == skips
                    && !matches!(query, Query::Connectivity)
                    && !matches!(response, Response::Error { .. });
                let mut algo = None;
                if recomputed {
                    let graph = engine
                        .snapshot(name)
                        .ok_or_else(|| format!("graph '{name}' vanished from the replay"))?;
                    let (ns, same) = time_algorithm(&graph, *query, &cfg, &response);
                    trace.algo_mismatches += usize::from(!same);
                    algo = Some((query.kind_index(), ns));
                }
                (Class::Miss, algo)
            }
            _ => (Class::Write, None),
        };
        trace.costs.push(Cost { class, execute_ns, algo, timed: i >= timed_from });
        responses.push(response);
    }
    let index_now = index_build_ns(&engine);
    trace.index_ns_timed = index_now - index_at_window.unwrap_or(index_now);

    let lines: Vec<String> =
        stream.prologue.iter().chain(stream.sent(answered)).map(Request::to_trace_line).collect();
    let start = Instant::now();
    for line in &lines {
        let _ = black_box(Request::from_trace_line(black_box(line)));
    }
    trace.decode_ns = elapsed_ns(start);
    let start = Instant::now();
    for response in &responses {
        black_box(black_box(response).to_trace_line());
    }
    trace.encode_ns = elapsed_ns(start);
    trace.lines = lines.len() as u64;
    Ok(Replay { responses, trace: Some(trace) })
}

/// Time the call `Engine::execute`'s compute arm makes for `query`, with
/// the same options from `cfg`, and report whether it reproduces the
/// engine's (uncached) answer.
fn time_algorithm(
    g: &Graph,
    query: Query,
    cfg: &EngineConfig,
    engine_answer: &Response,
) -> (u64, bool) {
    let cut =
        |weight: u64, side_size: usize| Response::CutValue { weight, side_size, cached: false };
    let start = Instant::now();
    let answer = match query {
        Query::ExactMinCut => match disconnected_side(g) {
            Some(side) => cut(0, side),
            None => {
                let c = stoer_wagner(g);
                cut(c.weight, c.side.len())
            }
        },
        Query::ApproxMinCut { seed } => match disconnected_side(g) {
            Some(side) => cut(0, side),
            None => {
                let opts = MinCutOptions {
                    epsilon: cfg.epsilon,
                    base_size: cfg.base_size,
                    repetitions: cfg.repetitions,
                    seed,
                };
                let c = approx_min_cut(g, &opts);
                cut(c.weight, c.side.len())
            }
        },
        Query::SingletonCut { .. } if g.m() == 0 => cut(0, 1),
        Query::SingletonCut { seed } => {
            let prio = exponential_priorities(g, &mut SmallRng::seed_from_u64(seed));
            let c = smallest_singleton_cut(g, &prio);
            cut(c.weight, singleton_cut_side(g, &prio, c).len())
        }
        Query::KCut { k } => {
            let mut opts = KCutOptions::new(k);
            opts.exact_below = cfg.exact_below;
            opts.mincut.epsilon = cfg.epsilon;
            opts.mincut.base_size = cfg.base_size;
            Response::KCutValue { weight: apx_split(g, &opts).weight, parts: k, cached: false }
        }
        Query::StCutWeight { s, t } => cut(min_st_cut(g, s, t), 0),
        Query::Connectivity => unreachable!("connectivity runs no cut algorithm"),
    };
    let ns = elapsed_ns(start);
    (ns, black_box(answer) == *engine_answer)
}

/// Size of vertex 0's component when `g` is disconnected (the engine's
/// short-circuit answer for global cuts), or `None` when connected.
fn disconnected_side(g: &Graph) -> Option<usize> {
    let comp = g.components();
    comp.iter().any(|&c| c != 0).then(|| comp.iter().filter(|&&c| c == 0).count())
}

fn index_build_ns(engine: &Engine) -> u64 {
    engine.metrics_registry().counter("engine_index_build_nanos")
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}
