//! The three workloads, how a workload is split between the callers, and
//! the metric tables `BENCHMARK.json` lists.

use std::collections::HashSet;

use cut_engine::{ActionMix, Request, Workload, WorkloadConfig};
use cut_graph::hash::fnv1a;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 7;
/// Shards of the server under test.
pub const SHARDS: usize = 2;
/// Callers, each with one request outstanding on its own connection. One
/// caller keeps a single request chain in flight: two chains on a 2-core
/// box contend for the cores with each other, and load from outside the
/// benchmark turns that into queueing, so their figures measured the
/// host's scheduler as much as the server.
pub const CALLERS: usize = 1;
/// Graphs per workload.
pub const GRAPHS: usize = 8;
/// Zipf exponent of graph popularity.
pub const ZIPF: f64 = 1.1;
/// A [`Length::Rate`] stream holds this many times the operations a run
/// is expected to need, so neither caller runs dry (the callers' shares of
/// the stream are uneven).
const STREAM_MARGIN: f64 = 3.0;

/// Workload names, in `BENCHMARK.json` order. `big-graphs` still runs by
/// name but is not listed: its per-kind p50s and throughput spread more
/// than 25% across seeds at this run length.
pub const WORKLOADS: [&str; 2] = ["hot-reads", "churn"];

/// `(name, unit)` of each end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("conn_p50_us", "us"),
    ("st_p50_ms", "ms"),
    ("singleton_p50_ms", "ms"),
    ("approx_p50_ms", "ms"),
    ("exact_p50_ms", "ms"),
    ("kcut_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("server_rss_mb", "MB"),
];

/// `(name, unit)` of each per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("request.decode_ns", "ns"),
    ("request.encode_ns", "ns"),
    ("server.hop_us", "us"),
    ("shard.queue_wait_p50_us", "us"),
    ("shard.queue_wait_p99_us", "us"),
    ("shard.serve_mean_us", "us"),
    ("engine.hit_rate", "ratio"),
    ("engine.hit_ns", "ns"),
    ("engine.write_us", "us"),
    ("engine.recomputes", "count"),
    ("engine.certified_skips", "count"),
    ("index.csr_builds", "count"),
    ("index.csr_reuse_rate", "ratio"),
    ("index.build_us", "us"),
    ("algo.exact_ms", "ms"),
    ("algo.approx_ms", "ms"),
    ("algo.singleton_ms", "ms"),
    ("algo.kcut_ms", "ms"),
    ("algo.st_ms", "ms"),
    ("algo.exact_calls", "count"),
    ("algo.approx_calls", "count"),
    ("algo.singleton_calls", "count"),
    ("algo.kcut_calls", "count"),
    ("algo.st_calls", "count"),
    ("algo.share", "ratio"),
    ("store.append_us", "us"),
    ("store.snapshots", "count"),
    ("trace.ops_per_s", "1/s"),
];

/// `(layer, the end-to-end metrics its per-layer metrics should move, the
/// workloads that load it / bypass it)`, printed beside the per-layer
/// table. big-graphs runs by name only.
pub const LAYER_MAP: &[(&str, &str, &str)] = &[
    ("request", "conn_p50_us, ops_per_s", "hot-reads / big-graphs"),
    ("server", "conn_p50_us, ops_per_s", "hot-reads / big-graphs"),
    ("shard", "conn_p50_us, query_p99_ms", "hot-reads / big-graphs"),
    (
        "engine",
        "hit rate and hit time: ops_per_s on hot-reads; write time: write_p50_us on churn; \
         recomputes and skips: exact_p50_ms and approx_p50_ms on churn",
        "hot-reads and churn / big-graphs",
    ),
    ("index", "the query p50s on churn", "churn / hot-reads"),
    ("algo", "the matching *_p50_ms, ops_per_s", "big-graphs and churn / hot-reads"),
    ("store", "write_p50_us, write_p99_us, ops_per_s", "churn / hot-reads and big-graphs"),
];

/// One workload: what the generator emits and how the server runs.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub mix_name: &'static str,
    pub mix: ActionMix,
    /// Vertices per graph at creation.
    pub n: usize,
    /// Run the server with `--data-dir` on a fresh directory.
    pub data_dir: bool,
    /// Leading generated operations replayed untimed, so first-touch cache
    /// misses and index builds stay out of the timed window.
    pub warmup: usize,
    pub length: Length,
}

/// How long a generated stream is.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// Operations per second the callers reach on a 2-core box. The stream
    /// holds enough of them for the whole run: it cannot repeat, since a
    /// mutation changes what every later operation means.
    Rate(f64),
    /// A read-only stream of this many operations. The warm-up sends every
    /// distinct query in it once, which fills the epoch cache, and the
    /// stream then repeats until the run ends. The timed window so reads
    /// the cache's steady state: while the cache still fills, the share of
    /// s-t-cut misses falls through the run, and the query tail moves with
    /// the run's speed and seed.
    Cycle(usize),
}

impl Spec {
    pub fn find(name: &str) -> Option<Spec> {
        let spec = match name {
            "hot-reads" => Spec {
                name: "hot-reads",
                mix_name: "read-only",
                mix: ActionMix::read_only(),
                n: 48,
                data_dir: false,
                warmup: 0,
                length: Length::Cycle(100_000),
            },
            "big-graphs" => Spec {
                name: "big-graphs",
                mix_name: "default",
                mix: ActionMix::default(),
                n: 200,
                data_dir: false,
                warmup: 100,
                length: Length::Rate(500.0),
            },
            "churn" => Spec {
                name: "churn",
                mix_name: "write-heavy",
                mix: ActionMix::write_heavy(),
                n: 48,
                data_dir: true,
                // About what every graph needs to contract to the
                // generator's 12-vertex floor: the graphs' seeded starting
                // shapes stay out of the timed window.
                warmup: 30_000,
                length: Length::Rate(15_000.0),
            },
            _ => return None,
        };
        Some(spec)
    }

    /// The smoke-test size: small graphs, so a one-second run still holds
    /// enough samples of every query kind.
    pub fn tiny(self) -> Spec {
        let length = match self.length {
            Length::Rate(rate) => Length::Rate(rate.max(20_000.0)),
            Length::Cycle(ops) => Length::Cycle(ops.min(20_000)),
        };
        Spec { n: 16, warmup: self.warmup.min(200), length, ..self }
    }

    /// Generate the seeded workload for a `seconds`-long run and split it
    /// between the callers.
    pub fn streams(&self, seed: u64, seconds: f64) -> Vec<Stream> {
        let (ops, cycle) = match self.length {
            Length::Rate(rate) => ((rate * seconds * STREAM_MARGIN).ceil() as usize, false),
            Length::Cycle(ops) => (ops, true),
        };
        let cfg = WorkloadConfig {
            ops: self.warmup + ops,
            seed,
            graphs: GRAPHS,
            initial_n: self.n,
            zipf_exponent: ZIPF,
            mix: self.mix,
            ..WorkloadConfig::default()
        };
        let workload = Workload::generate(&cfg);
        let mut streams: Vec<Stream> =
            (0..CALLERS).map(|_| Stream { cycle, ..Stream::default() }).collect();
        for request in workload.prologue {
            streams[caller_of(&request)].prologue.push(request);
        }
        for (i, request) in workload.operations.into_iter().enumerate() {
            let stream = &mut streams[caller_of(&request)];
            stream.warmup += usize::from(i < self.warmup);
            stream.ops.push(request);
        }
        if cycle {
            streams.iter_mut().for_each(Stream::fill_cache_first);
        }
        streams
    }
}

/// One caller's share of a workload: every request for the graphs that
/// [`caller_of`] gives it, in workload order, so per-graph order holds.
#[derive(Debug, Default)]
pub struct Stream {
    /// The graphs' `Create`s, sent during set-up.
    pub prologue: Vec<Request>,
    pub ops: Vec<Request>,
    /// How many leading `ops` are the untimed warm-up.
    pub warmup: usize,
    /// The `ops` after the warm-up repeat until the run ends.
    pub cycle: bool,
}

impl Stream {
    /// The `i`-th operation sent after the prologue, or `None` past the end
    /// of a stream that does not repeat.
    pub fn op(&self, i: usize) -> Option<&Request> {
        let repeating = self.ops.len() - self.warmup;
        match self.ops.get(i) {
            Some(op) => Some(op),
            None if self.cycle && repeating > 0 => {
                Some(&self.ops[self.warmup + (i - self.warmup) % repeating])
            }
            None => None,
        }
    }

    /// The first `count` operations sent after the prologue.
    pub fn sent(&self, count: usize) -> impl Iterator<Item = &Request> {
        (0..count).map_while(move |i| self.op(i))
    }

    /// Put every distinct query of a read-only stream in front of it, in
    /// order of first appearance, as its warm-up.
    fn fill_cache_first(&mut self) {
        let distinct: Vec<Request> = {
            let mut seen = HashSet::new();
            self.ops
                .iter()
                .filter(|request| match request {
                    Request::Query { name, query } => seen.insert((name.as_str(), *query)),
                    _ => panic!("a repeating stream must be read-only"),
                })
                .cloned()
                .collect()
        };
        self.warmup = distinct.len();
        self.ops.splice(0..0, distinct);
    }
}

/// The graph a request names (workloads hold only named requests).
pub fn graph_of(request: &Request) -> Option<&str> {
    match request {
        Request::Create { name, .. }
        | Request::Drop { name }
        | Request::Mutate { name, .. }
        | Request::Query { name, .. } => Some(name.as_str()),
        Request::ListGraphs | Request::Stats | Request::Metrics | Request::Slowlog => None,
    }
}

/// The caller that sends a request: the server's default shard for its
/// graph (FNV-1a of the name, mod the shard count, as `cut_engine::shard`
/// places it), spread evenly over the callers.
fn caller_of(request: &Request) -> usize {
    let shard = |name: &str| (fnv1a(name.as_bytes()) % SHARDS as u64) as usize;
    graph_of(request).map_or(0, |name| shard(name) * CALLERS / SHARDS)
}
