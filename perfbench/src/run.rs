//! One benchmark run: set up, drive the timed window, replay, check every
//! response, measure and report.

use std::path::{Path, PathBuf};

use cut_engine::{Histogram, Response, QUERY_KINDS};

use crate::drive::{self, Drive, MUTATION};
use crate::replay::{self, Class, Replay, Trace};
use crate::server::{self, Scratch};
use crate::spec::{
    Length, Spec, Stream, CALLERS, DEFAULT_SEED, END_TO_END, GRAPHS, LAYER_MAP, PER_LAYER, SHARDS,
    ZIPF,
};
use crate::stats::{hist_quantile, median, quantile, ratio, BEYOND};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// The timed window is cut into at most this many equal slices by send
/// time. `ops_per_s` and `query_p99_ms` are medians over the slices, so
/// load from outside the benchmark that covers a few slices barely moves
/// them.
const SLICES: usize = 10;
/// Query round trips a slice holds at least, on average: twice what a p99
/// needs.
const SLICE_QUERIES: usize = 2 * 100 * BEYOND;

/// `(query kind, time metric, call-count metric)` of each re-timed
/// algorithm.
const ALGORITHMS: [(&str, &str, &str); 5] = [
    ("exact-min-cut", "algo.exact_ms", "algo.exact_calls"),
    ("approx-min-cut", "algo.approx_ms", "algo.approx_calls"),
    ("singleton-cut", "algo.singleton_ms", "algo.singleton_calls"),
    ("k-cut", "algo.kcut_ms", "algo.kcut_calls"),
    ("st-cut", "algo.st_ms", "algo.st_calls"),
];

/// What to run.
pub struct Config<'a> {
    /// The `cut-server` binary under test.
    pub server: &'a Path,
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run found.
pub struct Outcome {
    /// No request failed and every re-timed algorithm call reproduced the
    /// engine's answer.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` of every end-to-end metric, or with tracing on
    /// of every per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The human-readable report, printed before the result line.
    pub report: String,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One measured value and the sample it rests on.
struct Measured {
    name: &'static str,
    value: f64,
    samples: String,
}

fn measured(name: &'static str, value: f64, samples: impl Into<String>) -> Measured {
    Measured { name, value, samples: samples.into() }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let spec = &cfg.spec;
    let mut streams = spec.streams(cfg.seed, cfg.seconds);
    let scratch = Scratch::new()?;

    let mut setup_s = Vec::with_capacity(SETUPS);
    let (mut session, secs) = server::set_up(cfg.server, spec, &streams, &scratch)?;
    setup_s.push(secs);
    for _ in 1..SETUPS {
        drop(session); // kills the previous server before the next one starts
        let (next, secs) = server::set_up(cfg.server, spec, &streams, &scratch)?;
        setup_s.push(secs);
        session = next;
    }
    let drive = drive::drive(&mut session.conns, &streams, cfg.seconds, session.server.addr())?;
    let rss_mb = session.server.peak_rss_mb()?;
    let prologues = std::mem::take(&mut session.prologue);
    drop(session);

    if let Some(c) = drive.callers.iter().position(|log| log.exhausted) {
        return Err(format!(
            "caller {c} ran out of generated requests before the deadline; \
             raise the {} rate in perfbench/src/spec.rs",
            spec.name
        ));
    }
    // Only what the server answered is replayed; free the unsent tail first.
    for (stream, log) in streams.iter_mut().zip(&drive.callers) {
        stream.ops.truncate(log.responses.len());
        stream.ops.shrink_to_fit();
    }
    let replays = replay_all(&streams, &drive, cfg.trace, &scratch)?;

    let mut check = Check::default();
    for (c, ((log, prologue), replay)) in
        drive.callers.iter().zip(&prologues).zip(&replays).enumerate()
    {
        let served = prologue.iter().chain(&log.responses);
        check.caller(c, served, &replay.responses, log.failure.as_deref());
    }
    let traces: Vec<&Trace> = replays.iter().filter_map(|r| r.trace.as_ref()).collect();
    let algo_mismatches: usize = traces.iter().map(|t| t.algo_mismatches).sum();

    let by_class = samples(&drive);
    let slices = Slices::new(&drive, cfg.seconds);
    let ops_per_s = slices.ops_per_s();
    let wall_s = drive.wall.as_secs_f64();

    let mut report = String::new();
    header(&mut report, cfg, &setup_s);
    let per_caller: Vec<String> = streams
        .iter()
        .zip(&drive.callers)
        .map(|(s, log)| {
            let timed = log.timed.len();
            format!("{} + {} + {timed}", s.prologue.len(), log.responses.len() - timed)
        })
        .collect();
    line(
        &mut report,
        format!("requests per caller (prologue + warm-up + timed): {}", per_caller.join(", ")),
    );
    check.report(&mut report, algo_mismatches);
    let e2e = end_to_end(&by_class, &slices, &setup_s, wall_s, rss_mb)?;
    let title = if cfg.trace { "end-to-end (this traced run)" } else { "end-to-end" };
    table(&mut report, title, END_TO_END, &e2e);
    writes(&mut report, &by_class[MUTATION]);
    let metrics = if cfg.trace {
        let layers = per_layer(&drive, &traces, ops_per_s)?;
        table(&mut report, "per-layer", PER_LAYER, &layers);
        line(&mut report, "end-to-end metrics each layer should move (loads / bypasses it):");
        for (layer, moves, workloads) in LAYER_MAP {
            line(&mut report, format!("  {layer:<8} {moves} ({workloads})"));
        }
        attribution(&mut report, &drive, &traces);
        line(
            &mut report,
            "tracing overhead: a traced run's server phase is an untraced run's (both take the \
             registry snapshots outside the timed window; the replay runs after the server \
             stops); compare trace.ops_per_s with the untraced ops_per_s",
        );
        emit(PER_LAYER, &layers)?
    } else {
        emit(END_TO_END, &e2e)?
    };
    Ok(Outcome {
        correct: check.failed == 0 && algo_mismatches == 0,
        attempted: check.attempted,
        failed: check.failed,
        metrics,
        report,
    })
}

/// Replay each caller's stream on its own thread, up to the last request
/// the server answered.
fn replay_all(
    streams: &[Stream],
    drive: &Drive,
    trace: bool,
    scratch: &Scratch,
) -> Result<Vec<Replay>, String> {
    let dirs: Vec<Option<PathBuf>> =
        streams.iter().map(|_| trace.then(|| scratch.fresh("replay-store"))).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .zip(&drive.callers)
            .zip(dirs)
            .map(|((stream, log), dir)| {
                let answered = log.responses.len();
                s.spawn(move || replay::replay(stream, answered, dir))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay thread panicked")).collect()
    })
}

/// The correctness gate: every server response against the replay's, byte
/// for byte.
#[derive(Default)]
struct Check {
    compared: u64,
    attempted: u64,
    failed: u64,
    examples: Vec<String>,
}

impl Check {
    fn caller<'a>(
        &mut self,
        c: usize,
        served: impl Iterator<Item = &'a Response>,
        reference: &[Response],
        failure: Option<&str>,
    ) {
        for (i, (got, want)) in served.zip(reference).enumerate() {
            let (got_line, want_line) = (got.to_trace_line(), want.to_trace_line());
            self.compared += 1;
            if matches!(got, Response::Error { .. }) || got_line != want_line {
                self.fail(format!(
                    "caller {c}, request {i}: server '{got_line}', replay '{want_line}'"
                ));
            }
        }
        self.attempted += reference.len() as u64;
        if let Some(e) = failure {
            self.attempted += 1;
            self.fail(format!("caller {c}: transport failure: {e}"));
        }
    }

    fn fail(&mut self, example: String) {
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(example);
        }
    }

    fn report(&self, report: &mut String, algo_mismatches: usize) {
        line(
            report,
            format!(
                "correctness: {} responses compared byte for byte with the in-process replay; \
                 {} of {} requests failed (error_share {})",
                self.compared,
                self.failed,
                self.attempted,
                ratio(self.failed, self.attempted)
            ),
        );
        for example in &self.examples {
            line(report, format!("  {example}"));
        }
        if algo_mismatches > 0 {
            line(
                report,
                format!(
                    "  {algo_mismatches} re-timed algorithm calls differ from the engine's answer"
                ),
            );
        }
    }
}

/// Timed round trips by class (`Query::kind_index`, or `MUTATION`),
/// ascending.
fn samples(drive: &Drive) -> Vec<Vec<u64>> {
    let mut by_class = vec![Vec::new(); MUTATION + 1];
    for log in &drive.callers {
        for sample in &log.timed {
            by_class[sample.class].push(sample.round_trip_ns);
        }
    }
    for class in &mut by_class {
        class.sort_unstable();
    }
    by_class
}

/// Total and count of the timed round trips.
fn round_trips(drive: &Drive) -> (u64, u64) {
    drive
        .callers
        .iter()
        .flat_map(|log| &log.timed)
        .fold((0, 0), |(total, n), sample| (total + sample.round_trip_ns, n + 1))
}

/// A server histogram restricted to the timed window.
fn window(drive: &Drive, name: &str) -> Histogram {
    let after = drive.after.histogram(name).cloned().unwrap_or_default();
    match drive.before.histogram(name) {
        Some(before) => after.diff(before),
        None => after,
    }
}

/// Index of a `QUERY_KINDS` label.
fn kind(label: &str) -> usize {
    QUERY_KINDS.iter().position(|k| *k == label).expect("a QUERY_KINDS label")
}

fn end_to_end(
    by_class: &[Vec<u64>],
    slices: &Slices,
    setup_s: &[f64],
    wall_s: f64,
    rss_mb: f64,
) -> Result<Vec<Measured>, String> {
    let timed: usize = by_class.iter().map(Vec::len).sum();
    Ok(vec![
        measured("setup_s", median(setup_s), format!("median of {} set-ups", setup_s.len())),
        measured(
            "ops_per_s",
            slices.ops_per_s(),
            format!(
                "median of {} {:.2}-s slices; {timed} ops in {wall_s:.3} s",
                slices.ops.len(),
                slices.secs
            ),
        ),
        percentile("conn_p50_us", &by_class[kind("connectivity")], 0.5, 1e3)?,
        percentile("st_p50_ms", &by_class[kind("st-cut")], 0.5, 1e6)?,
        percentile("singleton_p50_ms", &by_class[kind("singleton-cut")], 0.5, 1e6)?,
        percentile("approx_p50_ms", &by_class[kind("approx-min-cut")], 0.5, 1e6)?,
        percentile("exact_p50_ms", &by_class[kind("exact-min-cut")], 0.5, 1e6)?,
        percentile("kcut_p50_ms", &by_class[kind("k-cut")], 0.5, 1e6)?,
        slices.query_p99_ms()?,
        measured("server_rss_mb", rss_mb, "peak (VmHWM) at the end of the run"),
    ])
}

/// Percentile `q` of ascending round trips, in units of `unit_ns`
/// nanoseconds; an error when the run is too short to support it.
fn percentile(
    name: &'static str,
    sorted: &[u64],
    q: f64,
    unit_ns: f64,
) -> Result<Measured, String> {
    let ns = quantile(sorted, q).ok_or_else(|| {
        format!(
            "{name}: {} round trips leave fewer than {BEYOND} beyond the percentile; \
             the run is too short to report it",
            sorted.len()
        )
    })?;
    Ok(measured(name, ns as f64 / unit_ns, format!("{} round trips", sorted.len())))
}

/// The timed window cut into equal slices by send time.
struct Slices {
    /// Length of one slice, in seconds.
    secs: f64,
    /// Ops sent in each slice.
    ops: Vec<usize>,
    /// Each slice's query round trips, ascending.
    queries: Vec<Vec<u64>>,
}

impl Slices {
    /// As many slices as the queries allow, up to [`SLICES`].
    fn new(drive: &Drive, seconds: f64) -> Slices {
        let timed = || drive.callers.iter().flat_map(|log| &log.timed);
        let queries = timed().filter(|sample| sample.class != MUTATION).count();
        let count = (queries / SLICE_QUERIES).clamp(1, SLICES);
        let secs = seconds / count as f64;
        let mut slices = Slices { secs, ops: vec![0; count], queries: vec![Vec::new(); count] };
        for sample in timed() {
            let i = ((sample.sent_ns as f64 / 1e9 / secs) as usize).min(count - 1);
            slices.ops[i] += 1;
            if sample.class != MUTATION {
                slices.queries[i].push(sample.round_trip_ns);
            }
        }
        for queries in &mut slices.queries {
            queries.sort_unstable();
        }
        slices
    }

    fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self.ops.iter().map(|&ops| ops as f64 / self.secs).collect();
        median(&rates)
    }

    /// The median of the slices' query p99s, over the slices that hold
    /// enough round trips to report one.
    fn query_p99_ms(&self) -> Result<Measured, String> {
        let total: usize = self.queries.iter().map(Vec::len).sum();
        let p99s: Vec<f64> = self
            .queries
            .iter()
            .filter_map(|queries| quantile(queries, 0.99))
            .map(|ns| ns as f64 / 1e6)
            .collect();
        if p99s.is_empty() {
            return Err(format!(
                "query_p99_ms: {total} round trips leave fewer than {BEYOND} beyond the \
                 percentile in every slice; the run is too short to report it"
            ));
        }
        Ok(measured(
            "query_p99_ms",
            median(&p99s),
            format!("median of {} slices' p99; {total} round trips", p99s.len()),
        ))
    }
}

/// Mutation round trips, in the report only: hot-reads has no mutations.
fn writes(report: &mut String, sorted: &[u64]) {
    for (name, q) in [("write_p50_us", 0.5), ("write_p99_us", 0.99)] {
        let value = quantile(sorted, q)
            .map_or_else(|| "-".to_string(), |ns| format!("{:.6}", ns as f64 / 1e3));
        line(
            report,
            format!(
                "  {name:<26} {value:>18} us     {} mutation round trips (report only)",
                sorted.len()
            ),
        );
    }
}

/// Per-layer metrics of a traced run.
fn per_layer(drive: &Drive, traces: &[&Trace], ops_per_s: f64) -> Result<Vec<Measured>, String> {
    let delta = |name: &str| drive.after.counter(name).saturating_sub(drive.before.counter(name));
    let session = |name: &str| drive.after.counter(name);
    let total = |field: fn(&Trace) -> u64| -> u64 { traces.iter().map(|&t| field(t)).sum() };
    let costs = || traces.iter().flat_map(|t| t.costs.iter());
    let queue = window(drive, "request_queue_wait_nanos");
    let serve = window(drive, "request_serve_nanos");
    let queue_us = |q: f64| {
        hist_quantile(&queue, q).map(|ns| ns / 1e3).ok_or_else(|| {
            format!("shard queue wait: {} samples cannot support p{}", queue.count(), q * 100.0)
        })
    };
    let (rtt_ns, trips) = round_trips(drive);
    let lines = total(|t| t.lines);
    let hits: Vec<u64> = costs().filter(|c| c.class == Class::Hit).map(|c| c.execute_ns).collect();
    let write_ns: Vec<f64> =
        costs().filter(|c| c.class == Class::Write).map(|c| c.execute_ns as f64).collect();
    let queries = delta("engine_queries");
    let (builds, reuses) = (session("engine_csr_builds"), session("engine_csr_reuses"));
    let server_ns = ratio(queue.sum() + serve.sum(), serve.count());

    let mut out = vec![
        measured(
            "request.decode_ns",
            ratio(total(|t| t.decode_ns), lines),
            format!("{lines} request lines"),
        ),
        measured(
            "request.encode_ns",
            ratio(total(|t| t.encode_ns), lines),
            format!("{lines} response lines"),
        ),
        measured(
            "server.hop_us",
            (ratio(rtt_ns, trips) - server_ns) / 1e3,
            format!("{trips} round trips, {} served", serve.count()),
        ),
        measured("shard.queue_wait_p50_us", queue_us(0.5)?, format!("{} requests", queue.count())),
        measured("shard.queue_wait_p99_us", queue_us(0.99)?, format!("{} requests", queue.count())),
        measured(
            "shard.serve_mean_us",
            ratio(serve.sum(), serve.count()) / 1e3,
            format!("{} requests", serve.count()),
        ),
        measured(
            "engine.hit_rate",
            ratio(delta("engine_cache_hits"), queries),
            format!("{queries} queries"),
        ),
        measured(
            "engine.hit_ns",
            ratio(hits.iter().sum::<u64>(), hits.len() as u64),
            format!("{} replayed hits", hits.len()),
        ),
        measured(
            "engine.write_us",
            median(&write_ns) / 1e3,
            format!("median of {} replayed creates and mutations", write_ns.len()),
        ),
        measured("engine.recomputes", delta("engine_cut_recomputes") as f64, "timed window"),
        measured(
            "engine.certified_skips",
            delta("engine_cut_certified_skips") as f64,
            "timed window",
        ),
        measured("index.csr_builds", builds as f64, "whole session"),
        measured(
            "index.csr_reuse_rate",
            ratio(reuses, builds + reuses),
            format!("{} snapshot reads, whole session", builds + reuses),
        ),
        measured(
            "index.build_us",
            ratio(session("engine_index_build_nanos"), builds) / 1e3,
            format!("{builds} builds, whole session"),
        ),
    ];
    let mut algo = [(0u64, 0u64); QUERY_KINDS.len()];
    for (k, ns) in costs().filter_map(|c| c.algo) {
        algo[k].0 += ns;
        algo[k].1 += 1;
    }
    for (label, time, calls) in ALGORITHMS {
        let (ns, n) = algo[kind(label)];
        out.push(measured(time, ratio(ns, n) / 1e6, format!("{n} calls")));
        out.push(measured(calls, n as f64, "replayed recomputes"));
    }
    let execute_ns: u64 = costs().map(|c| c.execute_ns).sum();
    let algo_ns: u64 = algo.iter().map(|&(ns, _)| ns).sum();
    out.push(measured(
        "algo.share",
        ratio(algo_ns, execute_ns),
        "of replayed Engine::execute time",
    ));
    let appends = total(|t| t.store_appends);
    out.push(measured(
        "store.append_us",
        ratio(total(|t| t.store_ns), appends) / 1e3,
        format!("{appends} direct Store::log appends"),
    ));
    out.push(measured("store.snapshots", session("store_snapshots") as f64, "whole session"));
    out.push(measured("trace.ops_per_s", ops_per_s, "this traced run"));
    Ok(out)
}

/// Where the timed window's client-observed time went, layer by layer.
fn attribution(report: &mut String, drive: &Drive, traces: &[&Trace]) {
    let delta =
        |name: &str| drive.after.counter(name).saturating_sub(drive.before.counter(name)) as f64;
    let client = round_trips(drive).0 as f64;
    let queue = window(drive, "request_queue_wait_nanos").sum() as f64;
    let serve = window(drive, "request_serve_nanos").sum() as f64;
    let timed = || traces.iter().flat_map(|t| t.costs.iter()).filter(|c| c.timed);
    let execute = timed().map(|c| c.execute_ns).sum::<u64>() as f64;
    let algorithms = timed().filter_map(|c| c.algo).map(|(_, ns)| ns).sum::<u64>() as f64;
    let replay_index = traces.iter().map(|t| t.index_ns_timed).sum::<u64>() as f64;
    let (index, store) = (delta("engine_index_build_nanos"), delta("engine_store_append_nanos"));
    let engine_self = execute - algorithms - replay_index;
    let share = |part: f64, whole: f64| if whole > 0.0 { 100.0 * part / whole } else { 0.0 };
    line(report, "where the time went (timed window, share of client-observed round-trip time):");
    for (label, ns) in [
        ("server hop: client, TCP, sessions, codec", client - queue - serve),
        ("shard queue wait", queue),
        ("engine self time (replay)", engine_self),
        ("index build (server registry)", index),
        ("algorithms (replay)", algorithms),
        ("store append (server registry)", store),
        ("unattributed remainder of serve time", serve - engine_self - index - algorithms - store),
    ] {
        line(report, format!("  {label:<42} {:>12.3} ms {:>6.1}%", ns / 1e6, share(ns, client)));
    }
    line(report, format!("  {:<42} {:>12.3} ms", "client round trips", client / 1e6));
    line(
        report,
        format!(
            "checks: algorithms are {:.1}% of replayed engine time; hop + queue wait are {:.1}% \
             of the round trip; store append is {:.1}% of serve time",
            share(algorithms, execute),
            share(client - serve, client),
            share(store, serve)
        ),
    );
}

fn header(report: &mut String, cfg: &Config, setup_s: &[f64]) {
    let spec = &cfg.spec;
    line(
        report,
        format!(
            "perfbench: workload {} | seed {} (default {DEFAULT_SEED}; re-check a claim with \
             --seed N on an unused seed) | {} s timed | trace {}",
            spec.name,
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace)
        ),
    );
    line(
        report,
        format!(
            "server: {} --shards {SHARDS} on a free loopback port, default engine config (no \
             --batch, --rebalance, --steal, --latency-proxy or --kernel), a fresh process per \
             set-up",
            cfg.server.display()
        ),
    );
    line(
        report,
        if spec.data_dir {
            "store: --data-dir on a fresh directory; every applied request is WAL-appended, each \
             record flushed, never fsynced; default --snapshot-every"
        } else {
            "store: off (no --data-dir)"
        },
    );
    line(
        report,
        format!(
            "load: closed loop of {CALLERS} caller(s), each with one request outstanding on \
             its own connection; a graph's requests go to caller (default shard of the graph, \
             FNV-1a of the name mod {SHARDS}) mod {CALLERS}"
        ),
    );
    let length = match spec.length {
        Length::Rate(_) => format!("{} untimed warm-up ops", spec.warmup),
        Length::Cycle(ops) => format!(
            "{ops} ops repeated until the run ends, after an untimed warm-up that sends each \
             distinct query once and so fills the cache"
        ),
    };
    line(
        report,
        format!(
            "workload: {GRAPHS} graphs, n = {}, Zipf {ZIPF}, {} mix, {length}",
            spec.n, spec.mix_name
        ),
    );
    let min = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    let max = setup_s.iter().copied().fold(0.0, f64::max);
    line(
        report,
        format!(
            "set-up (spawn to last create answered): median {:.4} s of {}, min {min:.4} s, max \
             {max:.4} s",
            median(setup_s),
            setup_s.len()
        ),
    );
}

fn table(report: &mut String, title: &str, layout: &[(&str, &str)], values: &[Measured]) {
    line(report, format!("{title}:"));
    for (name, unit) in layout {
        if let Some(m) = values.iter().find(|m| m.name == *name) {
            line(report, format!("  {name:<26} {:>18.6} {unit:<6} {}", m.value, m.samples));
        }
    }
}

/// The result-line metrics for `layout`, in its order.
fn emit(
    layout: &[(&'static str, &'static str)],
    values: &[Measured],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    layout
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?
                .value;
            if value.is_finite() {
                Ok((name, value, unit))
            } else {
                Err(format!("metric {name} is not finite: {value}"))
            }
        })
        .collect()
}

fn line(report: &mut String, text: impl AsRef<str>) {
    report.push_str(text.as_ref());
    report.push('\n');
}
