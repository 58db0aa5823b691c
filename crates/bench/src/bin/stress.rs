//! Stress driver for the cut-query engine: a correctness check, not a
//! timer.
//!
//! Generates a seeded workload (see `cut_engine::workload`) and replays it
//! through the engine, reporting throughput, the engine's counters, and a
//! digest of the operation log. The full operation log (request + response
//! per op, no timing) is folded into an FNV-1a digest: two runs with the
//! same workload flags print the same digest, which is the determinism
//! check the harness tests rely on.
//!
//! Every workload replays **closed loop**: a bounded window of requests is
//! kept full as fast as the engine drains it. `--phases` presets and
//! `--trace-in` traces carry an arrival schedule (the trace format's
//! timestamps); the replay ignores it, since no response depends on when
//! a request arrives. Latency and throughput under load are measured by
//! `perfbench/`, against a live `cut-server`.
//!
//! `--shards 1` (the default) replays through the single-threaded
//! `Engine::execute` path; `--shards N` replays the same stream through an
//! N-shard `ShardedEngine`, one request at a time on the calling thread
//! (same responses, so the digest is identical for any shard count). The
//! digest is invariant under every flag that does not change the workload
//! itself.
//!
//! A workload can be saved and replayed byte-identically: `--trace-out
//! PATH` writes the timestamped request stream, `--trace-in PATH` replays
//! it (same requests, same digest).
//!
//! **Remote mode** (`--remote ADDR`, optionally `--connections N`): the
//! same seeded workload drives a `cut-server` over real TCP sockets
//! instead of an in-process engine. Requests route to connections by
//! graph name (the shard-router trick), so per-graph ordering is
//! preserved, and the log is assembled in submission order: the digest
//! is byte-identical to an in-process run of the same flags (the CI
//! loopback gate), at any connection count for workloads without
//! `list`/`stats` broadcasts, which the generator never emits. `--shards` and `--cache-entries` are *server*
//! properties under a network split: pass them to `cut-server`, not to a
//! `--remote` stress run.
//!
//! **Counters** (`docs/OBSERVABILITY.md`): every run finishes with a
//! `stats metrics` request — outside the digest-logged stream, so the
//! digest is byte-identical with and without it — and prints its cache,
//! index, cut-gate and durability lines from that `cut-metrics/1`
//! snapshot; under `--remote` the snapshot is the server's.
//! `--metrics-out PATH` writes the same snapshot as JSON, and
//! `--metrics-text PATH` in Prometheus text exposition.
//!
//! ```text
//! cargo run --release -p cut_bench --bin stress -- --ops 10000 --seed 7
//! cargo run --release -p cut_bench --bin stress -- --ops 10000 --seed 7 --shards 4
//! cargo run --release -p cut_bench --bin stress -- --ops 2000 --seed 7 --phases bursty
//! cargo run --release -p cut_bench --bin stress -- --ops 10000 --trace-out /tmp/run.trace
//! cargo run --release -p cut_bench --bin stress -- --trace-in /tmp/run.trace --shards 4
//! cargo run --release -p cut_server --bin cut-server -- --shards 4 &
//! cargo run --release -p cut_bench --bin stress -- --ops 2000 --seed 7 \
//!     --phases bursty --remote 127.0.0.1:7641 --connections 4 --metrics-out server.json
//! ```
//!
//! Flags: `--ops N` `--seed S` `--graphs G` `--initial-n N` `--zipf Z`
//! `--mix default|read-only|write-heavy` `--shards N`
//! `--phases single|bursty|diurnal|flash|write-storm|whale`
//! `--trace-out PATH` `--trace-in PATH` `--cache-entries N`
//! `--dump-log PATH` `--remote ADDR` `--connections N`
//! `--metrics-out PATH` `--metrics-text PATH`. See
//! `docs/WORKLOADS.md` for the workload model, `docs/SHARDING.md` for
//! routing and the determinism argument, and `docs/PROTOCOL.md` for the
//! wire format behind `--remote`.
//!
//! **Durable mode** (`--data-dir PATH`, plus `--snapshot-every N`,
//! `--resident-cap N`, `--fsync`): the engine write-ahead logs every
//! applied request into a `cut_store::Store`, recovering whatever the
//! directory already holds on startup, and the counter lines gain
//! `durability` and `recovery` (the `store_*` families). A graph
//! snapshots once `--snapshot-every` WAL records (default 64, 0 = never)
//! and as many WAL bytes as its last snapshot took sit past its
//! watermark. The digest is invariant under all of it, including a
//! `--resident-cap` far below `--graphs`: spilling cold graphs to disk
//! and faulting them back must never change a response. See
//! `docs/DURABILITY.md`.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cut_client::{ClientError, Connection, ReconnectPolicy};
use cut_engine::{
    ActionMix, Engine, EngineConfig, GraphStore, Registry, Request, Response, ShardOptions,
    ShardedEngine, Timeline, Workload, WorkloadConfig, QUERY_KINDS,
};
// FNV-1a over the log bytes — stable across runs and platforms.
use cut_graph::hash::fnv1a;
use cut_store::{Store, StoreOptions};

/// Base arrival rate (ops/sec) of every `--phases` preset. It sets the
/// arrival timestamps `--trace-out` writes, so changing it changes every
/// committed preset trace (though not a digest: a Poisson gap costs one
/// RNG draw at any rate, so the requests stay the same).
const PRESET_RATE: f64 = 20_000.0;

/// In-flight cap of every replay: deep enough to keep the server's shards
/// busy across the network, small enough that pending tickets never hold
/// more than a sliver of the log.
const WINDOW: usize = 1024;

struct Args {
    ops: usize,
    seed: u64,
    graphs: usize,
    initial_n: usize,
    zipf: f64,
    mix: ActionMix,
    mix_name: String,
    shards: usize,
    phases: String,
    trace_out: Option<String>,
    trace_in: Option<String>,
    cache_entries: usize,
    dump_log: Option<String>,
    remote: Option<String>,
    connections: usize,
    metrics_out: Option<String>,
    metrics_text: Option<String>,
    data_dir: Option<String>,
    snapshot_every: Option<u64>,
    resident_cap: usize,
    fsync: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ops: 10_000,
        seed: 7,
        graphs: 8,
        initial_n: 48,
        zipf: 1.1,
        mix: ActionMix::default(),
        mix_name: "default".to_string(),
        shards: 1,
        phases: "single".to_string(),
        trace_out: None,
        trace_in: None,
        cache_entries: EngineConfig::default().max_cache_entries,
        dump_log: None,
        remote: None,
        connections: 1,
        metrics_out: None,
        metrics_text: None,
        data_dir: None,
        snapshot_every: None,
        resident_cap: 0,
        fsync: false,
    };
    let mut connections_given = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--ops" => args.ops = value(&mut i)?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--seed" => args.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--graphs" => {
                args.graphs = value(&mut i)?.parse().map_err(|e| format!("--graphs: {e}"))?
            }
            "--initial-n" => {
                args.initial_n = value(&mut i)?.parse().map_err(|e| format!("--initial-n: {e}"))?
            }
            "--zipf" => args.zipf = value(&mut i)?.parse().map_err(|e| format!("--zipf: {e}"))?,
            "--mix" => {
                args.mix_name = value(&mut i)?;
                args.mix = match args.mix_name.as_str() {
                    "default" => ActionMix::default(),
                    "read-only" => ActionMix::read_only(),
                    "write-heavy" => ActionMix::write_heavy(),
                    other => return Err(format!("unknown mix '{other}'")),
                };
            }
            "--shards" => {
                args.shards = value(&mut i)?.parse().map_err(|e| format!("--shards: {e}"))?
            }
            "--phases" => args.phases = value(&mut i)?,
            "--trace-out" => args.trace_out = Some(value(&mut i)?),
            "--trace-in" => args.trace_in = Some(value(&mut i)?),
            "--cache-entries" => {
                args.cache_entries =
                    value(&mut i)?.parse().map_err(|e| format!("--cache-entries: {e}"))?
            }
            "--dump-log" => args.dump_log = Some(value(&mut i)?),
            "--remote" => args.remote = Some(value(&mut i)?),
            "--connections" => {
                connections_given = true;
                args.connections =
                    value(&mut i)?.parse().map_err(|e| format!("--connections: {e}"))?
            }
            "--metrics-out" => args.metrics_out = Some(value(&mut i)?),
            "--metrics-text" => args.metrics_text = Some(value(&mut i)?),
            "--data-dir" => args.data_dir = Some(value(&mut i)?),
            "--snapshot-every" => {
                args.snapshot_every =
                    Some(value(&mut i)?.parse().map_err(|e| format!("--snapshot-every: {e}"))?)
            }
            "--resident-cap" => {
                args.resident_cap =
                    value(&mut i)?.parse().map_err(|e| format!("--resident-cap: {e}"))?
            }
            "--fsync" => args.fsync = true,
            "--help" | "-h" => {
                println!(
                    "stress --ops N --seed S [--graphs G] [--initial-n N] [--zipf Z] \
                     [--mix default|read-only|write-heavy] [--shards N] \
                     [--phases single|bursty|diurnal|flash|write-storm|whale] \
                     [--trace-out PATH] [--trace-in PATH] [--cache-entries N] \
                     [--dump-log PATH] [--remote ADDR [--connections N]] \
                     [--metrics-out PATH] [--metrics-text PATH] \
                     [--data-dir PATH [--snapshot-every N] \
                     [--resident-cap N] [--fsync]]\n\
                     Replays the workload closed loop and prints its log digest; \
                     perfbench/ measures latency.\n\
                     --snapshot-every N (default 64, 0 = never): a graph snapshots once N WAL \
                     records and as many WAL bytes as its last snapshot took sit past it"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    // Validate up front so bad flags are CLI errors, not workload panics.
    if args.graphs == 0 {
        return Err("--graphs must be at least 1".into());
    }
    if args.initial_n < 8 {
        return Err("--initial-n must be at least 8".into());
    }
    // Each shard is a full engine; cap well past any plausible count so a
    // typo fails here instead of building thousands of engines.
    if args.shards == 0 || args.shards > 1024 {
        return Err(format!("--shards must be in 1..=1024 (got {})", args.shards));
    }
    if args.cache_entries == 0 {
        return Err("--cache-entries must be at least 1".into());
    }
    if !matches!(
        args.phases.as_str(),
        "single" | "bursty" | "diurnal" | "flash" | "write-storm" | "whale"
    ) {
        return Err(format!(
            "--phases must be single|bursty|diurnal|flash|write-storm|whale (got '{}')",
            args.phases
        ));
    }
    if connections_given && args.remote.is_none() {
        return Err("--connections only makes sense with --remote".into());
    }
    if args.connections == 0 || args.connections > 256 {
        return Err(format!("--connections must be in 1..=256 (got {})", args.connections));
    }
    if args.data_dir.is_none() {
        if args.resident_cap != 0 {
            return Err("--resident-cap needs --data-dir (spilled graphs live there)".into());
        }
        if args.snapshot_every.is_some() {
            return Err("--snapshot-every needs --data-dir".into());
        }
        if args.fsync {
            return Err("--fsync needs --data-dir".into());
        }
    }
    if args.remote.is_some() && args.data_dir.is_some() {
        // Durability is an engine property; under a network split it
        // belongs on the cut-server command line.
        return Err(
            "--remote drives a cut-server: durability flags (--data-dir, --snapshot-every, \
             --resident-cap, --fsync) belong on the cut-server command line, not here"
                .into(),
        );
    }
    if args.remote.is_some() {
        // Under a network split the engine lives in the server process;
        // accepting these here would silently configure nothing.
        if args.shards != 1 || args.cache_entries != EngineConfig::default().max_cache_entries {
            return Err("--remote drives a cut-server: --shards and --cache-entries belong on \
                 the cut-server command line, not here"
                .into());
        }
    }
    Ok(args)
}

/// Decode a `stats metrics` response into a registry. A malformed
/// snapshot is a harness/engine bug, not a workload error — abort loudly.
fn decode_metrics(response: Response) -> Registry {
    match response {
        Response::Metrics { snapshot } => Registry::from_wire(&snapshot).unwrap_or_else(|e| {
            eprintln!("error: undecodable metrics snapshot: {e}");
            std::process::exit(1);
        }),
        other => {
            eprintln!("error: stats metrics answered: {other}");
            std::process::exit(1);
        }
    }
}

/// Build (or load) the workload the flags describe.
fn build_workload(args: &Args) -> Result<Workload, String> {
    if let Some(path) = &args.trace_in {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading trace {path}: {e}"))?;
        return Workload::from_trace(&text).map_err(|e| format!("parsing trace {path}: {e}"));
    }
    let cfg = WorkloadConfig {
        ops: args.ops,
        seed: args.seed,
        graphs: args.graphs,
        initial_n: args.initial_n,
        zipf_exponent: args.zipf,
        mix: args.mix,
        // The whale preset's huge sparse g000: ~10× the default graph
        // size.
        whale_n: if args.phases == "whale" { 480 } else { 0 },
        ..WorkloadConfig::default()
    };
    let (ops, mix, zipf) = (args.ops, args.mix, args.zipf);
    let timeline = match args.phases.as_str() {
        "single" => return Ok(Workload::generate(&cfg)),
        "bursty" => Timeline::bursty(ops, PRESET_RATE, mix, zipf),
        "diurnal" => Timeline::diurnal(ops, PRESET_RATE, mix, zipf),
        "flash" => Timeline::flash(ops, PRESET_RATE, mix, zipf),
        "write-storm" => Timeline::write_storm(ops, PRESET_RATE, mix, zipf),
        "whale" => Timeline::whale(ops, PRESET_RATE, mix, zipf),
        other => return Err(format!("unknown phases preset '{other}'")),
    };
    Ok(Workload::generate_timeline(&cfg, &timeline))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    // Under --trace-in the generation flags do not describe the workload
    // (the trace does) — print only what is actually in effect.
    if let Some(path) = &args.trace_in {
        println!(
            "cut-engine stress: trace={path} shards={} cache-entries={}",
            args.shards, args.cache_entries
        );
    } else {
        println!(
            "cut-engine stress: ops={} seed={} graphs={} initial-n={} zipf={} mix={} shards={} \
             phases={} cache-entries={}",
            args.ops,
            args.seed,
            args.graphs,
            args.initial_n,
            args.zipf,
            args.mix_name,
            args.shards,
            args.phases,
            args.cache_entries,
        );
    }

    let t_gen = Instant::now();
    let workload = match build_workload(&args) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "{} {} requests ({} create + {} ops, {} phase(s)) in {:.1?}",
        if args.trace_in.is_some() { "loaded" } else { "generated" },
        workload.len(),
        workload.prologue.len(),
        workload.operations.len(),
        workload.phases.len(),
        t_gen.elapsed()
    );

    write_output(args.trace_out.as_ref(), "workload trace", || workload.to_trace());

    // Durable mode: open (and recover) the store before any engine runs.
    let store = args.data_dir.as_ref().map(|dir| {
        let opts = StoreOptions {
            snapshot_every: args.snapshot_every.unwrap_or(StoreOptions::default().snapshot_every),
            fsync: args.fsync,
        };
        match Store::open(dir, opts) {
            Ok(s) => Arc::new(s),
            Err(e) => {
                eprintln!("error: opening data dir {dir}: {e}");
                std::process::exit(1);
            }
        }
    });

    let engine_cfg = EngineConfig {
        max_cache_entries: args.cache_entries,
        resident_cap: args.resident_cap,
        ..EngineConfig::default()
    };
    let report = if let Some(addr) = &args.remote {
        println!("remote: driving cut-server at {addr} over {} connection(s)", args.connections);
        run_remote(&workload, addr, args.connections)
    } else if args.shards == 1 {
        run_single(&workload, engine_cfg, store)
    } else {
        let opts = ShardOptions {
            cfg: engine_cfg,
            store: store.map(|s| s as Arc<dyn GraphStore>),
            ..ShardOptions::default()
        };
        run_sharded(&workload, args.shards, opts)
    };

    println!();
    println!(
        "replayed {} ops in {:.3}s  ({:.0} ops/sec, {} errors)",
        workload.len(),
        report.wall.as_secs_f64(),
        workload.len() as f64 / report.wall.as_secs_f64(),
        report.errors
    );
    print_counters(&report.metrics);

    let digest = fnv1a(report.log.as_bytes());
    println!();
    println!("log digest: {:#018x}  ({} log bytes)", digest, report.log.len());
    println!("(re-run with the same --seed: the digest must not change)");

    write_output(args.dump_log.as_ref(), "operation log", || report.log);
    write_output(args.metrics_out.as_ref(), "metrics snapshot (cut-metrics/1)", || {
        report.metrics.render_json()
    });
    write_output(args.metrics_text.as_ref(), "metrics exposition (Prometheus text)", || {
        report.metrics.render_text()
    });
}

/// Write `contents()` to `path` when its flag was given; a failed write
/// exits 1.
fn write_output(path: Option<&String>, what: &str, contents: impl FnOnce() -> String) {
    let Some(path) = path else { return };
    if let Err(e) = std::fs::write(path, contents()) {
        eprintln!("error: writing {path}: {e}");
        std::process::exit(1);
    }
    println!("{what} written to {path}");
}

/// The counter lines, read from the end-of-run `cut-metrics/1` snapshot —
/// the numbers `--metrics-out` writes, so a printed line and a CI gate
/// never disagree. Under `--remote` they are the server's counters.
fn print_counters(m: &Registry) {
    let c = |name: &str| m.counter(name);
    let pct = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64 * 100.0
        }
    };
    println!(
        "cache: {} hits / {} misses over {} queries  (hit rate {:.1}%, {} lru evictions)",
        c("engine_cache_hits"),
        c("engine_cache_misses"),
        c("engine_queries"),
        pct(c("engine_cache_hits"), c("engine_queries")),
        c("engine_lru_evictions"),
    );

    let (builds, reuses) = (c("engine_csr_builds"), c("engine_csr_reuses"));
    println!();
    println!(
        "index: csr builds={builds} reuses={reuses} (reuse rate {:.1}%)",
        pct(reuses, builds + reuses)
    );
    println!(
        "cut gate: recomputes={} certified-skips={}",
        c("engine_cut_recomputes"),
        c("engine_cut_certified_skips"),
    );
    let per_kind: Vec<(&str, u64, u64)> = QUERY_KINDS
        .iter()
        .map(|kind| {
            let builds = c(&format!("engine_csr_builds_{kind}"));
            (*kind, builds, c(&format!("engine_csr_reuses_{kind}")))
        })
        .filter(|&(_, builds, avoided)| builds + avoided > 0)
        .collect();
    if !per_kind.is_empty() {
        println!("{:<16} {:>8} {:>8} {:>9}", "action", "builds", "avoided", "avoid%");
        for (kind, builds, avoided) in per_kind {
            println!(
                "{kind:<16} {builds:>8} {avoided:>8} {:>8.1}%",
                pct(avoided, builds + avoided)
            );
        }
    }

    // The store families exist only when the engine that answered is
    // durable (this process's --data-dir, or the server's).
    if m.counters().any(|(name, _)| name.starts_with("store_")) {
        println!();
        println!(
            "durability: {} WAL appends, {} snapshots + {} compactions, {} spills / {} \
             fault-ins, {} records replayed",
            c("store_wal_appends"),
            c("store_snapshots"),
            c("store_compactions"),
            c("store_spills"),
            c("store_fault_ins"),
            c("store_replayed"),
        );
        println!(
            "recovery: {} graphs adopted, {} WAL records, {} torn tails truncated, {} \
             tombstones collected, {} orphan tmps removed",
            c("store_recovered_graphs"),
            c("store_recovered_wal_records"),
            c("store_recovery_torn_tails"),
            c("store_recovery_tombstones_gcd"),
            c("store_recovery_orphan_tmps"),
        );
    }
}

/// What a replay produced, whichever execution front ran it.
struct RunReport {
    /// The deterministic `index request -> response` log.
    log: String,
    errors: usize,
    wall: Duration,
    /// End-of-run telemetry snapshot (the `stats metrics` answer): engine
    /// and store counters, plus the request lifecycle histograms on the
    /// sharded and remote paths. The metrics request that produces it
    /// rides outside the digest-logged stream, so the log is
    /// byte-identical with and without collection.
    metrics: Registry,
}

/// Replay the workload with up to [`WINDOW`] requests in flight: `submit`
/// each request in order and `wait` on the oldest whenever the window is
/// full. Responses are logged in submission order, so every front yields
/// the same log (and digest). Returns the log, the error count and the
/// wall time.
fn replay<T>(
    workload: &Workload,
    mut submit: impl FnMut(usize, &Request) -> T,
    mut wait: impl FnMut(usize, T) -> Response,
) -> (String, usize, Duration) {
    let mut log = String::with_capacity(workload.len() * 64);
    let mut errors = 0usize;
    let mut inflight: VecDeque<(usize, &Request, T)> = VecDeque::new();
    let mut drain = |(i, request, pending): (usize, &Request, T)| {
        let response = wait(i, pending);
        if matches!(response, Response::Error { .. }) {
            errors += 1;
        }
        // The log line carries no timing, so it is identical across runs
        // with the same seed.
        log.push_str(&format!("{i:06} {request} -> {response}\n"));
    };

    let t_run = Instant::now();
    for (i, request) in workload.all_requests().enumerate() {
        inflight.push_back((i, request, submit(i, request)));
        if inflight.len() >= WINDOW {
            drain(inflight.pop_front().expect("non-empty window"));
        }
    }
    inflight.into_iter().for_each(&mut drain);
    (log, errors, t_run.elapsed())
}

/// Replay through the single-threaded `Engine::execute` path. The engine
/// answers at submission, so the window only holds finished responses.
fn run_single(workload: &Workload, cfg: EngineConfig, store: Option<Arc<Store>>) -> RunReport {
    let mut engine = Engine::with_config(cfg);
    if let Some(store) = store {
        // A single engine owns every durable graph; adopt them all so a
        // re-run on a populated --data-dir resumes where the log ends.
        engine.attach_store(Arc::clone(&store) as Arc<dyn GraphStore>);
        for name in store.names() {
            engine.adopt_stored(&name);
        }
    }
    let (log, errors, wall) =
        replay(workload, |_, request| engine.execute(request.clone()), |_, response| response);
    // Snapshot outside the logged stream: the single-threaded path has no
    // shard spans, but engine and store counters still export.
    let metrics = decode_metrics(engine.execute(Request::Metrics));
    RunReport { log, errors, wall, metrics }
}

/// Replay through an N-shard `ShardedEngine`. Like the single engine, it
/// answers on the calling thread, so the window only holds finished
/// responses.
fn run_sharded(workload: &Workload, shards: usize, opts: ShardOptions) -> RunReport {
    let engine = ShardedEngine::with_options(shards, opts);
    let (log, errors, wall) =
        replay(workload, |_, request| engine.execute(request.clone()), |_, response| response);
    // A metrics broadcast after the last logged op: the merged snapshot
    // covers every named request of the run, and the request itself rides
    // outside the digest-logged stream.
    let metrics = decode_metrics(engine.execute(Request::Metrics));
    RunReport { log, errors, wall, metrics }
}

/// Abort a remote run: a [`ClientError`] means the connection (or the
/// server) is gone, and the response stream — hence the log and digest —
/// can no longer be completed truthfully.
fn fatal_remote(op: usize, e: &ClientError) -> ! {
    eprintln!("error: remote run failed at op {op}: {e}");
    std::process::exit(1);
}

/// Which connection serves `request`: per-graph affinity via the same
/// FNV-1a trick the shard router uses, so every request touching a graph
/// rides one connection and per-graph ordering survives the fan-out.
/// Broadcasts (`list`, `stats` and its `metrics`/`slowlog` subcommands)
/// ride connection 0.
fn conn_for(request: &Request, connections: usize) -> usize {
    match request {
        Request::Create { name, .. }
        | Request::Drop { name }
        | Request::Mutate { name, .. }
        | Request::Query { name, .. } => (fnv1a(name.as_bytes()) % connections as u64) as usize,
        Request::ListGraphs | Request::Stats | Request::Metrics | Request::Slowlog => 0,
    }
}

/// Dial `connections` sockets, retrying with backoff so a freshly
/// backgrounded `cut-server` has time to bind (the CI loopback pattern).
fn open_connections(addr: &str, connections: usize) -> Vec<Connection> {
    let policy = ReconnectPolicy {
        attempts: 8,
        base_delay: Duration::from_millis(50),
        max_delay: Duration::from_secs(1),
    };
    (0..connections)
        .map(|c| {
            Connection::connect_with_retry(addr, &policy).unwrap_or_else(|e| {
                eprintln!("error: connecting to {addr} (connection {c}): {e}");
                std::process::exit(1);
            })
        })
        .collect()
}

/// Replay against a remote `cut-server`: the window holds tickets that
/// resolve over the wire. Each connection's stream is in order, so
/// waiting across connections in global submission order is safe.
fn run_remote(workload: &Workload, addr: &str, connections: usize) -> RunReport {
    let mut conns = open_connections(addr, connections);
    let (log, errors, wall) = replay(
        workload,
        |i, request| {
            let c = conn_for(request, connections);
            conns[c].submit(request).unwrap_or_else(|e| fatal_remote(i, &e))
        },
        |i, ticket| ticket.wait().unwrap_or_else(|e| fatal_remote(i, &e)),
    );
    // The server-merged telemetry snapshot, fetched after the last logged
    // op so it covers the whole run (and never enters the log).
    let last = workload.len();
    let metrics = decode_metrics(
        conns[0].execute(&Request::Metrics).unwrap_or_else(|e| fatal_remote(last, &e)),
    );
    for conn in conns {
        conn.close();
    }
    RunReport { log, errors, wall, metrics }
}
