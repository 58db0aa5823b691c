//! The `cut-server` binary: serve a [`ShardedEngine`] over TCP.
//!
//! ```text
//! cargo run --release -p cut_server --bin cut-server -- \
//!     --addr 127.0.0.1:7641 --shards 4
//! ```
//!
//! Engine flags: `--shards N` (graphs route to shards by the hash of
//! their name) and `--cache-entries N`. A shard is a lock around its own
//! engine, not a thread: each connection's requests run on that
//! connection's thread, so the process runs the main thread, the stdin
//! watcher and one thread per open connection. A `stress --remote` run
//! leaves these flags to the server. The stress harness's `--kernel` is
//! in-process only and has no server flag.
//! Serving-layer flags:
//! `--addr HOST:PORT`, `--max-conns N`, `--idle-timeout-ms N`, and
//! `--log PATH` (the deterministic operation log, byte-comparable to an
//! in-process `stress --dump-log` run — the CI loopback gate).
//!
//! Durability (`docs/DURABILITY.md`): `--data-dir PATH` attaches a
//! `cut_store::Store` — every applied request is write-ahead logged, and
//! on startup the directory is scanned and every durable graph adopted
//! (faulted in lazily on first touch), so a killed server restarted on
//! the same directory resumes exactly where the log ends. With it:
//! `--snapshot-every N` (WAL records between snapshot compactions),
//! `--resident-cap N` (spill the coldest graphs beyond N to disk), and
//! `--fsync` (fsync appends/snapshots — a power-loss knob; plain crash
//! durability needs only the default flush).
//!
//! Shutdown: send the line `shutdown` on stdin (the SIGTERM-equivalent
//! available without a signal-handling dependency); the server refuses
//! new connections, answers every request its clients already sent, then
//! prints final per-shard stats and exits. Killing the process instead
//! also works — clients see the socket close — it just skips the stats.

use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

use cut_engine::{EngineConfig, ShardOptions};
use cut_server::{Server, ServerConfig};
use cut_store::{Store, StoreOptions};

struct Args {
    addr: String,
    shards: usize,
    cache_entries: usize,
    max_conns: usize,
    idle_timeout_ms: u64,
    log: Option<String>,
    data_dir: Option<String>,
    snapshot_every: Option<u64>,
    resident_cap: usize,
    fsync: bool,
    metrics_out: Option<String>,
    metrics_every_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let defaults = ServerConfig::default();
    let mut args = Args {
        addr: "127.0.0.1:7641".to_string(),
        shards: 1,
        cache_entries: EngineConfig::default().max_cache_entries,
        max_conns: defaults.max_conns,
        idle_timeout_ms: defaults.idle_timeout.as_millis() as u64,
        log: None,
        data_dir: None,
        snapshot_every: None,
        resident_cap: 0,
        fsync: false,
        metrics_out: None,
        metrics_every_ms: defaults.metrics_every.as_millis() as u64,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--addr" => args.addr = value(&mut i)?,
            "--shards" => {
                args.shards = value(&mut i)?.parse().map_err(|e| format!("--shards: {e}"))?
            }
            "--cache-entries" => {
                args.cache_entries =
                    value(&mut i)?.parse().map_err(|e| format!("--cache-entries: {e}"))?
            }
            "--max-conns" => {
                args.max_conns = value(&mut i)?.parse().map_err(|e| format!("--max-conns: {e}"))?
            }
            "--idle-timeout-ms" => {
                args.idle_timeout_ms =
                    value(&mut i)?.parse().map_err(|e| format!("--idle-timeout-ms: {e}"))?
            }
            "--log" => args.log = Some(value(&mut i)?),
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
            "--metrics-out" => args.metrics_out = Some(value(&mut i)?),
            "--metrics-every" => {
                args.metrics_every_ms =
                    value(&mut i)?.parse().map_err(|e| format!("--metrics-every: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "cut-server --addr HOST:PORT [--shards N] [--cache-entries N] [--max-conns N] \
                     [--idle-timeout-ms N] [--log PATH] [--data-dir PATH] \
                     [--snapshot-every N] [--resident-cap N] [--fsync] \
                     [--metrics-out PATH] [--metrics-every MS]\n\
                     --shards N splits the graphs over N locked shards; each connection is \
                     served on its own thread\n\
                     send 'shutdown' on stdin for a graceful drain"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    if args.shards == 0 || args.shards > 1024 {
        return Err(format!("--shards must be in 1..=1024 (got {})", args.shards));
    }
    if args.max_conns == 0 || args.max_conns > 4096 {
        return Err(format!("--max-conns must be in 1..=4096 (got {})", args.max_conns));
    }
    if args.idle_timeout_ms == 0 {
        return Err("--idle-timeout-ms must be at least 1".into());
    }
    if args.cache_entries == 0 {
        return Err("--cache-entries must be at least 1".into());
    }
    if args.metrics_every_ms == 0 {
        return Err("--metrics-every must be at least 1 (milliseconds)".into());
    }
    if args.metrics_out.is_none()
        && args.metrics_every_ms != defaults.metrics_every.as_millis() as u64
    {
        return Err("--metrics-every needs --metrics-out".into());
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
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let store = args.data_dir.as_ref().map(|dir| {
        let opts = StoreOptions {
            snapshot_every: args.snapshot_every.unwrap_or(StoreOptions::default().snapshot_every),
            fsync: args.fsync,
        };
        let store = match Store::open(dir, opts) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: opening data dir {dir}: {e}");
                std::process::exit(1);
            }
        };
        let r = store.recovery_report();
        println!(
            "cut-server: recovered {} graphs from {dir} ({} WAL records, {} torn tails \
             truncated, {} tombstones collected, {} orphan tmps removed)",
            r.graphs, r.wal_records, r.torn_tails, r.tombstones_gcd, r.orphan_tmps
        );
        Arc::new(store)
    });
    let cfg = ServerConfig {
        shards: args.shards,
        opts: ShardOptions {
            cfg: EngineConfig {
                max_cache_entries: args.cache_entries,
                resident_cap: args.resident_cap,
                ..EngineConfig::default()
            },
            store: store.map(|s| s as Arc<dyn cut_engine::GraphStore>),
            ..ShardOptions::default()
        },
        max_conns: args.max_conns,
        idle_timeout: Duration::from_millis(args.idle_timeout_ms),
        log_path: args.log.clone(),
        metrics_out: args.metrics_out.clone(),
        metrics_every: Duration::from_millis(args.metrics_every_ms),
    };

    let server = match Server::bind(&args.addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: binding {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    println!(
        "cut-server listening on {} (shards={} max-conns={} idle-timeout={}ms{})",
        server.local_addr(),
        args.shards,
        args.max_conns,
        args.idle_timeout_ms,
        args.log.as_deref().map(|p| format!(" log={p}")).unwrap_or_default(),
    );
    if let Some(path) = &args.metrics_out {
        println!(
            "cut-server: exporting cut-metrics/1 JSON to {path} every {}ms",
            args.metrics_every_ms
        );
    }

    // The SIGTERM-equivalent: a `shutdown` line on stdin triggers the
    // graceful drain. EOF on stdin (e.g. a backgrounded shell job) is
    // deliberately ignored — only the explicit word drains the server.
    let handle = server.handle();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if line.trim() == "shutdown" {
                println!("cut-server: shutdown requested, draining");
                handle.shutdown();
                return;
            }
        }
        // EOF: park rather than drain — killing the process is the other
        // supported stop, and it should stay an explicit choice.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    });

    let per_shard = server.run();
    let mut queries = 0u64;
    let mut mutations = 0u64;
    println!("cut-server: drained; per-shard totals:");
    for (shard, stats) in per_shard.iter().enumerate() {
        queries += stats.queries;
        mutations += stats.mutations;
        println!(
            "  shard {shard}: {} queries, {} mutations, hit rate {:.1}%",
            stats.queries,
            stats.mutations,
            stats.hit_rate() * 100.0
        );
    }
    println!("cut-server: {queries} queries + {mutations} mutations served; bye");
}
