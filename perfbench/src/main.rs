//! `perfbench`: the repository's end-to-end benchmark.
//!
//! A run generates one of three seeded workloads with
//! `cut_engine::Workload`, starts a fresh `cut-server --shards 2` on a free
//! loopback port, replays the workload from a closed-loop caller for
//! `--seconds`, checks every response byte for byte against an in-process
//! `Engine` replay, and prints a report whose last line is one JSON
//! object. With `--trace 1` the replay also times each layer's public
//! functions from this program, which gives the per-layer metrics, and
//! splits the round trip by layer. `perfbench/run.sh` builds the server and
//! this program from one checkout and runs it:
//!
//! ```text
//! bash perfbench/run.sh --workload hot-reads --seed 7 --seconds 10 --trace 0
//! bash perfbench/run.sh --smoke
//! ```

mod drive;
mod json;
mod replay;
mod run;
mod server;
mod spec;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use spec::{Spec, DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --server PATH --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       perfbench --server PATH --smoke
workloads: hot-reads, big-graphs, churn; --seed defaults to 7, --seconds to 10";

struct Args {
    server: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut server = None;
    let mut args = Args {
        server: PathBuf::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value()?)),
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    args.server = server.ok_or_else(|| format!("--server is required\n{USAGE}"))?;
    if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {}", args.seconds));
    }
    if !args.smoke && args.workload.is_none() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result =
        parse_args().and_then(|args| if args.smoke { smoke(&args.server) } else { bench(&args) });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One measured run: the report, then the result line.
fn bench(args: &Args) -> Result<(), String> {
    let name = args.workload.as_deref().unwrap_or_default();
    let spec = Spec::find(name).ok_or_else(|| format!("unknown workload '{name}'\n{USAGE}"))?;
    let outcome = run::run(&run::Config {
        server: &args.server,
        spec,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    })?;
    print!("{}", outcome.report);
    println!("{}", outcome.json());
    if outcome.correct {
        Ok(())
    } else {
        Err("the correctness check failed; see the report".into())
    }
}

/// The benchmark's own smoke test: every workload at a tiny size, traced
/// and untraced. `BENCHMARK.json` must list exactly the metrics this
/// program emits, every result line must carry each of them with its
/// unit, and no request may fail (error_share 0).
fn smoke(server: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text)?;
    let listed = |key: &str, field: &str| -> Result<Vec<String>, String> {
        let entries = doc
            .get(key)
            .and_then(json::Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
        entries
            .iter()
            .map(|entry| {
                entry
                    .get(field)
                    .and_then(json::Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("a {key} entry of BENCHMARK.json has no {field}"))
            })
            .collect()
    };
    if listed("workloads", "name")? != WORKLOADS {
        return Err("BENCHMARK.json lists other workloads than perfbench runs".into());
    }
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let in_file: Vec<(String, String)> =
            listed(key, "name")?.into_iter().zip(listed(key, "unit")?).collect();
        let emitted: Vec<(String, String)> =
            table.iter().map(|(name, unit)| (name.to_string(), unit.to_string())).collect();
        if in_file != emitted {
            return Err(format!("BENCHMARK.json {key} differs from the metrics perfbench emits"));
        }
    }
    for name in WORKLOADS {
        for trace in [false, true] {
            let spec = Spec::find(name).expect("every listed workload exists").tiny();
            let config = run::Config { server, spec, seed: DEFAULT_SEED, seconds: 1.0, trace };
            let outcome = run::run(&config)?;
            let result = json::parse(&outcome.json())?;
            let table = if trace { PER_LAYER } else { END_TO_END };
            for (metric, unit) in table {
                let got = result
                    .get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get("unit"))
                    .and_then(json::Value::as_str);
                if got != Some(*unit) {
                    return Err(format!(
                        "{name} (trace {}): metric {metric} is missing or not in {unit}",
                        u8::from(trace)
                    ));
                }
            }
            let failed = result.get("failed").and_then(json::Value::as_f64);
            let correct = result.get("correct").and_then(json::Value::as_bool);
            if failed != Some(0.0) || correct != Some(true) {
                return Err(format!(
                    "{name} (trace {}): error_share is not 0\n{}",
                    u8::from(trace),
                    outcome.report
                ));
            }
            println!(
                "smoke: {name} trace {}: {} metrics with units, {} requests, error_share 0",
                u8::from(trace),
                table.len(),
                outcome.attempted
            );
        }
    }
    println!("smoke: ok");
    Ok(())
}
