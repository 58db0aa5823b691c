//! The server under test: a `cut-server` child process on a free loopback
//! port, killed and reaped however a run ends.

use std::fs;
use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cut_client::Connection;
use cut_engine::Response;

use crate::spec::{Spec, Stream, SHARDS};

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// `prctl` option: the signal the kernel sends the calling process when
/// its parent dies.
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// Scratch space under the working directory (`.bench_tmp/<pid>`),
/// removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    pub fn new() -> Result<Scratch, String> {
        let root = Path::new(".bench_tmp").join(std::process::id().to_string());
        // A killed earlier run with the same pid may have left files here;
        // a server must never recover them.
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).map_err(|e| format!("creating {}: {e}", root.display()))?;
        Ok(Scratch { root, next: AtomicU64::new(0) })
    }

    /// A path under the scratch root that no earlier call returned.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        self.root.join(format!("{tag}-{}", self.next.fetch_add(1, Ordering::Relaxed)))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
        // Fails, harmlessly, while another run still uses it.
        let _ = fs::remove_dir(".bench_tmp");
    }
}

/// A running `cut-server`. Dropping it kills and reaps the process and
/// removes its data directory.
pub struct Server {
    child: Child,
    /// Kept open so the server never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
    addr: String,
    data_dir: Option<PathBuf>,
}

/// Runs in the forked child before exec: ask the kernel to kill the
/// server if this process dies first, so a killed benchmark leaves no
/// server behind.
fn die_with_parent() -> std::io::Result<()> {
    // SAFETY: `prctl(PR_SET_PDEATHSIG, sig)` only sets an attribute of the
    // calling process and reads no memory of ours.
    unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL) };
    Ok(())
}

impl Server {
    /// Spawn `cut-server --shards 2` with its default engine configuration
    /// on a port the OS picks, and return once it prints its listening
    /// line: readiness without a fixed sleep.
    fn start(bin: &Path, data_dir: Option<PathBuf>) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--shards"]).arg(SHARDS.to_string());
        if let Some(dir) = &data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::piped());
        // SAFETY: the hook makes one async-signal-safe system call and
        // touches no state shared with this process, which is all
        // `pre_exec` asks of it.
        unsafe { cmd.pre_exec(die_with_parent) };
        let mut child = cmd.spawn().map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server { child, stdout, addr: String::new(), data_dir };
        let mut line = String::new();
        while server.addr.is_empty() {
            line.clear();
            match server.stdout.read_line(&mut line) {
                Ok(0) => return Err("cut-server exited before it was listening".into()),
                Ok(_) => {}
                Err(e) => return Err(format!("reading cut-server's output: {e}")),
            }
            if let Some(rest) = line.strip_prefix("cut-server listening on ") {
                server.addr = rest.split_whitespace().next().unwrap_or_default().to_string();
            }
        }
        Ok(server)
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The server's peak resident set size so far (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib * 1024.0 / 1e6)
            .ok_or_else(|| format!("no VmHWM line in {path}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(dir) = &self.data_dir {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

/// A fresh server with one handshaken connection per caller and every
/// prologue `Create` answered.
pub struct Session {
    pub conns: Vec<Connection>,
    /// The server's answers to each caller's prologue.
    pub prologue: Vec<Vec<Response>>,
    pub server: Server,
}

/// Bring a fresh server to the state the timed phase starts from, and
/// time that: from spawning the process until the last prologue `Create`
/// is answered.
pub fn set_up(
    bin: &Path,
    spec: &Spec,
    streams: &[Stream],
    scratch: &Scratch,
) -> Result<(Session, f64), String> {
    let start = Instant::now();
    let server = Server::start(bin, spec.data_dir.then(|| scratch.fresh("data")))?;
    let mut conns = Vec::with_capacity(streams.len());
    for c in 0..streams.len() {
        let conn = Connection::connect(server.addr())
            .map_err(|e| format!("caller {c} connecting to {}: {e}", server.addr()))?;
        conns.push(conn);
    }
    // Each caller pipelines its graphs' creates, so both shards build at once.
    let mut pending = Vec::with_capacity(streams.len());
    for (conn, stream) in conns.iter_mut().zip(streams) {
        let tickets: Result<Vec<_>, _> = stream.prologue.iter().map(|c| conn.submit(c)).collect();
        pending.push(tickets.map_err(|e| format!("sending creates: {e}"))?);
    }
    let mut prologue = Vec::with_capacity(streams.len());
    for tickets in pending {
        let answers: Result<Vec<_>, _> = tickets.into_iter().map(|t| t.wait()).collect();
        prologue.push(answers.map_err(|e| format!("awaiting creates: {e}"))?);
    }
    let secs = start.elapsed().as_secs_f64();
    Ok((Session { conns, prologue, server }, secs))
}
