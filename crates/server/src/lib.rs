//! # `cut-server` — the network serving layer over [`cut_engine`]
//!
//! Turns the in-process `Request -> Response` contract into a TCP
//! service: a [`Server`] owns one [`ShardedEngine`] and a
//! `std::net::TcpListener`, accepts up to
//! [`ServerConfig::max_conns`] concurrent connections
//! (thread-per-connection — the vendoring constraints rule out an async
//! runtime, and the engine's shards are locks, not threads, so the
//! connection threads are the only serving threads), and speaks the
//! line-delimited wire protocol specified in `docs/PROTOCOL.md`:
//!
//! - the client opens with `HELLO cut/1`, the server answers `OK cut/1`
//!   (anything else — version mismatch, capacity, draining — is an
//!   `error …` line followed by close);
//! - each subsequent client line is one [`Request::to_trace_line`];
//! - each server line is one [`Response::to_trace_line`], **in
//!   per-connection submission order** — a session is a pipeline, not a
//!   lockstep RPC;
//! - a malformed request line costs exactly one `error protocol: …`
//!   response; the session (and every other session) keeps serving.
//!
//! Every connection serves into the *same* [`ShardedEngine`], and each
//! session is one thread: it reads a line, executes it under the lock of
//! the shard that owns the graph (every shard lock, for a broadcast),
//! logs it, and writes the answer, releasing the lock before touching the
//! socket. Concurrent sessions interleave at request granularity and run
//! in parallel when their graphs live on different shards;
//! per-connection order is call order. The server reads a connection's
//! next line only after answering the previous one, so a client that
//! never reads meets TCP backpressure, not a growing server queue. The
//! engine's shard count and [`ShardOptions`] (durability, telemetry) are
//! set at construction through [`ServerConfig`] and work unchanged
//! underneath the socket layer.
//!
//! **Graceful drain** ([`ServerHandle::shutdown`], the SIGTERM-equivalent
//! — the `cut-server` binary triggers it from a `shutdown` line on
//! stdin, since vendored-offline builds have no signal-handling crate):
//! new connections are refused with `error server draining`, open
//! sessions keep reading until their socket goes quiet for one poll
//! interval — so requests the client already flushed are still served and
//! answered — and [`Server::run`] returns the engine's final per-shard
//! stats once the last session closes.
//!
//! With [`ServerConfig::log_path`] set, the server also writes the same
//! `{seq:06} {request} -> {response}` operation log the stress harness
//! digests — each request draws its sequence number while it holds its
//! shard lock, so every shard's numbers follow its execution order, and a
//! single-connection session's server log is byte-identical to an
//! in-process run of the same request stream (the CI loopback gate).

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cut_engine::{EngineStats, Registry, Request, Response, ShardOptions, ShardedEngine};

/// The protocol version this server speaks. The handshake is strict
/// equality — see `docs/PROTOCOL.md` for how versions evolve.
pub const PROTOCOL_VERSION: &str = "cut/1";

/// How to run a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Shards of the underlying [`ShardedEngine`].
    pub shards: usize,
    /// Per-shard engine configuration plus placement flags.
    pub opts: ShardOptions,
    /// Accepted-connection cap: connection `max_conns + 1` is refused
    /// with an `error server at capacity …` line, not queued.
    pub max_conns: usize,
    /// A session with no traffic for this long is closed (an `error idle
    /// timeout …` line is sent best-effort first).
    pub idle_timeout: Duration,
    /// When set, append the deterministic `{seq:06} {request} ->
    /// {response}` operation log here (the stress-digest format).
    pub log_path: Option<String>,
    /// When set, write the merged telemetry registry as `cut-metrics/1`
    /// JSON to this path — every [`ServerConfig::metrics_every`] while
    /// running (tmp + atomic rename, so readers never see a torn file)
    /// and once more at drain, when the slow-query log is also dumped to
    /// stdout. The snapshot request takes no log sequence number, so the
    /// operation log stays byte-identical with or without telemetry
    /// export.
    pub metrics_out: Option<String>,
    /// Interval between periodic metrics snapshots (ignored without
    /// [`ServerConfig::metrics_out`]).
    pub metrics_every: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 1,
            opts: ShardOptions::default(),
            max_conns: 64,
            idle_timeout: Duration::from_secs(30),
            log_path: None,
            metrics_out: None,
            metrics_every: Duration::from_secs(5),
        }
    }
}

/// State shared by the acceptor and every session thread.
struct Shared {
    engine: ShardedEngine,
    /// The next operation-log sequence number, drawn under the shard
    /// lock(s) of the request it numbers.
    next_seq: AtomicU64,
    /// Live sessions: checked against `max_conns` and incremented in one
    /// step by the acceptor, decremented by each session as it ends.
    open_conns: AtomicUsize,
    draining: AtomicBool,
    idle_timeout: Duration,
    max_conns: usize,
    /// The `{seq:06} {request} -> {response}` operation log, if enabled.
    log: Option<Mutex<BufWriter<File>>>,
    /// Responses delivered over all sessions (reported at shutdown).
    served: AtomicU64,
    /// Periodic `cut-metrics/1` JSON export target, if enabled.
    metrics_out: Option<String>,
    metrics_every: Duration,
}

impl Shared {
    /// Execute one session request. Every request but an introspection
    /// draws a sequence number and writes one operation-log line.
    /// Introspections (`stats metrics`, `stats slowlog`) take neither:
    /// telemetry rides outside the op-log stream, so issuing it never
    /// perturbs a digest.
    fn serve(&self, request: Request) -> Response {
        if matches!(request, Request::Metrics | Request::Slowlog) {
            return self.engine.execute(request);
        }
        // The log line wants the compact Display form, not the wire form;
        // render it before the request moves, and only when it is logged.
        let logged = self.log.as_ref().map(|log| (log, request.to_string()));
        // Relaxed suffices: the shard lock orders the draws of the
        // requests it serializes, and the number publishes nothing else.
        let (seq, response) =
            self.engine.execute_with(request, || self.next_seq.fetch_add(1, Ordering::Relaxed));
        if let Some((log, display)) = logged {
            let mut w = log.lock().expect("log lock");
            let _ = writeln!(w, "{seq:06} {display} -> {response}");
        }
        self.served.fetch_add(1, Ordering::Relaxed);
        response
    }

    fn flush_log(&self) {
        if let Some(log) = &self.log {
            let _ = log.lock().expect("log lock").flush();
        }
    }

    /// Fetch the merged telemetry registry and write it as
    /// `cut-metrics/1` JSON (tmp + atomic rename) to `metrics_out`.
    fn write_metrics_snapshot(&self) {
        let Some(path) = &self.metrics_out else { return };
        let Response::Metrics { snapshot } = self.engine.execute(Request::Metrics) else {
            return;
        };
        let Ok(mut registry) = Registry::from_wire(&snapshot) else { return };
        // Serving-layer families ride along with the engine's.
        registry.inc("server_responses_served", self.served.load(Ordering::Relaxed));
        registry
            .set_gauge("server_open_connections", self.open_conns.load(Ordering::SeqCst) as u64);
        let tmp = format!("{path}.tmp");
        if std::fs::write(&tmp, registry.render_json()).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }
}

/// A bound, not-yet-running server. [`Server::run`] consumes it and
/// blocks until a [`ServerHandle::shutdown`] drain completes.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

/// Remote control for a running [`Server`] — cloneable, thread-safe, and
/// the hook tests and the binary's stdin watcher use to trigger the
/// graceful drain.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin the graceful drain (idempotent): refuse new connections,
    /// let open sessions serve and answer what their clients already sent
    /// (they exit at the first quiet poll interval), then let
    /// [`Server::run`] return. Sessions poll the socket with a short
    /// timeout, so no nudge is needed — a blocked session notices the
    /// drain within ~100ms.
    pub fn shutdown(&self) {
        if self.shared.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor, which is parked in accept().
        let _ = TcpStream::connect(self.addr);
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Server {
    /// Bind the listener and spin up the engine. Port 0 picks a free
    /// port — read it back with [`Server::local_addr`] (the tests' and
    /// loopback CI's pattern).
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<Server> {
        assert!(cfg.shards > 0, "a server needs at least one engine shard");
        assert!(cfg.max_conns > 0, "a server that accepts zero connections serves nobody");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let log = match &cfg.log_path {
            Some(path) => Some(Mutex::new(BufWriter::new(File::create(path)?))),
            None => None,
        };
        let shared = Arc::new(Shared {
            engine: ShardedEngine::with_options(cfg.shards, cfg.opts),
            next_seq: AtomicU64::new(0),
            open_conns: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            idle_timeout: cfg.idle_timeout,
            max_conns: cfg.max_conns,
            log,
            served: AtomicU64::new(0),
            metrics_out: cfg.metrics_out,
            metrics_every: cfg.metrics_every,
        });
        Ok(Server { listener, addr, shared })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for triggering shutdown from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { addr: self.addr, shared: Arc::clone(&self.shared) }
    }

    /// Accept and serve until [`ServerHandle::shutdown`] drains the
    /// server. Returns the engine's final per-shard stats (the same
    /// counters `ShardedEngine::stats` reports in process).
    pub fn run(self) -> Vec<EngineStats> {
        let mut sessions: Vec<JoinHandle<()>> = Vec::new();
        // Periodic telemetry export: snapshots every `metrics_every`
        // until the drain flag rises. Sleeps in short ticks so a drain
        // is noticed promptly.
        let exporter = self.shared.metrics_out.as_ref().map(|_| {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || {
                let mut since = Duration::ZERO;
                while !shared.draining.load(Ordering::SeqCst) {
                    std::thread::sleep(POLL_INTERVAL);
                    since += POLL_INTERVAL;
                    if since >= shared.metrics_every {
                        since = Duration::ZERO;
                        shared.write_metrics_snapshot();
                    }
                }
            })
        });
        for stream in self.listener.incoming() {
            let draining = self.shared.draining.load(Ordering::SeqCst);
            let Ok(stream) = stream else { continue };
            if draining {
                refuse(stream, "server draining");
                break;
            }
            // Reap finished sessions so the handle list stays bounded.
            sessions.retain(|s| !s.is_finished());
            let max = self.shared.max_conns;
            let admitted = self
                .shared
                .open_conns
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |open| {
                    (open < max).then_some(open + 1)
                })
                .is_ok();
            if !admitted {
                refuse(stream, &format!("server at capacity ({max} connections)"));
                continue;
            }
            let shared = Arc::clone(&self.shared);
            sessions.push(std::thread::spawn(move || {
                serve_session(stream, &shared);
                shared.open_conns.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        // Drain: every session answers what it has read and exits.
        for session in sessions {
            let _ = session.join();
        }
        if let Some(exporter) = exporter {
            let _ = exporter.join();
        }
        self.shared.flush_log();
        if self.shared.metrics_out.is_some() {
            // Final snapshot covers every served request, then the
            // slow-query log dumps to stdout — the drain-time flight
            // recorder.
            self.shared.write_metrics_snapshot();
            if let Response::Slowlog { snapshot } = self.shared.engine.execute(Request::Slowlog) {
                if let Ok(log) = cut_engine::SlowLog::from_wire(&snapshot) {
                    if !log.is_empty() {
                        println!("cut-server: slow-query log ({} spans):", log.entries().len());
                        print!("{}", log.render_text());
                    }
                }
            }
        }
        self.shared.engine.stats()
    }

    /// Total responses delivered so far (all sessions).
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }
}

/// Close an unwanted connection with one explanatory `error` line, so the
/// client's handshake fails typed instead of mysteriously.
fn refuse(stream: TcpStream, why: &str) {
    let mut w = BufWriter::new(stream);
    let _ = writeln!(w, "{}", Response::Error { message: why.to_string() }.to_trace_line());
    let _ = w.flush();
}

/// How long a session reader blocks per read attempt. Short enough that
/// a parked session notices a drain promptly; the configured idle
/// timeout is accumulated across consecutive quiet polls.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// What one polled line-read attempt produced.
enum ReadOutcome {
    /// A line is in the buffer (possibly unterminated, at EOF).
    Line,
    /// Clean end of stream.
    Eof,
    /// No traffic for the full idle timeout.
    Idle,
    /// The server is draining and the socket went quiet for one poll
    /// interval — everything the client flushed has been consumed.
    Drained,
    /// Hard socket error (reset etc.).
    Failed,
}

/// Read one line with the socket's short poll timeout, accumulating
/// quiet polls toward the idle timeout and watching the drain flag.
/// Partial lines survive across poll timeouts: `read_line` appends what
/// arrived, and the next attempt continues the same `line`.
fn read_line_polled(
    reader: &mut BufReader<&TcpStream>,
    line: &mut String,
    poll: Duration,
    shared: &Shared,
) -> ReadOutcome {
    let mut idle = Duration::ZERO;
    loop {
        let before = line.len();
        match reader.read_line(line) {
            // At EOF, a previously-buffered partial line is still a line.
            Ok(0) => {
                return if line.trim_end_matches(['\r', '\n']).is_empty() {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Line
                };
            }
            Ok(_) => return ReadOutcome::Line,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return ReadOutcome::Drained;
                }
                // A partial read is progress, not idleness.
                if line.len() > before {
                    idle = Duration::ZERO;
                } else {
                    idle += poll;
                    if idle >= shared.idle_timeout {
                        return ReadOutcome::Idle;
                    }
                }
            }
            Err(_) => return ReadOutcome::Failed,
        }
    }
}

/// A session's write half. A failed write marks the client gone; the
/// session goes on serving what it reads until EOF, so every request the
/// client sent is still executed and logged.
struct Replies<'a> {
    w: BufWriter<&'a TcpStream>,
    client_gone: bool,
}

impl Replies<'_> {
    fn send(&mut self, line: &str) {
        if !self.client_gone {
            let write = self.w.write_all(line.as_bytes()).and_then(|_| self.w.write_all(b"\n"));
            self.client_gone = write.is_err();
        }
    }

    fn flush(&mut self) {
        if !self.client_gone {
            self.client_gone = self.w.flush().is_err();
        }
    }
}

/// One session, on one thread: read a line, execute it, log it, write
/// the answer. The shard lock is released before the socket is touched,
/// so a slow reader never stalls a shard.
fn serve_session(stream: TcpStream, shared: &Shared) {
    stream.set_nodelay(true).ok();
    // Short socket timeout = the reader's poll tick; idle and drain
    // detection are layered on top in `read_line_polled`.
    let poll = POLL_INTERVAL.min(shared.idle_timeout);
    stream.set_read_timeout(Some(poll)).ok();
    let mut reader = BufReader::new(&stream);
    let mut replies = Replies { w: BufWriter::new(&stream), client_gone: false };

    // Handshake: exactly one HELLO line, answered before anything else.
    let mut line = String::new();
    let outcome = read_line_polled(&mut reader, &mut line, poll, shared);
    let hello_ok = matches!(outcome, ReadOutcome::Line)
        && line.trim_end_matches(['\r', '\n']) == format!("HELLO {PROTOCOL_VERSION}");
    if !hello_ok {
        let message = match outcome {
            ReadOutcome::Drained => "server draining".to_string(),
            ReadOutcome::Idle => format!("idle timeout ({:?})", shared.idle_timeout),
            _ => format!(
                "unsupported handshake (want 'HELLO {PROTOCOL_VERSION}'): {}",
                line.trim_end_matches(['\r', '\n'])
            ),
        };
        replies.send(&Response::Error { message }.to_trace_line());
        replies.flush();
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    replies.send(&format!("OK {PROTOCOL_VERSION}"));

    loop {
        // No complete request left in the buffer: push the answers so far
        // to the client (and the log file, so an external `cmp` right
        // after a client run never races buffered lines) before the next
        // read can block.
        if !reader.buffer().contains(&b'\n') {
            replies.flush();
            shared.flush_log();
        }
        line.clear();
        match read_line_polled(&mut reader, &mut line, poll, shared) {
            ReadOutcome::Line => {}
            // Draining and the socket went quiet: everything the client
            // flushed before the drain has been served and answered.
            ReadOutcome::Drained => break,
            ReadOutcome::Idle => {
                // Idle timeout: tell the client why, best-effort, and close.
                let message = format!("idle timeout ({:?})", shared.idle_timeout);
                replies.send(&Response::Error { message }.to_trace_line());
                break;
            }
            ReadOutcome::Eof | ReadOutcome::Failed => break,
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            continue; // blank keep-alive lines are tolerated
        }
        let response = match Request::from_trace_line(trimmed) {
            Ok(request) => shared.serve(request),
            // One malformed line costs one error response; the session
            // survives.
            Err(e) => Response::Error { message: format!("protocol: {e}") },
        };
        replies.send(&response.to_trace_line());
    }

    replies.flush();
    let _ = stream.shutdown(Shutdown::Both);
    shared.flush_log();
}
