//! # `cut-client` — a synchronous client for the `cut-server` wire protocol
//!
//! The network counterpart of driving [`cut_engine`] in process: a
//! [`Connection`] speaks the line-delimited protocol of the `cut_server`
//! crate (see `docs/PROTOCOL.md`) over one TCP socket, and mirrors the
//! in-process API shape —
//!
//! - [`Connection::execute`]`(&Request) -> Result<Response, ClientError>`
//!   is the blocking drop-in for `Engine::execute`;
//! - [`Connection::submit`]` -> `[`RemoteTicket`] pipelines many requests
//!   on one socket, so the client never waits a round trip between them.
//!   Responses arrive **in submission order** per connection (the server
//!   guarantees it), so a ticket resolves exactly when every earlier
//!   ticket on the same connection has resolved.
//!
//! Requests serialize with [`Request::to_trace_line`] and responses parse
//! with [`Response::from_trace_line`] — the same lossless trace codec the
//! stress harness records workloads in, so the wire adds no second
//! serialization layer to drift from the first.
//!
//! A background reader thread owns the receive half of the socket: it
//! parses each response line and hands it to the oldest outstanding
//! ticket. Waiting on a [`RemoteTicket`] therefore *blocks* on a channel,
//! not a spin loop.
//!
//! Connection establishment can retry with exponential backoff
//! ([`Connection::connect_with_retry`], [`ReconnectPolicy`]); established
//! connections do not transparently reconnect — a mid-stream failure
//! surfaces as a typed [`ClientError`] on every outstanding and subsequent
//! ticket, and the caller decides whether replaying is safe (mutations
//! may or may not have been applied).
//!
//! ```no_run
//! use cut_client::Connection;
//! use cut_engine::{GraphSpec, Query, Request, Response};
//!
//! let mut conn = Connection::connect("127.0.0.1:7641")?;
//! conn.execute(&Request::Create { name: "ring".into(), spec: GraphSpec::Cycle { n: 16 } })?;
//! let r = conn.execute(&Request::Query { name: "ring".into(), query: Query::ExactMinCut })?;
//! assert!(matches!(r, Response::CutValue { weight: 2, .. }));
//! # Ok::<(), cut_client::ClientError>(())
//! ```

use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

pub use cut_engine::{Request, Response};

/// The protocol version this client speaks; sent in the `HELLO` line and
/// required verbatim in the server's `OK` greeting. Version negotiation is
/// all-or-nothing: a server answering any other version is a handshake
/// error (see `docs/PROTOCOL.md` for the versioning rules).
pub const PROTOCOL_VERSION: &str = "cut/1";

/// Why a client call failed. Every error is *sticky* for the connection it
/// came from: once a ticket reports `Io`, `Protocol`, or
/// `ConnectionClosed`, the connection's framing can no longer be trusted
/// and every later ticket fails too — reconnect and replay at the caller's
/// discretion.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (connect, read, or write).
    Io(std::io::Error),
    /// The server's greeting was missing, malformed, a version mismatch,
    /// or an explicit refusal (capacity, draining).
    Handshake(String),
    /// A response line arrived but did not parse as any [`Response`].
    Protocol(String),
    /// The server closed the connection (EOF) with requests outstanding,
    /// or the connection was already torn down.
    ConnectionClosed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Handshake(msg) => write!(f, "handshake failed: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::ConnectionClosed => write!(f, "connection closed by server"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// How [`Connection::connect_with_retry`] paces reconnection attempts:
/// `attempts` tries total, sleeping `base_delay * 2^i` (capped at
/// `max_delay`) between consecutive failures. Only I/O failures retry —
/// a reachable server that *refuses* (version mismatch, capacity) fails
/// immediately, since backing off cannot fix it.
///
/// # Examples
///
/// ```
/// use cut_client::ReconnectPolicy;
/// use std::time::Duration;
///
/// let policy = ReconnectPolicy::default();
/// assert!(policy.delay(0) < policy.delay(3));
/// assert!(policy.delay(30) <= policy.max_delay); // growth is capped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Total connection attempts before giving up (at least 1).
    pub attempts: u32,
    /// Sleep after the first failure; doubles per subsequent failure.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            attempts: 6,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(1),
        }
    }
}

impl ReconnectPolicy {
    /// The backoff sleep after failure number `attempt` (0-based):
    /// `base_delay * 2^attempt`, saturating at `max_delay`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_delay.checked_mul(factor).unwrap_or(self.max_delay).min(self.max_delay)
    }
}

/// A pending response from [`Connection::submit`].
///
/// The connection's reader thread resolves tickets in submission order;
/// the ticket is just the receiving end of that handoff, so waiting blocks
/// on a channel rather than polling the socket.
#[must_use = "a ticket holds a pending response; wait() on it to collect"]
pub struct RemoteTicket {
    rx: Receiver<Result<Response, ClientError>>,
    /// Set once [`RemoteTicket::wait`] has collected the response; a
    /// ticket dropped with this still `false` was abandoned and counts
    /// toward [`Connection::abandoned_tickets`].
    resolved: bool,
    abandoned: Option<Arc<AtomicU64>>,
}

impl RemoteTicket {
    /// Block until the response (or the connection's failure) arrives.
    pub fn wait(mut self) -> Result<Response, ClientError> {
        self.resolved = true;
        self.rx.recv().unwrap_or(Err(ClientError::ConnectionClosed))
    }
}

impl Drop for RemoteTicket {
    fn drop(&mut self) {
        if !self.resolved {
            if let Some(counter) = &self.abandoned {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Handoff slot the writer registers for each submitted request; the
/// reader thread fills slots strictly in registration order, which is how
/// per-connection response order becomes per-ticket resolution order.
type Slot = Sender<Result<Response, ClientError>>;

/// One established, handshaken session with a `cut-server`.
///
/// Dropping the connection half-closes the socket (FIN on the write side)
/// so the server drains cleanly; responses still in flight continue to
/// resolve outstanding tickets, because the reader thread stays alive
/// until the last registered ticket is served or the socket closes.
pub struct Connection {
    writer: BufWriter<TcpStream>,
    /// Registers a response slot with the reader thread. `None` once the
    /// connection is known broken.
    pending: Option<Sender<Slot>>,
    /// Tickets from this connection dropped before any wait collected
    /// their response. The reader thread still reads and discards those
    /// responses (framing survives), but the answers were thrown away.
    abandoned: Arc<AtomicU64>,
}

impl Connection {
    /// Connect and handshake, once. See [`Connection::connect_with_retry`]
    /// for the backoff variant.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Connection, ClientError> {
        let stream = TcpStream::connect(addr)?;
        Connection::handshake(stream)
    }

    /// Connect with retries: I/O failures (server not up yet, connection
    /// refused) back off per `policy` and try again; handshake refusals
    /// fail immediately.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        policy: &ReconnectPolicy,
    ) -> Result<Connection, ClientError> {
        let attempts = policy.attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts {
            match TcpStream::connect(addr.clone()) {
                Ok(stream) => return Connection::handshake(stream),
                Err(e) => last_err = Some(ClientError::Io(e)),
            }
            if attempt + 1 < attempts {
                std::thread::sleep(policy.delay(attempt));
            }
        }
        Err(last_err.expect("at least one attempt ran"))
    }

    fn handshake(stream: TcpStream) -> Result<Connection, ClientError> {
        // Every exchange is one short line; Nagle would only add latency.
        stream.set_nodelay(true).ok();
        let mut writer = BufWriter::new(stream.try_clone()?);
        let mut reader = BufReader::new(stream.try_clone()?);
        writeln!(writer, "HELLO {PROTOCOL_VERSION}")?;
        writer.flush()?;

        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Handshake("server closed during handshake".into()));
        }
        let greeting = line.trim_end_matches(['\r', '\n']);
        if greeting != format!("OK {PROTOCOL_VERSION}") {
            // A refusal (capacity, draining, version mismatch) arrives as
            // a regular error response line; surface its message.
            let msg = match Response::from_trace_line(greeting) {
                Ok(Response::Error { message }) => message,
                _ => format!("unexpected greeting '{greeting}'"),
            };
            return Err(ClientError::Handshake(msg));
        }

        // Reader thread: resolves tickets in submission order. It blocks
        // on the pending-slot channel when idle (no busy wait) and on the
        // socket when a response is due.
        let (pending_tx, pending_rx) = channel::<Slot>();
        std::thread::spawn(move || reader_loop(reader, pending_rx));

        Ok(Connection { writer, pending: Some(pending_tx), abandoned: Arc::new(AtomicU64::new(0)) })
    }

    /// How many tickets from this connection were dropped without
    /// collecting their response — each one a request whose answer was
    /// paid for on the wire and then thrown away.
    pub fn abandoned_tickets(&self) -> u64 {
        self.abandoned.load(Ordering::Relaxed)
    }

    /// Send one request down the pipe and return a ticket for its
    /// response. Requests on one connection are answered in submission
    /// order; interleave `submit` and [`RemoteTicket::wait`] freely to
    /// keep any number in flight.
    pub fn submit(&mut self, request: &Request) -> Result<RemoteTicket, ClientError> {
        let pending = self.pending.as_ref().ok_or(ClientError::ConnectionClosed)?;
        // Register the slot before writing: the reader must never see a
        // response it has no slot for.
        let (tx, rx) = channel();
        if pending.send(tx).is_err() {
            self.pending = None;
            return Err(ClientError::ConnectionClosed);
        }
        let line = request.to_trace_line();
        let write = (|| {
            self.writer.write_all(line.as_bytes())?;
            self.writer.write_all(b"\n")?;
            self.writer.flush()
        })();
        if let Err(e) = write {
            // The registered slot now dangles; the reader will report the
            // socket failure into it (or tear down). Mark ourselves broken
            // either way.
            self.pending = None;
            return Err(ClientError::Io(e));
        }
        Ok(RemoteTicket { rx, resolved: false, abandoned: Some(Arc::clone(&self.abandoned)) })
    }

    /// Execute one request and block for its answer — the remote drop-in
    /// for `Engine::execute`, except failures are explicit.
    pub fn execute(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.submit(request)?.wait()
    }

    /// Half-close politely: no more requests will be sent; the server
    /// finishes what is in flight and closes. Outstanding tickets remain
    /// valid. (Dropping the connection does the same.)
    pub fn close(mut self) {
        self.shutdown_write();
    }

    fn shutdown_write(&mut self) {
        self.pending = None;
        let _ = self.writer.flush();
        let _ = self.writer.get_ref().shutdown(Shutdown::Write);
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.shutdown_write();
    }
}

/// The reader half: for each registered slot, in order, read one response
/// line and deliver it. Any failure is terminal — the slot that hit it
/// gets the specific error, every later slot reports
/// [`ClientError::ConnectionClosed`] (their senders drop when this loop
/// exits and the queue unwinds).
fn reader_loop(mut reader: BufReader<TcpStream>, pending: Receiver<Slot>) {
    let mut line = String::new();
    while let Ok(slot) = pending.recv() {
        line.clear();
        let result = match reader.read_line(&mut line) {
            Ok(0) => Err(ClientError::ConnectionClosed),
            Ok(_) => Response::from_trace_line(line.trim_end_matches(['\r', '\n']))
                .map_err(ClientError::Protocol),
            Err(e) => Err(ClientError::Io(e)),
        };
        let fatal = result.is_err();
        let _ = slot.send(result);
        if fatal {
            // Framing is lost; exiting drops `pending`, so outstanding
            // and future tickets resolve to ConnectionClosed.
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = ReconnectPolicy {
            attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(250),
        };
        assert_eq!(p.delay(0), Duration::from_millis(10));
        assert_eq!(p.delay(1), Duration::from_millis(20));
        assert_eq!(p.delay(2), Duration::from_millis(40));
        assert_eq!(p.delay(4), Duration::from_millis(160));
        // From here the cap takes over — including absurd attempt counts.
        assert_eq!(p.delay(5), Duration::from_millis(250));
        assert_eq!(p.delay(63), Duration::from_millis(250));
        assert_eq!(p.delay(200), Duration::from_millis(250));
    }

    #[test]
    fn connect_with_retry_reports_the_io_error() {
        // Nothing listens on a freshly bound-then-dropped port; every
        // attempt must fail fast with ECONNREFUSED and the last error
        // surfaces typed.
        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe");
            probe.local_addr().expect("probe addr").port()
        };
        let policy = ReconnectPolicy {
            attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
        };
        let err = Connection::connect_with_retry(("127.0.0.1", port), &policy)
            .err()
            .expect("nothing is listening");
        assert!(matches!(err, ClientError::Io(_)), "got: {err}");
    }

    #[test]
    fn dropped_remote_tickets_count_as_abandoned() {
        let counter = Arc::new(AtomicU64::new(0));
        let ticket = |counter: &Arc<AtomicU64>| {
            let (tx, rx) = channel();
            let t = RemoteTicket { rx, resolved: false, abandoned: Some(Arc::clone(counter)) };
            (tx, t)
        };

        // Dropped without any wait: abandoned.
        let (_tx, t) = ticket(&counter);
        drop(t);
        assert_eq!(counter.load(Ordering::Relaxed), 1);

        // Resolved through wait(): not abandoned.
        let (tx, t) = ticket(&counter);
        tx.send(Ok(Response::Graphs { names: Vec::new() })).expect("slot open");
        assert!(t.wait().is_ok());
        assert_eq!(counter.load(Ordering::Relaxed), 1);

        // wait() consumes and resolves: not abandoned even though the
        // channel reports closure.
        let (tx, t) = ticket(&counter);
        drop(tx);
        assert!(t.wait().is_err());
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn errors_display_their_kind() {
        let cases: Vec<(ClientError, &str)> = vec![
            (ClientError::Handshake("server draining".into()), "handshake"),
            (ClientError::Protocol("unknown response kind 'warp'".into()), "protocol"),
            (ClientError::ConnectionClosed, "closed"),
        ];
        for (err, needle) in cases {
            assert!(format!("{err}").contains(needle), "{err} should mention {needle}");
        }
    }
}
