//! The timed phase: a closed loop of callers, each with one request
//! outstanding on its own connection.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use cut_client::Connection;
use cut_engine::{Registry, Request, Response};

use crate::spec::Stream;

/// Sample class of a mutation's round trip; a query's class is its
/// `Query::kind_index`.
pub const MUTATION: usize = 6;

/// One timed round trip.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// `Query::kind_index` of a query, or [`MUTATION`].
    pub class: usize,
    /// When the request went out, from the opening of the timed window.
    pub sent_ns: u64,
    pub round_trip_ns: u64,
}

/// What one caller saw.
pub struct CallerLog {
    /// Server responses to the warm-up and timed requests, in order.
    pub responses: Vec<Response>,
    pub timed: Vec<Sample>,
    /// The transport failure that stopped this caller, if any.
    pub failure: Option<String>,
    /// The stream ran out before the deadline.
    pub exhausted: bool,
    start: Instant,
    end: Instant,
}

/// The timed phase's record.
pub struct Drive {
    pub callers: Vec<CallerLog>,
    /// The server's merged registry as the timed window opened and after
    /// it closed.
    pub before: Registry,
    pub after: Registry,
    /// First caller's start to last caller's finish.
    pub wall: Duration,
}

/// Run each caller's untimed warm-up, snapshot the registry, run every
/// caller for `seconds`, and snapshot it again. The snapshots go out on
/// connections of their own while the callers wait, outside the window.
pub fn drive(
    conns: &mut [Connection],
    streams: &[Stream],
    seconds: f64,
    addr: &str,
) -> Result<Drive, String> {
    let window = Duration::from_secs_f64(seconds);
    let barrier = Barrier::new(conns.len() + 1);
    let (callers, before) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(streams)
            .map(|(conn, stream)| {
                let barrier = &barrier;
                s.spawn(move || call(conn, stream, window, barrier))
            })
            .collect();
        barrier.wait(); // every caller has finished its warm-up
        let before = metrics(addr);
        barrier.wait(); // the timed window opens
        let callers: Vec<CallerLog> =
            handles.into_iter().map(|h| h.join().expect("caller thread panicked")).collect();
        (callers, before)
    });
    let before = before?;
    let after = metrics(addr)?;
    let start = callers.iter().map(|c| c.start).min().expect("at least one caller");
    let end = callers.iter().map(|c| c.end).max().expect("at least one caller");
    Ok(Drive { callers, before, after, wall: end - start })
}

fn call(conn: &mut Connection, stream: &Stream, window: Duration, barrier: &Barrier) -> CallerLog {
    let mut responses = Vec::new();
    let mut failure = None;
    for request in &stream.ops[..stream.warmup] {
        match conn.execute(request) {
            Ok(response) => responses.push(response),
            Err(e) => {
                failure = Some(e.to_string());
                break;
            }
        }
    }
    barrier.wait();
    barrier.wait();
    let start = Instant::now();
    let deadline = start + window;
    let mut timed = Vec::new();
    let mut exhausted = false;
    let mut next = stream.warmup;
    while failure.is_none() && Instant::now() < deadline {
        let Some(request) = stream.op(next) else {
            exhausted = true;
            break;
        };
        next += 1;
        let sent = Instant::now();
        let result = conn.execute(request);
        let round_trip_ns = sent.elapsed().as_nanos() as u64;
        match result {
            Ok(response) => {
                let sent_ns = (sent - start).as_nanos() as u64;
                timed.push(Sample { class: class_of(request), sent_ns, round_trip_ns });
                responses.push(response);
            }
            Err(e) => failure = Some(e.to_string()),
        }
    }
    CallerLog { responses, timed, failure, exhausted, start, end: Instant::now() }
}

fn class_of(request: &Request) -> usize {
    match request {
        Request::Query { query, .. } => query.kind_index(),
        _ => MUTATION,
    }
}

/// The server's merged `stats metrics` registry.
fn metrics(addr: &str) -> Result<Registry, String> {
    let mut conn = Connection::connect(addr).map_err(|e| format!("stats connection: {e}"))?;
    match conn.execute(&Request::Metrics).map_err(|e| format!("stats metrics: {e}"))? {
        Response::Metrics { snapshot } => Registry::from_wire(&snapshot),
        other => Err(format!("stats metrics answered '{}'", other.to_trace_line())),
    }
}
