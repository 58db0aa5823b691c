//! Lifecycle tests for the `cut-server` serving layer: handshake,
//! pipelining, malformed lines, disconnects, capacity, idle timeouts, and
//! the graceful drain — all over real loopback sockets against the real
//! engine.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cut_client::{ClientError, Connection, ReconnectPolicy};
use cut_engine::{
    Engine, EngineStats, GraphSpec, GraphStore, Mutation, Query, RecoveredGraph, Request, Response,
    ShardOptions, ShardedEngine,
};
use cut_server::{Server, ServerConfig, ServerHandle, PROTOCOL_VERSION};

/// Start a server on a free loopback port; return its address, handle,
/// and the joinable run thread.
fn start(cfg: ServerConfig) -> (String, ServerHandle, JoinHandle<Vec<EngineStats>>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run());
    (addr, handle, run)
}

fn sharded_cfg(shards: usize) -> ServerConfig {
    ServerConfig { shards, ..ServerConfig::default() }
}

fn create_ring(name: &str) -> Request {
    Request::Create { name: name.into(), spec: GraphSpec::Cycle { n: 16 } }
}

#[test]
fn serves_the_same_responses_as_an_in_process_engine() {
    let requests = vec![
        create_ring("ring"),
        Request::Query { name: "ring".into(), query: Query::ExactMinCut },
        Request::Query { name: "ring".into(), query: Query::ExactMinCut }, // cached
        Request::Mutate { name: "ring".into(), op: Mutation::InsertEdge { u: 0, v: 8, w: 5 } },
        Request::Query { name: "ring".into(), query: Query::ExactMinCut }, // invalidated
        Request::Query { name: "ring".into(), query: Query::Connectivity },
        Request::Query { name: "missing".into(), query: Query::ExactMinCut }, // engine error
        Request::ListGraphs,
        Request::Stats,
        Request::Drop { name: "ring".into() },
    ];

    let mut reference = Engine::new();
    let expected: Vec<Response> = requests.iter().map(|r| reference.execute(r.clone())).collect();

    let (addr, handle, run) = start(sharded_cfg(4));
    let mut conn = Connection::connect(&addr).expect("connect");
    for (request, want) in requests.iter().zip(&expected) {
        let got = conn.execute(request).expect("execute over the wire");
        assert_eq!(&got, want, "remote response diverged for {request}");
    }
    drop(conn);
    handle.shutdown();
    run.join().expect("server run");
}

#[test]
fn pipelined_tickets_resolve_in_submission_order() {
    let (addr, handle, run) = start(sharded_cfg(2));
    let mut conn = Connection::connect(&addr).expect("connect");

    // Queue everything before waiting on anything.
    let mut tickets = Vec::new();
    tickets.push(conn.submit(&create_ring("a")).unwrap());
    tickets.push(conn.submit(&create_ring("b")).unwrap());
    for i in 0..20u64 {
        let name = if i % 2 == 0 { "a" } else { "b" };
        tickets.push(
            conn.submit(&Request::Query {
                name: name.into(),
                query: Query::ApproxMinCut { seed: i },
            })
            .unwrap(),
        );
    }
    let responses: Vec<Response> =
        tickets.into_iter().map(|t| t.wait().expect("pipelined response")).collect();
    assert!(matches!(responses[0], Response::Created { .. }));
    assert!(matches!(responses[1], Response::Created { .. }));
    for r in &responses[2..] {
        assert!(matches!(r, Response::CutValue { .. }), "got {r}");
    }
    drop(conn);
    handle.shutdown();
    run.join().expect("server run");
}

#[test]
fn malformed_line_gets_protocol_error_without_killing_the_session() {
    let (addr, handle, run) = start(sharded_cfg(1));
    let mut conn = Connection::connect(&addr).expect("connect");

    conn.execute(&create_ring("g")).expect("create");

    // Drive a raw malformed line through the same socket machinery by
    // submitting a request whose *name* is fine but sending garbage
    // directly is the real test — use a second raw connection for that.
    let stream = TcpStream::connect(&addr).expect("raw connect");
    let mut w = stream.try_clone().expect("clone");
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    writeln!(w, "HELLO {PROTOCOL_VERSION}").unwrap();
    r.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), format!("OK {PROTOCOL_VERSION}"));

    // Malformed: unknown kind.
    writeln!(w, "warp speed now").unwrap();
    line.clear();
    r.read_line(&mut line).unwrap();
    let resp = Response::from_trace_line(line.trim_end()).expect("parseable error line");
    match &resp {
        Response::Error { message } => {
            assert!(message.contains("protocol"), "unexpected message: {message}")
        }
        other => panic!("expected protocol error, got {other}"),
    }

    // Truncated: known kind, missing fields.
    writeln!(w, "insert g 0 1").unwrap();
    line.clear();
    r.read_line(&mut line).unwrap();
    assert!(matches!(Response::from_trace_line(line.trim_end()), Ok(Response::Error { .. })));

    // The session survives: a valid request on the same socket still works.
    writeln!(w, "conn g").unwrap();
    line.clear();
    r.read_line(&mut line).unwrap();
    assert!(matches!(
        Response::from_trace_line(line.trim_end()),
        Ok(Response::ConnectivityValue { .. })
    ));

    // And so does every other session.
    let resp = conn
        .execute(&Request::Query { name: "g".into(), query: Query::Connectivity })
        .expect("other session still served");
    assert!(matches!(resp, Response::ConnectivityValue { .. }));

    drop(conn);
    drop(w);
    handle.shutdown();
    run.join().expect("server run");
}

#[test]
fn client_disconnect_mid_pipeline_leaves_other_sessions_served() {
    let (addr, handle, run) = start(sharded_cfg(2));

    let mut survivor = Connection::connect(&addr).expect("survivor connect");
    survivor.execute(&create_ring("keep")).expect("create keep");

    {
        // The doomed session: handshake, pipeline a burst of real work,
        // then vanish without reading a single response.
        let stream = TcpStream::connect(&addr).expect("doomed connect");
        let mut w = stream.try_clone().expect("clone");
        let mut r = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        writeln!(w, "HELLO {PROTOCOL_VERSION}").unwrap();
        r.read_line(&mut line).unwrap();
        writeln!(w, "{}", create_ring("doomed").to_trace_line()).unwrap();
        for seed in 0..10u64 {
            writeln!(w, "approx doomed {seed}").unwrap();
        }
        w.flush().unwrap();
        // Abrupt close (drop both halves) with ~11 responses in flight.
    }

    // The engine and the surviving session must be unaffected.
    for seed in 0..5u64 {
        let resp = survivor
            .execute(&Request::Query { name: "keep".into(), query: Query::ApproxMinCut { seed } })
            .expect("survivor query");
        assert!(matches!(resp, Response::CutValue { .. }), "got {resp}");
    }

    drop(survivor);
    handle.shutdown();
    run.join().expect("server run");
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let (addr, handle, run) = start(sharded_cfg(2));
    let mut conn = Connection::connect(&addr).expect("connect");

    conn.execute(&Request::Create {
        name: "big".into(),
        // Big enough that a pipelined burst is still in flight when the
        // drain starts.
        spec: GraphSpec::ConnectedGnm { n: 160, m: 800, w_min: 1, w_max: 9, seed: 5 },
    })
    .expect("create big");

    let mut tickets = Vec::new();
    for seed in 0..24u64 {
        tickets.push(
            conn.submit(&Request::Query {
                name: "big".into(),
                query: Query::SingletonCut { seed },
            })
            .expect("submit"),
        );
    }
    // Begin the drain with the burst outstanding.
    handle.shutdown();

    // Every in-flight request still gets its real answer.
    for (i, ticket) in tickets.into_iter().enumerate() {
        let resp = ticket.wait().unwrap_or_else(|e| panic!("ticket {i} lost in drain: {e}"));
        assert!(matches!(resp, Response::CutValue { .. }), "ticket {i} got {resp}");
    }

    drop(conn);
    let per_shard = run.join().expect("server run returns stats");
    assert_eq!(per_shard.len(), 2);
    let queries: u64 = per_shard.iter().map(|s| s.queries).sum();
    assert!(queries >= 24, "drained run should have served the burst (saw {queries})");

    // And the server refuses newcomers once draining.
    match Connection::connect(&addr) {
        Err(ClientError::Handshake(_) | ClientError::Io(_) | ClientError::ConnectionClosed) => {}
        Err(other) => panic!("unexpected refusal shape: {other}"),
        Ok(_) => panic!("draining server must refuse"),
    }
}

#[test]
fn handshake_version_mismatch_is_refused() {
    let (addr, handle, run) = start(sharded_cfg(1));
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut w = stream.try_clone().expect("clone");
    let mut r = BufReader::new(stream);
    writeln!(w, "HELLO cut/0").unwrap();
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    match Response::from_trace_line(line.trim_end()) {
        Ok(Response::Error { message }) => {
            assert!(message.contains("handshake"), "unexpected: {message}")
        }
        other => panic!("expected error line, got {other:?}"),
    }
    // Server closes after the refusal.
    line.clear();
    assert_eq!(r.read_line(&mut line).unwrap(), 0, "socket should be closed");
    handle.shutdown();
    run.join().expect("server run");
}

#[test]
fn connection_cap_refuses_the_overflow_connection() {
    let cfg = ServerConfig { max_conns: 1, ..sharded_cfg(1) };
    let (addr, handle, run) = start(cfg);

    let mut first = Connection::connect(&addr).expect("first connection fits");
    first.execute(&create_ring("g")).expect("served");

    // The second is over the cap: handshake must fail with the capacity
    // message (tolerate a raced Io/Closed if the refusal write loses).
    match Connection::connect(&addr) {
        Err(ClientError::Handshake(msg)) => {
            assert!(msg.contains("capacity"), "unexpected refusal: {msg}")
        }
        Err(ClientError::Io(_)) | Err(ClientError::ConnectionClosed) => {}
        Err(other) => panic!("unexpected error shape: {other}"),
        Ok(_) => panic!("over-cap connection must not handshake"),
    }

    // Closing the first frees the slot.
    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match Connection::connect(&addr) {
            Ok(mut conn) => {
                conn.execute(&Request::ListGraphs).expect("slot freed");
                break;
            }
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("slot never freed: {e}"),
        }
    }

    handle.shutdown();
    run.join().expect("server run");
}

#[test]
fn idle_sessions_are_closed_after_the_timeout() {
    let cfg = ServerConfig { idle_timeout: Duration::from_millis(120), ..sharded_cfg(1) };
    let (addr, handle, run) = start(cfg);
    let mut conn = Connection::connect(&addr).expect("connect");
    conn.execute(&create_ring("g")).expect("served while active");

    std::thread::sleep(Duration::from_millis(400));
    // The server has closed us. The next call either fails outright
    // (dead socket / reader exited) or — if the ticket raced the idle
    // notice, which is itself a well-formed error response — surfaces
    // that notice. Real service must NOT resume.
    match conn.execute(&Request::ListGraphs) {
        Err(ClientError::Io(_) | ClientError::ConnectionClosed) => {}
        Ok(Response::Error { message }) => {
            assert!(message.contains("idle"), "unexpected notice: {message}")
        }
        Err(other) => panic!("unexpected error shape: {other}"),
        Ok(other) => panic!("idle-timed-out session must not serve (got {other})"),
    }

    handle.shutdown();
    run.join().expect("server run");
}

#[test]
fn server_log_matches_in_process_log_for_the_same_stream() {
    let log_path =
        std::env::temp_dir().join(format!("cut_server_log_test_{}.txt", std::process::id()));
    let cfg =
        ServerConfig { log_path: Some(log_path.to_string_lossy().into_owned()), ..sharded_cfg(3) };
    let (addr, handle, run) = start(cfg);

    let requests = vec![
        create_ring("r0"),
        create_ring("r1"),
        Request::Query { name: "r0".into(), query: Query::ExactMinCut },
        Request::Mutate { name: "r1".into(), op: Mutation::DeleteEdge { u: 0, v: 1 } },
        Request::Query { name: "r1".into(), query: Query::Connectivity },
        Request::Stats,
        Request::Drop { name: "r0".into() },
    ];

    let mut conn = Connection::connect(&addr).expect("connect");
    for request in &requests {
        conn.execute(request).expect("served");
    }
    drop(conn);
    handle.shutdown();
    run.join().expect("server run");

    let mut reference = Engine::new();
    let expected: String = requests
        .iter()
        .enumerate()
        .map(|(i, r)| format!("{i:06} {r} -> {}\n", reference.execute(r.clone())))
        .collect();
    let got = std::fs::read_to_string(&log_path).expect("server log written");
    assert_eq!(got, expected, "server log must be byte-identical to the in-process log");
    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn reconnect_with_retry_rides_out_a_late_server_start() {
    // Reserve a port, start the server on it *after* a delay, and let the
    // client's backoff absorb the gap.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe");
    let addr = probe.local_addr().expect("addr").to_string();
    drop(probe);

    let addr_for_server = addr.clone();
    let server_thread = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        let server = Server::bind(&addr_for_server, sharded_cfg(1)).expect("late bind");
        let handle = server.handle();
        let run = std::thread::spawn(move || server.run());
        (handle, run)
    });

    let policy = ReconnectPolicy {
        attempts: 20,
        base_delay: Duration::from_millis(25),
        max_delay: Duration::from_millis(100),
    };
    let mut conn = Connection::connect_with_retry(addr.as_str(), &policy)
        .expect("backoff should outlast the 150ms gap");
    conn.execute(&create_ring("late")).expect("served after retry");
    drop(conn);

    let (handle, run) = server_thread.join().expect("server starter");
    handle.shutdown();
    run.join().expect("server run");
}

/// A four-shard server spreading ten graphs across its shards answers
/// exactly like the plain engine (spot check; the full equivalence is the
/// CI loopback gate).
#[test]
fn multi_graph_server_matches_plain_engine() {
    let (addr, handle, run) = start(sharded_cfg(4));
    let mut conn = Connection::connect(&addr).expect("connect");
    let mut reference = Engine::new();
    for i in 0..40u64 {
        let request = match i % 4 {
            0 => create_ring(&format!("g{}", i / 4)),
            1 => Request::Query {
                name: format!("g{}", i / 4),
                query: Query::ApproxMinCut { seed: i },
            },
            2 => Request::Mutate {
                name: format!("g{}", i / 4),
                op: Mutation::InsertEdge { u: (i % 13) as u32, v: (i % 7 + 13) as u32, w: 2 },
            },
            _ => Request::Query { name: format!("g{}", i / 4), query: Query::Connectivity },
        };
        let want = reference.execute(request.clone());
        let got = conn.execute(&request).expect("served");
        assert_eq!(got, want, "diverged at request {i}: {request}");
    }
    drop(conn);
    handle.shutdown();
    run.join().expect("server run");
}

/// A `create` line whose edge count dwarfs the triples it carries is a
/// protocol error for that line alone: the server must not reserve room
/// for the claimed edges before they arrive, and the same session goes on
/// being served.
#[test]
fn huge_edge_count_in_create_is_an_error_not_an_abort() {
    let (addr, handle, run) = start(sharded_cfg(2));
    let stream = TcpStream::connect(&addr).expect("raw connect");
    let mut w = stream.try_clone().expect("clone");
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    writeln!(w, "HELLO {PROTOCOL_VERSION}").unwrap();
    r.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), format!("OK {PROTOCOL_VERSION}"));

    writeln!(w, "create x edges 3 1099511627776 0:1:1").unwrap();
    line.clear();
    r.read_line(&mut line).unwrap();
    assert!(
        matches!(Response::from_trace_line(line.trim_end()), Ok(Response::Error { .. })),
        "expected an error line, got {line:?}"
    );

    writeln!(w, "{}", create_ring("x").to_trace_line()).unwrap();
    line.clear();
    r.read_line(&mut line).unwrap();
    assert!(
        matches!(Response::from_trace_line(line.trim_end()), Ok(Response::Created { .. })),
        "the next request must be served, got {line:?}"
    );

    drop(w);
    handle.shutdown();
    run.join().expect("server run");
}

/// Flags the binary no longer has fail through the generic unknown-flag
/// path: exit 2, `unknown flag` on stderr, no socket bound.
#[test]
fn removed_placement_flags_are_unknown() {
    for args in [&["--rebalance"][..], &["--rebalance-window", "8"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cut-server"))
            .args(args)
            .output()
            .expect("spawn cut-server");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "cut-server {args:?}: {stderr}");
        assert!(stderr.contains("unknown flag"), "cut-server {args:?}: {stderr}");
    }
}

/// A store that keeps nothing and calls its hook on every write-ahead
/// append: the seam for injecting a panic or a stall into the shard that
/// serves a graph.
struct HookStore<F>(F);

impl<F: Fn(&str, &Request) + Send + Sync> GraphStore for HookStore<F> {
    fn log(&self, name: &str, request: &Request, _response: &Response) {
        (self.0)(name, request)
    }

    fn contains(&self, _name: &str) -> bool {
        false
    }

    fn names(&self) -> Vec<String> {
        Vec::new()
    }

    fn wants_snapshot(&self, _name: &str) -> bool {
        false
    }

    fn snapshot(&self, _name: &str, _state: &str) {}

    fn spill(&self, _name: &str, _state: &str) {}

    fn load(&self, _name: &str) -> Option<RecoveredGraph> {
        None
    }

    fn drop_graph(&self, _name: &str, _request: &Request, _response: &Response) {}
}

/// A two-shard server over `store`.
fn start_with_store(
    store: impl GraphStore + 'static,
) -> (String, ServerHandle, JoinHandle<Vec<EngineStats>>) {
    let store: Arc<dyn GraphStore> = Arc::new(store);
    start(ServerConfig {
        opts: ShardOptions { store: Some(store), ..ShardOptions::default() },
        ..sharded_cfg(2)
    })
}

/// A graph name that routes to shard `shard` of a two-shard engine.
fn name_on_shard(shard: usize, prefix: &str) -> String {
    let router = ShardedEngine::new(2);
    (0..)
        .map(|i| format!("{prefix}{i}"))
        .find(|name| router.shard_of(name) == shard)
        .expect("some name hashes to every shard")
}

/// A request that panics inside a shard kills that shard only: over the
/// wire, it and every later request needing the shard answer `error`,
/// while the other shard, the session and other sessions keep serving.
#[test]
fn a_dead_shard_answers_errors_while_the_server_keeps_serving() {
    let (addr, handle, run) = start_with_store(HookStore(|name: &str, _: &Request| {
        if name == "boom" {
            panic!("injected store failure for graph '{name}'");
        }
    }));
    let dead = ShardedEngine::new(2).shard_of("boom");
    let live = name_on_shard(1 - dead, "live");
    let doomed = name_on_shard(dead, "doomed");
    let mut conn = Connection::connect(&addr).expect("connect");

    let answer = conn.execute(&create_ring("boom")).expect("served");
    assert!(matches!(answer, Response::Error { .. }), "the panicking create must error: {answer}");

    let mut plain = Engine::new();
    for request in [
        create_ring(&live),
        Request::Mutate { name: live.clone(), op: Mutation::InsertEdge { u: 0, v: 8, w: 5 } },
        Request::Query { name: live.clone(), query: Query::ExactMinCut },
    ] {
        let want = plain.execute(request.clone());
        assert_eq!(
            conn.execute(&request).expect("served"),
            want,
            "live shard diverged on {request}"
        );
    }
    for request in [create_ring(&doomed), Request::Stats] {
        let answer = conn.execute(&request).expect("served");
        assert!(
            matches!(answer, Response::Error { .. }),
            "{request} needs the dead shard: {answer}"
        );
    }

    let mut second = Connection::connect(&addr).expect("second connect");
    let request = Request::Query { name: live.clone(), query: Query::ExactMinCut };
    let want = plain.execute(request.clone());
    assert_eq!(second.execute(&request).expect("second session served"), want);

    drop((conn, second));
    handle.shutdown();
    run.join().expect("server run");
}

/// Connection A's mutation of `slow` stalls inside its shard's lock. A
/// connection whose graph lives on the other shard is still served; a
/// broadcast, which needs every shard, waits for the release.
#[test]
fn shards_serve_independently() {
    let (parked_tx, parked) = channel();
    let (release, release_rx) = channel::<()>();
    let (parked_tx, release_rx) = (Mutex::new(parked_tx), Mutex::new(release_rx));
    let (addr, handle, run) = start_with_store(HookStore(move |name: &str, request: &Request| {
        if name == "slow" && matches!(request, Request::Mutate { .. }) {
            parked_tx.lock().expect("parked lock").send(()).expect("test listens");
            release_rx.lock().expect("release lock").recv().expect("test releases");
        }
    }));
    let other = name_on_shard(1 - ShardedEngine::new(2).shard_of("slow"), "other");
    let bound = Duration::from_secs(5);

    let mut a = Connection::connect(&addr).expect("connect A");
    a.execute(&create_ring("slow")).expect("create slow");
    let stalled = a
        .submit(&Request::Mutate { name: "slow".into(), op: Mutation::DeleteEdge { u: 0, v: 1 } })
        .expect("submit the stalling mutation");
    parked.recv_timeout(bound).expect("the mutation reaches the store");

    // B, on the other shard: answered while A holds slow's shard.
    let (b_tx, b_rx) = channel();
    let addr_b = addr.clone();
    let b = std::thread::spawn(move || {
        let mut b = Connection::connect(&addr_b).expect("connect B");
        let created = b.execute(&create_ring(&other)).expect("create other");
        let cut = b
            .execute(&Request::Query { name: other, query: Query::ExactMinCut })
            .expect("query other");
        b_tx.send((created, cut)).expect("test listens");
    });
    let (created, cut) = b_rx.recv_timeout(bound).expect("the other shard must keep serving");
    assert!(matches!(created, Response::Created { .. }), "got {created}");
    assert!(matches!(cut, Response::CutValue { weight: 2, .. }), "got {cut}");
    b.join().expect("connection B");

    // C's broadcast needs slow's shard too: no answer until the release.
    let (c_tx, c_rx) = channel();
    let addr_c = addr.clone();
    let c = std::thread::spawn(move || {
        let mut c = Connection::connect(&addr_c).expect("connect C");
        c_tx.send(c.execute(&Request::Stats).expect("stats")).expect("test listens");
    });
    assert_eq!(
        c_rx.recv_timeout(Duration::from_millis(300)).err(),
        Some(RecvTimeoutError::Timeout),
        "a broadcast must wait for the stalled shard"
    );
    release.send(()).expect("store waits");
    let stats = c_rx.recv_timeout(bound).expect("the broadcast answers after the release");
    assert!(matches!(stats, Response::EngineStats { graphs: 2, mutations: 1, .. }), "got {stats}");
    let mutated = stalled.wait().expect("the stalled mutation answers");
    assert!(matches!(mutated, Response::Mutated { .. }), "got {mutated}");
    c.join().expect("connection C");

    drop(a);
    handle.shutdown();
    run.join().expect("server run");
}
