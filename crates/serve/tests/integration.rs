//! End-to-end tests: a real server on an ephemeral port, hammered by
//! concurrent TCP clients, checked against the single-shot handler for
//! bit-identical responses, plus backpressure and shutdown-drain checks.

use gpp_serve::{Client, Command, Request, ServeConfig, Server, ServiceState};
use grophecy::machine::{BusSpec, ReplayTrace};
use grophecy::{MachineConfig, MachineRegistry};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const VECTOR_ADD: &str = include_str!("../../../skeletons/vector_add.gsk");
const HOTSPOT: &str = include_str!("../../../skeletons/hotspot_1024.gsk");

const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);

fn ephemeral_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    }
}

fn project_request(skeleton: &str, seed: u64) -> Request {
    let mut req = Request::new(Command::Project);
    req.seed = seed;
    req.skeleton = skeleton.to_string();
    req
}

/// What a one-shot, in-process invocation returns for this payload —
/// the same pipeline the CLI runs, with no server in between.
fn single_shot(req: &Request) -> String {
    ServiceState::new(ServeConfig::default()).handle(&req.encode(), 0)
}

#[test]
fn concurrent_clients_match_single_shot_output() {
    const CLIENTS: usize = 8;
    let server = Server::bind(ephemeral_config()).unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();

    // Distinct seeds and a mix of skeletons: every request is a cache
    // miss, so each response must be computed under concurrency and still
    // equal the single-shot answer.
    let requests: Vec<Request> = (0..CLIENTS)
        .map(|i| {
            let skeleton = if i % 2 == 0 { VECTOR_ADD } else { HOTSPOT };
            project_request(skeleton, 3000 + i as u64)
        })
        .collect();

    let responses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|req| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr, CLIENT_TIMEOUT).unwrap();
                    client.call(req).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (req, response) in requests.iter().zip(&responses) {
        assert_eq!(
            response,
            &single_shot(req),
            "concurrent response diverged from single-shot for seed {}",
            req.seed
        );
    }

    let stats = handle.state().metrics.totals();
    assert_eq!(stats.served_ok.get(), CLIENTS as u64);
    assert_eq!(stats.served_err.get(), 0);
    assert_eq!(stats.rejected_busy.get(), 0);
    handle.shutdown_and_join().unwrap();
}

#[test]
fn repeated_request_hits_projection_cache() {
    let server = Server::bind(ephemeral_config()).unwrap();
    let handle = server.spawn().unwrap();
    let mut client = Client::connect(handle.addr(), CLIENT_TIMEOUT).unwrap();

    let req = project_request(VECTOR_ADD, 2013);
    let first = client.call(&req).unwrap();
    let second = client.call(&req).unwrap();
    assert!(
        first.contains("\"cached\":false"),
        "first call should miss: {first}"
    );
    assert!(
        second.contains("\"cached\":true"),
        "second call should hit: {second}"
    );
    // The memo must not change the answer.
    assert_eq!(first.replace("\"cached\":false", "\"cached\":true"), second);

    // The hit is visible through the wire-level stats command too.
    let mut stats_req = Request::new(Command::Stats);
    stats_req.command = Command::Stats;
    let stats = client.call(&stats_req).unwrap();
    assert!(stats.contains("\"projection_hits\":1"), "stats: {stats}");
    assert!(stats.contains("\"projection_misses\":1"), "stats: {stats}");
    assert!(stats.contains("\"calibration_hits\":1"), "stats: {stats}");
    assert!(stats.contains("\"calibration_misses\":1"), "stats: {stats}");
    // Synthesis-memo efficacy rides along (process-wide counters, so
    // only their presence and shape are stable here).
    assert!(
        stats.contains("\"synthesis_memo\":{\"hits\":"),
        "stats: {stats}"
    );
    assert!(stats.contains("\"misses\":"), "stats: {stats}");
    handle.shutdown_and_join().unwrap();
}

/// The built-ins plus one replay-bus machine whose samples pin the bus
/// model to known latencies/bandwidths, as a fleet of three targets.
fn fleet_registry() -> MachineRegistry {
    use gpp_pcie::{Direction, MemType};
    let mut registry = MachineRegistry::builtin();
    let mut recorded = MachineConfig::anl_eureka_node(0);
    recorded.id = "recorded".to_string();
    recorded.name = "Replayed measurement run".to_string();
    recorded.bus = BusSpec::Replay(ReplayTrace {
        label: "fleet-trace".to_string(),
        samples: vec![
            (1, Direction::HostToDevice, MemType::Pinned, 9.7e-6),
            (536870912, Direction::HostToDevice, MemType::Pinned, 0.204),
            (1, Direction::DeviceToHost, MemType::Pinned, 1.08e-5),
            (536870912, Direction::DeviceToHost, MemType::Pinned, 0.209),
            (1, Direction::HostToDevice, MemType::Pageable, 2.9e-5),
            (536870912, Direction::HostToDevice, MemType::Pageable, 0.387),
            (1, Direction::DeviceToHost, MemType::Pageable, 3.1e-5),
            (536870912, Direction::DeviceToHost, MemType::Pageable, 0.391),
        ],
    });
    registry.insert(recorded);
    registry
}

#[test]
fn one_request_per_registered_machine_routes_and_caches_per_machine() {
    let registry = Arc::new(fleet_registry());
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        machines: Arc::clone(&registry),
        ..ServeConfig::default()
    };
    let server = Server::bind(config).unwrap();
    let handle = server.spawn().unwrap();
    let mut client = Client::connect(handle.addr(), CLIENT_TIMEOUT).unwrap();

    let names = registry.names();
    assert_eq!(names, vec!["eureka", "recorded", "v2"]);
    let mut replies = Vec::new();
    for name in &names {
        let mut req = project_request(VECTOR_ADD, 2013);
        req.machine = name.clone();
        let first = client.call(&req).unwrap();
        assert!(first.contains("\"ok\":true"), "{name}: {first}");
        assert!(
            first.contains(&format!("\"machine\":\"{name}\"")),
            "{name}: {first}"
        );
        // Deterministic: the same request replays bit-identically (modulo
        // the memo flag), and the repeat hits this machine's cache.
        let second = client.call(&req).unwrap();
        assert_eq!(
            first.replace("\"cached\":false", "\"cached\":true"),
            second,
            "{name}: repeat diverged"
        );
        replies.push(first);
    }
    // Distinct machines produce distinct projections.
    for i in 0..replies.len() {
        for j in (i + 1)..replies.len() {
            assert_ne!(
                replies[i], replies[j],
                "machines {} and {} projected identically",
                names[i], names[j]
            );
        }
    }

    // Each machine got its own calibration and projection entry, and the
    // stats command breaks the traffic out per machine.
    let state = handle.state();
    assert_eq!(state.calibrations.len(), names.len());
    assert_eq!(state.projections.len(), names.len());
    for (name, row) in &state.metrics.machines() {
        assert!(names.contains(name), "unexpected stats row {name}");
        assert_eq!(
            (
                row.requests.get(),
                row.proj_misses.get(),
                row.proj_hits.get()
            ),
            (2, 1, 1)
        );
        assert_eq!(row.calib_misses.get(), 1);
    }
    let stats = client.call(&Request::new(Command::Stats)).unwrap();
    assert!(
        stats.contains("{\"machine\":\"recorded\",\"requests\":2"),
        "stats: {stats}"
    );

    // A name outside the registry gets the structured machine error with
    // the fleet's roster.
    let mut bad = project_request(VECTOR_ADD, 2013);
    bad.machine = "cray-1".to_string();
    let err = client.call(&bad).unwrap();
    assert!(err.contains("\"kind\":\"machine\""), "{err}");
    assert!(err.contains("(known: eureka, recorded, v2)"), "{err}");
    handle.shutdown_and_join().unwrap();
}

#[test]
fn over_capacity_requests_get_structured_busy_error() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 1,
        request_timeout: Duration::from_secs(1),
        ..ServeConfig::default()
    };
    let server = Server::bind(config).unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();

    // Two idle connections: one parks the single worker (blocked reading
    // a frame that never comes), the next fills the depth-1 queue. The
    // stagger lets the worker dequeue the first before the second lands,
    // so the second occupies the queue slot instead of racing it.
    let holder_a = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let holder_b = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // Saturate the full queue with concurrent pings. The server sheds
    // oldest-first: each new arrival displaces the longest-queued
    // connection with a structured `shed` reply (carrying a retry hint),
    // falling back to `busy` when even the freed slot is contested. Every
    // client must get *some* structured reply promptly — nobody hangs
    // past the worker freeing up (the parked holder times out after the
    // 1s request timeout).
    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..20)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr, CLIENT_TIMEOUT).unwrap();
                    client.call(&Request::new(Command::Ping)).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut rejected = 0;
    for reply in &replies {
        if reply.contains("\"kind\":\"shed\"") || reply.contains("\"kind\":\"busy\"") {
            assert!(
                reply.starts_with("{\"ok\":false"),
                "rejection reply: {reply}"
            );
            assert!(
                reply.contains("\"retry_after_ms\":"),
                "rejection lacks retry hint: {reply}"
            );
            rejected += 1;
        } else {
            assert!(
                reply.starts_with("{\"ok\":true"),
                "unexpected reply: {reply}"
            );
        }
    }
    assert!(
        rejected >= 1,
        "no connection was rejected while the queue was full: {replies:?}"
    );
    let snap = handle.state().metrics.totals();
    assert!(
        snap.shed_queue.get() + snap.rejected_busy.get() >= 1,
        "rejections not counted: shed_queue={} rejected_busy={}",
        snap.shed_queue.get(),
        snap.rejected_busy.get()
    );

    drop((holder_a, holder_b));
    handle.shutdown_and_join().unwrap();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ephemeral_config()
    };
    let server = Server::bind(config).unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();

    let worker = std::thread::spawn(move || {
        let mut client = Client::connect(addr, CLIENT_TIMEOUT).unwrap();
        client.call(&project_request(HOTSPOT, 4242)).unwrap()
    });
    // Let the request reach the worker, then ask the server to stop while
    // it is (likely) still computing. The accepted request must still get
    // its full answer before the server exits.
    std::thread::sleep(Duration::from_millis(20));
    handle.shutdown_and_join().unwrap();
    let response = worker.join().unwrap();
    assert_eq!(response, single_shot(&project_request(HOTSPOT, 4242)));
}

/// The acceptor blocks in `accept`, so a fresh connection is taken the
/// moment it arrives. Waiting out a 10 ms accept poll per connection would
/// cost about 500 ms for these 50 pings.
#[test]
fn fresh_connections_are_accepted_on_arrival() {
    let handle = Server::bind(ephemeral_config()).unwrap().spawn().unwrap();
    let addr = handle.addr();
    let started = Instant::now();
    for i in 0..50 {
        let mut client = Client::connect(addr, CLIENT_TIMEOUT).unwrap();
        let reply = client.call(&Request::new(Command::Ping)).unwrap();
        assert!(reply.starts_with("{\"ok\":true"), "ping {i}: {reply}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "50 pings on fresh connections took {elapsed:?}"
    );
    handle.shutdown_and_join().unwrap();
}

/// Shutting down an idle server wakes the acceptor out of its blocking
/// `accept`; the server does not wait for a client to arrive. A listener
/// on the unspecified address is woken through loopback.
#[test]
fn idle_server_shuts_down_promptly() {
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let config = ServeConfig {
            addr: addr.to_string(),
            ..ServeConfig::default()
        };
        let handle = Server::bind(config).unwrap().spawn().unwrap();
        // Let the acceptor reach its blocking `accept` first.
        std::thread::sleep(Duration::from_millis(50));
        let (joined_tx, joined_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || joined_tx.send(handle.shutdown_and_join()));
        joined_rx
            .recv_timeout(Duration::from_millis(500))
            .unwrap_or_else(|_| panic!("idle shutdown on {addr} took over 500 ms"))
            .unwrap();
    }
}
