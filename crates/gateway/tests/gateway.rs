//! Gateway integration: real `gpp-serve` shards on ephemeral ports, a
//! real (or state-driven) gateway in front, and the behaviors the crate
//! promises — protocol transparency, sticky routing, single-flight
//! coalescing, and verbatim batch fan-out.

use gpp_gateway::ring::routing_key;
use gpp_gateway::{Gateway, GatewayConfig, GatewayState};
use gpp_serve::{Client, Command, Request, ServeConfig, Server, ServerHandle};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const VEC_ADD: &str = include_str!("../../../skeletons/vector_add.gsk");
const HOTSPOT: &str = include_str!("../../../skeletons/hotspot_1024.gsk");
const TIMEOUT: Duration = Duration::from_secs(20);

fn spawn_shard() -> ServerHandle {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServeConfig::default()
    };
    Server::bind(config).unwrap().spawn().unwrap()
}

fn spawn_shards(n: usize) -> Vec<ServerHandle> {
    (0..n).map(|_| spawn_shard()).collect()
}

fn addrs(shards: &[ServerHandle]) -> Vec<String> {
    shards.iter().map(|s| s.addr().to_string()).collect()
}

fn project(seed: u64, skeleton: &str) -> String {
    format!("gpp/1 project seed={seed}\n{skeleton}")
}

/// A client pointed at the gateway cannot tell it from a shard: ping is
/// byte-identical, project succeeds with the fingerprint field, and the
/// gateway's own health/stats describe the pool.
#[test]
fn gateway_is_protocol_transparent_over_tcp() {
    let shards = spawn_shards(2);
    let gateway = Gateway::bind(GatewayConfig::default(), addrs(&shards))
        .unwrap()
        .spawn()
        .unwrap();

    let mut via_gateway = Client::connect(gateway.addr(), TIMEOUT).unwrap();
    let mut via_shard = Client::connect(shards[0].addr(), TIMEOUT).unwrap();

    // Ping: answered locally by the gateway, byte-identical to a shard's.
    let pong_g = via_gateway.call(&Request::new(Command::Ping)).unwrap();
    let pong_s = via_shard.call(&Request::new(Command::Ping)).unwrap();
    assert_eq!(pong_g, pong_s);

    // Project: forwarded upstream, fingerprint included.
    let reply = via_gateway.call_raw(&project(11, VEC_ADD)).unwrap();
    assert!(reply.starts_with("{\"ok\":true"), "{reply}");
    assert!(reply.contains("\"fingerprint\":\""), "{reply}");

    // Health names the role so pools and gateways are distinguishable.
    let health = via_gateway.call(&Request::new(Command::Health)).unwrap();
    assert!(health.contains("\"role\":\"gateway\""), "{health}");
    assert!(health.contains("\"shards\":2"), "{health}");
    assert!(health.contains("\"healthy_shards\":2"), "{health}");
    let health_s = via_shard.call(&Request::new(Command::Health)).unwrap();
    assert!(health_s.contains("\"role\":\"serve\""), "{health_s}");

    // Stats exposes per-shard health and routed counts.
    let stats = via_gateway.call(&Request::new(Command::Stats)).unwrap();
    assert!(stats.contains("\"gateway\":{"), "{stats}");
    assert!(stats.contains("\"label\":\"shard0\""), "{stats}");
    assert!(stats.contains("\"label\":\"shard1\""), "{stats}");
    assert!(stats.contains("\"routed_total\":1"), "{stats}");

    gateway.shutdown_and_join().unwrap();
    for s in shards {
        s.shutdown_and_join().unwrap();
    }
}

/// Malformed payloads get byte-identical error replies from gateway and
/// shard — clients see one protocol, wherever they point.
#[test]
fn parse_errors_are_byte_identical_to_a_shard() {
    let shards = spawn_shards(1);
    let state = GatewayState::new(GatewayConfig::default(), addrs(&shards));
    let shard_state = gpp_serve::ServiceState::new(ServeConfig::default());
    for payload in [
        "",
        "gpp/2 project\nx",
        "gpp/1 explode\nx",
        "gpp/1 project seed=-1\nx",
        "gpp/1 project\n",
        "gpp/1 batch n=0\n",
    ] {
        assert_eq!(
            state.handle(payload),
            shard_state.handle(payload, 0),
            "payload {payload:?}"
        );
    }
    for s in shards {
        s.shutdown_and_join().unwrap();
    }
}

/// Routing is sticky: every request for one program (any seed, any
/// formatting of its text) lands on the same shard, so that shard's
/// caches stay warm for it.
#[test]
fn identical_programs_route_to_one_shard() {
    let shards = spawn_shards(3);
    let state = GatewayState::new(GatewayConfig::default(), addrs(&shards));

    let reformatted = format!("# reformatted\n\n{}\n\n", VEC_ADD.replace("  ", "    "));
    for seed in 21..25 {
        let text = if seed % 2 == 0 { VEC_ADD } else { &reformatted };
        let reply = state.handle(&project(seed, text));
        assert!(reply.starts_with("{\"ok\":true"), "{reply}");
    }
    let routed: Vec<u64> = state
        .pool
        .shards()
        .iter()
        .map(|s| s.routed.load(Ordering::Relaxed))
        .collect();
    assert_eq!(routed.iter().sum::<u64>(), 4, "routed: {routed:?}");
    assert_eq!(
        routed.iter().filter(|&&n| n > 0).count(),
        1,
        "one program must stick to one shard: {routed:?}"
    );

    // The shard that served them memoized: seeds differ (projection
    // misses) but calibration work all landed in one cache.
    let primary = routed.iter().position(|&n| n > 0).unwrap();
    assert_eq!(shards[primary].state().snapshot(0).served_ok, 4);
    for s in shards {
        s.shutdown_and_join().unwrap();
    }
}

/// The acceptance gate for coalescing: at least 8 concurrent identical
/// requests produce exactly ONE upstream projection, proven by the
/// shard's own miss counter — every caller still gets the full reply.
#[test]
fn concurrent_identical_requests_coalesce_to_one_upstream_projection() {
    let shards = spawn_shards(1);
    // Slow the leader's forward by 400 ms (first consult only) so the
    // followers reliably pile onto its flight.
    let faults = Arc::new(gpp_fault::FaultInjector::new(
        "seed=7;gateway.shard.slow:first=1,factor=400"
            .parse()
            .unwrap(),
    ));
    let config = GatewayConfig {
        faults,
        ..GatewayConfig::default()
    };
    let state = Arc::new(GatewayState::new(config, addrs(&shards)));

    let payload = Arc::new(project(77, VEC_ADD));
    let leader = {
        let (state, payload) = (state.clone(), payload.clone());
        std::thread::spawn(move || state.handle(&payload))
    };
    // Let the leader take off (it sleeps 400 ms inside its forward).
    std::thread::sleep(Duration::from_millis(100));
    let followers: Vec<_> = (0..8)
        .map(|_| {
            let (state, payload) = (state.clone(), payload.clone());
            std::thread::spawn(move || state.handle(&payload))
        })
        .collect();

    let lead_reply = leader.join().unwrap();
    assert!(lead_reply.starts_with("{\"ok\":true"), "{lead_reply}");
    for f in followers {
        assert_eq!(f.join().unwrap(), lead_reply, "followers share the bytes");
    }

    let snap = shards[0].state().snapshot(0);
    assert_eq!(
        snap.proj_misses, 1,
        "exactly one projection went upstream (snapshot: {snap:?})"
    );
    assert_eq!(snap.proj_hits, 0, "no follower re-asked: {snap:?}");
    assert_eq!(
        state.metrics.coalesced.load(Ordering::Relaxed),
        8,
        "all 8 followers coalesced"
    );
    assert_eq!(state.metrics.routed_total.load(Ordering::Relaxed), 1);
    for s in shards {
        s.shutdown_and_join().unwrap();
    }
}

/// A batch through the gateway returns sub-replies byte-identical to
/// sending the same requests single-shot — even when its subs route to
/// different shards.
#[test]
fn batch_through_the_gateway_matches_single_shot_replies() {
    // Reference shard: fresh caches, single-shot requests.
    let reference = spawn_shard();
    let mut ref_client = Client::connect(reference.addr(), TIMEOUT).unwrap();

    // Gateway pool: fresh too, so cache-fill order matches.
    let shards = spawn_shards(3);
    let state = GatewayState::new(GatewayConfig::default(), addrs(&shards));

    let subs = vec![
        project(31, VEC_ADD),
        "gpp/1 ping".to_string(),
        project(32, HOTSPOT),
        "gpp/1 project\n".to_string(), // error sub rides along
    ];
    let singles: Vec<String> = subs
        .iter()
        .map(|p| ref_client.call_raw(p).unwrap())
        .collect();

    let reply = state.handle(&Request::new_batch(subs).encode());
    let expected = format!(
        "{{\"ok\":true,\"command\":\"batch\",\"count\":{},\"replies\":[{}]}}",
        singles.len(),
        singles.join(",")
    );
    assert_eq!(reply, expected);
    assert_eq!(state.metrics.batch_frames.load(Ordering::Relaxed), 1);
    assert_eq!(state.metrics.batch_subs.load(Ordering::Relaxed), 4);

    reference.shutdown_and_join().unwrap();
    for s in shards {
        s.shutdown_and_join().unwrap();
    }
}

/// Distinct programs spread across the ring: with enough distinct
/// fingerprints, more than one shard ends up owning keys (sanity check
/// that the ring actually distributes).
#[test]
fn distinct_programs_spread_across_shards() {
    let labels: Vec<String> = (0..3).map(|i| format!("shard{i}")).collect();
    let ring = gpp_gateway::ring::HashRing::new(&labels);
    let mut owners = std::collections::HashSet::new();
    for n in 0..32u64 {
        let key = routing_key("eureka", u128::from(n) * 0x9e37_79b9_7f4a_7c15);
        owners.insert(ring.route(key).unwrap());
    }
    assert_eq!(owners.len(), 3, "32 keys must reach all 3 shards");
}

/// The gateway's acceptor does not wait for a poll tick: 50 memo-hit
/// projections, each on a fresh client connection, finish far inside the
/// ~500 ms that one 10 ms accept poll per request would cost.
#[test]
fn fresh_connections_are_accepted_on_arrival_end_to_end() {
    let shards = spawn_shards(2);
    let gateway = Gateway::bind(GatewayConfig::default(), addrs(&shards))
        .unwrap()
        .spawn()
        .unwrap();
    let payload = project(23, VEC_ADD);
    let warm = Client::connect(gateway.addr(), TIMEOUT)
        .unwrap()
        .call_raw(&payload)
        .unwrap();
    assert!(warm.contains("\"cached\":false"), "{warm}");

    let started = Instant::now();
    for i in 0..50 {
        let mut client = Client::connect(gateway.addr(), TIMEOUT).unwrap();
        let reply = client.call_raw(&payload).unwrap();
        assert!(reply.starts_with("{\"ok\":true"), "request {i}: {reply}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "50 memo-hit projections through the gateway took {elapsed:?}"
    );

    gateway.shutdown_and_join().unwrap();
    for s in shards {
        s.shutdown_and_join().unwrap();
    }
}

/// Shutting down an idle gateway wakes its blocked acceptor and stops
/// the prober promptly.
#[test]
fn idle_gateway_shuts_down_promptly() {
    let shards = spawn_shards(2);
    let gateway = Gateway::bind(GatewayConfig::default(), addrs(&shards))
        .unwrap()
        .spawn()
        .unwrap();
    // Let the acceptor reach its blocking `accept` first.
    std::thread::sleep(Duration::from_millis(50));
    let (joined_tx, joined_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || joined_tx.send(gateway.shutdown_and_join()));
    joined_rx
        .recv_timeout(Duration::from_millis(500))
        .expect("idle gateway shutdown took over 500 ms")
        .unwrap();
    for s in shards {
        s.shutdown_and_join().unwrap();
    }
}
