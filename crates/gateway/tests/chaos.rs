//! The gateway chaos suite: shards die mid-load — injected via pinned
//! fault plans (seeds 7, 42, 2013) and for real (a live `gpp-serve`
//! process shut down under concurrent clients) — and the reply set must
//! be **bit-identical** to a single-shard, no-fault run. Projections are
//! pure functions of (machine, seed, payload), so routing, fail-over,
//! and re-admission must all be invisible at the byte level.

use gpp_gateway::ring::{routing_key, HashRing};
use gpp_gateway::{Gateway, GatewayConfig, GatewayState};
use gpp_serve::{Client, ServeConfig, Server, ServerHandle};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(20);
const SHARDS: usize = 3;

/// A family of structurally distinct programs: each size yields different
/// per-kernel characteristics, hence a different structural fingerprint,
/// hence its own position on the ring.
fn skeleton(n: usize) -> String {
    let size = 1usize << (12 + n % 8);
    format!(
        "program chaos-{n}\n\
         array a f32 [{size}]\n\
         array b f32 [{size}]\n\
         array c f32 [{size}]\n\
         \n\
         kernel add\n\
         \x20 parallel i {size}\n\
         \x20 stmt adds={adds}\n\
         \x20   read  a [i]\n\
         \x20   read  b [i]\n\
         \x20   write c [i]\n",
        adds = 1 + n / 8,
    )
}

/// The scripted load: every request a distinct (program, seed), so every
/// reply is a projection-cache miss wherever it lands — the property that
/// makes single-shard and sharded runs byte-comparable.
fn script() -> Vec<String> {
    (0..12)
        .map(|n| format!("gpp/1 project seed={}\n{}", 3000 + n, skeleton(n)))
        .collect()
}

fn spawn_shard() -> ServerHandle {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServeConfig::default()
    };
    Server::bind(config).unwrap().spawn().unwrap()
}

/// The ground truth: one fresh shard, no gateway, no faults.
fn reference_replies(script: &[String]) -> Vec<String> {
    let shard = spawn_shard();
    let mut client = Client::connect(shard.addr(), TIMEOUT).unwrap();
    let replies: Vec<String> = script.iter().map(|p| client.call_raw(p).unwrap()).collect();
    for (i, reply) in replies.iter().enumerate() {
        assert!(
            reply.starts_with("{\"ok\":true"),
            "reference request {i} failed: {reply}"
        );
    }
    drop(client);
    shard.shutdown_and_join().unwrap();
    replies
}

/// Routes the script through the same ring the pool builds, returning how
/// many requests each shard label owns as primary. Used to pick a victim
/// that actually carries load, so killing it is guaranteed to matter.
fn primary_counts(script: &[String]) -> Vec<usize> {
    let labels: Vec<String> = (0..SHARDS).map(|i| format!("shard{i}")).collect();
    let ring = HashRing::new(&labels);
    let mut counts = vec![0usize; SHARDS];
    for payload in script {
        let skeleton = payload.split_once('\n').unwrap().1;
        let program = gpp_skeleton::text::parse(skeleton).unwrap();
        let fingerprint = gpp_gpu_model::program_fingerprint(&program);
        // Requests in the script never set machine=, so they route under
        // the protocol default.
        let key = routing_key("eureka", fingerprint);
        counts[ring.route(key).unwrap()] += 1;
    }
    counts
}

fn victim(script: &[String]) -> (usize, usize) {
    let counts = primary_counts(script);
    let idx = (0..SHARDS).max_by_key(|&i| counts[i]).unwrap();
    assert!(
        counts[idx] >= 2,
        "ring never gave any shard 2+ keys: {counts:?}"
    );
    (idx, counts[idx])
}

/// One injected-kill chaos run under a pinned plan: the busiest shard
/// goes down (connection-refused on every forward) halfway through its
/// own traffic. Every request must still be answered, and the full reply
/// set must equal the single-shard no-fault reference byte for byte.
fn assert_injected_kill_is_bit_invisible(seed: u64) {
    let script = script();
    let reference = reference_replies(&script);
    let (victim_idx, victim_load) = victim(&script);

    let shards: Vec<ServerHandle> = (0..SHARDS).map(|_| spawn_shard()).collect();
    let kill_after = (victim_load / 2).max(1);
    let plan = format!("seed={seed};gateway.shard.down@shard{victim_idx}:after={kill_after}");
    let config = GatewayConfig {
        faults: Arc::new(gpp_fault::FaultInjector::new(plan.parse().unwrap())),
        ..GatewayConfig::default()
    };
    let state = GatewayState::new(
        config,
        shards.iter().map(|s| s.addr().to_string()).collect(),
    );

    let replies: Vec<String> = script.iter().map(|p| state.handle(p)).collect();
    for (i, reply) in replies.iter().enumerate() {
        assert!(
            reply.starts_with("{\"ok\":true"),
            "seed {seed}: request {i} lost to the kill: {reply}"
        );
    }
    assert_eq!(
        replies, reference,
        "seed {seed}: re-routed replies diverged from the single-shard run"
    );

    // The kill really happened and really re-routed.
    let m = &state.counters;
    assert!(m.failovers.get() >= 1, "seed {seed}: no fail-over recorded");
    assert_eq!(m.unavailable.get(), 0);
    let dead = &state.pool.shards()[victim_idx];
    assert!(!dead.is_healthy(), "seed {seed}: victim still healthy");
    assert!(dead.counters.forward_errors.get() >= 1);

    for s in shards {
        s.shutdown_and_join().unwrap();
    }
}

#[test]
fn injected_shard_kill_is_bit_invisible_under_seed_7() {
    assert_injected_kill_is_bit_invisible(7);
}

#[test]
fn injected_shard_kill_is_bit_invisible_under_seed_42() {
    assert_injected_kill_is_bit_invisible(42);
}

#[test]
fn injected_shard_kill_is_bit_invisible_under_seed_2013() {
    assert_injected_kill_is_bit_invisible(2013);
}

/// The real thing: a full TCP gateway, four concurrent clients, and a
/// live shard process shut down while they are mid-script. No injection —
/// the fail-over path sees genuine connection-refused errors.
#[test]
fn real_shard_death_under_concurrent_clients_is_bit_invisible() {
    let script = script();
    let reference = reference_replies(&script);
    let (victim_idx, _) = victim(&script);

    let mut shards: Vec<Option<ServerHandle>> = (0..SHARDS).map(|_| Some(spawn_shard())).collect();
    let config = GatewayConfig {
        // Probe fast so the dead shard is also noticed by the prober, not
        // only by fail-fast marking.
        probe_interval: Duration::from_millis(50),
        probe_backoff: Duration::from_millis(10),
        ..GatewayConfig::default()
    };
    let addrs = shards
        .iter()
        .map(|s| s.as_ref().unwrap().addr().to_string())
        .collect();
    let gateway = Gateway::bind(config, addrs).unwrap().spawn().unwrap();

    // Four clients, three requests each. Everyone sends one request, hits
    // the barrier, the victim dies, then the remaining load flows.
    let clients = 4;
    let per_client = script.len() / clients;
    let barrier = Arc::new(Barrier::new(clients + 1));
    let gateway_addr = gateway.addr();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let script: Vec<String> = script[c * per_client..(c + 1) * per_client].to_vec();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(gateway_addr, TIMEOUT).unwrap();
                let mut replies = vec![client.call_raw(&script[0]).unwrap()];
                barrier.wait(); // shard dies here
                barrier.wait(); // ...and is gone
                for payload in &script[1..] {
                    replies.push(client.call_raw(payload).unwrap());
                }
                (c, replies)
            })
        })
        .collect();

    barrier.wait();
    shards[victim_idx]
        .take()
        .unwrap()
        .shutdown_and_join()
        .unwrap();
    barrier.wait();

    let mut replies = vec![String::new(); script.len()];
    for t in threads {
        let (c, batch) = t.join().unwrap();
        for (i, reply) in batch.into_iter().enumerate() {
            replies[c * per_client + i] = reply;
        }
    }
    for (i, reply) in replies.iter().enumerate() {
        assert!(
            reply.starts_with("{\"ok\":true"),
            "request {i} lost to the real kill: {reply}"
        );
    }
    assert_eq!(
        replies, reference,
        "replies after a real shard death diverged from the single-shard run"
    );
    assert!(!gateway.state().pool.shards()[victim_idx].is_healthy());

    gateway.shutdown_and_join().unwrap();
    for s in shards.into_iter().flatten() {
        s.shutdown_and_join().unwrap();
    }
}

/// Recovery: a shard that was down (injected, `first=N` — the fault
/// stops firing after N forwards) is re-admitted by the prober, and the
/// traffic it owns comes back to it. Replies stay bit-identical
/// throughout.
#[test]
fn recovered_shard_is_readmitted_and_reowns_its_keys() {
    let script = script();
    let reference = reference_replies(&script);
    let (victim_idx, _) = victim(&script);

    let shards: Vec<ServerHandle> = (0..SHARDS).map(|_| spawn_shard()).collect();
    // The victim refuses its first 2 forwards, then recovers for good.
    let plan = format!("seed=7;gateway.shard.down@shard{victim_idx}:first=2");
    let config = GatewayConfig {
        probe_backoff: Duration::from_millis(5),
        faults: Arc::new(gpp_fault::FaultInjector::new(plan.parse().unwrap())),
        ..GatewayConfig::default()
    };
    let state = GatewayState::new(
        config.clone(),
        shards.iter().map(|s| s.addr().to_string()).collect(),
    );

    let replies: Vec<String> = script.iter().map(|p| state.handle(p)).collect();
    assert_eq!(replies, reference, "fail-over window changed the bytes");

    let shard = &state.pool.shards()[victim_idx];
    assert!(shard.counters.forward_errors.get() >= 1);

    // Drive the prober by hand until the exhausted rule lets a probe
    // through and the shard rejoins the healthy set.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !shard.is_healthy() {
        assert!(Instant::now() < deadline, "shard never re-admitted");
        state.pool.probe_due(
            config.probe_interval,
            config.probe_backoff,
            TIMEOUT,
            &config.faults,
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(shard.counters.readmissions.get() >= 1);

    // Its keyspace comes home: re-running a script request that the
    // victim owns routes to it again (and, being cached upstream now,
    // stays byte-identical except for the cached flag — so just assert
    // delivery and destination).
    let owned = script
        .iter()
        .position(|p| {
            let skeleton = p.split_once('\n').unwrap().1;
            let program = gpp_skeleton::text::parse(skeleton).unwrap();
            let key = routing_key("eureka", gpp_gpu_model::program_fingerprint(&program));
            let labels: Vec<String> = (0..SHARDS).map(|i| format!("shard{i}")).collect();
            HashRing::new(&labels).route(key).unwrap() == victim_idx
        })
        .expect("victim owns at least one script key");
    let before = shard.counters.routed.get();
    let reply = state.handle(&script[owned]);
    assert!(reply.starts_with("{\"ok\":true"), "{reply}");
    assert_eq!(
        shard.counters.routed.get(),
        before + 1,
        "re-admitted shard did not get its key back"
    );

    for s in shards {
        s.shutdown_and_join().unwrap();
    }
}
