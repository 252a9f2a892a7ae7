//! Keep-alive shard connections: forwards reuse one open connection per
//! shard, a connection the shard closed is stale rather than a shard
//! failure, and pooled connections never starve a shard's workers — not
//! the gateway's own new connections, and not the shard's direct clients.

use gpp_gateway::ring::{routing_key, HashRing};
use gpp_gateway::{Gateway, GatewayConfig, GatewayState, POLL};
use gpp_serve::protocol::{read_frame, write_frame};
use gpp_serve::{Client, Command, Request, ServeConfig, Server, ServerHandle};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(20);

/// Structurally distinct programs: each `n` has its own fingerprint.
fn skeleton(n: usize) -> String {
    let size = 1usize << (12 + n % 8);
    format!(
        "program keepalive-{n}\n\
         array a f32 [{size}]\n\
         array c f32 [{size}]\n\
         \n\
         kernel copy\n\
         \x20 parallel i {size}\n\
         \x20 stmt adds={adds}\n\
         \x20   read  a [i]\n\
         \x20   write c [i]\n",
        adds = 1 + n / 8,
    )
}

fn project(n: usize) -> String {
    format!("gpp/1 project seed=7\n{}", skeleton(n))
}

fn spawn_shard(addr: &str, workers: usize) -> ServerHandle {
    let config = ServeConfig {
        addr: addr.to_string(),
        workers,
        ..ServeConfig::default()
    };
    Server::bind(config).unwrap().spawn().unwrap()
}

/// What a shard answers once its memo holds each payload: the second of
/// two direct requests.
fn memo_hit_replies(payloads: &[String]) -> Vec<String> {
    let shard = spawn_shard("127.0.0.1:0", 1);
    let mut client = Client::connect(shard.addr(), TIMEOUT).unwrap();
    let replies = payloads
        .iter()
        .map(|p| {
            client.call_raw(p).unwrap();
            client.call_raw(p).unwrap()
        })
        .collect();
    drop(client);
    shard.shutdown_and_join().unwrap();
    replies
}

/// A fake `gpp/1` shard answering every frame with `reply` at once and
/// counting the connections it accepts.
fn counting_shard(reply: &'static str, accepted: Arc<AtomicUsize>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            accepted.fetch_add(1, Ordering::SeqCst);
            let mut stream = stream.unwrap();
            while let Ok(Some(_)) = read_frame(&mut stream) {
                if write_frame(&mut stream, reply).is_err() {
                    break;
                }
            }
        }
    });
    addr
}

#[test]
fn a_hundred_forwards_share_one_shard_connection() {
    const REPLY: &str = "{\"ok\":true,\"command\":\"project\"}";
    let accepted = Arc::new(AtomicUsize::new(0));
    let addrs = (0..2)
        .map(|_| counting_shard(REPLY, accepted.clone()))
        .collect();
    let state = GatewayState::new(GatewayConfig::default(), addrs);
    // The first forwards walk the ring (the latency window is cold); the
    // rest are hedge-eligible and forward inline. Both paths reuse.
    for i in 0..100 {
        assert_eq!(state.handle(&project(0)), REPLY, "forward {i}");
    }
    assert_eq!(accepted.load(Ordering::SeqCst), 1);
    assert_eq!(state.metrics.hedges_fired.load(Ordering::Relaxed), 0);
}

const CLIENTS: usize = 4;
const PER_CLIENT: usize = 100;

/// `CLIENTS` concurrent clients, each sending `PER_CLIENT` memo-hit
/// projections through its own `connect()`: every reply must equal a
/// direct shard's, and none may take a second.
fn drive_memo_hits<C: FnMut(&str) -> String>(connect: impl Fn() -> C + Sync) {
    let payloads: Vec<String> = (0..8).map(project).collect();
    let reference = memo_hit_replies(&payloads);
    let mut warm = connect();
    for payload in &payloads {
        warm(payload);
    }
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (payloads, reference, barrier) = (&payloads, &reference, &barrier);
            let connect = &connect;
            scope.spawn(move || {
                let mut call = connect();
                barrier.wait();
                for i in 0..PER_CLIENT {
                    let n = (c + i) % payloads.len();
                    let started = Instant::now();
                    let reply = call(&payloads[n]);
                    let elapsed = started.elapsed();
                    assert_eq!(reply, reference[n], "client {c} request {i}");
                    assert!(
                        elapsed < Duration::from_secs(1),
                        "client {c} request {i} took {elapsed:?}"
                    );
                }
            });
        }
    });
}

/// Hedging off, two one-worker shards, more concurrent forwards than
/// workers.
fn starvation_config() -> GatewayConfig {
    GatewayConfig {
        workers: CLIENTS,
        request_timeout: Duration::from_secs(2),
        hedge: false,
        ..GatewayConfig::default()
    }
}

/// Each shard's single worker must never sit on an idle pooled connection
/// while the gateway's own new connection waits in that shard's queue.
/// No prober runs here, so no idle expiry could break such a wait.
#[test]
fn concurrent_forwards_never_starve_behind_pooled_connections() {
    let shards: Vec<ServerHandle> = (0..2).map(|_| spawn_shard("127.0.0.1:0", 1)).collect();
    let state = GatewayState::new(
        starvation_config(),
        shards.iter().map(|s| s.addr().to_string()).collect(),
    );
    drive_memo_hits(|| |payload: &str| state.handle(payload));
    for shard in state.pool.shards() {
        assert_eq!(shard.forward_errors.load(Ordering::Relaxed), 0);
        assert_eq!(shard.breaker_opens.load(Ordering::Relaxed), 0);
    }
    for s in shards {
        s.shutdown_and_join().unwrap();
    }
}

/// The same load over TCP through a running gateway, whose health probes
/// share the pooled connections with the forwards.
#[test]
fn concurrent_clients_and_probes_never_starve_behind_pooled_connections() {
    let shards: Vec<ServerHandle> = (0..2).map(|_| spawn_shard("127.0.0.1:0", 1)).collect();
    let gateway = Gateway::bind(
        starvation_config(),
        shards.iter().map(|s| s.addr().to_string()).collect(),
    )
    .unwrap()
    .spawn()
    .unwrap();
    let addr = gateway.addr();
    drive_memo_hits(|| {
        let mut client = Client::connect(addr, TIMEOUT).unwrap();
        move |payload: &str| client.call_raw(payload).unwrap()
    });
    // Past the probe timeout, so a probe starved in a shard's queue would
    // have failed by now.
    std::thread::sleep(Duration::from_millis(2500));
    for shard in gateway.state().pool.shards() {
        assert_eq!(shard.forward_errors.load(Ordering::Relaxed), 0);
        assert_eq!(shard.breaker_opens.load(Ordering::Relaxed), 0);
    }
    gateway.shutdown_and_join().unwrap();
    for s in shards {
        s.shutdown_and_join().unwrap();
    }
}

/// The gateway's idle connection parks the only worker of a one-worker
/// shard; the prober closes it at the first tick it has been idle
/// through. That is under two ticks after the reply, plus one round of
/// probes and the scheduling slack of a busy test host. Without the
/// expiry the ping would wait for the shard's 30 s read deadline.
#[test]
fn a_direct_client_waits_at_most_about_one_tick_for_an_idle_pooled_connection() {
    let shard = spawn_shard("127.0.0.1:0", 1);
    let gateway = Gateway::bind(GatewayConfig::default(), vec![shard.addr().to_string()])
        .unwrap()
        .spawn()
        .unwrap();
    let mut via = Client::connect(gateway.addr(), TIMEOUT).unwrap();
    let payload = project(0);
    let reply = via.call_raw(&payload).unwrap();
    assert!(reply.starts_with("{\"ok\":true"), "{reply}");

    let started = Instant::now();
    let pong = Client::connect(shard.addr(), TIMEOUT)
        .unwrap()
        .call(&Request::new(Command::Ping))
        .unwrap();
    let waited = started.elapsed();
    assert!(pong.starts_with("{\"ok\":true"), "{pong}");
    let bound = POLL * 2 + Duration::from_millis(500);
    assert!(waited < bound, "the direct ping waited {waited:?}");

    // The gateway connects again, without counting a shard failure.
    let again = via.call_raw(&payload).unwrap();
    assert_eq!(again, reply.replace("\"cached\":false", "\"cached\":true"));
    let pool = &gateway.state().pool;
    assert_eq!(pool.shards()[0].forward_errors.load(Ordering::Relaxed), 0);
    drop(via);
    gateway.shutdown_and_join().unwrap();
    shard.shutdown_and_join().unwrap();
}

/// A shard that restarts on the same port leaves the gateway holding a
/// connection the old process closed. The next forward finds it stale and
/// connects again: no error, no fail-over, no breaker trip.
#[test]
fn a_restarted_shard_is_reached_on_a_new_connection_without_a_failure() {
    let shards: Vec<ServerHandle> = (0..2).map(|_| spawn_shard("127.0.0.1:0", 2)).collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let ring = HashRing::new(&["shard0".to_string(), "shard1".to_string()]);
    let payload = (0..64)
        .map(project)
        .find(|p| {
            let program = gpp_skeleton::text::parse(p.split_once('\n').unwrap().1).unwrap();
            let key = routing_key("eureka", gpp_gpu_model::program_fingerprint(&program));
            ring.route(key) == Some(0)
        })
        .expect("some program routes to shard0");
    let reference = memo_hit_replies(std::slice::from_ref(&payload))
        .remove(0)
        .replace("\"cached\":true", "\"cached\":false");
    let state = GatewayState::new(GatewayConfig::default(), addrs.clone());
    assert_eq!(state.handle(&payload), reference);

    let mut shards = shards.into_iter();
    shards.next().unwrap().shutdown_and_join().unwrap();
    let restarted = spawn_shard(&addrs[0], 2);
    assert_eq!(state.handle(&payload), reference);

    let m = &state.metrics;
    assert_eq!(m.failovers.load(Ordering::Relaxed), 0);
    for shard in state.pool.shards() {
        assert_eq!(shard.forward_errors.load(Ordering::Relaxed), 0);
        assert_eq!(shard.breaker_opens.load(Ordering::Relaxed), 0);
    }
    assert_eq!(state.pool.shards()[0].routed.load(Ordering::Relaxed), 2);
    restarted.shutdown_and_join().unwrap();
    for s in shards {
        s.shutdown_and_join().unwrap();
    }
}
