//! Shard addresses are resolved when the pool is built, not on each
//! forward: a host name forwards like an IP literal, and an address that
//! does not resolve fails like a dead shard instead of panicking.

use gpp_gateway::{GatewayConfig, GatewayState};
use gpp_serve::{ServeConfig, Server};

const VEC_ADD: &str = include_str!("../../../skeletons/vector_add.gsk");

fn project() -> String {
    format!("gpp/1 project seed=5\n{VEC_ADD}")
}

/// A pool given `localhost:PORT` forwards to the shard behind it, and
/// `stats` reports the address as given.
#[test]
fn a_host_name_shard_forwards() {
    // Bound through the same lookup the pool does, so the listener sits
    // on whichever loopback address `localhost` resolves to first.
    let shard = Server::bind(ServeConfig {
        addr: "localhost:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let addr = format!("localhost:{}", shard.addr().port());
    let state = GatewayState::new(GatewayConfig::default(), vec![addr.clone()]);

    let reply = state.handle(&project());
    assert!(reply.starts_with("{\"ok\":true"), "{reply}");
    assert_eq!(shard.state().metrics.totals().served_ok.get(), 1);
    assert_eq!(state.pool.shards()[0].counters.routed.get(), 1);
    assert!(state.pool.shards()[0].is_healthy());
    let stats = state.handle("gpp/1 stats");
    assert!(stats.contains(&format!("\"addr\":\"{addr}\"")), "{stats}");
    shard.shutdown_and_join().unwrap();
}

/// `127.0.0.1:99999` has no valid port, so it fails to resolve without
/// any lookup leaving the host. The forward fails like a refused connect:
/// the breaker trips and the client gets a structured `unavailable`.
#[test]
fn an_unresolvable_shard_is_marked_failed_and_answered_unavailable() {
    let state = GatewayState::new(GatewayConfig::default(), vec!["127.0.0.1:99999".into()]);
    let reply = state.handle(&project());
    assert!(
        reply.starts_with("{\"ok\":false,\"error\":{\"kind\":\"unavailable\""),
        "{reply}"
    );
    let shard = &state.pool.shards()[0];
    assert!(!shard.is_healthy());
    assert_eq!(shard.counters.forward_errors.get(), 1);
    assert_eq!(state.counters.unavailable.get(), 1);
}
