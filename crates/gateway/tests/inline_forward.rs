//! The gateway worker forwards a hedge-eligible `project` on its own
//! thread. Two fake shards in this process count the process's threads
//! while they hold each forwarded frame: a primary sent from a thread of
//! its own would show up as one thread more than before the forwards
//! began. This suite is its own test binary so no other test's threads
//! come and go meanwhile.
#![cfg(target_os = "linux")]

use gpp_gateway::{GatewayConfig, GatewayState};
use gpp_serve::protocol::{read_frame, write_frame};
use parking_lot::Mutex;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

const REPLY: &str = "{\"ok\":true,\"command\":\"project\"}";

const PAYLOAD: &str = "gpp/1 project seed=7\n\
    program inline\n\
    array a f32 [4096]\n\
    array c f32 [4096]\n\
    \n\
    kernel copy\n\
    \x20 parallel i 4096\n\
    \x20 stmt adds=1\n\
    \x20   read  a [i]\n\
    \x20   write c [i]\n";

/// Threads of this process right now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// A fake `gpp/1` shard answering every frame with [`REPLY`] at once and
/// recording the process's thread count while it holds the frame.
fn counting_shard(seen: Arc<Mutex<Vec<usize>>>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let mut stream = stream.unwrap();
            while let Ok(Some(_)) = read_frame(&mut stream) {
                seen.lock().push(threads());
                if write_frame(&mut stream, REPLY).is_err() {
                    break;
                }
            }
        }
    });
    addr
}

#[test]
fn a_prompt_forward_starts_no_thread() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let addrs = (0..2).map(|_| counting_shard(seen.clone())).collect();
    let state = GatewayState::new(GatewayConfig::default(), addrs);
    // A cold forward (no latency window yet, so no hedging) touches any
    // lazily started machinery before the count is taken.
    assert_eq!(state.handle(PAYLOAD), REPLY);
    // Warm both windows with a p99 far above a loopback reply, so every
    // forward below is hedge-eligible and none of them hedges.
    for shard in state.pool.shards() {
        for _ in 0..64 {
            shard.record_latency(Duration::from_secs(1));
        }
    }
    let before = threads();
    seen.lock().clear();
    for i in 0..50 {
        assert_eq!(state.handle(PAYLOAD), REPLY, "forward {i}");
    }
    let seen = seen.lock().clone();
    assert_eq!(seen.len(), 50);
    assert!(
        seen.iter().all(|&n| n == before),
        "threads while a shard held the frame: {seen:?}, before: {before}"
    );
    assert_eq!(state.counters.hedges_fired.get(), 0);
}
