//! The overload chaos suite: a pinned `gateway.shard.slow` plan makes the
//! busiest shard stall for longer than the propagated deadline, and the
//! gateway must degrade gracefully — hedged requests rescue the goodput a
//! no-hedge gateway loses, no `ok` reply ever lands after its deadline,
//! hedging stays within its token budget, and with a generous deadline
//! (or none) the replies stay bit-identical to a single-shard no-fault
//! run. A full accept queue turns connections away with an intact `busy`
//! frame. A fake shard that answers late (or hangs up) on the wire drives
//! the hand-off from the gateway worker's inline primary to a hedge or
//! the fail-over walk.

use gpp_gateway::ring::{routing_key, HashRing};
use gpp_gateway::{Gateway, GatewayConfig, GatewayState};
use gpp_serve::protocol::{read_frame, write_frame};
use gpp_serve::service::busy_response;
use gpp_serve::{Client, ServeConfig, Server, ServerHandle};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(20);
const SHARDS: usize = 3;
/// Warm-phase repetitions of the script: enough traffic that every
/// shard's rolling latency window passes `MIN_LATENCY_SAMPLES` and the
/// projection caches are hot before the stall begins.
const WARM_REPS: usize = 3;
/// The injected stall, deliberately longer than the deadline.
const SLOW_MS: u64 = 300;
/// The end-to-end deadline propagated during the measured phase.
const DEADLINE_MS: u64 = 150;

/// Structurally distinct programs (same family as the kill chaos suite).
fn skeleton(n: usize) -> String {
    let size = 1usize << (12 + n % 8);
    format!(
        "program overload-{n}\n\
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

fn script(deadline_ms: Option<u64>) -> Vec<String> {
    (0..12)
        .map(|n| {
            let deadline = deadline_ms
                .map(|ms| format!(" deadline_ms={ms}"))
                .unwrap_or_default();
            format!("gpp/1 project seed={}{deadline}\n{}", 3000 + n, skeleton(n))
        })
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

/// How many script requests each shard label owns as primary.
fn primary_counts(script: &[String]) -> Vec<usize> {
    let labels: Vec<String> = (0..SHARDS).map(|i| format!("shard{i}")).collect();
    let ring = HashRing::new(&labels);
    let mut counts = vec![0usize; SHARDS];
    for payload in script {
        let skeleton = payload.split_once('\n').unwrap().1;
        let program = gpp_skeleton::text::parse(skeleton).unwrap();
        let fingerprint = gpp_gpu_model::program_fingerprint(&program);
        let key = routing_key("eureka", fingerprint);
        counts[ring.route(key).unwrap()] += 1;
    }
    counts
}

fn victim(script: &[String]) -> (usize, usize) {
    let counts = primary_counts(script);
    let idx = (0..SHARDS).max_by_key(|&i| counts[i]).unwrap();
    assert!(counts[idx] >= 2, "ring gave no shard 2+ keys: {counts:?}");
    (idx, counts[idx])
}

/// One slow-shard run: warm with `WARM_REPS` fault-free script passes
/// (the `after=` guard), then the measured deadline-bearing pass under
/// the stall. Returns (ok replies, per-request wall times, state).
fn slow_shard_run(hedge: bool) -> (usize, Vec<(String, Duration)>, GatewayState) {
    let warm_script = script(None);
    let (victim_idx, victim_load) = victim(&warm_script);
    let shards: Vec<ServerHandle> = (0..SHARDS).map(|_| spawn_shard()).collect();
    // The stall arms only after the warm phase has used up the victim's
    // fault-free consults.
    let plan = format!(
        "seed=7;gateway.shard.slow@shard{victim_idx}:after={},factor={SLOW_MS}",
        WARM_REPS * victim_load
    );
    let config = GatewayConfig {
        hedge,
        faults: Arc::new(gpp_fault::FaultInjector::new(plan.parse().unwrap())),
        ..GatewayConfig::default()
    };
    let state = GatewayState::new(
        config,
        shards.iter().map(|s| s.addr().to_string()).collect(),
    );

    for rep in 0..WARM_REPS {
        for (i, payload) in warm_script.iter().enumerate() {
            let reply = state.handle(payload);
            assert!(
                reply.starts_with("{\"ok\":true"),
                "warm rep {rep} request {i}: {reply}"
            );
        }
    }

    let measured = script(Some(DEADLINE_MS));
    let mut replies = Vec::new();
    let mut ok = 0usize;
    for payload in &measured {
        let started = Instant::now();
        let reply = state.handle(payload);
        let elapsed = started.elapsed();
        if reply.starts_with("{\"ok\":true") {
            ok += 1;
        } else {
            assert!(
                reply.contains("\"kind\":\"deadline\""),
                "only deadline errors are acceptable degradation: {reply}"
            );
        }
        replies.push((reply, elapsed));
    }
    // Shards shut down after the measured phase; abandoned hedge losers
    // still sleeping in the injected stall just fail their sends.
    for s in shards {
        s.shutdown_and_join().unwrap();
    }
    (ok, replies, state)
}

#[test]
fn hedging_beats_the_no_hedge_baseline_under_a_slow_shard() {
    let (ok_without, _, baseline) = slow_shard_run(false);
    let (ok_with, replies, state) = slow_shard_run(true);

    // The no-hedge gateway loses the victim's keys to the deadline; the
    // hedging gateway re-wins them on the ring successor.
    assert!(
        ok_with > ok_without,
        "hedging goodput {ok_with}/12 must beat the no-hedge baseline {ok_without}/12"
    );
    assert_eq!(
        baseline.counters.hedges_fired.get(),
        0,
        "--no-hedge must keep hedging off"
    );
    let fired = state.counters.hedges_fired.get();
    let won = state.counters.hedges_won.get();
    assert!(fired >= 1, "the stalled primary never triggered a hedge");
    assert!(won >= 1, "no hedge ever won against a {SLOW_MS}ms stall");
    assert!(won <= fired);
    // Hedges are budget-metered: capacity 8 plus a sub-second trickle of
    // refill can never have fired more than a dozen extra attempts.
    assert!(fired <= 12, "hedge budget overrun: {fired} fired");

    // Zero replies after the deadline: every ok reply landed within the
    // budget (plus scheduling slack).
    let slack = Duration::from_millis(50);
    for (reply, elapsed) in &replies {
        if reply.starts_with("{\"ok\":true") {
            assert!(
                *elapsed <= Duration::from_millis(DEADLINE_MS) + slack,
                "ok reply landed {elapsed:?} after a {DEADLINE_MS}ms deadline"
            );
        }
    }
}

/// Ground truth for the identity check: one fresh shard, no gateway.
fn reference_replies(script: &[String]) -> Vec<String> {
    let shard = spawn_shard();
    let mut client = Client::connect(shard.addr(), TIMEOUT).unwrap();
    let replies: Vec<String> = script.iter().map(|p| client.call_raw(p).unwrap()).collect();
    drop(client);
    shard.shutdown_and_join().unwrap();
    replies
}

#[test]
fn fault_free_replies_stay_bit_identical_with_hedging_on_and_deadlines_met() {
    // The reference never sees a deadline option; the serve protocol
    // keeps replies deadline-free, so a generously-budgeted gateway run
    // must produce the very same bytes.
    let reference = reference_replies(&script(None));
    let shards: Vec<ServerHandle> = (0..SHARDS).map(|_| spawn_shard()).collect();
    let state = GatewayState::new(
        GatewayConfig::default(),
        shards.iter().map(|s| s.addr().to_string()).collect(),
    );
    let no_deadline: Vec<String> = script(None).iter().map(|p| state.handle(p)).collect();
    assert_eq!(no_deadline, reference, "no-deadline bytes drifted");
    let generous: Vec<String> = script(Some(60_000))
        .iter()
        .map(|p| state.handle(p))
        .collect();
    // The second pass hits warm projection caches upstream: identical
    // except the cached flag, so compare with it normalized.
    let normalize = |r: &String| r.replace("\"cached\":true", "\"cached\":false");
    assert_eq!(
        generous.iter().map(normalize).collect::<Vec<_>>(),
        reference.iter().map(normalize).collect::<Vec<_>>(),
        "a met deadline changed the reply bytes"
    );
    assert_eq!(state.counters.shed_deadline.get(), 0);
    for s in shards {
        s.shutdown_and_join().unwrap();
    }
}

#[test]
fn expired_deadline_is_answered_locally_without_a_forward() {
    let shards: Vec<ServerHandle> = (0..1).map(|_| spawn_shard()).collect();
    let state = GatewayState::new(
        GatewayConfig::default(),
        shards.iter().map(|s| s.addr().to_string()).collect(),
    );
    let payload = &script(Some(50))[0];
    // An arrival stamped 200ms in the past: the 50ms budget is gone
    // before routing even starts.
    let reply = state.handle_at(payload, Instant::now() - Duration::from_millis(200));
    assert!(reply.contains("\"kind\":\"deadline\""), "{reply}");
    assert_eq!(state.counters.shed_deadline.get(), 1);
    assert_eq!(
        state.counters.routed_total.get(),
        0,
        "an expired deadline must not reach a shard"
    );
    // The stats reply exposes the overload counters.
    let stats = state.handle("gpp/1 stats");
    for key in [
        "\"hedges_fired\":",
        "\"hedges_won\":",
        "\"shed_deadline\":",
        "\"breaker_opens\":",
        "\"retry_budget_exhausted\":",
        "\"breaker\":\"closed\"",
    ] {
        assert!(stats.contains(key), "stats missing {key}: {stats}");
    }
    for s in shards {
        s.shutdown_and_join().unwrap();
    }
}

/// A connection turned away by the full accept queue reads the `busy`
/// frame byte for byte. The rejection is half-closed and drained before
/// the socket drops, so the client's unread request cannot make the close
/// a reset that destroys the reply.
#[test]
fn busy_rejection_reaches_the_client_intact() {
    let shard = spawn_shard();
    let config = GatewayConfig {
        workers: 1,
        queue_depth: 1,
        request_timeout: Duration::from_secs(10),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::bind(config, vec![shard.addr().to_string()])
        .unwrap()
        .spawn()
        .unwrap();
    let addr = gateway.addr();

    // Two idle connections: one parks the single worker, the next fills
    // the depth-1 queue. The stagger lets the worker dequeue the first
    // before the second lands.
    let holder_a = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let holder_b = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    let busy = busy_response();
    for attempt in 0..20 {
        let mut client = Client::connect(addr, TIMEOUT).unwrap();
        match client.call_raw("gpp/1 ping") {
            Ok(reply) => assert_eq!(reply, busy, "attempt {attempt}"),
            Err(e) => panic!("attempt {attempt}: no busy reply: {e}"),
        }
    }
    assert_eq!(gateway.state().counters.rejected_busy.get(), 20);

    drop((holder_a, holder_b));
    gateway.shutdown_and_join().unwrap();
    shard.shutdown_and_join().unwrap();
}

/// Forwards the fake shard answers at once before it turns slow or dead:
/// enough to warm the gateway's rolling p99 for it.
const PROMPT_FORWARDS: usize = 8;

/// A script program whose ring primary in a two-shard pool is `shard0`.
fn shard0_payload() -> String {
    let ring = HashRing::new(&["shard0".to_string(), "shard1".to_string()]);
    (0..64)
        .map(|n| format!("gpp/1 project seed={}\n{}", 3000 + n, skeleton(n)))
        .find(|payload| {
            let program = gpp_skeleton::text::parse(payload.split_once('\n').unwrap().1).unwrap();
            let key = routing_key("eureka", gpp_gpu_model::program_fingerprint(&program));
            ring.route(key) == Some(0)
        })
        .expect("some program routes to shard0")
}

/// A one-thread fake `gpp/1` shard: it answers its first
/// `PROMPT_FORWARDS` forwards with `reply` at once, then serves one more
/// forward with `late` — the reply after a stall, or `None` to hang up
/// without replying — and exits.
fn fake_shard(reply: String, late: Option<Duration>) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let thread = std::thread::spawn(move || {
        for served in 0..=PROMPT_FORWARDS {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream).unwrap().expect("a forwarded frame");
            if served == PROMPT_FORWARDS {
                match late {
                    Some(stall) => std::thread::sleep(stall),
                    None => return,
                }
            }
            // The gateway may have given up on a late reply already.
            let _ = write_frame(&mut stream, &reply);
        }
    });
    (addr, thread)
}

/// A gateway over the fake shard (`shard0`) and a real one (`shard1`),
/// warmed with `PROMPT_FORWARDS` prompt forwards of `payload`.
fn warm_fake_pool(
    payload: &str,
    reference: &str,
    fake_addr: String,
) -> (GatewayState, ServerHandle) {
    let real = spawn_shard();
    let state = GatewayState::new(
        GatewayConfig::default(),
        vec![fake_addr, real.addr().to_string()],
    );
    for i in 0..PROMPT_FORWARDS {
        assert_eq!(state.handle(payload), reference, "prompt forward {i}");
    }
    (state, real)
}

/// The primary's reply bytes arrive on the wire long after its p99: the
/// gateway worker hands the open connection to a thread, the hedge fires
/// at the real shard, and the hedge's reply is returned long before the
/// fake shard answers.
#[test]
fn late_reply_on_the_wire_is_handed_off_and_the_hedge_wins() {
    let payload = shard0_payload();
    let reference = reference_replies(std::slice::from_ref(&payload)).remove(0);
    let (fake_addr, fake) = fake_shard(reference.clone(), Some(Duration::from_millis(SLOW_MS)));
    let (state, real) = warm_fake_pool(&payload, &reference, fake_addr);

    let started = Instant::now();
    let reply = state.handle(&payload);
    let elapsed = started.elapsed();
    assert_eq!(
        reply, reference,
        "the hedge's reply must be the reference bytes"
    );
    assert!(
        elapsed < Duration::from_millis(SLOW_MS / 2),
        "late forward took {elapsed:?} against a {SLOW_MS}ms stall"
    );
    assert_eq!(state.counters.hedges_fired.get(), 1);
    assert_eq!(state.counters.hedges_won.get(), 1);
    fake.join().unwrap();
    real.shutdown_and_join().unwrap();
}

/// The primary hangs up without replying: the attempt fails on the
/// gateway worker itself, the fake shard's breaker opens, and the request
/// fails over to the real shard with the reference bytes.
#[test]
fn primary_closing_without_a_reply_fails_over_and_opens_its_breaker() {
    let payload = shard0_payload();
    let reference = reference_replies(std::slice::from_ref(&payload)).remove(0);
    let (fake_addr, fake) = fake_shard(reference.clone(), None);
    let (state, real) = warm_fake_pool(&payload, &reference, fake_addr);

    assert_eq!(state.handle(&payload), reference);
    fake.join().unwrap();
    let shards = state.pool.shards();
    assert_eq!(shards[0].counters.breaker_opens.get(), 1);
    assert_eq!(shards[0].counters.forward_errors.get(), 1);
    assert!(
        !shards[0].is_healthy(),
        "the fake shard's breaker must be open"
    );
    assert_eq!(
        shards[1].counters.routed.get(),
        1,
        "the real shard answered"
    );
    assert_eq!(state.counters.unavailable.get(), 0);
    real.shutdown_and_join().unwrap();
}

/// A shard address whose connect never completes: a listener whose accept
/// queue is filled with connections nobody accepts, so the kernel drops
/// further SYNs. Keep the returned values alive for as long as it must
/// stay unreachable.
fn unconnectable_shard() -> (String, TcpListener, Vec<TcpStream>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut held = Vec::new();
    while held.len() < 4096 {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(50)) {
            Ok(stream) => held.push(stream),
            Err(_) => break,
        }
    }
    assert!(held.len() < 4096, "the accept queue never filled");
    (addr.to_string(), listener, held)
}

/// The primary's connect never completes. The gateway worker gives the
/// inline connect up at the hedge delay, hands the attempt to a thread,
/// and the hedge fires at the real shard and wins — instead of the worker
/// waiting out the whole forward timeout on the connect.
#[test]
fn primary_stuck_in_connect_still_hedges_at_its_p99() {
    const P99_MS: u64 = 20;
    let payload = shard0_payload();
    let reference = reference_replies(std::slice::from_ref(&payload)).remove(0);
    let (stuck_addr, _listener, _held) = unconnectable_shard();
    let real = spawn_shard();
    let config = GatewayConfig {
        request_timeout: Duration::from_secs(3),
        ..GatewayConfig::default()
    };
    let state = GatewayState::new(config, vec![stuck_addr, real.addr().to_string()]);
    for _ in 0..gpp_gateway::pool::MIN_LATENCY_SAMPLES {
        state.pool.shards()[0].record_latency(Duration::from_millis(P99_MS));
    }

    let started = Instant::now();
    let reply = state.handle(&payload);
    let elapsed = started.elapsed();
    assert_eq!(reply, reference, "the hedge's reply must be the reference");
    assert!(
        elapsed < Duration::from_millis(P99_MS + 1000),
        "a connect-stuck primary held the request for {elapsed:?}"
    );
    assert_eq!(state.counters.hedges_fired.get(), 1);
    assert_eq!(state.counters.hedges_won.get(), 1);
    real.shutdown_and_join().unwrap();
}

/// On a warm pool whose shards answer promptly, every forward completes
/// on the gateway worker: no primary outlives its hedge delay, so no hedge
/// fires, and memo-hit replies stay byte-identical.
#[test]
fn prompt_memo_hits_never_hedge() {
    let payloads = script(None);
    let reference = reference_replies(&payloads);
    let shards: Vec<ServerHandle> = (0..2).map(|_| spawn_shard()).collect();
    let state = GatewayState::new(
        GatewayConfig::default(),
        shards.iter().map(|s| s.addr().to_string()).collect(),
    );
    // Pin each shard's p99 far above any reply, cold ones included, which
    // take a few ms in a debug build: with the 1 ms floor alone, a
    // scheduling stall on a busy host would fire a legitimate hedge and
    // say nothing about the fast path.
    for shard in state.pool.shards() {
        for _ in 0..64 {
            shard.record_latency(Duration::from_secs(1));
        }
    }
    // Warm both memos.
    for payload in &payloads {
        state.handle(payload);
    }
    let memo_hit = |r: &String| r.replace("\"cached\":false", "\"cached\":true");
    for i in 0..200 {
        let n = i % payloads.len();
        assert_eq!(
            state.handle(&payloads[n]),
            memo_hit(&reference[n]),
            "forward {i}"
        );
    }
    assert_eq!(state.counters.hedges_fired.get(), 0);
    for s in shards {
        s.shutdown_and_join().unwrap();
    }
}
