//! Retry-loop behavior against a scripted fake server: each accepted
//! connection gets the next canned reply, so busy/shed hint honoring,
//! budget exhaustion, and the busy-then-success path are all exercised
//! deterministically without a real service in the loop.

use gpp_serve::protocol::{read_frame, write_frame};
use gpp_serve::service::{busy_response_with_hint, shed_queue_response};
use gpp_serve::{request_with_retries, Command, Request, RetryBudget};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(5);

fn ok_reply() -> String {
    "{\"ok\":true,\"command\":\"ping\"}".to_string()
}

/// A fake server speaking one frame per connection: the i-th accepted
/// connection is answered with `replies[i]`, then the listener closes, so
/// any further attempt fails at connect. Returns the address and the
/// accept counter.
fn scripted_server(replies: Vec<String>) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accepts = Arc::new(AtomicUsize::new(0));
    let counter = accepts.clone();
    std::thread::spawn(move || {
        for reply in replies {
            let (mut stream, _) = match listener.accept() {
                Ok(pair) => pair,
                Err(_) => return,
            };
            counter.fetch_add(1, Ordering::SeqCst);
            let _ = read_frame(&mut stream);
            let _ = write_frame(&mut stream, &reply);
        }
    });
    (addr, accepts)
}

#[test]
fn busy_then_shed_then_success_retries_through() {
    let (addr, accepts) = scripted_server(vec![
        busy_response_with_hint(1),
        shed_queue_response(1),
        ok_reply(),
    ]);
    let reply = request_with_retries(
        addr,
        &Request::new(Command::Ping),
        TIMEOUT,
        2,
        Duration::from_millis(1),
        None,
    )
    .unwrap();
    assert_eq!(reply, ok_reply());
    assert_eq!(accepts.load(Ordering::SeqCst), 3);
}

#[test]
fn retry_paces_itself_on_the_server_hint() {
    // The busy reply says "come back in 200ms"; with a 1ms backoff base
    // the only way the retry waits ≥150ms (hint × 0.75 jitter floor) is
    // by honoring the hint.
    let (addr, accepts) = scripted_server(vec![busy_response_with_hint(200), ok_reply()]);
    let started = Instant::now();
    let reply = request_with_retries(
        addr,
        &Request::new(Command::Ping),
        TIMEOUT,
        1,
        Duration::from_millis(1),
        None,
    )
    .unwrap();
    let waited = started.elapsed();
    assert_eq!(reply, ok_reply());
    assert_eq!(accepts.load(Ordering::SeqCst), 2);
    assert!(
        waited >= Duration::from_millis(150),
        "retry ignored the 200ms hint (waited {waited:?})"
    );
}

#[test]
fn exhausted_budget_stops_retrying_and_returns_the_last_rejection() {
    // Four busy replies scripted, but the budget holds a single token:
    // attempt 0 is free, attempt 1 withdraws it, attempt 2 is refused —
    // so only two connections ever happen and the caller gets the busy
    // reply back (not an error): the server said "come back later".
    let (addr, accepts) = scripted_server(vec![
        busy_response_with_hint(1),
        busy_response_with_hint(1),
        busy_response_with_hint(1),
        busy_response_with_hint(1),
    ]);
    let budget = RetryBudget::new(1);
    let reply = request_with_retries(
        addr,
        &Request::new(Command::Ping),
        TIMEOUT,
        3,
        Duration::from_millis(1),
        Some(&budget),
    )
    .unwrap();
    assert!(reply.contains("\"kind\":\"busy\""), "{reply}");
    assert_eq!(accepts.load(Ordering::SeqCst), 2);
    assert_eq!(budget.exhausted_count(), 1);
    assert_eq!(budget.tokens_milli(), 0);
}

#[test]
fn success_deposits_back_into_the_budget() {
    let (addr, _) = scripted_server(vec![busy_response_with_hint(1), ok_reply()]);
    let budget = RetryBudget::new(1);
    let reply = request_with_retries(
        addr,
        &Request::new(Command::Ping),
        TIMEOUT,
        1,
        Duration::from_millis(1),
        Some(&budget),
    )
    .unwrap();
    assert_eq!(reply, ok_reply());
    assert_eq!(
        budget.tokens_milli(),
        1000,
        "the clean success must repay the retry token"
    );
}

#[test]
fn transport_errors_retry_then_surface() {
    // Bind-then-drop: the port is real but nobody listens, so every
    // attempt fails at connect.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let err = request_with_retries(
        addr,
        &Request::new(Command::Ping),
        Duration::from_millis(200),
        2,
        Duration::from_millis(1),
        None,
    )
    .unwrap_err();
    assert!(
        err.kind() == std::io::ErrorKind::ConnectionRefused
            || err.kind() == std::io::ErrorKind::TimedOut,
        "unexpected error kind: {err:?}"
    );
}
