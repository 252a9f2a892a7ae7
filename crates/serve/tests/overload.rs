//! Deadline-aware load shedding on the serve side: propagated
//! `deadline_ms=` budgets are enforced at admission (against the observed
//! median compute time), mid-flight (via the injected
//! `serve.compute.slow` stall), and on completion — while requests
//! without a deadline keep their exact legacy reply bytes.

use gpp_serve::{Command, Request, ServeConfig, ServiceState};
use std::sync::Arc;
use std::time::Duration;

const VECTOR_ADD: &str = include_str!("../../../skeletons/vector_add.gsk");

fn project_request(seed: u64, deadline_ms: Option<u64>) -> Request {
    let mut req = Request::new(Command::Project);
    req.seed = seed;
    req.skeleton = VECTOR_ADD.to_string();
    req.deadline_ms = deadline_ms;
    req
}

fn state_with_plan(plan: &str) -> ServiceState {
    ServiceState::new(ServeConfig {
        faults: Arc::new(gpp_fault::FaultInjector::new(plan.parse().unwrap())),
        ..ServeConfig::default()
    })
}

#[test]
fn generous_deadline_leaves_the_reply_bytes_untouched() {
    // Two fresh states: the projection cache would otherwise flip the
    // second reply's `cached` flag regardless of deadlines.
    let bare =
        ServiceState::new(ServeConfig::default()).handle(&project_request(2013, None).encode(), 0);
    let state = ServiceState::new(ServeConfig::default());
    let bounded = state.handle(&project_request(2013, Some(60_000)).encode(), 0);
    assert!(bare.starts_with("{\"ok\":true"), "{bare}");
    assert_eq!(
        bare, bounded,
        "a met deadline must not change the projection bytes"
    );
    assert_eq!(state.metrics.totals().shed_deadline.get(), 0);
}

#[test]
fn queued_past_deadline_is_shed_at_admission_with_a_hint() {
    let state = ServiceState::new(ServeConfig::default());
    // 50ms spent in the accept queue against a 10ms budget: the caller
    // has already given up, so no work may start.
    let reply = state.handle_timed(
        &project_request(2013, Some(10)).encode(),
        3,
        Duration::from_millis(50),
    );
    assert!(reply.contains("\"kind\":\"shed\""), "{reply}");
    assert!(reply.contains("\"retry_after_ms\":"), "{reply}");
    let snap = state.metrics.totals();
    assert_eq!(snap.shed_deadline.get(), 1);
    assert_eq!(snap.served_err.get(), 1);
}

#[test]
fn injected_compute_stall_trips_the_deadline_mid_flight() {
    let state = state_with_plan("seed=7;serve.compute.slow:always,factor=60");
    // The deadline request goes first, while the latency window is still
    // cold (admission cannot shed on an unobserved median): a 20ms budget
    // is admitted, the 60ms stall burns it, and the mid-flight check
    // converts success into a structured deadline error.
    let reply = state.handle(&project_request(4242, Some(20)).encode(), 0);
    assert!(reply.contains("\"kind\":\"deadline\""), "{reply}");
    // Without a deadline the same stall is invisible: slow, but correct.
    let bare = state.handle(&project_request(4242, None).encode(), 0);
    assert!(bare.starts_with("{\"ok\":true"), "{bare}");
    assert!(state.metrics.totals().shed_deadline.get() >= 1);
}

#[test]
fn warm_median_sheds_hopeless_deadlines_before_any_work() {
    let state = state_with_plan("seed=7;serve.compute.slow:always,factor=40");
    // Warm the latency window: three stalled requests put the observed
    // median compute time at ≥ 40ms.
    for seed in 0..3 {
        let reply = state.handle(&project_request(seed, None).encode(), 0);
        assert!(reply.starts_with("{\"ok\":true"), "{reply}");
    }
    // A 15ms budget can never cover a 40ms median: shed at admission,
    // with a drain hint derived from that median.
    let reply = state.handle(&project_request(99, Some(15)).encode(), 0);
    assert!(reply.contains("\"kind\":\"shed\""), "{reply}");
    assert!(reply.contains("median compute time"), "{reply}");
    let hint = gpp_serve::protocol::retry_after_ms(&reply).expect("shed reply carries a hint");
    assert!(hint >= 30, "hint {hint}ms should reflect the ~40ms median");
    assert_eq!(state.metrics.totals().shed_deadline.get(), 1);
}

#[test]
fn stats_reply_exposes_the_shed_counters() {
    let state = ServiceState::new(ServeConfig::default());
    state.handle_timed(
        &project_request(1, Some(1)).encode(),
        0,
        Duration::from_millis(10),
    );
    let stats = state.handle(&Request::new(Command::Stats).encode(), 0);
    for key in [
        "\"shed_deadline\":",
        "\"shed_queue\":",
        "\"retry_budget_exhausted\":",
    ] {
        assert!(stats.contains(key), "stats missing {key}: {stats}");
    }
    assert!(stats.contains("\"shed_deadline\":1"), "{stats}");
}
