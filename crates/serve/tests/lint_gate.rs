//! The lint-before-project gate: error-level findings reject the
//! request with structured diagnostics *before* any calibration work,
//! warnings ride along on success replies, and `lint=0` both skips the
//! analysis and leaves clean-skeleton replies byte-identical.

use gpp_serve::{Command, Request, ServeConfig, ServiceState};

const VECTOR_ADD: &str = include_str!("../../../skeletons/vector_add.gsk");
const OOB: &str = include_str!("../../../fixtures/bad/gpp001_oob.gsk");
const UNUSED: &str = include_str!("../../../fixtures/bad/gpp004_unused_array.gsk");

fn project_request(skeleton: &str) -> Request {
    let mut req = Request::new(Command::Project);
    req.skeleton = skeleton.to_string();
    req
}

#[test]
fn error_skeleton_is_rejected_before_calibration() {
    let state = ServiceState::new(ServeConfig::default());
    let response = state.handle(&project_request(OOB).encode(), 0);
    assert!(response.contains("\"ok\":false"), "{response}");
    assert!(response.contains("\"kind\":\"lint\""), "{response}");
    // The findings come back as a structured array, span included.
    assert!(response.contains("\"diagnostics\":["), "{response}");
    assert!(response.contains("\"code\":\"GPP001\""), "{response}");
    assert!(response.contains("\"severity\":\"error\""), "{response}");
    assert!(response.contains("\"line\":10"), "{response}");
    assert!(response.contains("\"col\":5"), "{response}");
    // The whole point of the gate: the rejection happened before any
    // calibration or projection work was attempted.
    let stats = state.metrics.totals();
    assert_eq!(
        stats.calib_misses.get(),
        0,
        "calibration ran despite lint errors"
    );
    assert_eq!(stats.calib_hits.get(), 0);
    assert_eq!(stats.proj_misses.get(), 0);
    assert_eq!(stats.served_err.get(), 1);
}

#[test]
fn lint_can_be_disabled_per_request() {
    let state = ServiceState::new(ServeConfig::default());
    let mut req = project_request(OOB);
    req.lint = false;
    let response = state.handle(&req.encode(), 0);
    // The skeleton is structurally valid (sections clamp to extents), so
    // with the analyzer off it projects like any other program.
    assert!(response.contains("\"ok\":true"), "{response}");
    assert!(!response.contains("diagnostics"), "{response}");
    assert_eq!(state.metrics.totals().calib_misses.get(), 1);
}

#[test]
fn warnings_ride_along_on_success_replies() {
    let state = ServiceState::new(ServeConfig::default());
    let response = state.handle(&project_request(UNUSED).encode(), 0);
    assert!(response.contains("\"ok\":true"), "{response}");
    assert!(response.contains("\"diagnostics\":["), "{response}");
    assert!(response.contains("\"code\":\"GPP004\""), "{response}");
    assert!(response.contains("\"severity\":\"warning\""), "{response}");
    assert_eq!(state.metrics.totals().served_ok.get(), 1);
}

#[test]
fn clean_skeleton_replies_are_byte_identical_with_lint_on_and_off() {
    let on =
        ServiceState::new(ServeConfig::default()).handle(&project_request(VECTOR_ADD).encode(), 0);
    let mut req = project_request(VECTOR_ADD);
    req.lint = false;
    let off = ServiceState::new(ServeConfig::default()).handle(&req.encode(), 0);
    assert!(on.contains("\"ok\":true"), "{on}");
    assert_eq!(on, off, "the analyzer must be observationally pure");
}

#[test]
fn measure_command_is_gated_too() {
    let state = ServiceState::new(ServeConfig::default());
    let mut req = Request::new(Command::Measure);
    req.skeleton = OOB.to_string();
    let response = state.handle(&req.encode(), 0);
    assert!(response.contains("\"kind\":\"lint\""), "{response}");
    assert!(response.contains("\"code\":\"GPP001\""), "{response}");
}

/// An explicit schedule with one finding from each of GPP010–GPP014.
/// The arrays are declared, and the transfers written, in an order other
/// than the families', so the reply shows which order the findings keep.
const WASTEFUL_SCHEDULE: &str = "\
program wasteful
array o f32 [64]
array a f32 [64]
array t f32 [64]
array late f32 [64]
array big f32 [1048576]
h2d a
h2d big
kernel k1
  parallel i 64
  stmt adds=1
    read  a [i]
    read  big [i]
    write t [i]
    write o [i]
d2h o
d2h t
h2d t
h2d a
h2d late
kernel k2
  parallel i 64
  stmt adds=1
    read  t [i]
    read  a [i]
    read  late [i]
    read  o [i]
    write o [i]
d2h o
";

#[test]
fn schedule_findings_reply_in_family_order() {
    let state = ServiceState::new(ServeConfig::default());
    let response = state.handle(&project_request(WASTEFUL_SCHEDULE).encode(), 0);
    assert!(response.contains("\"ok\":true"), "{response}");
    // (code, line) of each schedule finding, in reply order.
    let found: Vec<(&str, &str)> = response
        .split("{\"code\":\"")
        .skip(1)
        .filter(|d| d.starts_with("GPP01"))
        .map(|d| {
            let line = d.split("\"line\":").nth(1).unwrap();
            (&d[..6], line.split(',').next().unwrap())
        })
        .collect();
    // Round trips, then redundant transfers, then overwritten downloads,
    // then hoistable uploads, then unpipelined large copies.
    let want = [
        ("GPP012", "17"),
        ("GPP010", "19"),
        ("GPP011", "16"),
        ("GPP013", "20"),
        ("GPP014", "8"),
    ];
    assert_eq!(found, want, "{response}");
}
