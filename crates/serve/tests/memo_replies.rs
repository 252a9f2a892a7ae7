//! A projection-memo hit must reply exactly what a fresh computation
//! replies, apart from the `cached` flag. The memo keeps each projection's
//! `pcie` and `projection` objects rendered and splices those bytes into
//! every hit, so this suite compares hits against fresh `ServiceState`s
//! for every committed skeleton on every built-in machine, for requests
//! that hit the memo in each way one can: a verbatim repeat, a
//! formatting-only variant, a different `iters`, and reordered hints.

use gpp_fault::{FaultInjector, FaultPlan};
use gpp_serve::{ServeConfig, ServiceState};
use grophecy::MachineRegistry;
use std::sync::Arc;

const SKELETONS: [(&str, &str); 4] = [
    (
        "hotspot_1024",
        include_str!("../../../skeletons/hotspot_1024.gsk"),
    ),
    (
        "pipelined_vadd",
        include_str!("../../../skeletons/pipelined_vadd.gsk"),
    ),
    (
        "spmm_stassuij",
        include_str!("../../../skeletons/spmm_stassuij.gsk"),
    ),
    (
        "vector_add",
        include_str!("../../../skeletons/vector_add.gsk"),
    ),
];

/// GPP010: the second `h2d a` is redundant and carries a delete fix, so
/// replies carry `diagnostics` and `transfer_headroom`.
const REUPLOAD: &str = include_str!("../../../fixtures/bad/gpp010_program_reupload.gsk");

fn payload(options: &str, skeleton: &str) -> String {
    format!("gpp/1 project {options}\n{skeleton}")
}

/// A reply as a fresh server would give it: a memo hit differs only in
/// its `cached` flag.
fn as_fresh(reply: &str) -> String {
    reply.replacen("\"cached\":true", "\"cached\":false", 1)
}

/// What a server that has never seen this program replies.
fn fresh_reply(payload: &str) -> String {
    ServiceState::new(ServeConfig::default()).handle(payload, 0)
}

/// Sends the first request, then each request that must hit the entry it
/// made, and checks every reply against a fresh server's. `hits` are
/// `(options, skeleton)` pairs.
fn check_hits_match_fresh(what: &str, options: &str, skeleton: &str, hits: &[(String, String)]) {
    let s = ServiceState::new(ServeConfig::default());
    let first = payload(options, skeleton);
    let reply = s.handle(&first, 0);
    assert!(reply.starts_with("{\"ok\":true"), "{what}: {reply}");
    assert!(reply.contains("\"cached\":false"), "{what}: {reply}");
    assert_eq!(reply, fresh_reply(&first), "{what}: first reply");
    for (opts, text) in hits {
        let p = payload(opts, text);
        let reply = s.handle(&p, 0);
        assert!(
            reply.contains("\"cached\":true"),
            "{what} [{opts}]: expected a memo hit: {reply}"
        );
        assert_eq!(as_fresh(&reply), fresh_reply(&p), "{what} [{opts}]");
    }
    let snap = s.metrics.totals();
    assert_eq!(
        (snap.proj_misses.get(), snap.proj_hits.get()),
        (1, hits.len() as u64),
        "{what}"
    );
}

/// The ways one request can hit the entry another made: a verbatim
/// repeat, a formatting-only variant (blank lines, a comment), and a
/// request differing only in `iters`, which changes the totals.
fn hit_variants(options: &str, skeleton: &str) -> Vec<(String, String)> {
    let reformatted = format!("# reformatted\n{}", skeleton.replace('\n', "\n\n"));
    vec![
        (options.to_string(), skeleton.to_string()),
        (options.to_string(), reformatted),
        (format!("{options} iters=37"), skeleton.to_string()),
    ]
}

#[test]
fn hits_match_fresh_replies_for_every_skeleton_and_machine() {
    for machine in MachineRegistry::builtin().names() {
        for (name, skeleton) in SKELETONS {
            let options = format!("machine={machine} seed=5");
            check_hits_match_fresh(
                &format!("{name} on {machine}"),
                &options,
                skeleton,
                &hit_variants(&options, skeleton),
            );
        }
    }
}

#[test]
fn stream_annotated_hits_keep_the_timeline_fields() {
    let (_, skeleton) = SKELETONS[1];
    let s = ServiceState::new(ServeConfig::default());
    s.handle(&payload("seed=2", skeleton), 0);
    let hit = s.handle(&payload("seed=2 iters=9", skeleton), 0);
    assert!(hit.contains("\"cached\":true"), "{hit}");
    for key in ["\"timeline\":", "\"overlapped_total_seconds\":"] {
        assert!(hit.contains(key), "missing {key}: {hit}");
    }
    assert_eq!(
        as_fresh(&hit),
        fresh_reply(&payload("seed=2 iters=9", skeleton))
    );
}

#[test]
fn hinted_hits_match_fresh_replies() {
    let (_, stassuij) = SKELETONS[2];
    let (_, hotspot) = SKELETONS[0];
    for (what, options, reordered, skeleton) in [
        (
            "sparse",
            "sparse=csr_vals:5280,csr_col:2640,csr_ptr:532",
            "sparse=csr_ptr:532,csr_vals:5280,csr_col:2640",
            stassuij,
        ),
        (
            "temporary",
            "temporary=temp_out,power",
            "temporary=power,temp_out",
            hotspot,
        ),
    ] {
        let mut hits = hit_variants(options, skeleton);
        // Hints are keyed order-insensitively, so reordering them hits.
        hits.push((reordered.to_string(), skeleton.to_string()));
        check_hits_match_fresh(what, options, skeleton, &hits);
        // A hinted projection is not the plain one.
        let plain = fresh_reply(&payload("", skeleton));
        let hinted = fresh_reply(&payload(options, skeleton));
        assert_ne!(plain, hinted, "{what}: hints had no effect");
    }
}

#[test]
fn hits_with_fixable_findings_match_fresh_replies() {
    let hits = hit_variants("", REUPLOAD);
    check_hits_match_fresh("reupload", "", REUPLOAD, &hits);
    let reply = fresh_reply(&payload("", REUPLOAD));
    for key in ["\"diagnostics\":", "\"transfer_headroom\":"] {
        assert!(reply.contains(key), "missing {key}: {reply}");
    }
}

/// A degraded (`stale`) reply is computed from another key's calibration:
/// it is rendered fresh every time and never enters the memo.
#[test]
fn degraded_replies_stay_out_of_the_memo() {
    let (_, skeleton) = SKELETONS[3];
    // after=1: the first calibration succeeds (the last-good fallback);
    // every later attempt fails.
    let state = || {
        let plan: FaultPlan = "seed=1;serve.calibrate.fail:after=1".parse().unwrap();
        ServiceState::new(ServeConfig {
            faults: Arc::new(FaultInjector::new(plan)),
            ..ServeConfig::default()
        })
    };
    let s = state();
    let warm = s.handle(&payload("seed=1", skeleton), 0);
    assert!(!warm.contains("\"stale\""), "{warm}");
    let degraded = s.handle(&payload("seed=2", skeleton), 0);
    assert!(
        degraded.contains("\"cached\":false,\"stale\":true"),
        "{degraded}"
    );
    assert_eq!(s.projections.len(), 1, "a stale reply entered the memo");
    let again = s.handle(&payload("seed=2", skeleton), 0);
    assert_eq!(again, degraded, "a repeated stale request must not hit");
    assert_eq!(s.projections.len(), 1, "a stale reply entered the memo");
    let snap = s.metrics.totals();
    assert_eq!((snap.proj_misses.get(), snap.proj_hits.get()), (1, 0));

    // The same sequence on a fresh server replies the same bytes.
    let reference = state();
    reference.handle(&payload("seed=1", skeleton), 0);
    assert_eq!(degraded, reference.handle(&payload("seed=2", skeleton), 0));

    // The fresh entry still hits, unaffected by the stale replies.
    let hit = s.handle(&payload("seed=1", skeleton), 0);
    assert!(hit.contains("\"cached\":true"), "{hit}");
    assert_eq!(as_fresh(&hit), warm);
}
