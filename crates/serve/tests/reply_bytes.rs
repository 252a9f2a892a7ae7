//! The exact bytes of `project` replies, pinned to
//! `fixtures/goldens/project_replies.txt` (one `label<TAB>reply` line per
//! request). A change to how replies are built must leave every line as
//! it is: the end-to-end benchmark cannot see a change that alters bytes
//! the same way on every run, because it builds its reference replies
//! from the same checkout.
//!
//! The requests run in file order against one service, so `cached`
//! reflects what the lines before made: every committed skeleton on
//! `eureka` and `v2`, seeds 1–4 and 2013, `iters=1` (a memo miss) then
//! `iters=10` (a hit); a skeleton with fixable findings; a formatting-only
//! variant; a degraded reply; and one `batch` frame.
//!
//! Regenerate (only for a deliberate change to reply bytes) with:
//!
//! ```text
//! GPP_BLESS=1 cargo test -p gpp-serve --test reply_bytes
//! ```

use gpp_fault::{FaultInjector, FaultPlan};
use gpp_serve::{Command, Request, ServeConfig, ServiceState};
use std::sync::Arc;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../fixtures/goldens/project_replies.txt"
);

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
/// its reply carries `diagnostics` and `transfer_headroom`.
const REUPLOAD: &str = include_str!("../../../fixtures/bad/gpp010_program_reupload.gsk");

fn payload(options: &str, skeleton: &str) -> String {
    format!("gpp/1 project {options}\n{skeleton}")
}

/// Every pinned request with its label, and the reply it gets.
fn replies() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let s = ServiceState::new(ServeConfig::default());
    let mut ask = |label: String, payload: &str| {
        let reply = s.handle(payload, 0);
        out.push((label, reply));
    };
    for (name, skeleton) in SKELETONS {
        for machine in ["eureka", "v2"] {
            for seed in [1, 2, 3, 4, 2013] {
                for iters in [1, 10] {
                    let options = format!("machine={machine} seed={seed} iters={iters}");
                    ask(format!("{name} {options}"), &payload(&options, skeleton));
                }
            }
        }
    }
    ask(
        "gpp010_program_reupload seed=1".into(),
        &payload("seed=1", REUPLOAD),
    );
    let (name, skeleton) = SKELETONS[0];
    let reformatted = format!("# reformatted\n{}", skeleton.replace('\n', "\n\n"));
    ask(
        format!("{name} reformatted machine=eureka seed=1"),
        &payload("machine=eureka seed=1", &reformatted),
    );
    let batch = Request::new_batch([1u64, 2, 7].map(|seed| {
        let mut req = Request::new(Command::Project);
        req.seed = seed;
        req.skeleton = SKELETONS[3].1.to_string();
        req.encode()
    }));
    ask("vector_add batch seeds=1,2,7".into(), &batch.encode());

    // after=1: the first calibration succeeds and becomes the last-good
    // fallback; every later attempt fails, so seed 2 is served stale.
    let plan: FaultPlan = "seed=1;serve.calibrate.fail:after=1".parse().unwrap();
    let degraded = ServiceState::new(ServeConfig {
        faults: Arc::new(FaultInjector::new(plan)),
        ..ServeConfig::default()
    });
    let (name, skeleton) = SKELETONS[3];
    degraded.handle(&payload("seed=1", skeleton), 0);
    out.push((
        format!("{name} stale seed=2"),
        degraded.handle(&payload("seed=2", skeleton), 0),
    ));
    out
}

fn render(replies: &[(String, String)]) -> String {
    replies
        .iter()
        .map(|(label, reply)| {
            assert!(!reply.contains('\n'), "{label}: a reply spans lines");
            format!("{label}\t{reply}\n")
        })
        .collect()
}

#[test]
fn project_replies_match_the_golden_bytes() {
    let replies = replies();
    let stale = &replies.last().unwrap().1;
    assert!(stale.contains("\"stale\":true"), "{stale}");
    let actual = render(&replies);
    if std::env::var_os("GPP_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(GOLDEN, &actual).expect("write the golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("read the golden file");
    let (golden, actual): (Vec<&str>, Vec<&str>) =
        (golden.lines().collect(), actual.lines().collect());
    assert_eq!(golden.len(), actual.len(), "line count");
    for (want, got) in golden.iter().zip(&actual) {
        assert_eq!(got, want, "reply bytes changed");
    }
}
