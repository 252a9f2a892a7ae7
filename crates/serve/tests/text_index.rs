//! The projection memo's text index answers an exact repeat of a
//! `project` request before parsing it. Its replies must be exactly what
//! the parsing path replies, and it must bump exactly the counters the
//! parsing path bumps on a memo hit. Every reply here is compared byte
//! for byte with a fresh `ServiceState`'s reply to the same request, and
//! the counters of one scripted sequence with hand-computed values.

use gpp_serve::metrics::Counter;
use gpp_serve::{ServeConfig, ServiceState};

const VEC_ADD: &str = include_str!("../../../skeletons/vector_add.gsk");
const HOTSPOT: &str = include_str!("../../../skeletons/hotspot_1024.gsk");

/// GPP010: the second `h2d a` is redundant and carries a delete fix, so
/// replies carry spanned `diagnostics` and `transfer_headroom`.
const REUPLOAD: &str = include_str!("../../../fixtures/bad/gpp010_program_reupload.gsk");

fn payload(options: &str, skeleton: &str) -> String {
    format!("gpp/1 project {options}\n{skeleton}")
}

/// What a server that has never seen this request replies.
fn fresh_reply(payload: &str) -> String {
    ServiceState::new(ServeConfig::default()).handle(payload, 0)
}

/// Sends `requests` in order to one server and checks each reply against
/// a fresh server's, apart from the `cached` flag, which must read
/// `cached`. Returns the replies.
fn check_sequence(s: &ServiceState, requests: &[(&str, &str, bool)]) -> Vec<String> {
    requests
        .iter()
        .map(|&(options, skeleton, cached)| {
            let p = payload(options, skeleton);
            let reply = s.handle(&p, 0);
            let flag = format!("\"cached\":{cached}");
            assert!(
                reply.contains(&flag),
                "[{options}] expected {flag}: {reply}"
            );
            let fresh = reply.replacen("\"cached\":true", "\"cached\":false", 1);
            assert_eq!(fresh, fresh_reply(&p), "[{options}]");
            reply
        })
        .collect()
}

/// The `diagnostics` array of a reply.
fn diagnostics(reply: &str) -> &str {
    let at = reply
        .find("\"diagnostics\":")
        .expect("reply has diagnostics");
    let end = reply[at..].find(']').unwrap();
    &reply[at..at + end]
}

#[test]
fn a_formatting_variant_with_findings_carries_its_own_spans() {
    // Two comment lines shift every finding down by two lines.
    let shifted = format!("# shifted\n# by two lines\n{REUPLOAD}");
    let s = ServiceState::new(ServeConfig::default());
    let replies = check_sequence(
        &s,
        &[
            ("", REUPLOAD, false),
            ("", REUPLOAD, true),
            ("", &shifted, true),
            ("", &shifted, true),
            ("", REUPLOAD, true),
        ],
    );
    assert_ne!(diagnostics(&replies[0]), diagnostics(&replies[2]));
    assert_eq!(diagnostics(&replies[2]), diagnostics(&replies[3]));
    assert!(
        replies[3].contains("\"transfer_headroom\":"),
        "{}",
        replies[3]
    );
    let snap = s.metrics.totals();
    assert_eq!((snap.proj_misses.get(), snap.proj_hits.get()), (1, 4));
}

#[test]
fn lint_off_after_lint_on_is_its_own_text() {
    let s = ServiceState::new(ServeConfig::default());
    let replies = check_sequence(
        &s,
        &[
            ("lint=1", REUPLOAD, false),
            ("lint=0", REUPLOAD, true),
            ("lint=0", REUPLOAD, true),
            ("lint=1", REUPLOAD, true),
        ],
    );
    assert!(!replies[2].contains("diagnostics"), "{}", replies[2]);
    assert!(!replies[2].contains("transfer_headroom"), "{}", replies[2]);
    assert!(replies[3].contains("\"diagnostics\":"), "{}", replies[3]);
}

#[test]
fn reordered_temporaries_are_their_own_text() {
    let s = ServiceState::new(ServeConfig::default());
    check_sequence(
        &s,
        &[
            ("temporary=power,temp_out", HOTSPOT, false),
            ("temporary=temp_out,power", HOTSPOT, true),
            ("temporary=temp_out,power", HOTSPOT, true),
            ("temporary=power,temp_out", HOTSPOT, true),
            ("temporary=power", HOTSPOT, false),
        ],
    );
}

#[test]
fn repeats_with_another_iters_or_deadline_share_the_text() {
    let s = ServiceState::new(ServeConfig::default());
    check_sequence(
        &s,
        &[
            ("seed=3", HOTSPOT, false),
            ("seed=3 iters=37", HOTSPOT, true),
            ("seed=3 deadline_ms=60000", HOTSPOT, true),
            ("seed=3 iters=5 deadline_ms=60000", HOTSPOT, true),
            ("seed=4 iters=5", HOTSPOT, false),
        ],
    );
    let snap = s.metrics.totals();
    assert_eq!((snap.proj_misses.get(), snap.proj_hits.get()), (2, 3));
}

#[test]
fn an_evicted_entry_takes_its_aliases_with_it() {
    let s = ServiceState::new(ServeConfig {
        projection_cache: 1,
        ..ServeConfig::default()
    });
    check_sequence(
        &s,
        &[
            ("", VEC_ADD, false),
            ("", VEC_ADD, true),
            ("", HOTSPOT, false),
            ("", VEC_ADD, false),
            ("", VEC_ADD, true),
        ],
    );
}

/// The `fingerprint` a reply quotes.
fn fingerprint(reply: &str) -> String {
    let at = reply.find("\"fingerprint\":\"").unwrap() + "\"fingerprint\":\"".len();
    reply[at..at + 32].to_string()
}

#[test]
fn scripted_counters_match_hand_computed_values() {
    let s = ServiceState::new(ServeConfig::default());
    let reformatted = format!("# reformatted\n{}", VEC_ADD.replace('\n', "\n\n"));
    let script: [(&str, &str); 9] = [
        ("seed=1", VEC_ADD),                   // miss; eureka calibrates
        ("seed=1", VEC_ADD),                   // text hit
        ("seed=1", &reformatted),              // parse, memo hit
        ("seed=1 iters=5", VEC_ADD),           // text hit
        ("seed=1 machine=v2", VEC_ADD),        // miss; v2 calibrates
        ("seed=1 machine=v2 lint=0", VEC_ADD), // parse, memo hit
        ("seed=1 temporary=ghost", VEC_ADD),   // unknown-array error
        ("seed=1", HOTSPOT),                   // miss
        ("seed=1", HOTSPOT),                   // text hit
    ];
    let replies: Vec<String> = script
        .iter()
        .map(|(options, skeleton)| s.handle(&payload(options, skeleton), 0))
        .collect();
    assert!(
        replies[6].contains("\"kind\":\"unknown-array\""),
        "{}",
        replies[6]
    );

    let snap = s.metrics.totals();
    assert_eq!((snap.served_ok.get(), snap.served_err.get()), (8, 1));
    assert_eq!((snap.calib_hits.get(), snap.calib_misses.get()), (6, 2));
    assert_eq!((snap.proj_hits.get(), snap.proj_misses.get()), (5, 3));
    assert_eq!(s.projections.len(), 3);
    // Per machine: requests, calibration hits and misses, projection hits
    // and misses, degraded replies.
    let rows: Vec<(String, Vec<u64>)> = s
        .metrics
        .machines()
        .into_iter()
        .map(|(name, c)| {
            let row = [&c.requests, &c.calib_hits, &c.calib_misses];
            let row = [row, [&c.proj_hits, &c.proj_misses, &c.degraded_replies]].concat();
            (name, row.into_iter().map(Counter::get).collect())
        })
        .collect();
    assert_eq!(
        rows,
        vec![
            ("eureka".to_string(), vec![6, 5, 1, 4, 2, 0]),
            ("v2".to_string(), vec![2, 1, 1, 1, 1, 0]),
        ]
    );

    // The memo rows, sorted by (machine, seed, fingerprint).
    let mut eureka = [fingerprint(&replies[0]), fingerprint(&replies[7])];
    eureka.sort();
    let rows: Vec<String> = [
        ("eureka", &eureka[0]),
        ("eureka", &eureka[1]),
        ("v2", &fingerprint(&replies[4])),
    ]
    .iter()
    .map(|(m, fp)| format!("{{\"machine\":\"{m}\",\"seed\":1,\"fingerprint\":\"{fp}\"}}"))
    .collect();
    let stats = s.handle("gpp/1 stats", 0);
    let memo = format!("\"projection_memo\":[{}]", rows.join(","));
    assert!(stats.contains(&memo), "expected {memo} in {stats}");
}
