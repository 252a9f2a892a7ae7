//! The `batch` frame end-to-end: a batch reply must be **bit-for-bit**
//! the concatenation of the single-shot replies for the same requests —
//! the property the gateway's fan-out relies on.

use gpp_serve::protocol::Request;
use gpp_serve::Command;
use gpp_serve::{ServeConfig, ServiceState};
use proptest::prelude::*;

const VEC_ADD: &str = include_str!("../../../skeletons/vector_add.gsk");
const HOTSPOT: &str = include_str!("../../../skeletons/hotspot_1024.gsk");

fn payload(cmd: &str, body: &str) -> String {
    format!("gpp/1 {cmd}\n{body}")
}

/// Extracts the `replies` array elements from a batch reply by splitting
/// on the envelope (each element is itself a complete JSON object the
/// server rendered, so reconstructing the concatenation is exact).
fn assert_batch_equals_singles(batch_reply: &str, singles: &[String]) {
    let expected = format!(
        "{{\"ok\":true,\"command\":\"batch\",\"count\":{},\"replies\":[{}]}}",
        singles.len(),
        singles.join(",")
    );
    assert_eq!(batch_reply, expected);
}

#[test]
fn batch_reply_is_bitwise_concatenation_of_single_shots() {
    let subs = vec![
        payload("project", VEC_ADD),
        payload("project seed=7", VEC_ADD),
        "gpp/1 ping".to_string(),
        payload("analyze", HOTSPOT),
        "gpp/1 project\n".to_string(), // sub-level error: still embedded
    ];
    // Reference: a fresh state answering each request single-shot.
    let singles: Vec<String> = {
        let s = ServiceState::new(ServeConfig::default());
        subs.iter().map(|p| s.handle(p, 0)).collect()
    };
    // Batch: another fresh state, same requests in one frame.
    let s = ServiceState::new(ServeConfig::default());
    let batch_reply = s.handle(&Request::new_batch(subs).encode(), 0);
    assert_batch_equals_singles(&batch_reply, &singles);
}

#[test]
fn batch_subs_share_server_caches() {
    let s = ServiceState::new(ServeConfig::default());
    let subs = vec![payload("project", VEC_ADD), payload("project", VEC_ADD)];
    let reply = s.handle(&Request::new_batch(subs).encode(), 0);
    // Second identical sub hits the projection memo warmed by the first.
    assert!(reply.contains("\"cached\":false"), "{reply}");
    assert!(reply.contains("\"cached\":true"), "{reply}");
    let snap = s.metrics.totals();
    assert_eq!((snap.proj_misses.get(), snap.proj_hits.get()), (1, 1));
}

/// The `cached` flags of a reply's `project` replies, in reply order.
fn cached_flags(reply: &str) -> Vec<bool> {
    reply
        .match_indices("\"cached\":")
        .map(|(at, key)| reply[at + key.len()..].starts_with("true"))
        .collect()
}

/// Replies from a fresh server answering each request single-shot.
fn single_shots(subs: &[String]) -> Vec<String> {
    let s = ServiceState::new(ServeConfig::default());
    subs.iter().map(|p| s.handle(p, 0)).collect()
}

#[test]
fn formatting_only_duplicate_misses_then_hits() {
    let spaced = VEC_ADD.replace('\n', "\n\n");
    let subs = vec![payload("project", VEC_ADD), payload("project", &spaced)];
    let s = ServiceState::new(ServeConfig::default());
    let reply = s.handle(&Request::new_batch(subs.clone()).encode(), 0);
    assert_eq!(cached_flags(&reply), [false, true], "{reply}");
    assert_batch_equals_singles(&reply, &single_shots(&subs));
}

#[test]
fn stats_sub_request_counts_the_repeats_before_it() {
    let subs = vec![
        payload("project", VEC_ADD),
        payload("project", VEC_ADD),
        payload("project", VEC_ADD),
        "gpp/1 stats".to_string(),
        payload("project", VEC_ADD),
    ];
    let s = ServiceState::new(ServeConfig::default());
    let reply = s.handle(&Request::new_batch(subs).encode(), 0);
    let stats = &reply[reply.find("\"command\":\"stats\"").expect("stats reply")..];
    assert!(
        stats.contains("\"served_ok\":3,\"served_err\":0"),
        "{stats}"
    );
    assert!(
        stats.contains("\"projection_hits\":2,\"projection_misses\":1"),
        "{stats}"
    );
    assert_eq!(cached_flags(&reply), [false, true, true, true], "{reply}");
}

#[test]
fn batch_past_memo_capacity_evicts_in_frame_order() {
    let capacity = ServeConfig::default().projection_cache;
    let program = |i: usize| {
        payload(
            "project",
            &VEC_ADD.replace("16777216", &(1024 * (i + 1)).to_string()),
        )
    };
    // Fill the memo, then refresh the oldest entry before a new program
    // arrives: in frame order the new program evicts program 1, not 0.
    let mut subs: Vec<String> = (0..capacity).map(program).collect();
    subs.extend([program(0), program(capacity), program(1), program(0)]);
    let s = ServiceState::new(ServeConfig::default());
    let reply = s.handle(&Request::new_batch(subs.clone()).encode(), 0);
    let mut expected = vec![false; capacity];
    expected.extend([true, false, false, true]);
    assert_eq!(cached_flags(&reply), expected);
    assert_batch_equals_singles(&reply, &single_shots(&subs));
    assert_eq!(s.projections.len(), capacity);
}

#[test]
fn successful_project_replies_carry_the_fingerprint() {
    let s = ServiceState::new(ServeConfig::default());
    let a = s.handle(&payload("project", VEC_ADD), 0);
    let b = s.handle(&payload("project seed=9", VEC_ADD), 0);
    let c = s.handle(&payload("project", HOTSPOT), 0);
    let fp = |reply: &str| {
        let at = reply.find("\"fingerprint\":\"").expect("fingerprint field") + 15;
        reply[at..at + 32].to_string()
    };
    // Structural: same program → same fingerprint at any seed; a
    // different program fingerprints differently.
    assert_eq!(fp(&a), fp(&b));
    assert_ne!(fp(&a), fp(&c));
    // The stats memo rows expose the same fingerprints.
    let stats = s.handle("gpp/1 stats", 0);
    assert!(stats.contains("\"projection_memo\":["), "{stats}");
    assert!(
        stats.contains(&format!("\"fingerprint\":\"{}\"", fp(&a))),
        "{stats}"
    );
    assert!(
        stats.contains(&format!("\"fingerprint\":\"{}\"", fp(&c))),
        "{stats}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any mix of deterministic sub-requests (well-formed and broken
    /// alike — `stats` is excluded since its counters depend on the frame
    /// count), the batch reply equals the concatenation of single-shot
    /// replies from an identically-initialized server, bit for bit.
    #[test]
    fn batch_matches_singles_for_any_mix(
        picks in proptest::collection::vec(0usize..6, 1..8),
        seed in 0u64..1000,
    ) {
        let sub = |pick: usize| match pick {
            0 => payload(&format!("project seed={seed}"), VEC_ADD),
            1 => "gpp/1 ping".to_string(),
            2 => payload("analyze", VEC_ADD),
            3 => payload(&format!("project seed={}", seed + 1), HOTSPOT),
            4 => payload("deps", VEC_ADD),
            _ => "gpp/1 project\n".to_string(), // missing skeleton: error
        };
        let subs: Vec<String> = picks.iter().map(|p| sub(*p)).collect();
        let singles: Vec<String> = {
            let s = ServiceState::new(ServeConfig::default());
            subs.iter().map(|p| s.handle(p, 0)).collect()
        };
        let s = ServiceState::new(ServeConfig::default());
        let batch_reply = s.handle(&Request::new_batch(subs).encode(), 0);
        let expected = format!(
            "{{\"ok\":true,\"command\":\"batch\",\"count\":{},\"replies\":[{}]}}",
            picks.len(),
            singles.join(",")
        );
        prop_assert_eq!(batch_reply, expected);
    }

    /// Encode/decode round-trips any batch of ping frames at any legal
    /// count.
    #[test]
    fn batch_roundtrips_at_any_count(n in 1usize..40) {
        let req = Request::new_batch((0..n).map(|_| "gpp/1 ping".to_string()));
        let decoded = Request::decode(&req.encode()).unwrap();
        prop_assert_eq!(decoded.command, Command::Batch);
        prop_assert_eq!(decoded.batch.len(), n);
    }
}
