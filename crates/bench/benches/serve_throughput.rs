//! Throughput of the `gpp-serve` projection service: what the caches and
//! the SoA batch path buy, measured at the service layer.
//!
//! Three tiers, slowest to fastest:
//!   * `cold`      — a fresh service per request: pays calibration +
//!     projection (the one-shot CLI cost a server is meant to amortize);
//!   * `hot`       — primed service, repeated query: both caches hit,
//!     the steady state of a serve deployment;
//!   * `hot_batch` — primed service, `batch` frames of many sub-requests
//!     each, served one after another in frame order. Its `req_per_s`
//!     counts sub-requests; its latency percentiles are per *frame*.
//!
//! Methodology (see README § Performance): every tier runs `ROUNDS`
//! rounds and reports the **best round** — min-of-N defeats warmup and
//! scheduler noise, matching the regression gate's comparison rule.
//! p50/p99 come from the best round's per-call latencies.
//!
//! Writes `BENCH_serve.json` at the repository root (override with
//! `GPP_BENCH_OUT`). `ci.sh` re-runs this harness to a temporary file
//! and gates on >25% regression against the committed JSON (see
//! `perfgate`).
//!
//! Not a criterion harness: the JSON schema, the round structure, and
//! the batch-frame accounting are all bespoke, and the regression gate
//! needs a stable, self-describing output file.

use gpp_serve::{Command, Request, ServeConfig, ServiceState};
use grophecy::report::Json;
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 5;
const COLD_CALLS: usize = 16;
const HOT_CALLS: usize = 256;
const BATCH_FRAMES: usize = 8;
const BATCH_WIDTH: usize = 32;

fn project_payload(seed: u64) -> String {
    let mut req = Request::new(Command::Project);
    req.seed = seed;
    req.skeleton = include_str!("../../../skeletons/vector_add.gsk").to_string();
    req.encode()
}

struct Tier {
    name: &'static str,
    calls_per_round: usize,
    requests_per_call: usize,
    best_round_s: f64,
    p50_us: f64,
    p99_us: f64,
}

impl Tier {
    fn req_per_s(&self) -> f64 {
        (self.calls_per_round * self.requests_per_call) as f64 / self.best_round_s
    }
}

/// Runs `calls_per_round` invocations of `call` for `ROUNDS` rounds and
/// keeps the fastest round's total plus its latency distribution.
fn measure(
    name: &'static str,
    calls_per_round: usize,
    requests_per_call: usize,
    mut call: impl FnMut(usize),
) -> Tier {
    let mut best_round_s = f64::INFINITY;
    let mut best_lat: Vec<f64> = Vec::new();
    for _ in 0..ROUNDS {
        let mut lat = Vec::with_capacity(calls_per_round);
        for i in 0..calls_per_round {
            let t0 = Instant::now();
            call(i);
            lat.push(t0.elapsed().as_secs_f64());
        }
        let total: f64 = lat.iter().sum();
        if total < best_round_s {
            best_round_s = total;
            best_lat = lat;
        }
    }
    best_lat.sort_by(f64::total_cmp);
    let pct = |q: f64| -> f64 {
        let idx = ((best_lat.len() - 1) as f64 * q).round() as usize;
        best_lat[idx] * 1e6
    };
    let tier = Tier {
        name,
        calls_per_round,
        requests_per_call,
        best_round_s,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
    };
    eprintln!(
        "{:<10} {:>10.0} req/s  p50 {:>9.1} us  p99 {:>9.1} us",
        tier.name,
        tier.req_per_s(),
        tier.p50_us,
        tier.p99_us
    );
    tier
}

fn main() {
    // `perfgate` compares runs at the baseline's thread count; serving
    // never touches the pool, so this only fixes the recorded value.
    gpp_par::set_threads(1);
    let mut tiers = Vec::new();

    // Cold: every request builds a fresh service, so nothing is cached.
    let payload = project_payload(2013);
    tiers.push(measure("cold", COLD_CALLS, 1, |_| {
        let state = ServiceState::new(ServeConfig::default());
        black_box(state.handle(&payload, 0));
    }));

    // Hot: one primed service, the same query over and over.
    let state = ServiceState::new(ServeConfig::default());
    state.handle(&payload, 0);
    tiers.push(measure("hot", HOT_CALLS, 1, |_| {
        black_box(state.handle(&payload, 0));
    }));

    // Hot batch: frames of BATCH_WIDTH distinct-seed sub-requests (cache
    // misses on first round, hits after — min-of-N keeps the hit rounds).
    let frames: Vec<String> = (0..BATCH_FRAMES)
        .map(|f| {
            Request::new_batch(
                (0..BATCH_WIDTH).map(|i| project_payload(9000 + (f * BATCH_WIDTH + i) as u64)),
            )
            .encode()
        })
        .collect();
    tiers.push(measure("hot_batch", BATCH_FRAMES, BATCH_WIDTH, |i| {
        black_box(state.handle(&frames[i], 0));
    }));

    let json = Json::obj([
        ("bench", Json::Str("serve_throughput".to_string())),
        ("rounds", Json::Num(ROUNDS as f64)),
        ("threads", Json::Num(gpp_par::configured_threads() as f64)),
        (
            "host_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "tiers",
            Json::Arr(
                tiers
                    .iter()
                    .map(|t| {
                        Json::obj([
                            ("name", Json::Str(t.name.to_string())),
                            ("calls_per_round", Json::Num(t.calls_per_round as f64)),
                            ("requests_per_call", Json::Num(t.requests_per_call as f64)),
                            ("best_round_s", Json::Num(t.best_round_s)),
                            ("req_per_s", Json::Num(t.req_per_s())),
                            ("p50_us", Json::Num(t.p50_us)),
                            ("p99_us", Json::Num(t.p99_us)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let out = json.render();
    println!("{out}");
    let path = std::env::var("GPP_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").to_string()
    });
    std::fs::write(&path, format!("{out}\n")).expect("write BENCH_serve.json");
    eprintln!("wrote {path}");
}
