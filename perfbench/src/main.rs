//! `perfbench`: a loopback end-to-end benchmark for `gpp serve` and
//! `gpp gateway`, with a traced per-layer replay.
//!
//! ```text
//! perfbench --gpp PATH --workload hot|miss|gateway --seed N --seconds S --trace 0|1
//! ```
//!
//! `run.py` next to this crate builds `gpp` and this harness and is the
//! entry point; `README.md` describes the workloads and the metrics. The
//! last line of standard output is the JSON result; everything else goes
//! to standard error.

mod gen;
mod load;
mod replay;
mod stack;
mod trace;

use gen::{Frame, Mix, Pool, MACHINES};
use gpp_serve::{Client, Command, Request};
use load::{Expected, LoadRun, IO_TIMEOUT};
use stack::{Stack, Tier};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Load before the measured window, so caches fill and the client holds
/// its connection.
const WARMUP: Duration = Duration::from_secs(1);

/// Requests per stretch of the measured window; see [`best_stretch`].
const STRETCH: u64 = 2048;

/// Requests per `batch` frame of `hot` and `miss`.
const BATCH: usize = 32;

/// Programs and rounds of the gateway-hop probe.
const HOP_PROGRAMS: usize = 8;
const HOP_ROUNDS: usize = 16;

/// Where traced runs write their spans, relative to the checkout root.
const TRACE_DIR: &str = ".bench_trace";

#[derive(Debug, Clone, Copy)]
enum Workload {
    Hot,
    Miss,
    Gateway,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot" => Some(Workload::Hot),
            "miss" => Some(Workload::Miss),
            "gateway" => Some(Workload::Gateway),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Hot => "hot",
            Workload::Miss => "miss",
            Workload::Gateway => "gateway",
        }
    }

    fn mix(self) -> Mix {
        match self {
            Workload::Miss => Mix::Distinct,
            Workload::Hot | Workload::Gateway => Mix::Repeated,
        }
    }

    /// Requests per frame: `hot` and `miss` send `batch` frames.
    fn batch(self) -> usize {
        match self {
            Workload::Hot | Workload::Miss => BATCH,
            Workload::Gateway => 1,
        }
    }

    fn tier(self) -> Tier {
        match self {
            Workload::Gateway => Tier::Gateway,
            Workload::Hot | Workload::Miss => Tier::Serve,
        }
    }
}

struct Args {
    gpp: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let (mut gpp, mut workload, mut seed, mut seconds, mut trace) =
            (None, None, None, None, false);
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--gpp" => gpp = Some(PathBuf::from(value)),
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| {
                        format!("unknown workload `{value}` (hot, miss, gateway)")
                    })?)
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse()
                            .map_err(|_| format!("--seed needs an integer, got `{value}`"))?,
                    )
                }
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse()
                            .ok()
                            .filter(|s| (1..=60).contains(s))
                            .ok_or_else(|| format!("--seconds needs 1 to 60, got `{value}`"))?,
                    )
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace needs 0 or 1, got `{value}`")),
                    }
                }
                _ => return Err(format!("unknown option `{flag}`")),
            }
        }
        Ok(Args {
            gpp: gpp.ok_or("--gpp is required")?,
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The result line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let pool = Pool::generate(args.workload.mix(), args.seed);
    let expected = Expected::for_pool(&pool)?;
    let frames = pool.frames(args.workload.batch());
    let (mut stack, setup) = set_up(args, &pool, &expected)?;
    let window = Duration::from_secs(args.seconds);
    let load = load::closed_loop(&stack.addr, &frames, &expected, WARMUP, window, args.trace);
    if load.samples.is_empty() {
        return Err("no request completed inside the measured window".into());
    }
    if args.trace {
        per_layer(args, &mut stack, &pool, &frames, &expected, &load)
    } else {
        Ok(end_to_end(&load, window, setup))
    }
}

/// Starts the stack `SETUPS` times, each time until every `gpp serve` has
/// answered a projection on every machine the workload targets (so
/// calibration counts as set-up) and a gateway, if any, a ping; keeps the
/// last one running.
fn set_up(args: &Args, pool: &Pool, expected: &[Expected]) -> Result<(Stack, Duration), String> {
    let first_projections = |addr: &str| -> Result<(), String> {
        for machine in MACHINES {
            if let Some(i) = pool.items.iter().position(|item| item.machine == machine) {
                let reply = Client::connect(addr, IO_TIMEOUT)
                    .and_then(|mut c| c.call_raw(&pool.items[i].payload))
                    .map_err(|e| format!("first request failed: {e}"))?;
                if !expected[i].matches(&reply) {
                    return Err(format!(
                        "first reply differs from the reference: {}",
                        load::preview(&reply)
                    ));
                }
            }
        }
        Ok(())
    };
    let mut times = Vec::with_capacity(SETUPS);
    let mut stack = None;
    for _ in 0..SETUPS {
        drop(stack.take());
        let started = Instant::now();
        let fresh = Stack::start(&args.gpp, args.workload.tier(), &first_projections)?;
        times.push(started.elapsed());
        stack = Some(fresh);
    }
    Ok((stack.expect("SETUPS > 0"), median(&mut times)))
}

fn end_to_end(load: &LoadRun, window: Duration, setup: Duration) -> Report {
    let best = best_stretch(load);
    eprintln!(
        "perfbench: {} requests in {window:?} ({} failed); best stretch {:.0} req/s, p50 {:?}; set-up {setup:?}",
        load.tally.attempted, load.tally.failed, best.throughput, best.p50
    );
    Report {
        correct: load.tally.errors == 0,
        attempted: load.tally.attempted,
        failed: load.tally.failed,
        metrics: vec![
            Metric {
                name: "throughput_rps",
                value: best.throughput,
                unit: "1/s",
            },
            Metric {
                name: "p50_ms",
                value: best.p50.as_secs_f64() * 1e3,
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: setup.as_secs_f64(),
                unit: "s",
            },
        ],
    }
}

/// The best stretch of about `STRETCH` consecutive requests of the
/// measured window: the highest rate of requests answered, and the lowest
/// median frame round trip.
struct Best {
    throughput: f64,
    p50: Duration,
}

/// Cuts the measured frames into stretches of `STRETCH` requests and keeps
/// the best of each figure, as a min-of-N bench keeps its fastest
/// repetition: the host's CPU speed wanders by tens of percent over
/// seconds, and the best stretch is the part of the run least slowed by
/// it. With batches that is 64 frames, about 60 ms; single requests
/// through the gateway, which wait out the servers' 10 ms accept poll,
/// make one stretch of (nearly) the whole window, so a lucky phase
/// against that timer cannot be picked.
fn best_stretch(load: &LoadRun) -> Best {
    let mut best = Best {
        throughput: 0.0,
        p50: Duration::MAX,
    };
    let frames = (STRETCH / load.samples[0].requests) as usize;
    let stretches = load
        .samples
        .chunks_exact(frames.clamp(1, load.samples.len()));
    for stretch in stretches {
        let (first, last) = (&stretch[0], &stretch[stretch.len() - 1]);
        let span = last.sent_at + last.rtt - first.sent_at;
        let requests: u64 = stretch.iter().map(|s| s.requests).sum();
        best.throughput = best.throughput.max(requests as f64 / span.as_secs_f64());
        let mut rtts: Vec<Duration> = stretch.iter().map(|s| s.rtt).collect();
        best.p50 = best.p50.min(median(&mut rtts));
    }
    best
}

fn per_layer(
    args: &Args,
    stack: &mut Stack,
    pool: &Pool,
    frames: &[Frame],
    expected: &[Expected],
    load: &LoadRun,
) -> Result<Report, String> {
    let served = ServerStats::fetch(&stack.shards)?;
    let (coalesced, hedges) = match stack.tier {
        Tier::Gateway => {
            let stats = stats(&stack.addr)?;
            (
                json_number(&stats, "coalesced")?,
                json_number(&stats, "hedges_fired")?,
            )
        }
        Tier::Serve => (0.0, 0.0),
    };
    let (hop_us, hop_correct) = gateway_hop(args, stack, pool, expected)?;
    let replay = replay::run(frames)?;
    write_trace(args, load.tracer.iter().chain([&replay]))?;
    let mut rtt: Vec<Duration> = load.samples.iter().map(|s| s.rtt).collect();
    let rtt_p50_us = median(&mut rtt).as_secs_f64() * 1e6;
    let us = |name, layer: &str| Metric {
        name,
        value: replay.mean_self_us(layer) / args.workload.batch() as f64,
        unit: "us",
    };
    let metrics = vec![
        us("decode_us", "decode"),
        us("parse_us", "parse"),
        us("lint_us", "lint"),
        us("calib_lookup_us", "calib_lookup"),
        us("memo_lookup_us", "memo_lookup"),
        us("project_us", "project"),
        us("search_us", "search"),
        us("datausage_us", "datausage"),
        us("timeline_us", "timeline"),
        us("render_us", "render"),
        us("encode_us", "encode"),
        us("gateway_route_us", "gateway_route"),
        us("replay_self_us", "request"),
        Metric {
            name: "rtt_p50_us",
            value: rtt_p50_us,
            unit: "us",
        },
        Metric {
            name: "server_p50_us",
            value: served.compute_p50_us,
            unit: "us",
        },
        Metric {
            name: "queue_p50_us",
            value: served.queued_p50_us,
            unit: "us",
        },
        Metric {
            name: "gateway_hop_us",
            value: hop_us,
            unit: "us",
        },
        Metric {
            name: "memo_hit_ratio",
            value: ratio(served.memo_hits, served.memo_misses),
            unit: "ratio",
        },
        Metric {
            name: "calib_hit_ratio",
            value: ratio(served.calib_hits, served.calib_misses),
            unit: "ratio",
        },
        Metric {
            name: "coalesced",
            value: coalesced,
            unit: "count",
        },
        Metric {
            name: "hedges_fired",
            value: hedges,
            unit: "count",
        },
    ];
    Ok(Report {
        correct: load.tally.errors == 0 && hop_correct,
        attempted: load.tally.attempted,
        failed: load.tally.failed,
        metrics,
    })
}

/// Counters summed, and medians averaged, over every `gpp serve` of the
/// stack, from their `stats` replies.
#[derive(Default)]
struct ServerStats {
    memo_hits: f64,
    memo_misses: f64,
    calib_hits: f64,
    calib_misses: f64,
    compute_p50_us: f64,
    queued_p50_us: f64,
}

impl ServerStats {
    fn fetch(addrs: &[String]) -> Result<ServerStats, String> {
        let mut total = ServerStats::default();
        let share = 1.0 / addrs.len() as f64;
        for addr in addrs {
            let s = stats(addr)?;
            total.memo_hits += json_number(&s, "projection_hits")?;
            total.memo_misses += json_number(&s, "projection_misses")?;
            total.calib_hits += json_number(&s, "calibration_hits")?;
            total.calib_misses += json_number(&s, "calibration_misses")?;
            total.compute_p50_us += share * json_number(&s, "p50_compute_us")?;
            total.queued_p50_us += share * json_number(&s, "p50_queued_us")?;
        }
        Ok(total)
    }
}

fn stats(addr: &str) -> Result<String, String> {
    Client::connect(addr, IO_TIMEOUT)
        .and_then(|mut c| c.call(&Request::new(Command::Stats)))
        .map_err(|e| format!("stats from {addr}: {e}"))
}

/// The first `"key":<number>` of a flat JSON reply.
fn json_number(json: &str, key: &str) -> Result<f64, String> {
    let needle = format!("\"{key}\":");
    let start = json
        .find(&needle)
        .ok_or_else(|| format!("stats reply lacks `{key}`"))?
        + needle.len();
    let rest = &json[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .map_err(|_| format!("stats value of `{key}` is not a number"))
}

fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

/// The gateway hop: the median round trip of memo-hit requests through a
/// gateway minus that of the same requests sent straight to a shard. A
/// `gpp serve` stack gets a gateway of its own for the probe. Returns the
/// hop in microseconds and whether every reply matched the reference.
fn gateway_hop(
    args: &Args,
    stack: &mut Stack,
    pool: &Pool,
    expected: &[Expected],
) -> Result<(f64, bool), String> {
    let gateway = match stack.tier {
        Tier::Gateway => stack.addr.clone(),
        Tier::Serve => stack.add_gateway(&args.gpp)?,
    };
    let connect =
        |addr: &str| Client::connect(addr, IO_TIMEOUT).map_err(|e| format!("hop probe: {e}"));
    let mut via = connect(&gateway)?;
    let mut direct = stack
        .shards
        .iter()
        .map(|a| connect(a))
        .collect::<Result<Vec<_>, _>>()?;
    let programs = pool.items.len().min(HOP_PROGRAMS);
    let mut correct = true;
    let mut send = |client: &mut Client, i: usize| -> Result<Duration, String> {
        let started = Instant::now();
        let reply = client
            .call_raw(&pool.items[i].payload)
            .map_err(|e| format!("hop probe: {e}"))?;
        let elapsed = started.elapsed();
        correct &= expected[i].matches(&reply);
        Ok(elapsed)
    };
    // Warm every probe program on every shard, so both paths hit the memo.
    for i in 0..programs {
        for shard in &mut direct {
            send(shard, i)?;
        }
        send(&mut via, i)?;
    }
    let (mut straight, mut hopped) = (Vec::new(), Vec::new());
    for _ in 0..HOP_ROUNDS {
        for i in 0..programs {
            straight.push(send(&mut direct[0], i)?);
            hopped.push(send(&mut via, i)?);
        }
    }
    let hop = median(&mut hopped).as_secs_f64() - median(&mut straight).as_secs_f64();
    Ok((hop * 1e6, correct))
}

fn write_trace<'t>(args: &Args, tracers: impl Iterator<Item = &'t Tracer>) -> Result<(), String> {
    let mut out = String::new();
    for tracer in tracers {
        tracer.write_jsonl(&mut out);
    }
    let path = format!(
        "{TRACE_DIR}/{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    );
    std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, out))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("perfbench: spans written to {path}");
    Ok(())
}

fn median(xs: &mut [Duration]) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}
