//! Throughput of the transformation-space search itself: the serial
//! exhaustive oracle vs the SoA batch engine, on the largest paper
//! workload (CFD at 232K elements — three kernels, the widest candidate
//! space in the suite).
//!
//! The timed region is exactly the kernel × axis × transformation search
//! over every task the app projector would spawn (`project_all` for the
//! oracle arm, `project_best` for the engine); characteristics extraction
//! and the transfer-plan analysis are hoisted because neither arm touches
//! them. Both arms select bit-identical projections (the determinism
//! suite asserts this); only wall-clock differs.
//!
//! A third arm, `overlap`, times one full application projection of a
//! stream-annotated chunked schedule — the timeline construction the
//! overlap semantics added on top of the (memoized) kernel search.
//! Gating it keeps the per-transfer timeline bookkeeping from creeping
//! into the projection hot path.
//!
//! Every arm reports seconds per operation: one 3-search CFD pass for
//! the search arms, one projection for `overlap`.
//!
//! Writes `BENCH_project.json` at the repository root (override the
//! destination with `GPP_BENCH_OUT`) with per-arm timings and the
//! speedups over the serial baseline. `ci.sh` re-runs this harness to a
//! temporary file and gates on >25% regression against the committed
//! JSON (see `perfgate`).
//!
//! Every arm runs at one thread. The engine and `Grophecy::project` never
//! touch the `gpp-par` pool; the oracle maps its candidates over it, so
//! the pool is pinned to one thread for the whole run, and `perfgate`
//! fails a run whose `threads` differs from the baseline's. Not a
//! criterion harness: `gpp_par::set_threads` is process-global state a
//! shared criterion runner would race on.

use gpp_skeleton::KernelCharacteristics;
use gpp_workloads::cfd::Cfd;
use grophecy::report::Json;
use std::hint::black_box;
use std::time::Instant;

const ITERS: u32 = 20;

/// One timed search arm: one pass over the tasks.
struct Arm<'a> {
    name: &'static str,
    run: &'a dyn Fn(),
}

fn main() {
    gpp_par::set_threads(1);
    let spec = gpp_gpu_model::GpuSpec::quadro_fx_5600();
    let case = Cfd {
        nel: *Cfd::PAPER_SIZES.last().unwrap(),
    }
    .case();

    // The same task list `Grophecy::project` flattens: one search
    // per (kernel, thread-axis candidate).
    let tasks: Vec<(String, KernelCharacteristics)> = case
        .program
        .kernels
        .iter()
        .flat_map(|k| {
            k.axis_candidates().into_iter().map(|axis| {
                (
                    k.name.clone(),
                    k.characteristics_with_axis(&case.program, axis),
                )
            })
        })
        .collect();
    let candidates: usize = tasks
        .iter()
        .map(|(_, c)| gpp_gpu_model::candidate_space(c, &spec).len())
        .sum();

    let oracle = || {
        for (name, chars) in &tasks {
            black_box(gpp_gpu_model::project_all(name, chars, &spec).0);
        }
    };
    let soa = || {
        for (name, chars) in &tasks {
            black_box(gpp_gpu_model::project_best(name, chars, &spec));
        }
    };
    let arms = [
        Arm {
            name: "serial_exhaustive",
            run: &oracle,
        },
        Arm {
            name: "soa",
            run: &soa,
        },
    ];

    let mut results: Vec<(&'static str, f64, f64)> = Vec::new();
    for arm in &arms {
        // One untimed pass so every arm runs against warm caches — the
        // engine's steady state is the quantity of interest (a serve
        // deployment pays synthesis once per distinct kernel).
        (arm.run)();
        let mut times = Vec::with_capacity(ITERS as usize);
        for _ in 0..ITERS {
            let t0 = Instant::now();
            (arm.run)();
            times.push(t0.elapsed().as_secs_f64());
        }
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        eprintln!(
            "{:<22} min {:>9.3} ms  mean {:>9.3} ms",
            arm.name,
            min * 1e3,
            mean * 1e3
        );
        results.push((arm.name, min, mean));
    }

    // The overlap arm: whole-app projection of a stream-annotated
    // chunked schedule. Unlike the search arms, the timed region is
    // `Grophecy::project` itself — calibration and parsing are hoisted,
    // the kernel search is warm, so the measurement isolates the
    // timeline/overlap bookkeeping the schedule pays per projection.
    const STREAMED: &str = "\
program overlap_bench
array a f32 [1048576]
array b f32 [1048576]
array c f32 [1048576]
array d f32 [1048576]
h2d a stream 1 chunks=8
h2d b stream 2 chunks=8
kernel k1
  parallel i 1048576
  stmt adds=1
    read  a [i]
    read  b [i]
    write c [i]
d2h c stream 1 chunks=8
kernel k2
  parallel i 1048576
  stmt adds=1
    read  c [i]
    write d [i]
d2h d stream 2 chunks=8
";
    // Each timed sample runs this many projections, to stay well above
    // the clock's resolution; the arm reports the time of one.
    const OVERLAP_REPS: u32 = 32;
    let program = gpp_skeleton::text::parse(STREAMED).expect("bench skeleton parses");
    let hints = gpp_datausage::Hints::for_program(&program);
    let machine = grophecy::MachineConfig::anl_eureka_node(2013);
    let mut node = machine.node();
    let gro = grophecy::projector::Grophecy::calibrate(&machine, &mut node);
    let run_overlap = || {
        for _ in 0..OVERLAP_REPS {
            black_box(gro.project(black_box(&program), &hints));
        }
    };
    run_overlap();
    let mut times = Vec::with_capacity(ITERS as usize);
    for _ in 0..ITERS {
        let t0 = Instant::now();
        run_overlap();
        times.push(t0.elapsed().as_secs_f64());
    }
    let reps = f64::from(OVERLAP_REPS);
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min) / reps;
    let mean = times.iter().sum::<f64>() / times.len() as f64 / reps;
    eprintln!(
        "{:<22} min {:>9.3} ms  mean {:>9.3} ms",
        "overlap",
        min * 1e3,
        mean * 1e3
    );
    results.push(("overlap", min, mean));

    let serial_min = results[0].1;
    let (hits, misses) = gpp_gpu_model::synth_memo_stats();
    let json = Json::obj([
        ("bench", Json::Str("project_throughput".to_string())),
        ("workload", Json::Str(format!("CFD {}", case.dataset))),
        ("searches_per_iter", Json::Num(tasks.len() as f64)),
        ("candidates_per_iter", Json::Num(candidates as f64)),
        ("iters", Json::Num(f64::from(ITERS))),
        ("threads", Json::Num(gpp_par::configured_threads() as f64)),
        (
            "host_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "arms",
            Json::Arr(
                results
                    .iter()
                    .map(|(name, min, mean)| {
                        Json::obj([
                            ("name", Json::Str((*name).to_string())),
                            ("min_s", Json::Num(*min)),
                            ("mean_s", Json::Num(*mean)),
                            ("speedup_vs_serial", Json::Num(serial_min / min)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("memo_hits", Json::Num(hits as f64)),
        ("memo_misses", Json::Num(misses as f64)),
    ]);
    let out = json.render();
    println!("{out}");
    let path = std::env::var("GPP_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_project.json").to_string()
    });
    std::fs::write(&path, format!("{out}\n")).expect("write BENCH_project.json");
    eprintln!("wrote {path}");
}
