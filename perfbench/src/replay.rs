//! The traced per-layer replay.
//!
//! The workload's frames run in-process through the library calls a
//! `gpp-serve` worker makes for them, with a span around each: frame and
//! request decode, parse and validate, lint, calibration lookup,
//! projection-memo lookup, projection (memo misses only), reply rendering,
//! and the batch envelope and frame encode. On a memo miss the
//! projection's own layers — kernel search, data-usage analysis and the
//! timeline — are timed again as separate calls on the same inputs, under
//! a `probe` span beside `project` so they do not count twice. Every frame is then routed
//! the way `gpp-gateway` routes it.

use crate::gen::Frame;
use crate::trace::{SpanId, Tracer};
use gpp_datausage::{analyze, Hints};
use gpp_lint::{lint_program, Severity};
use gpp_serve::cache::{fnv1a, CalibKey, CalibrationCache, ProjectionCache, ProjectionKey};
use gpp_serve::protocol::{batch_response, read_frame, write_frame};
use gpp_serve::{Command, Request, ServeConfig};
use gpp_skeleton::{text, Program};
use grophecy::projector::{AppProjection, Grophecy};
use grophecy::report::projection_json;
use grophecy::{MachineRegistry, Timeline};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the timed part of a replay runs.
const BUDGET: Duration = Duration::from_secs(2);

/// Replays `frames` in the order the client sends them. An untimed pass
/// over every frame twice first fills the caches, as the served run's
/// warm-up does. Returns the spans of the timed part, one trace per frame.
pub fn run(frames: &[Frame]) -> Result<Tracer, String> {
    let server = Server::new();
    let bytes: Vec<Vec<u8>> = frames.iter().map(|f| frame(&f.payload)).collect();
    let origin = Instant::now();
    let mut scratch = Tracer::new("warm-up", origin);
    for b in bytes.iter().chain(&bytes) {
        server.request(&mut scratch, b)?;
        scratch.finish();
    }
    let mut tracer = Tracer::new("replay", origin);
    let start = Instant::now();
    for b in bytes.iter().cycle() {
        if start.elapsed() >= BUDGET {
            break;
        }
        server.request(&mut tracer, b)?;
        route(&mut tracer, b)?;
        tracer.finish();
    }
    Ok(tracer)
}

/// What a `gpp-serve` worker consults, with the server's defaults.
struct Server {
    registry: MachineRegistry,
    calibrations: CalibrationCache,
    memo: ProjectionCache,
}

impl Server {
    fn new() -> Server {
        Server {
            registry: MachineRegistry::builtin(),
            calibrations: CalibrationCache::new(),
            memo: ProjectionCache::new(ServeConfig::default().projection_cache),
        }
    }

    /// One frame, as a worker serves it: a `batch` frame's requests one
    /// after another, their replies joined into one.
    fn request(&self, tracer: &mut Tracer, frame_bytes: &[u8]) -> Result<(), String> {
        let root = tracer.enter("request", None);
        let req = tracer.span("decode", root, || decode(frame_bytes))?;
        let reply = if req.command == Command::Batch {
            let mut replies = Vec::with_capacity(req.batch.len());
            for sub in &req.batch {
                let sub = tracer.span("decode", root, || {
                    Request::decode(sub).map_err(|e| e.to_string())
                })?;
                replies.push(self.project(tracer, root, &sub)?);
            }
            tracer.span("encode", root, || batch_response(&replies))
        } else {
            self.project(tracer, root, &req)?
        };
        tracer.span("encode", root, || black_box(frame(&reply)));
        tracer.exit(root);
        Ok(())
    }

    /// One `project` request, from parse to its rendered reply.
    fn project(&self, tracer: &mut Tracer, root: SpanId, req: &Request) -> Result<String, String> {
        let (program, map, hints) = tracer.span("parse", root, || {
            let (program, map) =
                text::parse_with_spans(&req.skeleton).map_err(|e| e.to_string())?;
            gpp_skeleton::validate::validate(&program).map_err(|e| e.to_string())?;
            let hints = Hints::for_program(&program);
            Ok::<_, String>((program, map, hints))
        })?;
        let diags = tracer.span("lint", root, || lint_program(&program, Some(&map), &hints));
        if diags.iter().any(|d| d.severity == Severity::Error) {
            return Err(format!("the analyzer rejects `{}`", program.name));
        }
        let gro = tracer.span("calib_lookup", root, || self.projector(req))?;
        let (key, hit) = tracer.span("memo_lookup", root, || {
            let key = ProjectionKey {
                machine: req.machine.clone(),
                seed: req.seed,
                skeleton_hash: fnv1a(text::to_text(&program).as_bytes()),
                hints_hash: fnv1a(b""),
                fingerprint: gpp_gpu_model::program_fingerprint(&program),
            };
            let hit = self.memo.get(&key);
            (key, hit)
        });
        let proj = match hit {
            Some(proj) => proj,
            None => {
                let proj = Arc::new(tracer.span("project", root, || gro.project(&program, &hints)));
                self.memo.insert(key, proj.clone());
                probe(tracer, root, &gro, &program, &hints, &proj);
                proj
            }
        };
        Ok(tracer.span("render", root, || projection_json(&proj).render()))
    }

    /// Machine resolution, then the calibration cache, as the worker does
    /// it; a miss calibrates and fills the cache.
    fn projector(&self, req: &Request) -> Result<Arc<Grophecy>, String> {
        let machine = self
            .registry
            .config(&req.machine, req.seed)
            .map_err(|e| e.to_string())?;
        let key = CalibKey {
            machine: req.machine.clone(),
            seed: req.seed,
        };
        let (gro, _hit) = self.calibrations.get_or_calibrate(key, || {
            let mut node = machine.node();
            Grophecy::calibrate(&machine, &mut node)
        });
        Ok(gro)
    }
}

/// Times the projection's own layers on a memo miss, each called again on
/// the inputs the projection just used.
fn probe(
    tracer: &mut Tracer,
    request: SpanId,
    gro: &Grophecy,
    program: &Program,
    hints: &Hints,
    proj: &AppProjection,
) {
    let root = tracer.enter("probe", Some(request));
    tracer.span("search", root, || {
        for kernel in &program.kernels {
            for axis in kernel.axis_candidates() {
                let chars = kernel.characteristics_with_axis(program, axis);
                black_box(gpp_gpu_model::project_best(
                    &kernel.name,
                    &chars,
                    gro.gpu_spec(),
                ));
            }
        }
    });
    tracer.span("datausage", root, || black_box(analyze(program, hints)));
    if proj.timeline.is_some() {
        let kernel_times: Vec<f64> = proj.kernels.iter().map(|k| k.time).collect();
        tracer.span("timeline", root, || {
            black_box(Timeline::build(
                program,
                &kernel_times,
                &proj.plan,
                &proj.transfer_times,
            ))
        });
    }
    tracer.exit(root);
}

/// The gateway's own work on a frame before it forwards it: decode, then
/// for each request a parse for the structural fingerprint, the ring key
/// and the coalescing key.
fn route(tracer: &mut Tracer, frame_bytes: &[u8]) -> Result<(), String> {
    let root = tracer.enter("gateway_route", None);
    let req = decode(frame_bytes)?;
    let subs = match req.command {
        Command::Batch => req
            .batch
            .iter()
            .map(|sub| Request::decode(sub).map(|r| (r, fnv1a(sub.as_bytes()))))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?,
        _ => vec![(req, fnv1a(frame_bytes))],
    };
    for (sub, coalescing_key) in subs {
        let program = text::parse(&sub.skeleton).map_err(|e| e.to_string())?;
        let key = gpp_gateway::ring::routing_key(
            &sub.machine,
            gpp_gpu_model::program_fingerprint(&program),
        );
        black_box(key ^ coalescing_key);
    }
    tracer.exit(root);
    Ok(())
}

fn frame(payload: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 16);
    write_frame(&mut out, payload).expect("writing to a Vec cannot fail");
    out
}

fn decode(frame_bytes: &[u8]) -> Result<Request, String> {
    let payload = read_frame(&mut &frame_bytes[..])
        .map_err(|e| e.to_string())?
        .ok_or("empty frame")?;
    Request::decode(&payload).map_err(|e| e.to_string())
}
