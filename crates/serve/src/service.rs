//! The request handlers: protocol commands → `grophecy::report` JSON.
//!
//! [`ServiceState`] is the shared, thread-safe heart of the server: the
//! calibration cache, the projection memo, and the metrics. Handlers are
//! pure functions of (state, request) so they can be driven by the TCP
//! worker pool, by benchmarks, or by tests without any networking.

use crate::cache::{
    CalibKey, Calibration, CalibrationCache, ProjectionCache, ProjectionKey, RenderedProjection,
    TextKey,
};
use crate::client::RetryBudget;
use crate::metrics::Metrics;
use crate::protocol::{Command, ProtocolError, Request};
use gpp_datausage::{analyze, Hints};
use gpp_fault::FaultInjector;
use gpp_gpu_model::ProgramChars;
use gpp_lint::{lint_program, Diagnostic, Severity};
use gpp_pcie::{Direction, MemType, SweepValidation};
use gpp_skeleton::text;
use gpp_skeleton::{Program, SourceMap};
use grophecy::machine::MachineConfig;
use grophecy::measurement::measure;
use grophecy::numfmt::{write_hex128, write_u64};
use grophecy::projector::Grophecy;
use grophecy::registry::MachineRegistry;
use grophecy::report::{
    measurement_json, projection_json, speedup_json, write_num, write_str, Json,
};
use grophecy::speedup::SpeedupReport;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tunables for one service instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:4513` (port 0 = ephemeral).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Bounded accept-queue depth; connections beyond it get `busy`.
    pub queue_depth: usize,
    /// Compute budget per request; exceeding it returns `timeout`.
    pub request_timeout: Duration,
    /// Capacity of the projection LRU memo.
    pub projection_cache: usize,
    /// Largest accepted request frame; bigger declared lengths get a
    /// structured `too_large` error before any allocation happens.
    pub max_frame_bytes: usize,
    /// The fault plan in force (compiled). [`FaultInjector::disabled`]
    /// — the default — leaves every code path bit-identical to a build
    /// without fault support.
    pub faults: Arc<FaultInjector>,
    /// The machines this instance serves. Defaults to the built-in
    /// registry (`eureka`, `v2`); `gpp serve --machines dir/` loads user
    /// datasheets on top.
    pub machines: Arc<MachineRegistry>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:4513".to_string(),
            workers: 4,
            queue_depth: 64,
            request_timeout: Duration::from_secs(30),
            projection_cache: 128,
            max_frame_bytes: 4 << 20,
            faults: FaultInjector::disabled(),
            machines: Arc::new(MachineRegistry::builtin()),
        }
    }
}

/// Fresh-calibration attempts (first try + retries with exponential
/// backoff) before a request falls back to the last-good calibration.
pub const CALIB_ATTEMPTS: u32 = 3;

/// Base backoff between calibration retries; attempt `n` waits
/// `2^(n-1)` times this (±25% seeded jitter).
const CALIB_BACKOFF: Duration = Duration::from_millis(5);

/// Whole tokens in the calibration retry budget. The bucket starts full;
/// each calibration *retry* (never the first attempt) withdraws one.
const CALIB_BUDGET_CAPACITY: u32 = 16;

/// Milli-tokens each successful fresh calibration deposits back: four
/// successes earn one retry. Deliberately **not** time-refilled — a
/// wall-clock refill would make retry counts (and therefore RNG-stream
/// consumption and reply bytes) timing-dependent, breaking the chaos
/// suite's bit-identical-replay guarantee.
const CALIB_BUDGET_DEPOSIT_MILLI: u64 = 250;

/// Shared state behind every worker.
pub struct ServiceState {
    pub config: ServeConfig,
    pub calibrations: CalibrationCache,
    pub projections: ProjectionCache<Arc<RenderedProjection>, Arc<TextParts>>,
    pub metrics: Metrics,
    /// Token bucket metering calibration retries across all workers.
    calib_budget: RetryBudget,
}

impl ServiceState {
    pub fn new(config: ServeConfig) -> Self {
        ServiceState {
            projections: ProjectionCache::new(config.projection_cache),
            calibrations: CalibrationCache::new(),
            metrics: Metrics::default(),
            calib_budget: RetryBudget::new(CALIB_BUDGET_CAPACITY)
                .with_deposit_milli(CALIB_BUDGET_DEPOSIT_MILLI),
            config,
        }
    }

    /// Decodes and executes one request payload, returning the response
    /// JSON. Also tallies latency and outcome counters. `queue_depth` is
    /// the current accept-queue length (a gauge the handler can't know).
    pub fn handle(&self, payload: &str, queue_depth: usize) -> String {
        self.handle_timed(payload, queue_depth, Duration::ZERO)
    }

    /// [`ServiceState::handle`] with the time the request already spent
    /// waiting in the accept queue, so the latency window can attribute
    /// queueing and compute separately.
    pub fn handle_timed(&self, payload: &str, queue_depth: usize, queued: Duration) -> String {
        let start = Instant::now();
        let result = Request::decode(payload)
            .map_err(|e| ProtocolError::new("parse", e.to_string()))
            .and_then(|req| {
                let remaining = self.admit(&req, queued, queue_depth)?;
                let json = self.dispatch(&req, start, queue_depth, remaining)?;
                // No ok reply may cross its propagated deadline: a result
                // that finished too late is worthless to the caller, so it
                // is converted to a structured deadline error instead.
                if let Some(rem) = remaining {
                    if start.elapsed() > rem {
                        self.metrics.counters.shed_deadline.bump();
                        return Err(deadline_exceeded(req.deadline_ms.unwrap_or(0)));
                    }
                }
                Ok(json)
            });
        let response = match result {
            Ok(json) => {
                self.metrics.counters.served_ok.bump();
                json
            }
            Err(e) => {
                self.metrics.counters.served_err.bump();
                if e.kind == "timeout" {
                    self.metrics.counters.timeouts.bump();
                }
                error_json(&e)
            }
        };
        self.metrics.record_latency(queued, start.elapsed());
        response.into_string()
    }

    /// Deadline-aware admission at dequeue: a request carrying
    /// `deadline_ms` whose remaining budget (after its accept-queue wait)
    /// cannot cover the observed median compute time is shed *before* any
    /// work happens — the caller has effectively already given up, so
    /// computing for it only steals capacity from requests that can still
    /// make their deadlines. Returns the remaining budget for the
    /// handlers' own mid-flight checks; `None` means no deadline (legacy
    /// requests are untouched).
    fn admit(
        &self,
        req: &Request,
        queued: Duration,
        queue_depth: usize,
    ) -> Result<Option<Duration>, ProtocolError> {
        let Some(ms) = req.deadline_ms else {
            return Ok(None);
        };
        let remaining = Duration::from_millis(ms).saturating_sub(queued);
        let p50 = Duration::from_micros(self.metrics.compute_p50_us());
        if remaining <= p50 {
            self.metrics.counters.shed_deadline.bump();
            return Err(ProtocolError::new(
                "shed",
                format!(
                    "request shed: {}ms remain of the {ms}ms deadline after queueing, \
                     below the observed {}ms median compute time",
                    remaining.as_millis(),
                    p50.as_millis()
                ),
            )
            .with_retry_after(self.retry_after_hint_ms(queue_depth)));
        }
        Ok(Some(remaining))
    }

    fn dispatch(
        &self,
        req: &Request,
        start: Instant,
        queue_depth: usize,
        remaining: Option<Duration>,
    ) -> Result<Json, ProtocolError> {
        match req.command {
            Command::Ping => Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("command", Json::Str("ping".into())),
            ])),
            Command::Stats => Ok(self.stats_json(queue_depth)),
            Command::Health => Ok(self.health_json()),
            Command::Batch => self.cmd_batch(req, queue_depth),
            Command::Calibrate => self.cmd_calibrate(req),
            Command::Project => self.cmd_project(req, start, remaining),
            Command::Measure => self.cmd_measure(req, start, remaining),
            Command::Analyze => self.cmd_analyze(req),
            Command::Deps => self.cmd_deps(req),
        }
    }

    /// The `health` response: role, machine roster, and coarse served
    /// counters — everything a gateway needs to admit or evict this shard.
    fn health_json(&self) -> Json {
        let (c, up) = (&self.metrics.counters, self.metrics.started.elapsed());
        Json::obj([
            ("ok", Json::Bool(true)),
            ("command", Json::Str("health".into())),
            ("role", Json::Str("serve".into())),
            (
                "machines",
                Json::Arr(
                    self.config
                        .machines
                        .names()
                        .into_iter()
                        .map(Json::Str)
                        .collect(),
                ),
            ),
            ("served_ok", Json::Num(c.served_ok.get() as f64)),
            ("served_err", Json::Num(c.served_err.get() as f64)),
            ("uptime_seconds", Json::Num(up.as_secs_f64())),
        ])
    }

    /// Executes the embedded sub-requests one after another, in frame
    /// order, through the ordinary [`ServiceState::handle`] path. A batch
    /// reply is therefore the concatenation of the replies the same
    /// requests would get single-shot, counters and memo state included:
    /// a repeat hits the memo entry an earlier sub-request made, a
    /// `stats` sub-request counts what precedes it, and eviction follows
    /// frame order.
    fn cmd_batch(&self, req: &Request, queue_depth: usize) -> Result<Json, ProtocolError> {
        let replies: Vec<String> = req
            .batch
            .iter()
            .map(|sub| self.handle(sub, queue_depth))
            .collect();
        Ok(Json::Raw(crate::protocol::batch_response(&replies)))
    }

    /// Mid-flight budget check between expensive pipeline stages. The
    /// effective budget is the smaller of the server's own compute budget
    /// and the request's remaining propagated deadline; which one binds
    /// decides the error kind (`timeout` keeps its exact legacy message,
    /// so deadline-free requests reply byte-identically to before).
    fn check_deadline(
        &self,
        start: Instant,
        remaining: Option<Duration>,
    ) -> Result<(), ProtocolError> {
        let elapsed = start.elapsed();
        if let Some(rem) = remaining {
            if rem < self.config.request_timeout && elapsed > rem {
                self.metrics.counters.shed_deadline.bump();
                return Err(deadline_exceeded(rem.as_millis() as u64));
            }
        }
        if elapsed > self.config.request_timeout {
            return Err(ProtocolError::new(
                "timeout",
                format!(
                    "request exceeded its {:.1}s compute budget",
                    self.config.request_timeout.as_secs_f64()
                ),
            ));
        }
        Ok(())
    }

    /// Consults [`gpp_fault::SERVE_COMPUTE_SLOW`] (scoped by the request's
    /// machine): when it fires, the worker sleeps the rule's factor in
    /// milliseconds before computing. The chaos knob that ages queued
    /// deadline requests past their budget.
    fn injected_compute_stall(&self, req: &Request) {
        let faults = &self.config.faults;
        if faults.is_active() {
            if let Some(ms) =
                faults.fire_factor_scoped(gpp_fault::SERVE_COMPUTE_SLOW, Some(&req.machine))
            {
                std::thread::sleep(Duration::from_millis(ms.max(0.0) as u64));
            }
        }
    }

    /// The `retry_after_ms` hint attached to `busy`/`shed` rejections:
    /// roughly how long the current backlog needs to drain — (queue
    /// depth plus one) × the observed median compute time — floored at
    /// 1ms so a cold window never invites a hot-spin retry.
    pub fn retry_after_hint_ms(&self, queue_depth: usize) -> u64 {
        (((queue_depth as u64 + 1) * self.metrics.compute_p50_us()) / 1000).max(1)
    }

    /// Resolves the request's machine through the registry, tallying the
    /// per-machine request counter. Unknown names reply kind `machine`
    /// with the registry's sorted known-name list.
    fn machine(&self, req: &Request) -> Result<MachineConfig, ProtocolError> {
        let machine = resolve_machine(&self.config.machines, &req.machine, req.seed)?;
        self.metrics
            .bump_machine(&machine.id, |c| c.requests.bump());
        Ok(machine)
    }

    /// Resolves the calibrated projector for (machine, seed), via cache.
    /// The boolean is `true` when the result is **stale**: every fresh
    /// calibration attempt (bounded retries with exponential backoff)
    /// failed and the machine's last-good calibration is serving instead.
    /// The machine is resolved only on a calibration miss: a cached
    /// calibration exists only for a registered machine.
    fn projector(&self, req: &Request) -> Result<(Calibration, bool), ProtocolError> {
        let key = CalibKey {
            machine: req.machine.clone(),
            seed: req.seed,
        };
        if let Some(cal) = self.calibrations.get(&key) {
            self.metrics.bump_machine(&req.machine, |c| {
                c.requests.bump();
                c.calib_hits.bump();
            });
            return Ok((cal, false));
        }
        let machine = self.machine(req)?;
        self.metrics
            .bump_machine(&machine.id, |c| c.calib_misses.bump());
        let faults = &self.config.faults;
        let mut last_err = String::new();
        for attempt in 0..CALIB_ATTEMPTS {
            if attempt > 0 {
                // Every retry is metered by the shared token bucket: when
                // calibration is failing fleet-wide, burning the full
                // retry schedule per request just multiplies the overload.
                // An empty bucket falls straight through to the last-good
                // fallback below.
                if !self.calib_budget.try_withdraw() {
                    self.metrics.counters.retry_budget_exhausted.bump();
                    break;
                }
                self.metrics.counters.calib_retries.bump();
                std::thread::sleep(crate::client::backoff_delay(
                    CALIB_BACKOFF,
                    attempt,
                    crate::client::jitter_seed(machine.id.as_bytes()) ^ req.seed,
                ));
            }
            // One consultation per whole-calibration attempt: the knob
            // chaos plans use to force degraded serving. Plans can scope
            // it to one machine (`serve.calibrate.fail@v2`).
            if faults.is_active()
                && faults.fires_scoped(gpp_fault::SERVE_CALIBRATE_FAIL, Some(&machine.id))
            {
                last_err = "injected calibration failure (serve.calibrate.fail)".to_string();
                continue;
            }
            let mut node = machine.node();
            match Grophecy::try_calibrate(&machine, &mut node, faults.clone()) {
                Ok(gro) => {
                    self.calib_budget.deposit();
                    let cal = Calibration::new(Arc::new(gro));
                    self.calibrations.insert(key, cal.clone());
                    return Ok((cal, false));
                }
                Err(e) => last_err = e.to_string(),
            }
        }
        if let Some(cal) = self.calibrations.last_good(&req.machine) {
            self.metrics
                .bump_machine(&machine.id, |c| c.degraded_replies.bump());
            return Ok((cal, true));
        }
        Err(ProtocolError::new(
            "calibration-failed",
            format!(
                "calibration for machine `{}` failed after {CALIB_ATTEMPTS} attempts and no \
                 last-good calibration exists yet: {last_err}",
                req.machine
            ),
        ))
    }

    /// Parses the skeleton (keeping the source map for spanned lint
    /// diagnostics), validates it, and resolves hint names. Hints start
    /// from the skeleton's own `temporary` declarations, so attributes in
    /// the text and `temporary=` request options compose.
    fn program_and_hints(
        &self,
        req: &Request,
    ) -> Result<(Program, SourceMap, Hints), ProtocolError> {
        let (program, map) = text::parse_with_spans(&req.skeleton)
            .map_err(|e| ProtocolError::new("skeleton", e.to_string()))?;
        gpp_skeleton::validate::validate(&program).map_err(|e| {
            ProtocolError::new("skeleton", format!("line 0, col 0: validation failed: {e}"))
        })?;
        let mut hints = Hints::for_program(&program);
        for name in &req.temporaries {
            let a = program.array_by_name(name).ok_or_else(|| {
                ProtocolError::new(
                    "unknown-array",
                    format!("temporary `{name}` is not an array"),
                )
            })?;
            hints = hints.temporary(a.id);
        }
        for (name, bytes) in &req.sparse {
            let a = program.array_by_name(name).ok_or_else(|| {
                ProtocolError::new("unknown-array", format!("sparse `{name}` is not an array"))
            })?;
            hints = hints.sparse_bound(a.id, *bytes);
        }
        Ok((program, map, hints))
    }

    /// Runs the static analyzer ahead of projection. Error-level
    /// findings reject the request (kind `lint`, with the findings as a
    /// structured `diagnostics` array) **before** any calibration work;
    /// warnings and notes are returned so handlers can attach them to
    /// the success reply. `lint=0` skips the analysis entirely.
    fn lint_gate(
        &self,
        req: &Request,
        program: &Program,
        map: &SourceMap,
        hints: &Hints,
    ) -> Result<Vec<Diagnostic>, ProtocolError> {
        if !req.lint {
            return Ok(Vec::new());
        }
        let diags = lint_program(program, Some(map), hints);
        let errors = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        if errors > 0 {
            let mut e = ProtocolError::new(
                "lint",
                format!(
                    "skeleton rejected by the static analyzer: {errors} error(s); \
                     pass lint=0 to project anyway"
                ),
            );
            e.diagnostics = diags;
            return Err(e);
        }
        Ok(diags)
    }

    /// Projects via the LRU memo. The key hashes the parsed program's
    /// content, so formatting-only differences still hit. A miss renders
    /// the projection once, as it enters the memo; every hit reuses the
    /// bytes. `chars` is `ProgramChars::of(program)`, already made for the
    /// key's fingerprint.
    fn project_cached(
        &self,
        key: &ProjectionKey,
        cal: &Calibration,
        program: &Program,
        hints: &Hints,
        chars: &ProgramChars,
    ) -> (Arc<RenderedProjection>, bool) {
        if let Some(p) = self.projections.get(key) {
            self.metrics
                .bump_machine(&key.machine, |c| c.proj_hits.bump());
            return (p, true);
        }
        self.metrics
            .bump_machine(&key.machine, |c| c.proj_misses.bump());
        let proj = Arc::new(RenderedProjection::new(
            cal,
            cal.gro.project_with(program, hints, chars),
        ));
        self.projections.insert(key.clone(), proj.clone());
        (proj, false)
    }

    /// A `project` request. An exact repeat of an earlier request's text
    /// (apart from `iters` and `deadline_ms`) is answered from the memo's
    /// text index before any parsing, with the counters and deadline
    /// checks the full path would have applied on its memo hit. Anything
    /// else parses, lints, resolves the calibration and projects through
    /// the memo, then records its text as an alias of the entry.
    fn cmd_project(
        &self,
        req: &Request,
        start: Instant,
        remaining: Option<Duration>,
    ) -> Result<Json, ProtocolError> {
        self.injected_compute_stall(req);
        let text = text_key(req);
        let text_hash = self.projections.text_hash(&text);
        if let Some((rendered, parts)) = self.projections.get_text(&text, text_hash) {
            // An alias exists only for a fresh (non-stale) reply, and
            // calibrations are never evicted: the full path would hit the
            // calibration cache and then the memo entry.
            self.check_deadline(start, remaining)?;
            self.metrics.bump_machine(&req.machine, |c| {
                c.requests.bump();
                c.calib_hits.bump();
            });
            self.check_deadline(start, remaining)?;
            self.metrics
                .bump_machine(&req.machine, |c| c.proj_hits.bump());
            return Ok(project_reply(req, &parts, &rendered, true, false));
        }
        let (program, map, hints) = self.program_and_hints(req)?;
        let diags = self.lint_gate(req, &program, &map, &hints)?;
        self.check_deadline(start, remaining)?;
        let (cal, stale) = self.projector(req)?;
        self.check_deadline(start, remaining)?;
        // Each kernel is synthesized once: for the fingerprint here, and
        // again only for a miss's other thread axes.
        let chars = ProgramChars::of(&program);
        let fingerprint = chars.fingerprint();
        // Findings with machine-applicable fixes also price the skeleton
        // as written against its fix-it-optimized schedule on every
        // machine this instance serves.
        let fixable = diags.iter().any(|d| d.fix.is_some());
        let parts = TextParts {
            fingerprint: hex_fingerprint(fingerprint),
            diagnostics: (!diags.is_empty()).then(|| diagnostics_json(&diags).render()),
            transfer_headroom: fixable
                .then(|| self.transfer_headroom_json(req, &program))
                .flatten(),
        };
        // Degraded results bypass the projection memo and its text index:
        // they were computed from another key's calibration and must not
        // be replayed as fresh once calibration recovers.
        if stale {
            let rendered =
                RenderedProjection::new(&cal, cal.gro.project_with(&program, &hints, &chars));
            return Ok(project_reply(req, &parts, &rendered, false, true));
        }
        let key = ProjectionKey {
            machine: req.machine.clone(),
            seed: req.seed,
            skeleton_hash: program.content_hash(),
            hints_hash: hints_hash(req),
            fingerprint,
        };
        let (rendered, cached) = self.project_cached(&key, &cal, &program, &hints, &chars);
        let parts = Arc::new(parts);
        self.projections
            .alias(&key, &text, text_hash, parts.clone());
        Ok(project_reply(req, &parts, &rendered, cached, false))
    }

    /// Applies the linter's fix-its to the request's skeleton until a
    /// fixpoint and prices both versions on every registered machine.
    /// `None` when no fix applies or a rewrite fails to re-parse.
    fn transfer_headroom_json(&self, req: &Request, program: &Program) -> Option<String> {
        let cfg = gpp_lint::LintConfig::new();
        let (fixed, applied) =
            gpp_lint::fix_until_stable(&req.skeleton, "request.gsk", &cfg).ok()?;
        if applied == 0 {
            return None;
        }
        let optimized = text::parse(&fixed).ok()?;
        let rows =
            grophecy::transfer_headroom(&self.config.machines, req.seed, program, &optimized);
        Some(grophecy::headroom_json(&rows).render())
    }

    fn cmd_measure(
        &self,
        req: &Request,
        start: Instant,
        remaining: Option<Duration>,
    ) -> Result<Json, ProtocolError> {
        self.injected_compute_stall(req);
        let (program, map, hints) = self.program_and_hints(req)?;
        let diags = self.lint_gate(req, &program, &map, &hints)?;
        self.check_deadline(start, remaining)?;
        // The measurement path replays the single-shot sequence exactly
        // (fresh node, calibration consuming the same RNG stream as the
        // CLI) so served responses are bit-identical to `gpp measure`.
        // Measurements are side-effectful on the node, so they bypass the
        // projection memo by design, and a failed calibration has no
        // degraded fallback: the command exists to exercise the node.
        let machine = self.machine(req)?;
        let mut node = machine.node();
        let gro = Grophecy::try_calibrate(&machine, &mut node, self.config.faults.clone())
            .map_err(|e| ProtocolError::new("calibration-failed", e.to_string()))?;
        let proj = gro.project(&program, &hints);
        self.check_deadline(start, remaining)?;
        let meas = measure(&mut node, &program, &proj);
        let r = SpeedupReport::build(&program.name, "serve", &proj, &meas, req.iters);
        let mut fields = vec![
            ("ok", Json::Bool(true)),
            ("command", Json::Str("measure".into())),
            ("machine", Json::Str(req.machine.clone())),
            ("seed", Json::U64(req.seed)),
            ("iters", Json::Num(req.iters as f64)),
        ];
        if !diags.is_empty() {
            fields.push(("diagnostics", diagnostics_json(&diags)));
        }
        fields.extend([
            ("projection", projection_json(&proj)),
            ("measurement", measurement_json(&meas)),
            ("speedup", speedup_json(&r)),
        ]);
        Ok(Json::obj(fields))
    }

    fn cmd_analyze(&self, req: &Request) -> Result<Json, ProtocolError> {
        let (program, _map, hints) = self.program_and_hints(req)?;
        let plan = analyze(&program, &hints);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("command", Json::Str("analyze".into())),
            (
                "transfers",
                Json::Arr(
                    plan.all()
                        .map(|t| {
                            Json::obj([
                                ("array", Json::Str(t.name.clone())),
                                ("bytes", Json::Num(t.bytes as f64)),
                                ("direction", Json::Str(t.dir.to_string())),
                                ("exact", Json::Bool(t.exact)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("exact", Json::Bool(plan.is_exact())),
            ("text", Json::Str(plan.to_string())),
        ]))
    }

    fn cmd_deps(&self, req: &Request) -> Result<Json, ProtocolError> {
        let (program, _map, _hints) = self.program_and_hints(req)?;
        let deps = gpp_datausage::dependences(&program);
        let resident = gpp_datausage::device_resident_arrays(&program);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("command", Json::Str("deps".into())),
            (
                "report",
                Json::Str(gpp_datausage::dependence::render(&program, &deps)),
            ),
            (
                "device_resident",
                Json::Arr(
                    resident
                        .iter()
                        .map(|a| Json::Str(program.array(*a).name.clone()))
                        .collect(),
                ),
            ),
        ]))
    }

    fn cmd_calibrate(&self, req: &Request) -> Result<Json, ProtocolError> {
        // Full single-shot sequence: the sweep validation consumes the
        // node's RNG stream right after calibration, like `gpp calibrate`.
        let machine = self.machine(req)?;
        let mut node = machine.node();
        let gro = Grophecy::try_calibrate(&machine, &mut node, self.config.faults.clone())
            .map_err(|e| ProtocolError::new("calibration-failed", e.to_string()))?;
        let sweeps = Direction::ALL
            .into_iter()
            .map(|dir| {
                let v = SweepValidation::paper_sweep(
                    &mut node.bus,
                    gro.pcie_model(),
                    dir,
                    MemType::Pinned,
                );
                Json::obj([
                    ("direction", Json::Str(dir.to_string())),
                    ("mean_error_pct", Json::Num(v.mean_error())),
                    ("max_error_pct", Json::Num(v.max_error())),
                    (
                        "mean_error_above_1mb_pct",
                        Json::Num(v.mean_error_above(1 << 20)),
                    ),
                ])
            })
            .collect();
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("command", Json::Str("calibrate".into())),
            ("machine", Json::Str(req.machine.clone())),
            ("seed", Json::U64(req.seed)),
            ("h2d", Json::Str(gro.pcie_model().h2d.to_string())),
            ("d2h", Json::Str(gro.pcie_model().d2h.to_string())),
            ("sweeps", Json::Arr(sweeps)),
        ]))
    }

    /// The `stats` response body: the counters in their declared groups,
    /// each total the value kept once plus the machine rows'.
    pub fn stats_json(&self, queue_depth: usize) -> Json {
        let m = &self.metrics;
        let totals = m.totals();
        let (search_hits, search_misses) = gpp_gpu_model::search_memo_stats();
        let num = Json::U64;
        let memo = self.projections.keys().into_iter().map(|k| {
            Json::obj([
                ("machine", Json::Str(k.machine.clone())),
                ("seed", num(k.seed)),
                ("fingerprint", Json::Str(hex_fingerprint(k.fingerprint))),
            ])
        });
        let faults = [("faults_injected", num(self.config.faults.total_fired()))];
        let machines = m.machines().into_iter().map(|(name, row)| {
            let name = [("machine", Json::Str(name))];
            Json::obj(name.into_iter().chain(row.group("machine")))
        });
        let uptime = Json::Num(m.started.elapsed().as_secs_f64());
        let stats = [("uptime_seconds", uptime)]
            .into_iter()
            .chain(totals.group("stats"))
            .chain(m.percentiles().map(|(key, us)| (key, num(us))))
            .chain([
                ("queue_depth", num(queue_depth as u64)),
                (
                    "projection_cache_entries",
                    num(self.projections.len() as u64),
                ),
                (
                    "calibration_cache_entries",
                    num(self.calibrations.len() as u64),
                ),
                ("projection_memo", Json::Arr(memo.collect())),
                // Kept under its historical name: it counts the
                // transformation search memo's lookups.
                (
                    "synthesis_memo",
                    Json::obj([("hits", num(search_hits)), ("misses", num(search_misses))]),
                ),
                (
                    "resilience",
                    Json::obj(faults.into_iter().chain(totals.group("resilience"))),
                ),
                ("machines", Json::Arr(machines.collect())),
            ]);
        Json::obj([
            ("ok", Json::Bool(true)),
            ("command", Json::Str("stats".into())),
            ("stats", Json::obj(stats)),
        ])
    }
}

/// The parts of a `project` reply fixed by the request's exact text
/// ([`TextKey`]), kept with each text alias in the memo.
pub struct TextParts {
    /// The structural program fingerprint, as 32 hex digits.
    fingerprint: String,
    /// The analyzer's warnings and notes, rendered; `None` when clean.
    diagnostics: Option<String>,
    /// The as-written vs fix-it-optimized rows, rendered; `None` unless a
    /// finding carries a fix that applies.
    transfer_headroom: Option<String>,
}

/// The text-index key of a request.
fn text_key(req: &Request) -> TextKey<'_> {
    TextKey {
        machine: &req.machine,
        seed: req.seed,
        lint: req.lint,
        temporaries: &req.temporaries,
        sparse: &req.sparse,
        skeleton: &req.skeleton,
    }
}

/// The `project` reply, for the text-index and the parsing path alike,
/// written in one pass into one buffer. Only `seed`, `iters` and the
/// totals `iters` scales are formatted per request; the rest is copied
/// from the text's parts and the memoized projection.
fn project_reply(
    req: &Request,
    parts: &TextParts,
    rendered: &RenderedProjection,
    cached: bool,
    stale: bool,
) -> Json {
    let spliced = |part: &Option<String>| part.as_ref().map_or(0, |p| p.len() + 24);
    let mut out = String::with_capacity(
        REPLY_FIELD_BYTES
            + req.machine.len()
            + parts.fingerprint.len()
            + spliced(&parts.diagnostics)
            + spliced(&parts.transfer_headroom)
            + rendered.pcie.len()
            + rendered.projection.len(),
    );
    out.push_str(r#"{"ok":true,"command":"project","machine":"#);
    write_str(&req.machine, &mut out);
    out.push_str(r#","seed":"#);
    write_u64(req.seed, &mut out);
    out.push_str(r#","iters":"#);
    write_u64(req.iters.into(), &mut out);
    out.push_str(r#","fingerprint":"#);
    write_str(&parts.fingerprint, &mut out);
    out.push_str(if cached {
        r#","cached":true"#
    } else {
        r#","cached":false"#
    });
    // Only present when true, so fault-free replies stay byte-for-byte
    // what they were before degraded mode existed.
    if stale {
        out.push_str(r#","stale":true"#);
    }
    // Same convention: a clean skeleton's reply is byte-for-byte what it
    // was before the analyzer existed, and `transfer_headroom` is absent
    // unless a fix applies.
    if let Some(diags) = &parts.diagnostics {
        out.push_str(r#","diagnostics":"#);
        out.push_str(diags);
    }
    if let Some(rows) = &parts.transfer_headroom {
        out.push_str(r#","transfer_headroom":"#);
        out.push_str(rows);
    }
    let proj = &rendered.proj;
    out.push_str(r#","pcie":"#);
    out.push_str(&rendered.pcie);
    out.push_str(r#","projection":"#);
    out.push_str(&rendered.projection);
    out.push_str(r#","total_seconds":"#);
    write_num(proj.total_time(req.iters), &mut out);
    // Stream-annotated programs also quote the overlapped-schedule
    // total; absent otherwise so legacy replies keep their bytes.
    if proj.timeline.is_some() {
        out.push_str(r#","overlapped_total_seconds":"#);
        write_num(proj.overlapped_total_time(req.iters), &mut out);
    }
    out.push('}');
    Json::Raw(out)
}

/// Room for a `project` reply's keys and the numbers it formats itself,
/// so that writing the reply does not grow its buffer.
const REPLY_FIELD_BYTES: usize = 320;

/// Resolves a machine name against a registry. Unknown names become a
/// structured kind-`machine` error whose message carries the sorted list
/// of known names — the same hint the CLI prints.
pub fn resolve_machine(
    registry: &MachineRegistry,
    name: &str,
    seed: u64,
) -> Result<MachineConfig, ProtocolError> {
    registry
        .config(name, seed)
        .map_err(|e| ProtocolError::new("machine", e.to_string()))
}

/// A program fingerprint as the 32 hex digits replies and `stats` show.
fn hex_fingerprint(fingerprint: u128) -> String {
    let mut hex = String::with_capacity(32);
    write_hex128(fingerprint, &mut hex);
    hex
}

/// Canonical, order-insensitive hash of a request's hints: FNV-1a over
/// the sorted temporaries, then the sorted sparse bounds, each name
/// preceded by its length so that no two lists hash the same bytes. A
/// request without hints sorts nothing and allocates nothing.
fn hints_hash(req: &Request) -> u64 {
    let mut temps: Vec<&str> = req.temporaries.iter().map(String::as_str).collect();
    temps.sort_unstable();
    let mut sparse: Vec<(&str, u64)> = req.sparse.iter().map(|(n, b)| (n.as_str(), *b)).collect();
    sparse.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(temps.len() as u64).to_le_bytes());
    for name in temps {
        eat(&(name.len() as u64).to_le_bytes());
        eat(name.as_bytes());
    }
    for (name, bytes) in sparse {
        eat(&(name.len() as u64).to_le_bytes());
        eat(name.as_bytes());
        eat(&bytes.to_le_bytes());
    }
    h
}

/// The structured error response body.
pub fn error_json(e: &ProtocolError) -> Json {
    let mut fields = vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj([
                ("kind", Json::Str(e.kind.clone())),
                ("message", Json::Str(e.message.clone())),
            ]),
        ),
    ];
    // Only lint rejections carry findings; every other error reply stays
    // byte-for-byte what it always was.
    if !e.diagnostics.is_empty() {
        fields.push(("diagnostics", diagnostics_json(&e.diagnostics)));
    }
    // Same convention for the retry hint: only busy/shed rejections carry
    // one, so every other error reply keeps its exact legacy bytes.
    if let Some(ms) = e.retry_after_ms {
        fields.push(("retry_after_ms", Json::Num(ms as f64)));
    }
    Json::obj(fields)
}

/// The structured error for a request whose propagated deadline expired
/// while it was being handled (as opposed to being shed at admission).
/// Public so the gateway can report an expired deadline with the exact
/// bytes a shard would have used.
pub fn deadline_exceeded(deadline_ms: u64) -> ProtocolError {
    ProtocolError::new(
        "deadline",
        format!("request exceeded its propagated {deadline_ms}ms deadline"),
    )
}

/// The `diagnostics` array of a `lint` rejection, or of a successful
/// reply when the analyzer produced warnings or notes.
fn diagnostics_json(diags: &[Diagnostic]) -> Json {
    Json::Arr(
        diags
            .iter()
            .map(|d| {
                Json::obj([
                    ("code", Json::Str(d.code.as_str().to_string())),
                    ("severity", Json::Str(d.severity.as_str().to_string())),
                    ("line", Json::Num(d.span.line as f64)),
                    ("col", Json::Num(d.span.col as f64)),
                    ("len", Json::Num(d.span.len as f64)),
                    ("message", Json::Str(d.message.clone())),
                ])
            })
            .collect(),
    )
}

/// The canonical `busy` response payload (used by the acceptor fast path
/// when shedding the oldest queued connection did not free a slot, and by
/// the gateway when its own queue saturates).
pub fn busy_response() -> String {
    error_json(&busy_error()).render()
}

/// [`busy_response`] carrying a `retry_after_ms` hint — how long the
/// server estimates the backlog needs to drain.
pub fn busy_response_with_hint(retry_after_ms: u64) -> String {
    error_json(&busy_error().with_retry_after(retry_after_ms)).render()
}

fn busy_error() -> ProtocolError {
    ProtocolError::new(
        "busy",
        "server at capacity: accept queue is full, retry later",
    )
}

/// The `shed` response for a connection displaced oldest-first from a
/// saturated accept queue: it waited longest, so it is the least likely
/// to still be inside its caller's patience — the newcomer takes its
/// slot and this one gets an immediate structured rejection instead of
/// more queueing.
pub fn shed_queue_response(retry_after_ms: u64) -> String {
    error_json(
        &ProtocolError::new(
            "shed",
            "request shed: displaced oldest-first from a saturated accept queue, retry later",
        )
        .with_retry_after(retry_after_ms),
    )
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    const VEC_ADD: &str = include_str!("../../../skeletons/vector_add.gsk");

    fn state() -> ServiceState {
        ServiceState::new(ServeConfig::default())
    }

    fn payload(cmd: &str, body: &str) -> String {
        format!("gpp/1 {cmd}\n{body}")
    }

    #[test]
    fn ping_and_stats_respond() {
        let s = state();
        assert!(s.handle("gpp/1 ping", 0).contains("\"ok\":true"));
        let stats = s.handle("gpp/1 stats", 3).to_string();
        assert!(stats.contains("\"queue_depth\":3"), "{stats}");
    }

    #[test]
    fn project_hits_cache_on_repeat() {
        let s = state();
        let first = s.handle(&payload("project", VEC_ADD), 0);
        assert!(first.contains("\"ok\":true"), "{first}");
        assert!(first.contains("\"cached\":false"));
        let second = s.handle(&payload("project", VEC_ADD), 0);
        assert!(second.contains("\"cached\":true"), "{second}");
        let snap = s.metrics.totals();
        assert_eq!((snap.proj_misses.get(), snap.proj_hits.get()), (1, 1));
        assert_eq!(
            (snap.calib_misses.get(), snap.calib_hits.get() >= 1),
            (1, true)
        );
        // Identical result either way.
        assert_eq!(
            first.replace("\"cached\":false", ""),
            second.replace("\"cached\":true", "")
        );
    }

    #[test]
    fn formatting_only_changes_share_a_cache_entry() {
        let s = state();
        let spaced = VEC_ADD.replace('\n', "\n\n");
        s.handle(&payload("project", VEC_ADD), 0);
        let second = s.handle(&payload("project", &spaced), 0);
        assert!(second.contains("\"cached\":true"), "{second}");
    }

    #[test]
    fn different_options_do_not_share_entries() {
        let s = state();
        s.handle(&payload("project", VEC_ADD), 0);
        let other_seed = s.handle(&format!("gpp/1 project seed=99\n{VEC_ADD}"), 0);
        assert!(other_seed.contains("\"cached\":false"));
        let other_machine = s.handle(&format!("gpp/1 project machine=v2\n{VEC_ADD}"), 0);
        assert!(other_machine.contains("\"cached\":false"));
        assert_eq!(s.metrics.totals().proj_misses.get(), 3);
    }

    #[test]
    fn errors_are_structured() {
        let s = state();
        let bad = s.handle("gpp/1 project\n", 0);
        assert!(
            bad.contains("\"ok\":false") && bad.contains("\"kind\":\"parse\""),
            "{bad}"
        );
        let unk = s.handle(&payload("project machine=cray", VEC_ADD), 0);
        assert!(
            unk.contains("\"kind\":\"machine\"")
                && unk.contains("unknown machine `cray` (known: eureka, v2)"),
            "{unk}"
        );
        let arr = s.handle(&format!("gpp/1 project temporary=ghost\n{VEC_ADD}"), 0);
        assert!(arr.contains("unknown-array"), "{arr}");
        assert_eq!(s.metrics.totals().served_err.get(), 3);
    }

    #[test]
    fn measure_analyze_deps_calibrate_respond() {
        let s = state();
        for cmd in ["measure", "analyze", "deps"] {
            let out = s.handle(&payload(cmd, VEC_ADD), 0);
            assert!(out.contains("\"ok\":true"), "{cmd}: {out}");
        }
        let cal = s.handle("gpp/1 calibrate machine=v2", 0);
        assert!(
            cal.contains("\"ok\":true") && cal.contains("mean_error_pct"),
            "{cal}"
        );
    }

    #[test]
    fn stats_break_out_per_machine() {
        let s = state();
        s.handle(&payload("project", VEC_ADD), 0);
        s.handle(&payload("project", VEC_ADD), 0);
        s.handle(&payload("project machine=v2", VEC_ADD), 0);
        let rows = s.metrics.machines();
        let row = |name: &str| &rows.iter().find(|(n, _)| n == name).unwrap().1;
        let (eureka, v2) = (row("eureka"), row("v2"));
        assert_eq!(
            (
                eureka.requests.get(),
                eureka.proj_misses.get(),
                eureka.proj_hits.get()
            ),
            (2, 1, 1)
        );
        assert_eq!((eureka.calib_misses.get(), eureka.calib_hits.get()), (1, 1));
        assert_eq!(
            (
                v2.requests.get(),
                v2.proj_misses.get(),
                v2.calib_misses.get()
            ),
            (1, 1, 1)
        );
        let stats = s.handle("gpp/1 stats", 0);
        assert!(stats.contains("\"machines\":["), "{stats}");
        assert!(
            stats.contains("{\"machine\":\"eureka\",\"requests\":2"),
            "{stats}"
        );
    }

    #[test]
    fn custom_registry_serves_extra_and_replay_machines() {
        use grophecy::machine::{BusSpec, ReplayTrace};
        let mut registry = MachineRegistry::builtin();
        let mut recorded = grophecy::MachineConfig::anl_eureka_node(0);
        recorded.id = "recorded".into();
        recorded.bus = BusSpec::Replay(ReplayTrace {
            label: "trace".into(),
            samples: vec![
                (1, Direction::HostToDevice, MemType::Pinned, 9.9e-6),
                (536870912, Direction::HostToDevice, MemType::Pinned, 0.215),
                (1, Direction::DeviceToHost, MemType::Pinned, 1.13e-5),
                (536870912, Direction::DeviceToHost, MemType::Pinned, 0.216),
            ],
        });
        registry.insert(recorded);
        let s = ServiceState::new(ServeConfig {
            machines: Arc::new(registry),
            ..ServeConfig::default()
        });
        let out = s.handle(&payload("project machine=recorded", VEC_ADD), 0);
        assert!(out.contains("\"ok\":true"), "{out}");
        assert!(out.contains("\"machine\":\"recorded\""), "{out}");
        // Deterministic: a replay bus has no fresh noise, so projecting at
        // another seed gives the identical pcie model.
        let again = s.handle(&payload("project machine=recorded seed=99", VEC_ADD), 0);
        let pcie = |r: &str| {
            let at = r.find("\"pcie\"").unwrap();
            r[at..at + 120].to_string()
        };
        assert_eq!(pcie(&out), pcie(&again));
        // Unknown names list the extended registry.
        let unk = s.handle(&payload("project machine=nope", VEC_ADD), 0);
        assert!(unk.contains("(known: eureka, recorded, v2)"), "{unk}");
    }

    #[test]
    fn streamed_schedules_quote_the_overlapped_total() {
        let streamed = "program pipelined\n\
                        array a f32 [1048576]\n\
                        array b f32 [1048576]\n\
                        h2d a stream 1 chunks=4\n\
                        kernel k\n  parallel i 1048576\n  stmt adds=1\n    read  a [i]\n    write b [i]\n\
                        d2h b stream 2 chunks=4\n";
        let s = state();
        let out = s.handle(&payload("project", streamed), 0);
        assert!(out.contains("\"ok\":true"), "{out}");
        assert!(out.contains("\"timeline\":"), "{out}");
        assert!(out.contains("\"overlapped_total_seconds\":"), "{out}");
        // A plain request reply carries none of the overlap machinery —
        // legacy clients see byte-compatible replies.
        let plain = s.handle(&payload("project", VEC_ADD), 0);
        assert!(plain.contains("\"ok\":true"), "{plain}");
        assert!(!plain.contains("timeline"), "{plain}");
        assert!(!plain.contains("overlapped_total_seconds"), "{plain}");
        assert!(!plain.contains("multi_gpu"), "{plain}");
    }

    #[test]
    fn fixable_findings_carry_transfer_headroom() {
        // Second `h2d a` is GPP010 with a delete fix: the reply must price
        // the schedule as written against the fixed one on every machine.
        let redundant = "program reupload\n\
                         array a f32 [4096]\n\
                         array b f32 [4096]\n\
                         array c f32 [4096]\n\
                         h2d a\n\
                         kernel k1\n  parallel i 4096\n  stmt adds=1\n    read  a [i]\n    write b [i]\n\
                         h2d a\n\
                         kernel k2\n  parallel i 4096\n  stmt adds=1\n    read  a [i]\n    write c [i]\n\
                         d2h b\n\
                         d2h c\n";
        let s = state();
        let out = s.handle(&payload("project", redundant), 0);
        assert!(out.contains("\"ok\":true"), "{out}");
        assert!(out.contains("\"code\":\"GPP010\""), "{out}");
        assert!(
            out.contains("\"transfer_headroom\":[{\"machine\":\"eureka\","),
            "{out}"
        );
        // One row per registered machine, each with the full schema.
        assert!(out.contains("\"machine\":\"v2\""), "{out}");
        for key in ["\"as_written\":", "\"optimized\":", "\"headroom\":"] {
            assert!(out.contains(key), "{out}");
        }
        // Silencing the analyzer silences the report with it.
        let unlinted = s.handle(&format!("gpp/1 project lint=0\n{redundant}"), 0);
        assert!(!unlinted.contains("transfer_headroom"), "{unlinted}");
    }

    #[test]
    fn clean_skeletons_omit_transfer_headroom() {
        let s = state();
        let out = s.handle(&payload("project", VEC_ADD), 0);
        assert!(out.contains("\"ok\":true"), "{out}");
        assert!(!out.contains("transfer_headroom"), "{out}");
        assert!(!out.contains("diagnostics"), "{out}");
    }

    #[test]
    fn seeds_above_2_pow_53_come_back_exactly() {
        let s = state();
        let seed = (1u64 << 53) + 1;
        let want = format!("\"seed\":{seed},");
        for cmd in ["project", "measure"] {
            let out = s.handle(&payload(&format!("{cmd} seed={seed}"), VEC_ADD), 0);
            assert!(out.contains("\"ok\":true"), "{cmd}: {out}");
            assert!(out.contains(&want), "{cmd}: {out}");
        }
        let out = s.handle(&format!("gpp/1 calibrate seed={seed}"), 0);
        assert!(out.contains(&want), "calibrate: {out}");
        let stats = s.handle("gpp/1 stats", 0);
        let row = format!("{{\"machine\":\"eureka\",{want}\"fingerprint\":");
        assert!(stats.contains(&row), "{stats}");
    }

    #[test]
    fn timeout_budget_is_enforced() {
        let cfg = ServeConfig {
            request_timeout: Duration::from_secs(0),
            ..ServeConfig::default()
        };
        let s = ServiceState::new(cfg);
        let out = s.handle(&payload("project", VEC_ADD), 0);
        assert!(out.contains("\"kind\":\"timeout\""), "{out}");
        assert_eq!(s.metrics.totals().timeouts.get(), 1);
    }
}
