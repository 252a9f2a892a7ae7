//! Deterministically seeded fault injection for the GROPHECY++ stack.
//!
//! Real clusters fail in ways a clean simulator never does: PCIe transfers
//! error out or stall, calibration measurements come back as wild
//! outliers, workers panic, clients trickle bytes. This crate makes those
//! conditions *first-class and reproducible*: a [`FaultPlan`] maps named
//! **fault points** (string keys like `pcie.transfer.error`) to seeded
//! probability/schedule rules, and a [`FaultInjector`] compiled from the
//! plan answers "does occurrence #N of this point fail?" identically on
//! every run with the same seed.
//!
//! Design constraints:
//!
//! * **Dependency-free** — every crate in the stack (pcie, gpu-sim, core,
//!   serve, cli) can depend on it without cycles. The RNG is a local
//!   splitmix64, one independent stream per fault point, so consulting one
//!   point never perturbs another.
//! * **Zero-cost when disabled** — an empty plan answers [`fires`] with a
//!   single branch, no locks, no RNG draws; code paths guarded by an
//!   inactive injector are bit-identical to code without one.
//! * **Deterministic traces** — per-point decisions depend only on the
//!   plan seed and the point's own occurrence counter, so the recovery
//!   trace ([`FaultInjector::trace`]) is identical for identical seeds
//!   regardless of thread interleaving across points.
//!
//! [`fires`]: FaultInjector::fires
//!
//! # Plan grammar
//!
//! ```text
//! plan   := [clause (';' clause)*]
//! clause := 'seed=' N | point ':' spec (',' spec)*
//! spec   := 'p=' F        probability per occurrence (seeded Bernoulli)
//!         | 'every=' N    every Nth occurrence fires (N, 2N, 3N, ...)
//!         | 'first=' N    the first N occurrences fire, the rest pass
//!         | 'after=' N    occurrences beyond the Nth all fire
//!         | 'always'      every occurrence fires
//!         | 'factor=' F   magnitude for stall/outlier faults (default 20)
//! ```
//!
//! Example: `seed=42;pcie.transfer.error:p=0.2;serve.worker.panic:every=7`.
//!
//! # Example
//!
//! ```
//! use gpp_fault::{FaultInjector, FaultPlan};
//!
//! let plan: FaultPlan = "seed=7;serve.worker.panic:every=3".parse().unwrap();
//! let inj = FaultInjector::new(plan);
//! let fired: Vec<bool> = (0..6).map(|_| inj.fires("serve.worker.panic")).collect();
//! assert_eq!(fired, [false, false, true, false, false, true]);
//! assert_eq!(inj.total_fired(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex, PoisonError};

/// Fault point: a PCIe transfer fails outright (`Bus::try_transfer`
/// returns an error; the infallible path retries internally).
pub const PCIE_TRANSFER_ERROR: &str = "pcie.transfer.error";
/// Fault point: a PCIe transfer stalls — its measured time is multiplied
/// by the rule's `factor`.
pub const PCIE_TRANSFER_STALL: &str = "pcie.transfer.stall";
/// Fault point: a calibration measurement comes back as an outlier — the
/// sample is multiplied by the rule's `factor`.
pub const PCIE_CALIBRATION_OUTLIER: &str = "pcie.calibration.outlier";
/// Fault point: a GPU kernel launch fails transiently (driver hiccup).
pub const GPU_LAUNCH_TRANSIENT: &str = "gpu.launch.transient";
/// Fault point: a serve worker panics mid-request (caught and isolated).
pub const SERVE_WORKER_PANIC: &str = "serve.worker.panic";
/// Fault point: an inbound request frame is corrupted before decoding.
pub const SERVE_FRAME_CORRUPT: &str = "serve.frame.corrupt";
/// Fault point: one whole calibration attempt in the serving layer fails
/// (consulted once per attempt — the knob for "re-calibration keeps
/// failing" scenarios that must fall back to the last-good cache).
pub const SERVE_CALIBRATE_FAIL: &str = "serve.calibrate.fail";
/// Fault point: the gateway's forward to a shard fails as if the shard
/// were dead (consulted once per forward attempt; scope it with
/// `gateway.shard.down@shard1` to kill one shard of a pool). The gateway
/// marks the shard unhealthy and fails over along the hash ring.
pub const GATEWAY_SHARD_DOWN: &str = "gateway.shard.down";
/// Fault point: a gateway→shard forward stalls — the gateway sleeps for
/// the rule's `factor`, interpreted as **milliseconds**, before issuing
/// the upstream call (scopeable per shard like
/// [`GATEWAY_SHARD_DOWN`]). The chaos knob for widening the in-flight
/// window that single-flight coalescing collapses.
pub const GATEWAY_SHARD_SLOW: &str = "gateway.shard.slow";
/// Fault point: a serve worker's projection compute stalls — the worker
/// sleeps for the rule's `factor`, interpreted as **milliseconds**, before
/// computing (scopeable per machine like the pcie points). The chaos knob
/// for driving deadline-aware admission: queued requests age past their
/// `deadline_ms` budget and must be shed rather than computed.
pub const SERVE_COMPUTE_SLOW: &str = "serve.compute.slow";
/// Fault point: a gateway→shard forward hangs until the forward timeout —
/// the gateway sleeps min(`factor` ms, the attempt's timeout) and then
/// fails as timed out (scopeable per shard like [`GATEWAY_SHARD_DOWN`]).
/// Unlike [`GATEWAY_SHARD_SLOW`], the upstream call never happens: this is
/// the chaos knob for hedged requests, where the ring successor must win
/// while the primary hangs.
pub const GATEWAY_SHARD_HANG: &str = "gateway.shard.hang";

/// Every fault point the stack consults. A plan naming any other point
/// (less its `@scope`) is rejected, since no injection site would ever
/// consult it.
pub const KNOWN_POINTS: &[&str] = &[
    PCIE_TRANSFER_ERROR,
    PCIE_TRANSFER_STALL,
    PCIE_CALIBRATION_OUTLIER,
    GPU_LAUNCH_TRANSIENT,
    SERVE_WORKER_PANIC,
    SERVE_FRAME_CORRUPT,
    SERVE_CALIBRATE_FAIL,
    GATEWAY_SHARD_DOWN,
    GATEWAY_SHARD_SLOW,
    SERVE_COMPUTE_SLOW,
    GATEWAY_SHARD_HANG,
];

/// The machine-scoped spelling of a fault point: `point@machine`.
///
/// Scoped rules let one plan target a single machine in a multi-machine
/// registry (e.g. `pcie.transfer.error@v2:always`). The plan grammar checks
/// the part before the `@` against [`KNOWN_POINTS`] and keeps the whole
/// string as the point name; injection sites that know their machine
/// consult the scoped name first via [`FaultInjector::fire_factor_scoped`].
pub fn scoped_point(point: &str, machine: &str) -> String {
    format!("{point}@{machine}")
}

/// Environment variable holding the process-wide fault plan.
pub const ENV_FAULT_PLAN: &str = "GPP_FAULT_PLAN";

/// When a rule decides an occurrence fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Seeded Bernoulli with this probability per occurrence.
    Prob(f64),
    /// Occurrences N, 2N, 3N, ... fire (1-based).
    Every(u64),
    /// The first N occurrences fire; the rest pass.
    First(u64),
    /// Occurrences beyond the Nth fire; the first N pass.
    After(u64),
    /// Every occurrence fires.
    Always,
}

/// One fault point's rule: when it fires, and how hard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// The firing schedule.
    pub mode: Mode,
    /// Magnitude for faults that inflate a measurement (stalls, outliers):
    /// the sample is multiplied by this factor.
    pub factor: f64,
}

impl Rule {
    /// A rule with the default factor (20×).
    pub fn new(mode: Mode) -> Rule {
        Rule { mode, factor: 20.0 }
    }

    /// Sets the magnitude factor.
    #[must_use]
    pub fn factor(mut self, factor: f64) -> Rule {
        self.factor = factor;
        self
    }
}

/// A parsed fault plan: a seed plus (point, rule) pairs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for every per-point RNG stream.
    pub seed: u64,
    rules: Vec<(String, Rule)>,
}

impl FaultPlan {
    /// The empty plan: no point ever fires.
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder: adds (or replaces) a rule for a point.
    #[must_use]
    pub fn with(mut self, point: &str, rule: Rule) -> FaultPlan {
        self.rules.retain(|(p, _)| p != point);
        self.rules.push((point.to_string(), rule));
        self
    }

    /// Builder: sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// The configured (point, rule) pairs, in plan order.
    pub fn rules(&self) -> &[(String, Rule)] {
        &self.rules
    }

    /// Whether the plan has no rules at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for (point, rule) in &self.rules {
            write!(f, ";{point}:")?;
            match rule.mode {
                Mode::Prob(p) => write!(f, "p={p}")?,
                Mode::Every(n) => write!(f, "every={n}")?,
                Mode::First(n) => write!(f, "first={n}")?,
                Mode::After(n) => write!(f, "after={n}")?,
                Mode::Always => write!(f, "always")?,
            }
            if rule.factor != 20.0 {
                write!(f, ",factor={}", rule.factor)?;
            }
        }
        Ok(())
    }
}

/// A plan string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// What went wrong, mentioning the offending clause.
    pub message: String,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault plan: {}", self.message)
    }
}

impl std::error::Error for PlanError {}

fn plan_err(message: impl Into<String>) -> PlanError {
    PlanError {
        message: message.into(),
    }
}

impl FromStr for FaultPlan {
    type Err = PlanError;

    fn from_str(s: &str) -> Result<FaultPlan, PlanError> {
        let mut plan = FaultPlan::empty();
        for clause in s.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            if let Some(seed) = clause.strip_prefix("seed=") {
                plan.seed = seed
                    .trim()
                    .parse()
                    .map_err(|_| plan_err(format!("seed `{seed}` is not an integer")))?;
                continue;
            }
            let Some((point, spec)) = clause.split_once(':') else {
                return Err(plan_err(format!(
                    "clause `{clause}` is neither seed=N nor point:spec"
                )));
            };
            let point = point.trim();
            if point.is_empty() {
                return Err(plan_err(format!("clause `{clause}` has an empty point")));
            }
            let bare = point.split_once('@').map_or(point, |(bare, _)| bare);
            if !KNOWN_POINTS.contains(&bare) {
                return Err(plan_err(format!(
                    "unknown fault point `{bare}` (known: {})",
                    KNOWN_POINTS.join(", ")
                )));
            }
            let mut mode = None;
            let mut factor = 20.0;
            for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                if part == "always" {
                    mode = Some(Mode::Always);
                    continue;
                }
                let Some((key, value)) = part.split_once('=') else {
                    return Err(plan_err(format!("spec `{part}` is not key=value")));
                };
                let (key, value) = (key.trim(), value.trim());
                let int = || -> Result<u64, PlanError> {
                    value
                        .parse()
                        .map_err(|_| plan_err(format!("{key}=`{value}` is not an integer")))
                };
                let float = || -> Result<f64, PlanError> {
                    value
                        .parse()
                        .map_err(|_| plan_err(format!("{key}=`{value}` is not a number")))
                };
                match key {
                    "p" => {
                        let p = float()?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(plan_err(format!("p={p} outside [0, 1]")));
                        }
                        mode = Some(Mode::Prob(p));
                    }
                    "every" => {
                        let n = int()?;
                        if n == 0 {
                            return Err(plan_err("every=0 is meaningless (use always)"));
                        }
                        mode = Some(Mode::Every(n));
                    }
                    "first" => mode = Some(Mode::First(int()?)),
                    "after" => mode = Some(Mode::After(int()?)),
                    "factor" => {
                        factor = float()?;
                        if !(factor.is_finite() && factor > 0.0) {
                            return Err(plan_err(format!("factor={value} must be finite and > 0")));
                        }
                    }
                    other => return Err(plan_err(format!("unknown spec key `{other}`"))),
                }
            }
            let Some(mode) = mode else {
                return Err(plan_err(format!(
                    "point `{point}` has no firing rule (p/every/first/after/always)"
                )));
            };
            plan = plan.with(point, Rule { mode, factor });
        }
        Ok(plan)
    }
}

/// splitmix64 — the per-point RNG stream. Tiny, fast, and good enough for
/// Bernoulli draws; chosen over xoshiro to keep the state a single word.
#[derive(Debug, Clone)]
struct SplitMix64 {
    x: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { x: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.x = self.x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1) with 53 mantissa bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// FNV-1a, used to derive an independent RNG stream per point name.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How many fired-occurrence indices each point remembers for the trace.
const TRACE_CAP: usize = 64;

struct PointState {
    rng: SplitMix64,
    occurrences: u64,
    fired: u64,
    fired_at: Vec<u64>,
}

struct Point {
    name: String,
    rule: Rule,
    state: Mutex<PointState>,
}

/// A compiled, thread-safe fault plan: answers per-occurrence fire/pass
/// decisions and keeps per-point counters for the recovery trace.
///
/// Decisions for one point depend only on (plan seed, point name, that
/// point's occurrence counter) — never on other points or on wall-clock —
/// so two runs with the same plan and the same per-point consultation
/// counts produce the same trace even under concurrency.
pub struct FaultInjector {
    plan: FaultPlan,
    points: Vec<Point>,
    by_name: HashMap<String, usize>,
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan.to_string())
            .field("fired", &self.total_fired())
            .finish()
    }
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::new(FaultPlan::empty())
    }
}

impl FaultInjector {
    /// Compiles a plan. Each point gets an RNG stream seeded from the plan
    /// seed and the point name, so streams are mutually independent.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let points: Vec<Point> = plan
            .rules()
            .iter()
            .map(|(name, rule)| Point {
                name: name.clone(),
                rule: *rule,
                state: Mutex::new(PointState {
                    rng: SplitMix64::new(plan.seed ^ fnv1a(name.as_bytes())),
                    occurrences: 0,
                    fired: 0,
                    fired_at: Vec::new(),
                }),
            })
            .collect();
        let by_name = points
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), i))
            .collect();
        FaultInjector {
            plan,
            points,
            by_name,
        }
    }

    /// An injector that never fires (shared-ready, for defaults).
    pub fn disabled() -> Arc<FaultInjector> {
        Arc::new(FaultInjector::default())
    }

    /// Compiles the plan in [`ENV_FAULT_PLAN`], or the empty plan if the
    /// variable is unset. A malformed plan is an error (silently ignoring
    /// a chaos plan would make a chaos CI run vacuous).
    pub fn from_env() -> Result<Arc<FaultInjector>, PlanError> {
        match std::env::var(ENV_FAULT_PLAN) {
            Ok(s) => Ok(Arc::new(FaultInjector::new(s.parse()?))),
            Err(_) => Ok(FaultInjector::disabled()),
        }
    }

    /// Whether any rule exists at all. Inactive injectors answer every
    /// query with a single branch — no locks, no RNG.
    pub fn is_active(&self) -> bool {
        !self.points.is_empty()
    }

    /// The plan this injector was compiled from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Records one occurrence of `point` and decides whether it fires.
    pub fn fires(&self, point: &str) -> bool {
        self.fire_factor(point).is_some()
    }

    /// Like [`fires`](FaultInjector::fires), but returns the rule's
    /// magnitude factor when the occurrence fires.
    pub fn fire_factor(&self, point: &str) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let idx = *self.by_name.get(point)?;
        let p = &self.points[idx];
        let mut st = p.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.occurrences += 1;
        let n = st.occurrences;
        let fired = match p.rule.mode {
            Mode::Prob(prob) => st.rng.next_f64() < prob,
            Mode::Every(k) => n.is_multiple_of(k),
            Mode::First(k) => n <= k,
            Mode::After(k) => n > k,
            Mode::Always => true,
        };
        if fired {
            st.fired += 1;
            if st.fired_at.len() < TRACE_CAP {
                st.fired_at.push(n);
            }
            Some(p.rule.factor)
        } else {
            None
        }
    }

    /// Machine-scoped variant of [`fires`](FaultInjector::fires): see
    /// [`fire_factor_scoped`](FaultInjector::fire_factor_scoped).
    pub fn fires_scoped(&self, point: &str, machine: Option<&str>) -> bool {
        self.fire_factor_scoped(point, machine).is_some()
    }

    /// Like [`fire_factor`](FaultInjector::fire_factor), but consulted from
    /// a site that knows which target machine it is acting for.
    ///
    /// A plan may scope a rule to one machine by naming the point
    /// `point@machine` (e.g. `pcie.transfer.error@v2:p=0.5`) — the scoped
    /// rule is consulted *instead of* the bare one for that machine, while
    /// other machines keep using the bare rule. Plans without scoped rules
    /// behave exactly as before: the scoped name misses `by_name` without
    /// touching any counter or RNG stream, and the bare lookup proceeds
    /// unchanged, so unscoped plans stay bit-identical.
    pub fn fire_factor_scoped(&self, point: &str, machine: Option<&str>) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        if let Some(label) = machine {
            let scoped = scoped_point(point, label);
            if self.by_name.contains_key(&scoped) {
                return self.fire_factor(&scoped);
            }
        }
        self.fire_factor(point)
    }

    /// Total faults injected across all points so far.
    pub fn total_fired(&self) -> u64 {
        self.points
            .iter()
            .map(|p| p.state.lock().unwrap_or_else(PoisonError::into_inner).fired)
            .sum()
    }

    /// Per-point (name, consulted, fired) counters, sorted by name.
    pub fn counts(&self) -> Vec<(String, u64, u64)> {
        let mut rows: Vec<(String, u64, u64)> = self
            .points
            .iter()
            .map(|p| {
                let st = p.state.lock().unwrap_or_else(PoisonError::into_inner);
                (p.name.clone(), st.occurrences, st.fired)
            })
            .collect();
        rows.sort();
        rows
    }

    /// The recovery trace: one line per point (sorted by name) listing how
    /// often it was consulted, how often it fired, and the first fired
    /// occurrence indices. Identical seeds + identical per-point workloads
    /// yield byte-identical traces.
    pub fn trace(&self) -> String {
        let mut out = String::new();
        let mut points: Vec<&Point> = self.points.iter().collect();
        points.sort_by(|a, b| a.name.cmp(&b.name));
        for p in points {
            let st = p.state.lock().unwrap_or_else(PoisonError::into_inner);
            let at: Vec<String> = st.fired_at.iter().map(u64::to_string).collect();
            let ellipsis = if st.fired as usize > st.fired_at.len() {
                ", ..."
            } else {
                ""
            };
            out.push_str(&format!(
                "{}: fired {}/{} at [{}{}]\n",
                p.name,
                st.fired,
                st.occurrences,
                at.join(", "),
                ellipsis
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires_and_is_inactive() {
        let inj = FaultInjector::default();
        assert!(!inj.is_active());
        for _ in 0..100 {
            assert!(!inj.fires(PCIE_TRANSFER_ERROR));
        }
        assert_eq!(inj.total_fired(), 0);
        assert_eq!(inj.trace(), "");
    }

    #[test]
    fn grammar_round_trips() {
        let text = "seed=42;pcie.transfer.error:p=0.25;serve.worker.panic:every=7;\
                    pcie.calibration.outlier:first=3,factor=50;serve.frame.corrupt:after=2;\
                    gateway.shard.down:always";
        let plan: FaultPlan = text.parse().unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules().len(), 5);
        let rendered = plan.to_string();
        let reparsed: FaultPlan = rendered.parse().unwrap();
        assert_eq!(plan, reparsed, "canonical form must re-parse to itself");
    }

    #[test]
    fn grammar_rejects_malformed_plans() {
        for bad in [
            "nonsense",
            "seed=abc",
            "serve.worker.panic:",
            "serve.worker.panic:p=1.5",
            "serve.worker.panic:p=nope",
            "serve.worker.panic:every=0",
            "serve.worker.panic:factor=2", // factor without a firing rule
            "serve.worker.panic:wibble=3",
            ":p=0.5",
            "serve.worker.panic:factor=-1,always",
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "`{bad}` should fail");
        }
        // Whitespace and empty clauses are tolerated.
        let ok: FaultPlan = " seed=1 ; serve.worker.panic : p=0.5 ;; ".parse().unwrap();
        assert_eq!(ok.rules().len(), 1);
    }

    #[test]
    fn plans_naming_an_unknown_point_are_rejected() {
        for bad in ["pcie.transfer.eror:always", "pcie.transfer.eror@v2:always"] {
            let err = bad.parse::<FaultPlan>().unwrap_err().to_string();
            assert!(
                err.contains("unknown fault point `pcie.transfer.eror`"),
                "{err}"
            );
        }
        // Any scope of a known point is fine.
        for point in KNOWN_POINTS {
            let scoped: FaultPlan = format!("{}:always", scoped_point(point, "x"))
                .parse()
                .unwrap();
            assert_eq!(scoped.rules().len(), 1);
        }
    }

    #[test]
    fn schedules_fire_exactly_as_specified() {
        let plan = FaultPlan::empty()
            .with("e", Rule::new(Mode::Every(3)))
            .with("f", Rule::new(Mode::First(2)))
            .with("a", Rule::new(Mode::After(4)))
            .with("w", Rule::new(Mode::Always));
        let inj = FaultInjector::new(plan);
        let seq = |p: &str| -> Vec<bool> { (0..6).map(|_| inj.fires(p)).collect() };
        assert_eq!(seq("e"), [false, false, true, false, false, true]);
        assert_eq!(seq("f"), [true, true, false, false, false, false]);
        assert_eq!(seq("a"), [false, false, false, false, true, true]);
        assert_eq!(seq("w"), [true; 6]);
    }

    #[test]
    fn probability_is_seeded_and_reasonable() {
        let plan: FaultPlan = "seed=9;pcie.transfer.error:p=0.3".parse().unwrap();
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        let da: Vec<bool> = (0..2000).map(|_| a.fires("pcie.transfer.error")).collect();
        let db: Vec<bool> = (0..2000).map(|_| b.fires("pcie.transfer.error")).collect();
        assert_eq!(da, db, "same seed, same decisions");
        let rate = da.iter().filter(|&&f| f).count() as f64 / da.len() as f64;
        assert!((0.25..0.35).contains(&rate), "rate {rate}");
        // A different seed gives a different sequence.
        let c = FaultInjector::new("seed=10;pcie.transfer.error:p=0.3".parse().unwrap());
        let dc: Vec<bool> = (0..2000).map(|_| c.fires("pcie.transfer.error")).collect();
        assert_ne!(da, dc);
    }

    #[test]
    fn point_streams_are_independent() {
        // Consulting point B must not shift point A's decisions.
        let (a, b) = (PCIE_TRANSFER_ERROR, PCIE_TRANSFER_STALL);
        let plan: FaultPlan = format!("seed=5;{a}:p=0.5;{b}:p=0.5").parse().unwrap();
        let solo = FaultInjector::new(plan.clone());
        let solo_a: Vec<bool> = (0..100).map(|_| solo.fires(a)).collect();
        let mixed = FaultInjector::new(plan);
        let mixed_a: Vec<bool> = (0..100)
            .map(|_| {
                mixed.fires(b);
                mixed.fires(a)
            })
            .collect();
        assert_eq!(solo_a, mixed_a);
    }

    #[test]
    fn trace_reports_fired_occurrences() {
        let inj = FaultInjector::new("seed=1;serve.worker.panic:every=2".parse().unwrap());
        for _ in 0..5 {
            inj.fires("serve.worker.panic");
        }
        assert_eq!(inj.trace(), "serve.worker.panic: fired 2/5 at [2, 4]\n");
        assert_eq!(inj.counts(), vec![("serve.worker.panic".to_string(), 5, 2)]);
        assert_eq!(inj.total_fired(), 2);
    }

    #[test]
    fn factors_flow_through() {
        let inj = FaultInjector::new("pcie.transfer.stall:always,factor=123.5".parse().unwrap());
        assert_eq!(inj.fire_factor("pcie.transfer.stall"), Some(123.5));
        assert_eq!(inj.fire_factor("unlisted"), None);
    }

    #[test]
    fn scoped_rules_parse_and_round_trip() {
        let plan: FaultPlan = "seed=9;pcie.transfer.error@v2:p=0.5".parse().unwrap();
        assert_eq!(plan.to_string(), "seed=9;pcie.transfer.error@v2:p=0.5");
    }

    #[test]
    fn scoped_rule_overrides_bare_for_its_machine_only() {
        let p = PCIE_TRANSFER_STALL;
        let plan: FaultPlan = format!("{p}:always,factor=2;{p}@v2:always,factor=7")
            .parse()
            .unwrap();
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.fire_factor_scoped(p, Some("v2")), Some(7.0));
        assert_eq!(inj.fire_factor_scoped(p, Some("eureka")), Some(2.0));
        assert_eq!(inj.fire_factor_scoped(p, None), Some(2.0));
    }

    #[test]
    fn scoped_lookup_on_unscoped_plan_is_bit_identical_to_bare() {
        // Two injectors from the same probabilistic plan: one consulted with
        // a machine label, one without. Because the scoped name misses
        // `by_name` without touching any state, the decision streams match
        // exactly.
        let plan: FaultPlan = "seed=3;pcie.transfer.error:p=0.4".parse().unwrap();
        let bare = FaultInjector::new(plan.clone());
        let scoped = FaultInjector::new(plan);
        for _ in 0..64 {
            assert_eq!(
                bare.fire_factor("pcie.transfer.error"),
                scoped.fire_factor_scoped("pcie.transfer.error", Some("eureka"))
            );
        }
        assert_eq!(bare.trace(), scoped.trace());
    }

    #[test]
    fn scoped_point_spelling() {
        assert_eq!(
            scoped_point(PCIE_TRANSFER_ERROR, "v2"),
            "pcie.transfer.error@v2"
        );
    }
}
