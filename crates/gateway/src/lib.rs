//! `gpp-gateway`: a sharding front-end for `gpp-serve`.
//!
//! One gateway fronts N `gpp-serve` shards and speaks the same `gpp/1`
//! framed protocol on both sides, so clients point at the gateway and
//! notice nothing — except that the pool scales and survives shard death:
//!
//! * **consistent-hash routing** ([`ring`]) — requests are routed on
//!   (machine, program structural fingerprint), so identical programs for
//!   a machine always land on the shard whose calibration and projection
//!   caches are already warm for them. A bounded memo keyed by the exact
//!   skeleton text answers the fingerprint of a repeated skeleton without
//!   parsing it;
//! * **single-flight coalescing** ([`flight`]) — concurrent identical
//!   projections collapse into one upstream call; followers get a copy of
//!   the leader's reply (projections are pure functions of the payload,
//!   so the bytes are exactly what each would have received);
//! * **batch fan-out** — a `batch` frame is unpacked, each sub-request
//!   routed independently, and the sub-replies reassembled verbatim with
//!   [`gpp_serve::protocol::batch_response`] — bit-for-bit what a single
//!   shard would have produced;
//! * **health-checked fail-over** ([`pool`]) — each shard carries a
//!   circuit breaker (closed / open / half-open): forward errors trip it
//!   open, the background prober runs the half-open trial, requests
//!   re-route along the ring's successor order, and recovered shards are
//!   re-admitted automatically;
//! * **deadline propagation** — a `deadline_ms=` request is forwarded
//!   with its deadline decremented by the time already spent in the
//!   gateway (and its forward timeout capped at the remainder); an
//!   expired deadline is answered locally with the same `deadline` error
//!   a shard would produce. Requests without a deadline forward their
//!   original bytes verbatim;
//! * **hedged requests** — a `project`'s primary forward runs on the
//!   gateway worker's own thread, which waits up to the shard's rolling
//!   p99 forward latency for the first reply byte. Only a primary still
//!   unanswered then moves to a thread of its own, and one budget-metered
//!   hedge fires at the ring successor on another; the first reply wins
//!   and the loser is dropped. A prompt reply starts no thread at all.
//!   Projections are pure functions of the payload, so a hedged reply is
//!   byte-identical to the primary's;
//! * **keep-alive shard connections** ([`pool`]) — a forward, hedge or
//!   probe reuses the shard connection that went idle last, after a
//!   non-blocking peek shows the shard has not closed it, and connects
//!   only when none is idle. A `gpp-serve` worker serves one connection
//!   until it closes, so an idle connection parks a worker: a connection
//!   that returns while a new connect to its shard is still pending is
//!   closed rather than pooled, and the prober closes connections idle
//!   for a whole [`POLL`] tick, and all of a shard's when its breaker
//!   opens. A reused connection that closes before its reply starts is
//!   stale, not a shard failure: the frame goes out again on a new
//!   connection, and only that one's outcome reaches the breaker.
//!
//! Because every shard computes bit-identical replies for a given payload
//! (calibration and projection are deterministic in (machine, seed)),
//! fail-over is invisible: the chaos suite kills shards mid-load and
//! asserts the full reply set equals a single-shard no-fault run.
//!
//! The client side (acceptor, queue, workers with panic isolation, frame
//! loop) is `gpp-serve`'s [`FrameServer`]; [`GatewayState`] is its
//! [`Handler`], and its prober runs beside the workers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod pool;
pub mod ring;

use flight::{Joined, SingleFlight};
use gpp_fault::FaultInjector;
use gpp_serve::cache::fnv1a;
use gpp_serve::client::RetryBudget;
use gpp_serve::metrics::Metrics;
use gpp_serve::protocol::{batch_response, Command, ProtocolError, Request};
use gpp_serve::server::{FrameHandle, FrameServer, Handler, Limits, Reject};
use gpp_serve::service::{busy_response, deadline_exceeded, error_json};
use grophecy::report::Json;
use parking_lot::Mutex;
use pool::{Shard, ShardPool};
use ring::routing_key;
use std::borrow::Cow;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hedge-budget capacity: at most this many hedges can fire in a burst.
const HEDGE_BUDGET_CAPACITY: u32 = 8;

/// Hedge-budget refill rate (milli-tokens per second): sustained hedging
/// is limited to ~4 extra upstream calls per second, so a pool-wide slow
/// patch cannot double the gateway's upstream load.
const HEDGE_BUDGET_REFILL: u64 = 4_000;

/// Slack added to the forward timeout when waiting for an in-flight
/// attempt's thread to report back (covers connect setup overhead).
const ATTEMPT_SLACK: Duration = Duration::from_millis(250);

/// Tunables for one gateway instance.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Listen address (port 0 = ephemeral).
    pub addr: String,
    /// Worker threads handling client connections.
    pub workers: usize,
    /// Bounded accept-queue depth; connections beyond it get `busy`.
    pub queue_depth: usize,
    /// Per-connection read budget and upstream forward timeout.
    pub request_timeout: Duration,
    /// How often a healthy shard is re-probed.
    pub probe_interval: Duration,
    /// Base backoff before re-probing an unhealthy shard; doubles with
    /// the failure streak.
    pub probe_backoff: Duration,
    /// Largest accepted request frame.
    pub max_frame_bytes: usize,
    /// Whether tail-latency hedging is enabled (`--no-hedge` clears it).
    pub hedge: bool,
    /// The fault plan in force (for `gateway.shard.*` chaos points).
    pub faults: Arc<FaultInjector>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            request_timeout: Duration::from_secs(30),
            probe_interval: Duration::from_millis(500),
            probe_backoff: Duration::from_millis(25),
            max_frame_bytes: 8 << 20,
            hedge: true,
            faults: FaultInjector::disabled(),
        }
    }
}

/// Monotonic gateway counters (all relaxed; read by `stats`).
#[derive(Default)]
pub struct GatewayMetrics {
    /// Requests answered (any outcome).
    pub served_ok: AtomicU64,
    /// Requests answered with `"ok":false`.
    pub served_err: AtomicU64,
    /// Requests forwarded upstream.
    pub routed_total: AtomicU64,
    /// Requests answered from another caller's in-flight reply.
    pub coalesced: AtomicU64,
    /// Forwards that had to move past the primary shard.
    pub failovers: AtomicU64,
    /// Requests no shard could answer.
    pub unavailable: AtomicU64,
    /// Batch frames unpacked.
    pub batch_frames: AtomicU64,
    /// Sub-requests carried by those frames.
    pub batch_subs: AtomicU64,
    /// Connections rejected `busy` at the accept queue.
    pub rejected_busy: AtomicU64,
    /// Hedge attempts fired (primary exceeded its rolling p99).
    pub hedges_fired: AtomicU64,
    /// Hedges whose reply beat the primary's.
    pub hedges_won: AtomicU64,
    /// Requests whose propagated deadline expired inside the gateway.
    pub shed_deadline: AtomicU64,
}

/// Shared state behind every gateway worker. Handlers are pure functions
/// of (state, payload) — tests drive them without sockets.
pub struct GatewayState {
    /// The configuration in force.
    pub config: GatewayConfig,
    /// The shard pool and its ring.
    pub pool: ShardPool,
    /// The single-flight coalescing map.
    pub flights: SingleFlight,
    /// Gateway counters.
    pub metrics: GatewayMetrics,
    /// Token bucket metering hedge attempts (time-refilled: hedging is a
    /// latency optimization, so its timing never shapes reply bytes).
    pub hedge_budget: RetryBudget,
    route_memo: RouteMemo,
}

impl GatewayState {
    /// Builds the state for a pool of shard addresses.
    pub fn new(config: GatewayConfig, shard_addrs: Vec<String>) -> GatewayState {
        GatewayState {
            flights: SingleFlight::new(config.request_timeout),
            pool: ShardPool::new(shard_addrs),
            metrics: GatewayMetrics::default(),
            hedge_budget: RetryBudget::new(HEDGE_BUDGET_CAPACITY)
                .with_refill_milli_per_sec(HEDGE_BUDGET_REFILL),
            route_memo: RouteMemo::default(),
            config,
        }
    }

    /// Decodes and executes one request payload, returning the reply
    /// JSON: locally for `ping`/`health`/`stats` and parse errors,
    /// routed upstream for everything else.
    pub fn handle(&self, payload: &str) -> String {
        self.handle_at(payload, Instant::now())
    }

    /// [`GatewayState::handle`] with an explicit arrival instant: the
    /// clock `deadline_ms=` budgets are decremented against. The server
    /// loop stamps arrival when the frame finishes reading.
    pub fn handle_at(&self, payload: &str, arrival: Instant) -> String {
        let reply = self.answer(payload, arrival);
        if reply.starts_with("{\"ok\":false") {
            Metrics::bump(&self.metrics.served_err);
        } else {
            Metrics::bump(&self.metrics.served_ok);
        }
        reply
    }

    /// Unpacks a batch, routes every sub-request independently (each to
    /// its own ring position), and reassembles the sub-replies verbatim.
    fn handle_batch(&self, req: &Request, arrival: Instant) -> String {
        Metrics::bump(&self.metrics.batch_frames);
        let replies: Vec<String> = req
            .batch
            .iter()
            .map(|sub| {
                Metrics::bump(&self.metrics.batch_subs);
                self.answer(sub, arrival)
            })
            .collect();
        batch_response(&replies)
    }

    /// Answers one request or batch sub-request: locally for parse errors
    /// and `ping`/`health`/`stats`, routed upstream for everything else.
    fn answer(&self, payload: &str, arrival: Instant) -> String {
        match Request::decode(payload) {
            // Same mapping as the shard's own handler, so a malformed
            // frame gets byte-identical bytes from gateway and shard.
            Err(e) => error_json(&ProtocolError::new("parse", e.to_string())).render(),
            Ok(req) => match req.command {
                Command::Ping => Json::obj([
                    ("ok", Json::Bool(true)),
                    ("command", Json::Str("ping".into())),
                ])
                .render(),
                // Stats/health describe the process that answers them
                // (load-dependent by nature), so the gateway answers with
                // its own view, in a batch too.
                Command::Health => self.health_json().render(),
                Command::Stats => self.stats_json().render(),
                // Only at the top level: the decoder rejects nested batches.
                Command::Batch => self.handle_batch(&req, arrival),
                _ => self.route_one(payload, &req, arrival),
            },
        }
    }

    /// Routes one skeleton-bearing (or calibrate) request: decrements the
    /// propagated deadline (if any), computes the routing key, coalesces
    /// identical in-flight projections, and forwards — hedged for
    /// projections, along the ring's fail-over order otherwise.
    fn route_one(&self, payload: &str, req: &Request, arrival: Instant) -> String {
        let fingerprint = self.route_memo.fingerprint(req, payload);
        let key = routing_key(&req.machine, fingerprint);
        // A deadline-bearing request forwards a rewritten payload whose
        // `deadline_ms` is what is left after gateway time; one without a
        // deadline forwards its original bytes verbatim (the no-deadline
        // wire contract stays byte-for-byte unchanged).
        let (rewritten, remaining) = match req.deadline_ms {
            None => (None, None),
            Some(total) => {
                let spent = u64::try_from(arrival.elapsed().as_millis()).unwrap_or(u64::MAX);
                match total.checked_sub(spent).filter(|rem| *rem > 0) {
                    None => {
                        Metrics::bump(&self.metrics.shed_deadline);
                        return error_json(&deadline_exceeded(total)).render();
                    }
                    Some(rem) => {
                        let mut fwd = req.clone();
                        fwd.deadline_ms = Some(rem);
                        (Some(fwd.encode()), Some(Duration::from_millis(rem)))
                    }
                }
            }
        };
        let fwd_payload = rewritten.as_deref().unwrap_or(payload);
        // Coalescing is for `project` only: the reply is a pure function
        // of the payload, so leader and follower replies are
        // interchangeable. The flight key hashes the payload with its
        // deadline stripped — callers asking for the same projection
        // under different budgets still share one flight, and the
        // gateway's own deadline rewriting cannot split it.
        let reply = if req.command == Command::Project {
            let key_payload: Cow<str> = match req.deadline_ms {
                None => Cow::Borrowed(payload),
                Some(_) => {
                    let mut bare = req.clone();
                    bare.deadline_ms = None;
                    Cow::Owned(bare.encode())
                }
            };
            let flight_key =
                (u128::from(fnv1a(key_payload.as_bytes())) << 64) ^ fingerprint ^ u128::from(key);
            let wait = remaining.unwrap_or(self.config.request_timeout);
            match self.flights.join_with_budget(flight_key, wait) {
                Joined::Follower(reply) => {
                    // A leader that died on *its* deadline (or was shed)
                    // must not poison followers that still have budget:
                    // those re-fly on their own clock.
                    if reply.starts_with("{\"ok\":false")
                        && (reply.contains("\"kind\":\"deadline\"")
                            || reply.contains("\"kind\":\"shed\""))
                    {
                        self.forward(fwd_payload, key, remaining, true)
                    } else {
                        Metrics::bump(&self.metrics.coalesced);
                        reply
                    }
                }
                Joined::Leader(guard) => {
                    let reply = self.forward(fwd_payload, key, remaining, true);
                    guard.complete(&reply);
                    reply
                }
                Joined::Orphaned => self.forward(fwd_payload, key, remaining, true),
            }
        } else {
            self.forward(fwd_payload, key, remaining, false)
        };
        // No ok reply may cross its propagated deadline: an upstream
        // success that arrived late (slow forward path, exhausted hedge
        // budget) is worthless to the caller, so it is converted to the
        // same structured error the shard itself would have produced.
        if let Some(total) = req.deadline_ms {
            if reply.starts_with("{\"ok\":true") && arrival.elapsed() > Duration::from_millis(total)
            {
                Metrics::bump(&self.metrics.shed_deadline);
                return error_json(&deadline_exceeded(total)).render();
            }
        }
        reply
    }

    /// The forward timeout for one attempt: the configured request
    /// timeout, capped at the propagated deadline's remainder.
    fn forward_timeout(&self, remaining: Option<Duration>) -> Duration {
        remaining.map_or(self.config.request_timeout, |rem| {
            rem.min(self.config.request_timeout)
        })
    }

    /// Forwards one routed request. A `project` (`hedged`) first tries
    /// [`GatewayState::hedged_attempt`]; everything else, and a
    /// `project` whose hedged arms all failed or that cannot hedge,
    /// walks the key's shards in ring order: healthy ones first, then —
    /// if every healthy attempt failed — the evicted ones as a last
    /// resort (fail-fast marking may be stale, and a full pool of
    /// "unhealthy" shards must still get one attempt each rather than an
    /// instant `unavailable`). Every failure trips the shard's breaker so
    /// later requests skip it immediately.
    fn forward(
        &self,
        payload: &str,
        key: u64,
        remaining: Option<Duration>,
        hedged: bool,
    ) -> String {
        Metrics::bump(&self.metrics.routed_total);
        let timeout = self.forward_timeout(remaining);
        if hedged {
            if let Some(reply) = self.hedged_attempt(payload, key, remaining, timeout) {
                return reply;
            }
        }
        let candidates = self.pool.route(key);
        // Snapshot health up front: healthy shards first, in ring order.
        let healthy_first: Vec<_> = candidates
            .iter()
            .filter(|s| s.is_healthy())
            .chain(candidates.iter().filter(|s| !s.is_healthy()))
            .collect();
        let mut tried = 0usize;
        for shard in healthy_first {
            tried += 1;
            if tried > 1 {
                Metrics::bump(&self.metrics.failovers);
            }
            let started = Instant::now();
            let result = shard.forward(payload, timeout, &self.config.faults);
            if let Ok(reply) = self.settle(shard, result, started) {
                return reply;
            }
        }
        Metrics::bump(&self.metrics.unavailable);
        error_json(&ProtocolError::new(
            "unavailable",
            format!(
                "no shard answered after {tried} attempt(s) across {} shard(s)",
                candidates.len()
            ),
        ))
        .render()
    }

    /// The hedging fast path. The primary is connected and sent on the
    /// caller's thread, which then waits up to its rolling p99 (clamped
    /// to ≥ 1 ms and to half the remaining deadline) for the first reply
    /// byte. A prompt reply — the common case — is read and settled right
    /// there: no thread starts. Past the p99 the in-flight attempt moves
    /// to a thread, one budget-metered hedge fires at the ring successor
    /// on a thread of its own, and the first reply wins. The inline
    /// connect is given up at the p99 too: a primary whose shard does not
    /// complete the handshake (dropped SYNs, a full accept queue) moves to
    /// the thread unsent and reconnects there under the full forward
    /// timeout, so its hedge still fires on time. Each threaded attempt
    /// settles its own breaker/latency bookkeeping, and the loser's reply
    /// is dropped (a blocking forward cannot be interrupted — dropping
    /// the receiver is the cancellation). An attempt that fails before
    /// the p99 (refused connect, hang-up, an injected fault that lands
    /// early) settles inline like any failure. Returns `None` when
    /// hedging is not applicable (disabled, fewer than two healthy shards,
    /// cold latency window) or when every attempt failed, so the caller
    /// falls back to the fail-over walk.
    fn hedged_attempt(
        &self,
        payload: &str,
        key: u64,
        remaining: Option<Duration>,
        timeout: Duration,
    ) -> Option<String> {
        if !self.config.hedge {
            return None;
        }
        let healthy: Vec<Arc<Shard>> = self
            .pool
            .route(key)
            .into_iter()
            .filter(|s| s.is_healthy())
            .collect();
        if healthy.len() < 2 {
            return None;
        }
        let p99 = healthy[0].p99_us()?;
        let mut delay = Duration::from_micros(p99).max(Duration::from_millis(1));
        if let Some(rem) = remaining {
            delay = delay.min(rem / 2);
        }
        let started = Instant::now();
        let hedge_at = started + delay;
        let mut primary = healthy[0].attempt(payload, timeout, &self.config.faults);
        if primary.ready_by(hedge_at) {
            return self.settle(&healthy[0], primary.finish(), started).ok();
        }
        let (tx, rx) = mpsc::channel();
        self.spawn_attempt(&healthy[0], false, tx.clone(), move |_| {
            (started, primary.finish())
        });
        let mut expected = 1u32;
        let mut outcome = rx.recv_timeout(hedge_at.saturating_duration_since(Instant::now()));
        if matches!(outcome, Err(RecvTimeoutError::Timeout)) {
            // Primary is past its p99. Hedge if the budget allows; either
            // way, keep waiting out the full forward timeout.
            if self.hedge_budget.try_withdraw() {
                Metrics::bump(&self.metrics.hedges_fired);
                let (payload, faults) = (payload.to_string(), self.config.faults.clone());
                self.spawn_attempt(&healthy[1], true, tx.clone(), move |shard| {
                    (Instant::now(), shard.forward(&payload, timeout, &faults))
                });
                expected = 2;
            }
            outcome = rx.recv_timeout(timeout.saturating_add(ATTEMPT_SLACK));
        }
        drop(tx);
        let mut failures = 0u32;
        loop {
            match outcome {
                Ok((is_hedge, Ok(reply))) => {
                    if is_hedge {
                        Metrics::bump(&self.metrics.hedges_won);
                    }
                    return Some(reply);
                }
                Ok((_, Err(_))) => {
                    failures += 1;
                    if failures >= expected {
                        return None;
                    }
                }
                Err(_) => return None,
            }
            outcome = rx.recv_timeout(timeout.saturating_add(ATTEMPT_SLACK));
        }
    }

    /// Finishes one upstream attempt on its own thread: `attempt` runs
    /// against the shard and returns its start instant and result.
    /// Bookkeeping happens on that thread, so a losing hedge still
    /// records its outcome after the winner's reply has been returned to
    /// the client.
    fn spawn_attempt(
        &self,
        shard: &Arc<Shard>,
        is_hedge: bool,
        tx: mpsc::Sender<(bool, Result<String, String>)>,
        attempt: impl FnOnce(&Shard) -> (Instant, io::Result<String>) + Send + 'static,
    ) {
        let shard = shard.clone();
        let (probe_interval, probe_backoff) =
            (self.config.probe_interval, self.config.probe_backoff);
        std::thread::spawn(move || {
            let (started, result) = attempt(&shard);
            let result = shard.settle(result, started, probe_interval, probe_backoff);
            let _ = tx.send((is_hedge, result.map_err(|e| e.to_string())));
        });
    }

    /// [`Shard::settle`] under this gateway's probe timings.
    fn settle(
        &self,
        shard: &Shard,
        result: io::Result<String>,
        started: Instant,
    ) -> io::Result<String> {
        shard.settle(
            result,
            started,
            self.config.probe_interval,
            self.config.probe_backoff,
        )
    }

    /// The gateway's `health` reply: its role and pool occupancy.
    fn health_json(&self) -> Json {
        Json::obj([
            ("ok", Json::Bool(true)),
            ("command", Json::Str("health".into())),
            ("role", Json::Str("gateway".into())),
            ("shards", Json::Num(self.pool.len() as f64)),
            (
                "healthy_shards",
                Json::Num(self.pool.healthy_count() as f64),
            ),
        ])
    }

    /// The gateway's `stats` reply: per-shard health and routed counts
    /// plus the coalescing and fail-over counters.
    fn stats_json(&self) -> Json {
        let m = &self.metrics;
        let load = |c: &AtomicU64| Json::Num(c.load(Ordering::Relaxed) as f64);
        Json::obj([
            ("ok", Json::Bool(true)),
            ("command", Json::Str("stats".into())),
            (
                "gateway",
                Json::obj([
                    (
                        "shards",
                        Json::Arr(
                            self.pool
                                .shards()
                                .iter()
                                .map(|s| {
                                    Json::obj([
                                        ("label", Json::Str(s.label.clone())),
                                        ("addr", Json::Str(s.addr.clone())),
                                        ("healthy", Json::Bool(s.is_healthy())),
                                        ("breaker", Json::Str(s.breaker().as_str().into())),
                                        ("routed", load(&s.routed)),
                                        ("forward_errors", load(&s.forward_errors)),
                                        ("probe_failures", load(&s.probe_failures)),
                                        ("readmissions", load(&s.readmissions)),
                                        ("breaker_opens", load(&s.breaker_opens)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("served_ok", load(&m.served_ok)),
                    ("served_err", load(&m.served_err)),
                    ("routed_total", load(&m.routed_total)),
                    ("coalesced", load(&m.coalesced)),
                    ("failovers", load(&m.failovers)),
                    ("unavailable", load(&m.unavailable)),
                    ("batch_frames", load(&m.batch_frames)),
                    ("batch_subs", load(&m.batch_subs)),
                    ("rejected_busy", load(&m.rejected_busy)),
                    ("hedges_fired", load(&m.hedges_fired)),
                    ("hedges_won", load(&m.hedges_won)),
                    ("shed_deadline", load(&m.shed_deadline)),
                    (
                        "breaker_opens",
                        Json::Num(
                            self.pool
                                .shards()
                                .iter()
                                .map(|s| s.breaker_opens.load(Ordering::Relaxed))
                                .sum::<u64>() as f64,
                        ),
                    ),
                    (
                        "retry_budget_exhausted",
                        Json::Num(self.hedge_budget.exhausted_count() as f64),
                    ),
                    ("in_flight", Json::Num(self.flights.in_flight() as f64)),
                ]),
            ),
        ])
    }
}

/// Most skeletons the route memo holds.
const ROUTE_MEMO_ENTRIES: usize = 1024;

/// Most skeleton bytes the route memo holds; a longer skeleton is parsed
/// every time.
const ROUTE_MEMO_BYTES: usize = 4 << 20;

/// Structural fingerprints of skeletons that parsed, by exact skeleton
/// text, so a repeated skeleton routes without a parse. A lookup compares
/// the whole text, never just its hash. A skeleton that would take the
/// memo past either bound empties it first.
#[derive(Default)]
struct RouteMemo(Mutex<(HashMap<Box<str>, u128>, usize)>);

impl RouteMemo {
    /// The routing fingerprint for a request: the program's structural
    /// fingerprint when the skeleton parses, else a content hash of the
    /// whole payload (malformed skeletons still route somewhere definite,
    /// and the shard reports the parse error).
    fn fingerprint(&self, req: &Request, payload: &str) -> u128 {
        if req.command.needs_skeleton() {
            let skeleton = req.skeleton.as_str();
            if let Some(&fingerprint) = self.0.lock().0.get(skeleton) {
                return fingerprint;
            }
            if let Ok(program) = gpp_skeleton::text::parse(skeleton) {
                let fingerprint = gpp_gpu_model::program_fingerprint(&program);
                if skeleton.len() <= ROUTE_MEMO_BYTES {
                    let (map, bytes) = &mut *self.0.lock();
                    if map.len() == ROUTE_MEMO_ENTRIES || *bytes + skeleton.len() > ROUTE_MEMO_BYTES
                    {
                        map.clear();
                        *bytes = 0;
                    }
                    if map.insert(skeleton.into(), fingerprint).is_none() {
                        *bytes += skeleton.len();
                    }
                }
                return fingerprint;
            }
        }
        u128::from(fnv1a(payload.as_bytes()))
    }
}

/// How often the prober looks for due shards, closes shard connections
/// idle for a whole tick, and re-checks the shutdown flag. An idle
/// connection is closed at the first tick it has been idle through, so
/// it outlives its last reply by less than two ticks plus one round of
/// probes.
pub const POLL: Duration = Duration::from_millis(10);

/// The gateway as a `gpp-serve` [`FrameServer`] handler.
impl Handler for GatewayState {
    const NAME: &'static str = "gpp-gateway";
    // A full queue answers the newcomer a hint-less `busy`.
    const SHED_OLDEST: bool = false;

    fn limits(&self) -> Limits {
        Limits {
            workers: self.config.workers,
            queue_depth: self.config.queue_depth,
            request_timeout: self.config.request_timeout,
            max_frame_bytes: self.config.max_frame_bytes,
        }
    }

    fn reply(&self, payload: &str, _queued: Duration, _queue_len: usize) -> String {
        // The deadline clock starts once the frame is fully read: the
        // budget covers gateway forwarding, not a trickling client's own
        // send time.
        self.handle(payload)
    }

    fn reject(&self, _why: Reject, _queue_len: usize) -> String {
        Metrics::bump(&self.metrics.rejected_busy);
        busy_response()
    }

    /// The prober: evicts dead shards, re-admits recovered ones, and
    /// closes idle shard connections, all of them once the gateway stops.
    fn beside(&self, shutdown: &AtomicBool) {
        while !shutdown.load(Ordering::SeqCst) {
            self.pool.probe_due(
                self.config.probe_interval,
                self.config.probe_backoff,
                self.config.request_timeout.min(Duration::from_secs(2)),
                &self.config.faults,
            );
            self.pool.expire_idle(POLL);
            std::thread::sleep(POLL);
        }
        self.pool.expire_idle(Duration::ZERO);
    }
}

/// A bound, ready-to-run gateway: a [`FrameServer`] serving a
/// [`GatewayState`].
pub struct Gateway(FrameServer<GatewayState>);

/// Handle to a gateway running on a background thread.
pub type GatewayHandle = FrameHandle<GatewayState>;

impl Gateway {
    /// Binds the configured address (port 0 gives an ephemeral port).
    pub fn bind(config: GatewayConfig, shard_addrs: Vec<String>) -> io::Result<Gateway> {
        FrameServer::listen(config.addr.clone(), GatewayState::new(config, shard_addrs))
            .map(Gateway)
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.0.local_addr()
    }

    /// Shared state (stats, pool) — for embedding and tests.
    pub fn state(&self) -> Arc<GatewayState> {
        self.0.state()
    }

    /// Runs until the shutdown flag is set or SIGINT/SIGTERM arrives
    /// (blocking). Accepted connections drain before return; the prober
    /// stops with the acceptor.
    pub fn run(self) -> io::Result<()> {
        self.0.run()
    }

    /// Runs the gateway on a background thread; returns a handle with the
    /// bound address and a clean shutdown path.
    pub fn spawn(self) -> io::Result<GatewayHandle> {
        self.0.spawn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(memo: &RouteMemo, payload: &str) -> u128 {
        memo.fingerprint(&Request::decode(payload).unwrap(), payload)
    }

    fn program(n: usize, comment: &str) -> String {
        format!(
            "gpp/1 project\n# {comment}\nprogram p{n}\narray a f32 [{size}]\n\
             kernel k\n  parallel i {size}\n  stmt adds=1\n    read a [i]\n",
            size = 64 + n,
        )
    }

    #[test]
    fn the_route_memo_answers_repeats_with_the_parsed_fingerprint() {
        let memo = RouteMemo::default();
        let payload = program(0, "");
        let parsed = gpp_gpu_model::program_fingerprint(
            &gpp_skeleton::text::parse(payload.split_once('\n').unwrap().1).unwrap(),
        );
        assert_eq!(fingerprint(&memo, &payload), parsed);
        assert_eq!(fingerprint(&memo, &payload), parsed);
        // Another text of the same program: an entry of its own, the same
        // fingerprint.
        assert_eq!(fingerprint(&memo, &program(0, "reformatted")), parsed);
        assert_eq!(memo.0.lock().0.len(), 2);
    }

    #[test]
    fn the_route_memo_stays_within_its_bounds() {
        let memo = RouteMemo::default();
        for n in 0..ROUTE_MEMO_ENTRIES + 10 {
            fingerprint(&memo, &program(n, ""));
            assert!(memo.0.lock().0.len() <= ROUTE_MEMO_ENTRIES);
        }
        let padding = "x".repeat(ROUTE_MEMO_BYTES / 3);
        for n in 0..4 {
            fingerprint(&memo, &program(n, &padding));
            let (map, bytes) = &*memo.0.lock();
            assert_eq!(*bytes, map.keys().map(|k| k.len()).sum::<usize>());
            assert!(*bytes <= ROUTE_MEMO_BYTES, "{bytes} bytes held");
        }
        // A skeleton over the byte bound is never held.
        let huge = program(0, &"x".repeat(ROUTE_MEMO_BYTES));
        fingerprint(&memo, &huge);
        assert!(memo.0.lock().1 <= ROUTE_MEMO_BYTES);
    }

    #[test]
    fn a_malformed_skeleton_is_not_memoized_and_its_reply_is_unchanged() {
        let shard = gpp_serve::Server::bind(gpp_serve::ServeConfig::default())
            .unwrap()
            .spawn()
            .unwrap();
        let state = GatewayState::new(GatewayConfig::default(), vec![shard.addr().to_string()]);
        let payload = "gpp/1 project seed=3\nprogram broken\narray a f32 [oops]\n";
        let direct = gpp_serve::Client::connect(shard.addr(), Duration::from_secs(20))
            .unwrap()
            .call_raw(payload)
            .unwrap();
        assert!(direct.contains("\"ok\":false"), "{direct}");
        for _ in 0..2 {
            assert_eq!(state.handle(payload), direct);
        }
        assert!(state.route_memo.0.lock().0.is_empty());
        assert_eq!(
            fingerprint(&state.route_memo, payload),
            u128::from(fnv1a(payload.as_bytes()))
        );
        shard.shutdown_and_join().unwrap();
    }
}
