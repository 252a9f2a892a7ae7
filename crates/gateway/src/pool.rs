//! The health-checked shard pool.
//!
//! Each shard is a running `gpp-serve` instance. The pool tracks one
//! **circuit breaker** per shard — closed / open / half-open — maintained
//! from two directions:
//!
//! * **fail-fast** — a forward that cannot reach its shard trips its
//!   breaker **open** immediately, so the very next request fails over
//!   without paying a connect timeout;
//! * **probing** — a background prober sends `health` frames. A closed
//!   shard is probed at the configured interval; an open one moves to
//!   **half-open** when its cooldown (exponential backoff on the failure
//!   streak, seeded-jittered per shard) expires, gets exactly one trial
//!   probe, and is either re-closed (re-admitted) on success or re-opened
//!   with a longer cooldown on failure.
//!
//! Each shard also keeps a [`Histogram`] of successful forward latencies
//! that halves once per 256 records; its p99 is the gateway's hedging
//! trigger.
//!
//! Forwards, hedges and probes share each shard's **keep-alive
//! connections**: an attempt reuses the most recently idle one, or
//! connects. A `gpp-serve` worker serves one connection until it closes,
//! so every idle connection parks a shard worker. Two rules keep that
//! from starving anyone:
//!
//! * taking or connecting, and pooling or closing, are decided under the
//!   shard's lock, and a connection that returns while a new connect to
//!   the shard is still waiting for its reply is closed, not pooled — the
//!   gateway never parks a worker its own new connection is queued for;
//! * the prober closes connections idle for a whole tick, and all of a
//!   shard's when its breaker opens, so a shard's direct clients wait at
//!   most about one tick.
//!
//! Fault points [`gpp_fault::GATEWAY_SHARD_DOWN`] (scoped per shard
//! label), [`gpp_fault::GATEWAY_SHARD_SLOW`], and
//! [`gpp_fault::GATEWAY_SHARD_HANG`] inject dead, slow, and hung shards
//! without touching real processes, which is how the chaos suites kill
//! shards mid-load reproducibly.

use crate::ring::HashRing;
use crate::GatewayCounters;
use gpp_fault::FaultInjector;
use gpp_serve::client::{backoff_delay, jitter_seed, Client, Readiness};
use gpp_serve::metrics::Histogram;
use parking_lot::Mutex;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Backoff exponent cap for unhealthy-shard re-probes: failures beyond
/// this stop lengthening the wait (base × 2⁷ ≈ two orders of magnitude).
const MAX_BACKOFF_EXP: u32 = 8;

/// Successful forward latencies between two halvings of a shard's histogram.
const LATENCY_WINDOW: u64 = 256;

/// Fewest counted latencies before the p99 is considered meaningful
/// (hedging stays off below this).
pub const MIN_LATENCY_SAMPLES: u64 = 8;

/// Circuit-breaker states, stored as a `u8` on the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Breaker {
    /// Healthy: requests flow, periodic probing.
    Closed = 0,
    /// Tripped: no requests until the cooldown expires.
    Open = 1,
    /// Cooldown expired: one trial probe in flight decides the rest.
    HalfOpen = 2,
}

impl Breaker {
    fn from_u8(v: u8) -> Breaker {
        match v {
            1 => Breaker::Open,
            2 => Breaker::HalfOpen,
            _ => Breaker::Closed,
        }
    }

    /// The stats-reply spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Breaker::Closed => "closed",
            Breaker::Open => "open",
            Breaker::HalfOpen => "half-open",
        }
    }
}

/// One upstream `gpp-serve` shard and its breaker state.
pub struct Shard {
    /// Stable ring label (`shard0`, `shard1`, ...); also the scope chaos
    /// plans use (`gateway.shard.down@shard1`).
    pub label: String,
    /// The shard's TCP address, as given.
    pub addr: String,
    /// `addr` resolved when the pool is built and before each probe, never
    /// on the forward path; the last address that resolved, if any.
    resolved: Mutex<Option<SocketAddr>>,
    conns: Conns,
    breaker: AtomicU8,
    consecutive_failures: AtomicU32,
    next_probe: Mutex<Instant>,
    latency_us: Mutex<Histogram>,
    /// This shard's row of the gateway's counters: its `shard` group.
    pub counters: GatewayCounters,
}

impl Shard {
    fn new(label: String, addr: String) -> Shard {
        Shard {
            label,
            resolved: Mutex::new(resolve(&addr)),
            conns: Conns::default(),
            addr,
            breaker: AtomicU8::new(Breaker::Closed as u8),
            consecutive_failures: AtomicU32::new(0),
            next_probe: Mutex::new(Instant::now()),
            latency_us: Mutex::new(Histogram::new(LATENCY_WINDOW)),
            counters: GatewayCounters::default(),
        }
    }

    /// The breaker's current state.
    pub fn breaker(&self) -> Breaker {
        Breaker::from_u8(self.breaker.load(Ordering::SeqCst))
    }

    /// Whether requests may flow to this shard (breaker closed).
    pub fn is_healthy(&self) -> bool {
        self.breaker() == Breaker::Closed
    }

    /// Records a failed contact: the breaker trips open, the idle
    /// connections close, and the next (half-open) trial backs off
    /// exponentially with the failure streak, jittered on a per-shard seed
    /// so a pool of tripped shards does not re-probe in lockstep.
    pub fn mark_failed(&self, probe_backoff: Duration) {
        self.conns.expire(Duration::ZERO);
        let was = self.breaker.swap(Breaker::Open as u8, Ordering::SeqCst);
        if Breaker::from_u8(was) == Breaker::Closed {
            self.counters.breaker_opens.bump();
        }
        let failures = self
            .consecutive_failures
            .fetch_add(1, Ordering::SeqCst)
            .saturating_add(1)
            .min(MAX_BACKOFF_EXP);
        *self.next_probe.lock() = Instant::now()
            + backoff_delay(probe_backoff, failures, jitter_seed(self.label.as_bytes()));
    }

    /// Records a successful contact; a tripped breaker re-closes.
    pub fn mark_healthy(&self, probe_interval: Duration) {
        let was = self.breaker.swap(Breaker::Closed as u8, Ordering::SeqCst);
        if Breaker::from_u8(was) != Breaker::Closed {
            self.counters.readmissions.bump();
        }
        self.consecutive_failures.store(0, Ordering::SeqCst);
        *self.next_probe.lock() = Instant::now() + probe_interval;
    }

    /// Adds one successful forward's latency to the histogram.
    pub fn record_latency(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.latency_us.lock().record(us);
    }

    /// The rolling p99 forward latency under the histogram's bucket rule,
    /// or `None` until it counts [`MIN_LATENCY_SAMPLES`] — the hedging
    /// trigger stays conservative while the shard is cold.
    pub fn p99_us(&self) -> Option<u64> {
        let latency = self.latency_us.lock();
        (latency.count() >= MIN_LATENCY_SAMPLES).then(|| latency.quantile(99))
    }

    /// Sends one already-encoded payload to the shard and returns the raw
    /// reply: a whole [`Attempt`] on one thread.
    pub fn forward(
        &self,
        payload: &str,
        timeout: Duration,
        faults: &FaultInjector,
    ) -> io::Result<String> {
        self.attempt(payload, timeout, faults).finish()
    }

    /// Starts a forward with its fault decision; the connect, the frame
    /// write and the reply read follow in [`Attempt::ready_by`] and
    /// [`Attempt::finish`]. Consults the injection points first so chaos
    /// plans can kill (`gateway.shard.down`), slow (`gateway.shard.slow`,
    /// factor = milliseconds before the frame goes out), or hang
    /// (`gateway.shard.hang` — min(factor ms, timeout) after any slow
    /// stall, then fails as timed out, never reaching the wire) this
    /// shard without a real process dying. The points are consulted in
    /// that order (slow, hang, then down unless the hang fired), all
    /// before any stall starts; a stall is left in the returned attempt
    /// for whichever thread serves it.
    pub(crate) fn attempt(
        &self,
        payload: &str,
        timeout: Duration,
        faults: &FaultInjector,
    ) -> Attempt {
        let mut stall = Duration::ZERO;
        let mut failure = None;
        if faults.is_active() {
            let ms = |factor: f64| Duration::from_millis(factor.max(0.0) as u64);
            if let Some(f) =
                faults.fire_factor_scoped(gpp_fault::GATEWAY_SHARD_SLOW, Some(&self.label))
            {
                stall = ms(f);
            }
            if let Some(f) =
                faults.fire_factor_scoped(gpp_fault::GATEWAY_SHARD_HANG, Some(&self.label))
            {
                stall += ms(f).min(timeout);
                failure = Some(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("injected shard hang ({})", self.label),
                ));
            } else if faults.fires_scoped(gpp_fault::GATEWAY_SHARD_DOWN, Some(&self.label)) {
                failure = Some(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("injected shard down ({})", self.label),
                ));
            }
        }
        // An address that does not resolve fails like a refused connect,
        // tripping the breaker until a probe resolves it.
        let addr = (*self.resolved.lock()).ok_or_else(|| self.addr.clone());
        Attempt {
            stall_until: (!stall.is_zero()).then(|| Instant::now() + stall),
            stage: failure.map_or(Stage::Unsent, Stage::Failed),
            addr,
            payload: payload.to_string(),
            timeout,
            conns: self.conns.clone(),
        }
    }

    /// Settles one forward attempt's bookkeeping and passes its result
    /// through: a reply closes the breaker and adds `started.elapsed()`
    /// to the latency histogram and the routed count; an error counts
    /// against the shard and trips its breaker open.
    pub(crate) fn settle(
        &self,
        result: io::Result<String>,
        started: Instant,
        probe_interval: Duration,
        probe_backoff: Duration,
    ) -> io::Result<String> {
        match &result {
            Ok(_) => {
                self.mark_healthy(probe_interval);
                self.record_latency(started.elapsed());
                self.counters.routed.bump();
            }
            Err(_) => {
                self.counters.forward_errors.bump();
                self.mark_failed(probe_backoff);
            }
        }
        result
    }

    /// One health probe round-trip to the re-resolved address. The same
    /// injection point applies, so an injected-down shard stays evicted
    /// until its rule stops firing.
    fn probe(&self, timeout: Duration, faults: &FaultInjector) -> bool {
        if let Some(addr) = resolve(&self.addr) {
            // Connections to an address the name no longer resolves to
            // are not reused.
            if self.resolved.lock().replace(addr) != Some(addr) {
                self.conns.expire(Duration::ZERO);
            }
        }
        self.forward("gpp/1 health", timeout, faults)
            .map(|reply| reply.contains("\"ok\":true"))
            .unwrap_or(false)
    }
}

/// One forward attempt past its fault decision ([`Shard::attempt`]). It
/// owns everything it needs, so it can move to another thread mid-flight.
pub(crate) struct Attempt {
    /// The end of an injected stall still to serve before the frame goes
    /// out or the injected failure lands.
    stall_until: Option<Instant>,
    stage: Stage,
    /// Where a new connection goes, or the shard's unresolved address.
    addr: Result<SocketAddr, String>,
    /// The frame, kept until a reply arrives: a reused connection that
    /// turns out stale sends it again on another.
    payload: String,
    timeout: Duration,
    conns: Conns,
}

enum Stage {
    /// The frame goes out once the stall is served.
    Unsent,
    /// The frame is on the wire; the reply comes back on this connection.
    Sent {
        client: Client,
        /// A connection made for this attempt, counted pending until its
        /// reply is in; `None` for a reused one.
        fresh: Option<Pending>,
        /// A reused connection with no reply byte seen yet: if it closes
        /// or fails now it was stale, not a failing shard, and the frame
        /// goes out again on another connection.
        unproven: bool,
    },
    /// The attempt failed: an injected down or hung shard, or a connect,
    /// write or read error.
    Failed(io::Error),
}

impl Attempt {
    /// Waits until `by` at most for the attempt to become finishable
    /// without blocking: reply bytes arrived, the shard closed, or the
    /// attempt failed. A stall that ends by `by` is served here; the
    /// connect and the frame write happen here too, the connect given up
    /// at `by`. `false` leaves the attempt intact for [`Attempt::finish`]
    /// on any thread — unsent, with the connect to redo under the full
    /// forward timeout, if the connect outlasted `by`.
    pub(crate) fn ready_by(&mut self, by: Instant) -> bool {
        if let Some(until) = self.stall_until {
            if until > by {
                return false;
            }
            self.serve_stall();
        }
        self.advance(Some(by))
    }

    /// Serves what is left of an injected stall, sends the frame if it
    /// is not out yet, and reads the reply. A connection that delivered
    /// its whole reply goes back to the shard's keep-alive stack.
    pub(crate) fn finish(mut self) -> io::Result<String> {
        self.serve_stall();
        self.advance(None);
        match self.stage {
            Stage::Sent {
                mut client, fresh, ..
            } => {
                let reply = client.recv_raw()?;
                self.conns.checkin(client, fresh);
                Ok(reply)
            }
            Stage::Failed(e) => Err(e),
            Stage::Unsent => unreachable!("an unbounded send always leaves Unsent"),
        }
    }

    /// Sleeps out the injected stall.
    fn serve_stall(&mut self) {
        if let Some(until) = self.stall_until.take() {
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
        }
    }

    /// Sends the frame and, until `by` (if any), waits for the first
    /// reply byte; a reused connection is watched for that byte even
    /// without `by`, under the forward timeout. A reused connection that
    /// closes or fails first is dropped and the frame sent again, so the
    /// fresh connection behind it — still given up at `by` — is what the
    /// attempt's outcome reports. `false` means `by` passed first.
    fn advance(&mut self, by: Option<Instant>) -> bool {
        loop {
            if !self.send(by) {
                return false;
            }
            let Stage::Sent {
                client, unproven, ..
            } = &mut self.stage
            else {
                return true;
            };
            let stale_if_closed = *unproven;
            if by.is_none() && !stale_if_closed {
                return true;
            }
            let wait = by.map_or(self.timeout, |by| {
                by.saturating_duration_since(Instant::now())
            });
            match client.wait_readable(wait) {
                Ok(Readiness::Bytes) => {
                    *unproven = false;
                    return true;
                }
                Ok(Readiness::Waiting) if by.is_some() => return false,
                Ok(Readiness::Waiting) => {
                    self.stage = Stage::Failed(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no reply within the forward timeout",
                    ));
                    return true;
                }
                Ok(Readiness::Closed) | Err(_) if stale_if_closed => self.stage = Stage::Unsent,
                Ok(Readiness::Closed) => return true,
                Err(e) => {
                    self.stage = Stage::Failed(e);
                    return true;
                }
            }
        }
    }

    /// Writes an unsent frame on the shard's most recently idle
    /// connection, or on a new one whose connect is given up at `by` (if
    /// any) rather than after the forward timeout. `false` means the
    /// connect timed out at `by` and the attempt stays unsent.
    fn send(&mut self, by: Option<Instant>) -> bool {
        while let Stage::Unsent = self.stage {
            let (mut client, fresh) = match self.conns.checkout() {
                Ok(client) => (client, None),
                Err(pending) => {
                    let addr = match &self.addr {
                        Ok(addr) => *addr,
                        Err(name) => {
                            self.stage = Stage::Failed(io::Error::new(
                                io::ErrorKind::ConnectionRefused,
                                format!("shard address `{name}` does not resolve"),
                            ));
                            break;
                        }
                    };
                    let within = by.map_or(self.timeout, |by| {
                        by.saturating_duration_since(Instant::now())
                            .min(self.timeout)
                    });
                    let bounded = within < self.timeout;
                    if bounded && within.is_zero() {
                        return false;
                    }
                    match Client::connect_within(addr, within, self.timeout) {
                        Err(e) if bounded && e.kind() == io::ErrorKind::TimedOut => return false,
                        Err(e) => {
                            self.stage = Stage::Failed(e);
                            break;
                        }
                        Ok(client) => (client, Some(pending)),
                    }
                }
            };
            let unproven = fresh.is_none();
            self.stage = match client.send_raw(&self.payload) {
                Ok(()) => Stage::Sent {
                    client,
                    fresh,
                    unproven,
                },
                // A reused connection that cannot take the frame was stale.
                Err(_) if unproven => Stage::Unsent,
                Err(e) => Stage::Failed(e),
            };
        }
        true
    }
}

/// A shard's keep-alive connections, shared by its forwards, hedges and
/// probes.
#[derive(Clone, Default)]
struct Conns(Arc<Mutex<KeepAlive>>);

#[derive(Default)]
struct KeepAlive {
    /// Idle connections and when each went idle; the most recently
    /// returned is on top and is reused first.
    idle: Vec<(Client, Instant)>,
    /// New connections whose reply has not come back yet.
    pending: usize,
}

impl Conns {
    /// The most recently idle connection that is still open and holds no
    /// stray bytes (a non-blocking peek; stale ones are dropped). With
    /// none left, a new connect is counted pending and its token returned.
    fn checkout(&self) -> Result<Client, Pending> {
        loop {
            let mut client = {
                let mut keep = self.0.lock();
                match keep.idle.pop() {
                    Some((client, _)) => client,
                    None => {
                        keep.pending += 1;
                        return Err(Pending(Some(self.clone())));
                    }
                }
            };
            if matches!(client.wait_readable(Duration::ZERO), Ok(Readiness::Waiting)) {
                return Ok(client);
            }
        }
    }

    /// Takes back a connection that delivered a whole reply. It is pooled
    /// unless a new connect to the shard is still pending: that one may be
    /// queued for the very worker this connection parks, so this one
    /// closes instead.
    fn checkin(&self, client: Client, fresh: Option<Pending>) {
        let mut keep = self.0.lock();
        if let Some(mut pending) = fresh {
            pending.0 = None;
            keep.pending -= 1;
        }
        if keep.pending == 0 {
            keep.idle.push((client, Instant::now()));
        }
    }

    /// Closes the connections idle for `idle_for` or longer.
    fn expire(&self, idle_for: Duration) {
        self.0
            .lock()
            .idle
            .retain(|(_, since)| since.elapsed() < idle_for);
    }
}

/// A new connection's place in [`KeepAlive::pending`]; dropping the token
/// gives the place up.
struct Pending(Option<Conns>);

impl Drop for Pending {
    fn drop(&mut self) {
        if let Some(conns) = self.0.take() {
            conns.0.lock().pending -= 1;
        }
    }
}

/// The first socket address `addr` resolves to, if any.
fn resolve(addr: &str) -> Option<SocketAddr> {
    addr.to_socket_addrs().ok()?.next()
}

/// The shard set plus its consistent-hash ring.
pub struct ShardPool {
    shards: Vec<Arc<Shard>>,
    ring: HashRing,
}

impl ShardPool {
    /// Builds the pool; shard `i` gets ring label `shard{i}`.
    pub fn new(addrs: Vec<String>) -> ShardPool {
        let shards: Vec<Arc<Shard>> = addrs
            .into_iter()
            .enumerate()
            .map(|(i, addr)| Arc::new(Shard::new(format!("shard{i}"), addr)))
            .collect();
        let labels: Vec<String> = shards.iter().map(|s| s.label.clone()).collect();
        ShardPool {
            ring: HashRing::new(&labels),
            shards,
        }
    }

    /// All shards, in index order.
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// Number of member shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Shards currently believed alive.
    pub fn healthy_count(&self) -> usize {
        self.shards.iter().filter(|s| s.is_healthy()).count()
    }

    /// The fail-over sequence for a routing key: primary first, then the
    /// remaining shards in ring order.
    pub fn route(&self, key: u64) -> Vec<Arc<Shard>> {
        self.ring
            .successors(key)
            .map(|i| self.shards[i].clone())
            .collect()
    }

    /// Closes every shard's connections that have been idle for
    /// `idle_for` or longer. The prober calls this on each tick with the
    /// tick's length, so no connection stays idle much past one tick.
    pub(crate) fn expire_idle(&self, idle_for: Duration) {
        for shard in &self.shards {
            shard.conns.expire(idle_for);
        }
    }

    /// Probes every shard whose probe is due. Called repeatedly by the
    /// gateway's prober thread.
    pub fn probe_due(
        &self,
        probe_interval: Duration,
        probe_backoff: Duration,
        timeout: Duration,
        faults: &FaultInjector,
    ) {
        for shard in &self.shards {
            if Instant::now() < *shard.next_probe.lock() {
                continue;
            }
            // An open breaker whose cooldown just expired gets exactly one
            // half-open trial: the probe below either re-closes it
            // (mark_healthy) or re-opens it with a longer cooldown.
            if shard.breaker() == Breaker::Open {
                shard
                    .breaker
                    .store(Breaker::HalfOpen as u8, Ordering::SeqCst);
            }
            if shard.probe(timeout, faults) {
                shard.mark_healthy(probe_interval);
            } else {
                shard.counters.probe_failures.bump();
                shard.mark_failed(probe_backoff);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_shard_leaves_and_rejoins() {
        let pool = ShardPool::new(vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()]);
        assert_eq!(pool.healthy_count(), 2);
        pool.shards()[0].mark_failed(Duration::from_millis(1));
        assert_eq!(pool.healthy_count(), 1);
        assert!(!pool.shards()[0].is_healthy());
        pool.shards()[0].mark_healthy(Duration::from_secs(1));
        assert_eq!(pool.healthy_count(), 2);
        assert_eq!(pool.shards()[0].counters.readmissions.get(), 1);
    }

    #[test]
    fn backoff_grows_with_failure_streak() {
        let shard = Shard::new("shard0".into(), "127.0.0.1:1".into());
        let base = Duration::from_millis(8);
        shard.mark_failed(base);
        let first = *shard.next_probe.lock() - Instant::now();
        for _ in 0..3 {
            shard.mark_failed(base);
        }
        let later = *shard.next_probe.lock() - Instant::now();
        assert!(later > first, "{later:?} vs {first:?}");
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_and_counts_opens() {
        let shard = Shard::new("shard0".into(), "127.0.0.1:1".into());
        assert_eq!(shard.breaker(), Breaker::Closed);
        shard.mark_failed(Duration::from_millis(1));
        assert_eq!(shard.breaker(), Breaker::Open);
        assert_eq!(shard.counters.breaker_opens.get(), 1);
        // Re-failing an already-open breaker is not a new trip.
        shard.mark_failed(Duration::from_millis(1));
        assert_eq!(shard.counters.breaker_opens.get(), 1);
        // The prober's half-open trial failing re-opens, succeeding closes.
        shard
            .breaker
            .store(Breaker::HalfOpen as u8, Ordering::SeqCst);
        shard.mark_failed(Duration::from_millis(1));
        assert_eq!(shard.breaker(), Breaker::Open);
        assert_eq!(shard.counters.breaker_opens.get(), 1);
        shard
            .breaker
            .store(Breaker::HalfOpen as u8, Ordering::SeqCst);
        shard.mark_healthy(Duration::from_secs(1));
        assert_eq!(shard.breaker(), Breaker::Closed);
        assert_eq!(shard.counters.readmissions.get(), 1);
        assert_eq!(Breaker::HalfOpen.as_str(), "half-open");
    }

    #[test]
    fn p99_needs_samples_then_tracks_the_tail() {
        let shard = Shard::new("shard0".into(), "127.0.0.1:1".into());
        for i in 0..MIN_LATENCY_SAMPLES - 1 {
            shard.record_latency(Duration::from_micros(100 + i));
            assert_eq!(shard.p99_us(), None, "cold window must not hedge");
        }
        shard.record_latency(Duration::from_millis(50));
        let p99 = shard.p99_us().expect("window is warm");
        assert_eq!(
            p99,
            Histogram::bucket_floor(50_000),
            "p99 must sit at the tail outlier"
        );
        // The histogram ages: the outlier falls out after one window.
        for _ in 0..LATENCY_WINDOW {
            shard.record_latency(Duration::from_micros(200));
        }
        assert_eq!(shard.p99_us(), Some(Histogram::bucket_floor(200)));
    }

    #[test]
    fn injected_hang_times_out_without_network() {
        let faults =
            gpp_fault::FaultInjector::new(gpp_fault::FaultPlan::empty().with_seed(7).with(
                &gpp_fault::scoped_point(gpp_fault::GATEWAY_SHARD_HANG, "shard0"),
                gpp_fault::Rule::new(gpp_fault::Mode::Always).factor(5.0),
            ));
        let shard = Shard::new("shard0".into(), "127.0.0.1:9".into());
        let err = shard
            .forward("gpp/1 ping", Duration::from_millis(50), &faults)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    /// A one-shot `gpp/1` listener that answers `reply` after `delay`.
    fn replier(reply: &'static str, delay: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let thread = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            gpp_serve::protocol::read_frame(&mut stream).unwrap();
            std::thread::sleep(delay);
            gpp_serve::protocol::write_frame(&mut stream, reply).unwrap();
        });
        (addr, thread)
    }

    #[test]
    fn prompt_reply_is_ready_inline_and_a_late_one_finishes_elsewhere() {
        let off = FaultInjector::disabled();
        let (addr, server) = replier("{\"ok\":true}", Duration::ZERO);
        let shard = Shard::new("shard0".into(), addr);
        let mut attempt = shard.attempt("gpp/1 ping", Duration::from_secs(5), &off);
        assert!(attempt.ready_by(Instant::now() + Duration::from_secs(5)));
        assert_eq!(attempt.finish().unwrap(), "{\"ok\":true}");
        server.join().unwrap();

        let (addr, server) = replier("{\"ok\":true}", Duration::from_millis(200));
        let shard = Shard::new("shard0".into(), addr);
        let mut attempt = shard.attempt("gpp/1 ping", Duration::from_secs(5), &off);
        assert!(!attempt.ready_by(Instant::now() + Duration::from_millis(10)));
        // Waiting consumed nothing: the whole frame is read on the thread
        // the attempt moved to.
        let reply = std::thread::spawn(move || attempt.finish()).join().unwrap();
        assert_eq!(reply.unwrap(), "{\"ok\":true}");
        server.join().unwrap();
    }

    #[test]
    fn injected_stalls_defer_the_frame_and_long_hangs_finish_elsewhere() {
        let slow = gpp_fault::FaultInjector::new(gpp_fault::FaultPlan::empty().with_seed(7).with(
            gpp_fault::GATEWAY_SHARD_SLOW,
            gpp_fault::Rule::new(gpp_fault::Mode::Always).factor(5.0),
        ));
        let (addr, server) = replier("{\"ok\":true}", Duration::ZERO);
        let shard = Shard::new("shard0".into(), addr);
        let started = Instant::now();
        let mut attempt = shard.attempt("gpp/1 ping", Duration::from_secs(5), &slow);
        // A stall past the wait is left for the finishing thread...
        assert!(!attempt.ready_by(started + Duration::from_millis(1)));
        // ...and one inside it is served here, then the frame goes out.
        assert!(attempt.ready_by(started + Duration::from_secs(5)));
        assert!(started.elapsed() >= Duration::from_millis(5));
        assert_eq!(attempt.finish().unwrap(), "{\"ok\":true}");
        server.join().unwrap();

        let hang = gpp_fault::FaultInjector::new(gpp_fault::FaultPlan::empty().with_seed(7).with(
            gpp_fault::GATEWAY_SHARD_HANG,
            gpp_fault::Rule::new(gpp_fault::Mode::Always).factor(5.0),
        ));
        let shard = Shard::new("shard0".into(), "127.0.0.1:9".into());
        let started = Instant::now();
        let mut attempt = shard.attempt("gpp/1 ping", Duration::from_secs(5), &hang);
        assert!(!attempt.ready_by(started + Duration::from_millis(1)));
        let err = std::thread::spawn(move || attempt.finish())
            .join()
            .unwrap()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(started.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn a_connect_past_the_wait_is_redone_under_the_full_timeout() {
        // A shard whose accept queue is full drops SYNs, so its connect
        // never completes. Fill one, then free it while the attempt waits
        // on its own thread.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut held = Vec::new();
        while held.len() < 4096 {
            match std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(50)) {
                Ok(stream) => held.push(stream),
                Err(_) => break,
            }
        }
        assert!(held.len() < 4096, "the accept queue never filled");
        let shard = Shard::new("shard0".into(), addr.to_string());
        let off = FaultInjector::disabled();
        let started = Instant::now();
        let mut attempt = shard.attempt("gpp/1 ping", Duration::from_secs(5), &off);
        assert!(!attempt.ready_by(started + Duration::from_millis(20)));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "the inline connect must give up at the wait, took {:?}",
            started.elapsed()
        );
        let finishing = std::thread::spawn(move || attempt.finish());
        drop(held);
        // Skip the held connections the queue still lists: they read EOF.
        let mut stream = loop {
            let (stream, _) = listener.accept().unwrap();
            if matches!(stream.peek(&mut [0u8; 1]), Ok(n) if n > 0) {
                break stream;
            }
        };
        gpp_serve::protocol::read_frame(&mut stream).unwrap();
        gpp_serve::protocol::write_frame(&mut stream, "{\"ok\":true}").unwrap();
        assert_eq!(finishing.join().unwrap().unwrap(), "{\"ok\":true}");
    }

    #[test]
    fn a_reused_connection_closed_unanswered_is_resent_on_a_new_one() {
        // Each connection answers one frame, then reads the next and
        // closes without a reply: the way a shard that went away between
        // the gateway's peek and its write looks.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for round in 0..3 {
                let (mut stream, _) = listener.accept().unwrap();
                gpp_serve::protocol::read_frame(&mut stream).unwrap();
                gpp_serve::protocol::write_frame(&mut stream, "{\"ok\":true}").unwrap();
                if round < 2 {
                    gpp_serve::protocol::read_frame(&mut stream).unwrap();
                }
            }
        });
        let shard = Shard::new("shard0".into(), addr);
        let off = FaultInjector::disabled();
        let timeout = Duration::from_secs(5);
        assert_eq!(
            shard.forward("gpp/1 ping", timeout, &off).unwrap(),
            "{\"ok\":true}"
        );
        // Inline, as a hedged primary...
        let mut attempt = shard.attempt("gpp/1 ping", timeout, &off);
        assert!(attempt.ready_by(Instant::now() + timeout));
        assert_eq!(attempt.finish().unwrap(), "{\"ok\":true}");
        // ...and on the fail-over walk.
        assert_eq!(
            shard.forward("gpp/1 ping", timeout, &off).unwrap(),
            "{\"ok\":true}"
        );
        server.join().unwrap();
    }

    #[test]
    fn injected_down_fails_forward_without_network() {
        let faults =
            gpp_fault::FaultInjector::new(gpp_fault::FaultPlan::empty().with_seed(7).with(
                &gpp_fault::scoped_point(gpp_fault::GATEWAY_SHARD_DOWN, "shard0"),
                gpp_fault::Rule::new(gpp_fault::Mode::Always),
            ));
        let shard = Shard::new("shard0".into(), "127.0.0.1:9".into());
        let err = shard
            .forward("gpp/1 ping", Duration::from_millis(100), &faults)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        // Unscoped shard label: the point does not fire, so the forward
        // fails on the real (dead) address instead — different error.
        let other = Shard::new("shard1".into(), "127.0.0.1:9".into());
        let err = other
            .forward("gpp/1 ping", Duration::from_millis(100), &faults)
            .unwrap_err();
        assert_ne!(err.to_string(), "injected shard down (shard1)");
    }
}
