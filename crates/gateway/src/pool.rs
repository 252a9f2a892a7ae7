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
//! Each shard also keeps a rolling window of successful forward
//! latencies; its p99 is the gateway's hedging trigger.
//!
//! Fault points [`gpp_fault::GATEWAY_SHARD_DOWN`] (scoped per shard
//! label), [`gpp_fault::GATEWAY_SHARD_SLOW`], and
//! [`gpp_fault::GATEWAY_SHARD_HANG`] inject dead, slow, and hung shards
//! without touching real processes, which is how the chaos suites kill
//! shards mid-load reproducibly.

use crate::ring::HashRing;
use gpp_fault::FaultInjector;
use gpp_serve::client::{backoff_delay, jitter_seed, Client};
use parking_lot::Mutex;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Backoff exponent cap for unhealthy-shard re-probes: failures beyond
/// this stop lengthening the wait (base × 2⁷ ≈ two orders of magnitude).
const MAX_BACKOFF_EXP: u32 = 8;

/// Successful forward latencies each shard remembers for its rolling p99.
const LATENCY_WINDOW: usize = 256;

/// Fewest recorded latencies before the p99 is considered meaningful
/// (hedging stays off below this).
pub const MIN_LATENCY_SAMPLES: usize = 8;

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
    breaker: AtomicU8,
    consecutive_failures: AtomicU32,
    next_probe: Mutex<Instant>,
    latencies_us: Mutex<Vec<u64>>,
    latency_pos: AtomicU64,
    /// Requests this shard answered through the gateway.
    pub routed: AtomicU64,
    /// Forward attempts that failed (tripping the breaker open).
    pub forward_errors: AtomicU64,
    /// Health probes that failed.
    pub probe_failures: AtomicU64,
    /// Times the breaker re-closed (probe recoveries).
    pub readmissions: AtomicU64,
    /// Times the breaker tripped closed → open.
    pub breaker_opens: AtomicU64,
}

impl Shard {
    fn new(label: String, addr: String) -> Shard {
        Shard {
            label,
            resolved: Mutex::new(resolve(&addr)),
            addr,
            breaker: AtomicU8::new(Breaker::Closed as u8),
            consecutive_failures: AtomicU32::new(0),
            next_probe: Mutex::new(Instant::now()),
            latencies_us: Mutex::new(Vec::with_capacity(LATENCY_WINDOW)),
            latency_pos: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            forward_errors: AtomicU64::new(0),
            probe_failures: AtomicU64::new(0),
            readmissions: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
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

    /// Records a failed contact: the breaker trips open and the next
    /// (half-open) trial backs off exponentially with the failure streak,
    /// jittered on a per-shard seed so a pool of tripped shards does not
    /// re-probe in lockstep.
    pub fn mark_failed(&self, probe_backoff: Duration) {
        let was = self.breaker.swap(Breaker::Open as u8, Ordering::SeqCst);
        if Breaker::from_u8(was) == Breaker::Closed {
            self.breaker_opens.fetch_add(1, Ordering::SeqCst);
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
            self.readmissions.fetch_add(1, Ordering::SeqCst);
        }
        self.consecutive_failures.store(0, Ordering::SeqCst);
        *self.next_probe.lock() = Instant::now() + probe_interval;
    }

    /// Adds one successful forward's latency to the rolling window.
    pub fn record_latency(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let pos = self.latency_pos.fetch_add(1, Ordering::Relaxed) as usize % LATENCY_WINDOW;
        let mut window = self.latencies_us.lock();
        if window.len() < LATENCY_WINDOW {
            window.push(us);
        } else {
            window[pos] = us;
        }
    }

    /// The rolling p99 forward latency, or `None` until the window holds
    /// [`MIN_LATENCY_SAMPLES`] — the hedging trigger stays conservative
    /// while the shard is cold.
    pub fn p99_us(&self) -> Option<u64> {
        let window = self.latencies_us.lock();
        if window.len() < MIN_LATENCY_SAMPLES {
            return None;
        }
        let mut sorted: Vec<u64> = window.clone();
        drop(window);
        sorted.sort_unstable();
        // Nearest-rank p99, matching serve's metrics.
        let rank = (sorted.len() * 99).div_ceil(100).max(1);
        Some(sorted[rank - 1])
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
        Attempt {
            stall_until: (!stall.is_zero()).then(|| Instant::now() + stall),
            stage: match (failure, *self.resolved.lock()) {
                (Some(e), _) => Stage::Failed(e),
                // An address that does not resolve fails like a refused
                // connect, tripping the breaker until a probe resolves it.
                (None, None) => Stage::Failed(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("shard address `{}` does not resolve", self.addr),
                )),
                (None, Some(addr)) => Stage::Unsent {
                    addr,
                    payload: payload.to_string(),
                    timeout,
                },
            },
        }
    }

    /// Settles one forward attempt's bookkeeping and passes its result
    /// through: a reply closes the breaker and adds `started.elapsed()`
    /// to the latency window and the routed count; an error counts
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
                self.routed.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.forward_errors.fetch_add(1, Ordering::Relaxed);
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
            *self.resolved.lock() = Some(addr);
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
}

enum Stage {
    /// Connect and send once the stall is served.
    Unsent {
        addr: SocketAddr,
        payload: String,
        timeout: Duration,
    },
    /// The frame is on the wire; the reply comes back on this connection.
    Sent(Client),
    /// The attempt failed: an injected down or hung shard, or a connect
    /// or write error.
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
        if !self.send(Some(by)) {
            return false;
        }
        let Stage::Sent(client) = &mut self.stage else {
            return true;
        };
        match client.wait_readable(by.saturating_duration_since(Instant::now())) {
            Ok(ready) => ready,
            Err(e) => {
                self.stage = Stage::Failed(e);
                true
            }
        }
    }

    /// Serves what is left of an injected stall, sends the frame if it
    /// is not out yet, and reads the reply.
    pub(crate) fn finish(mut self) -> io::Result<String> {
        self.serve_stall();
        self.send(None);
        match self.stage {
            Stage::Sent(mut client) => client.recv_raw(),
            Stage::Failed(e) => Err(e),
            Stage::Unsent { .. } => unreachable!("an unbounded send always leaves Unsent"),
        }
    }

    /// Sleeps out the injected stall.
    fn serve_stall(&mut self) {
        if let Some(until) = self.stall_until.take() {
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
        }
    }

    /// Connects and writes an unsent frame, giving the connect up at
    /// `by` (if any) rather than after the forward timeout. `false`
    /// means the connect timed out at `by` and the attempt stays unsent.
    fn send(&mut self, by: Option<Instant>) -> bool {
        let Stage::Unsent {
            addr,
            payload,
            timeout,
        } = &self.stage
        else {
            return true;
        };
        let within = by.map_or(*timeout, |by| {
            by.saturating_duration_since(Instant::now()).min(*timeout)
        });
        let bounded = within < *timeout;
        if bounded && within.is_zero() {
            return false;
        }
        self.stage = match Client::connect_within(*addr, within, *timeout) {
            Err(e) if bounded && e.kind() == io::ErrorKind::TimedOut => return false,
            Err(e) => Stage::Failed(e),
            Ok(mut client) => match client.send_raw(payload) {
                Ok(()) => Stage::Sent(client),
                Err(e) => Stage::Failed(e),
            },
        };
        true
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
                shard.probe_failures.fetch_add(1, Ordering::SeqCst);
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
        assert_eq!(pool.shards()[0].readmissions.load(Ordering::SeqCst), 1);
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
        assert_eq!(shard.breaker_opens.load(Ordering::SeqCst), 1);
        // Re-failing an already-open breaker is not a new trip.
        shard.mark_failed(Duration::from_millis(1));
        assert_eq!(shard.breaker_opens.load(Ordering::SeqCst), 1);
        // The prober's half-open trial failing re-opens, succeeding closes.
        shard
            .breaker
            .store(Breaker::HalfOpen as u8, Ordering::SeqCst);
        shard.mark_failed(Duration::from_millis(1));
        assert_eq!(shard.breaker(), Breaker::Open);
        assert_eq!(shard.breaker_opens.load(Ordering::SeqCst), 1);
        shard
            .breaker
            .store(Breaker::HalfOpen as u8, Ordering::SeqCst);
        shard.mark_healthy(Duration::from_secs(1));
        assert_eq!(shard.breaker(), Breaker::Closed);
        assert_eq!(shard.readmissions.load(Ordering::SeqCst), 1);
        assert_eq!(Breaker::HalfOpen.as_str(), "half-open");
    }

    #[test]
    fn p99_needs_samples_then_tracks_the_tail() {
        let shard = Shard::new("shard0".into(), "127.0.0.1:1".into());
        for i in 0..MIN_LATENCY_SAMPLES - 1 {
            shard.record_latency(Duration::from_micros(100 + i as u64));
            assert_eq!(shard.p99_us(), None, "cold window must not hedge");
        }
        shard.record_latency(Duration::from_millis(50));
        let p99 = shard.p99_us().expect("window is warm");
        assert_eq!(p99, 50_000, "p99 must sit at the tail outlier");
        // The window rolls: old samples eventually fall out.
        for _ in 0..LATENCY_WINDOW {
            shard.record_latency(Duration::from_micros(200));
        }
        assert_eq!(shard.p99_us(), Some(200));
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
