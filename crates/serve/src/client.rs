//! A small blocking client for the `gpp-serve` wire protocol.

use crate::cache::fnv1a;
use crate::protocol::{read_frame, write_frame, ProtocolError, Request};
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A connected client. One client = one TCP connection; requests can be
/// issued back to back on it (the protocol is frame-per-request).
pub struct Client {
    /// Replies are read through a buffer kept across frames, so a length
    /// line and a small payload arrive in one `read`; requests are
    /// written to the socket underneath.
    stream: BufReader<TcpStream>,
}

impl Client {
    /// Connects with a connect/read/write timeout.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Client> {
        Client::connect_within(addr, timeout, timeout)
    }

    /// Connects, giving up with [`io::ErrorKind::TimedOut`] after
    /// `connect_timeout`; reads and writes then time out after `timeout`.
    pub fn connect_within(
        addr: impl ToSocketAddrs,
        connect_timeout: Duration,
        timeout: Duration,
    ) -> io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream: BufReader::new(stream),
        })
    }

    /// Sends one request and returns the raw response JSON.
    pub fn call(&mut self, request: &Request) -> io::Result<String> {
        self.call_raw(&request.encode())
    }

    /// Sends a raw payload (already-encoded header + body).
    pub fn call_raw(&mut self, payload: &str) -> io::Result<String> {
        self.send_raw(payload)?;
        self.recv_raw()
    }

    /// The send half of [`Client::call_raw`]: writes one frame and
    /// returns without waiting for the reply.
    pub fn send_raw(&mut self, payload: &str) -> io::Result<()> {
        write_frame(self.stream.get_mut(), payload)
    }

    /// The receive half of [`Client::call_raw`]: reads one reply frame.
    pub fn recv_raw(&mut self) -> io::Result<String> {
        read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before replying",
            )
        })
    }

    /// Waits up to `wait` for the first reply byte without consuming it
    /// (`peek` under a temporary read timeout; a zero `wait` peeks without
    /// blocking). The connection keeps its own read timeout.
    pub fn wait_readable(&mut self, wait: Duration) -> io::Result<Readiness> {
        if !self.stream.buffer().is_empty() {
            return Ok(Readiness::Bytes);
        }
        let stream = self.stream.get_ref();
        let peeked = if wait.is_zero() {
            stream.set_nonblocking(true)?;
            let peeked = stream.peek(&mut [0u8; 1]);
            stream.set_nonblocking(false)?;
            peeked
        } else {
            let timeout = stream.read_timeout()?;
            stream.set_read_timeout(Some(wait))?;
            let peeked = stream.peek(&mut [0u8; 1]);
            stream.set_read_timeout(timeout)?;
            peeked
        };
        match peeked {
            Ok(0) => Ok(Readiness::Closed),
            Ok(_) => Ok(Readiness::Bytes),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(Readiness::Waiting)
            }
            Err(e) => Err(e),
        }
    }
}

/// What [`Client::wait_readable`] found on the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Readiness {
    /// Nothing arrived in time; a read would block.
    Waiting,
    /// Bytes are ready to read.
    Bytes,
    /// The server closed the connection with nothing left to read.
    Closed,
}

/// One-shot convenience: connect, send, return the response JSON.
pub fn request_once(
    addr: impl ToSocketAddrs,
    request: &Request,
    timeout: Duration,
) -> io::Result<String> {
    Client::connect(addr, timeout)?.call(request)
}

/// splitmix64 finalizer — the jitter mixer. Same constants as the
/// per-point RNG streams in `gpp-fault`; one word in, one word out, so a
/// (seed, attempt) pair always jitters identically.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives a stable jitter seed from an identity (a shard label, a machine
/// name, a payload): distinct identities get distinct [`backoff_delay`]
/// streams, and the same identity always gets the same one.
pub fn jitter_seed(bytes: &[u8]) -> u64 {
    splitmix64(fnv1a(bytes))
}

/// A fresh per-call nonce so two concurrent retriers of the *same* payload
/// still land on different jitter streams.
fn next_nonce() -> u64 {
    static NONCE: AtomicU64 = AtomicU64::new(0x5eed);
    NONCE.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
}

/// Scales `d` by a deterministic factor in [0.75, 1.25] drawn from
/// splitmix64(seed ^ attempt) — ±25% jitter, integer math throughout.
fn jittered(d: Duration, seed: u64, attempt: u32) -> Duration {
    // Parts-per-million in [750_000, 1_250_000].
    let ppm = 750_000 + splitmix64(seed ^ u64::from(attempt)) % 500_001;
    let nanos = d.as_nanos().saturating_mul(u128::from(ppm)) / 1_000_000;
    Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
}

/// The exponential-backoff delay before retry `attempt` (1-based):
/// `base * 2^(attempt-1)`, saturating, scaled by a deterministic ±25%
/// jitter drawn from splitmix64 keyed on `seed ^ attempt` — so concurrent
/// retriers with different seeds desynchronize instead of stampeding in
/// lockstep, while a fixed (base, attempt, seed) triple always yields the
/// same delay. Attempt 0 — the first try — waits nothing, always. Shared
/// by the serve-side calibration retry loop, the retrying client below,
/// and the gateway's shard re-admission probe.
pub fn backoff_delay(base: Duration, attempt: u32, seed: u64) -> Duration {
    if attempt == 0 {
        return Duration::ZERO;
    }
    let exp = base.saturating_mul(2u32.saturating_pow(attempt - 1));
    jittered(exp, seed, attempt)
}

/// Milli-tokens charged per retry withdrawal.
const TOKEN_MILLI: u64 = 1000;

/// A token-bucket **retry budget**: a shared cap on how many retries (and
/// hedges) a client, the serve calibration loop, or the gateway prober may
/// issue, so overload never amplifies into a retry storm.
///
/// Accounting is in milli-tokens: each retry withdraws 1000, each success
/// deposits a configurable fraction back (default a full token), and an
/// optional time-based refill trickles capacity in for long-running
/// processes. Components whose *reply bytes* must stay deterministic (the
/// serve calibration loop) use deposit-only budgets; purely timing-side
/// consumers (the gateway prober and hedger) may add a refill rate.
#[derive(Debug)]
pub struct RetryBudget {
    capacity_milli: u64,
    deposit_milli: u64,
    refill_milli_per_sec: u64,
    tokens_milli: AtomicU64,
    exhausted: AtomicU64,
    last_refill: Mutex<Instant>,
}

impl RetryBudget {
    /// A budget holding `capacity` whole tokens, starting full, with
    /// deposit-on-success of one full token and no time-based refill.
    pub fn new(capacity: u32) -> RetryBudget {
        let capacity_milli = u64::from(capacity) * TOKEN_MILLI;
        RetryBudget {
            capacity_milli,
            deposit_milli: TOKEN_MILLI,
            refill_milli_per_sec: 0,
            tokens_milli: AtomicU64::new(capacity_milli),
            exhausted: AtomicU64::new(0),
            last_refill: Mutex::new(Instant::now()),
        }
    }

    /// Sets the milli-tokens deposited per successful call (e.g. 250 =
    /// one retry earned per four successes).
    #[must_use]
    pub fn with_deposit_milli(mut self, milli: u64) -> RetryBudget {
        self.deposit_milli = milli;
        self
    }

    /// Sets a wall-clock refill rate in milli-tokens per second. Only for
    /// consumers whose replies never depend on whether a withdrawal
    /// succeeded at a particular instant (probing, hedging).
    #[must_use]
    pub fn with_refill_milli_per_sec(mut self, milli: u64) -> RetryBudget {
        self.refill_milli_per_sec = milli;
        self
    }

    fn credit(&self, add_milli: u64) {
        if add_milli == 0 {
            return;
        }
        let mut cur = self.tokens_milli.load(Ordering::Relaxed);
        loop {
            let next = (cur + add_milli).min(self.capacity_milli);
            match self.tokens_milli.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    fn refill(&self) {
        if self.refill_milli_per_sec == 0 {
            return;
        }
        let mut last = self
            .last_refill
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let earned =
            (last.elapsed().as_micros() * u128::from(self.refill_milli_per_sec)) / 1_000_000;
        let earned = u64::try_from(earned).unwrap_or(u64::MAX);
        if earned > 0 {
            // Advance the refill clock by exactly the time the earned
            // tokens account for, keeping the fractional remainder.
            let consumed_us = earned.saturating_mul(1_000_000) / self.refill_milli_per_sec;
            *last += Duration::from_micros(consumed_us);
            drop(last);
            self.credit(earned);
        }
    }

    /// Withdraws one retry token. `false` means the budget is exhausted —
    /// the caller must stop retrying (and the refusal is counted).
    pub fn try_withdraw(&self) -> bool {
        self.refill();
        let mut cur = self.tokens_milli.load(Ordering::Relaxed);
        loop {
            if cur < TOKEN_MILLI {
                self.exhausted.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            match self.tokens_milli.compare_exchange_weak(
                cur,
                cur - TOKEN_MILLI,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Credits the deposit-on-success fraction back into the bucket.
    pub fn deposit(&self) {
        self.credit(self.deposit_milli);
    }

    /// Current balance in milli-tokens.
    pub fn tokens_milli(&self) -> u64 {
        self.tokens_milli.load(Ordering::Relaxed)
    }

    /// How many withdrawals were refused because the bucket was empty.
    pub fn exhausted_count(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }
}

/// One-shot with retries: reconnects and resends on transport errors and
/// on `busy`/`shed` rejections, sleeping [`backoff_delay`] between
/// attempts — except when the rejection carried a `retry_after_ms` hint,
/// in which case the hint (±25% jitter) paces the next attempt instead of
/// the fixed base. `retries` is the number of *extra* attempts after the
/// first. Equivalent to [`request_with_retries_budgeted`] with no budget.
pub fn request_with_retries(
    addr: impl ToSocketAddrs + Clone,
    request: &Request,
    timeout: Duration,
    retries: u32,
    base: Duration,
) -> io::Result<String> {
    request_with_retries_budgeted(addr, request, timeout, retries, base, None)
}

/// [`request_with_retries`] metered by an optional shared [`RetryBudget`]:
/// every retry (never the first attempt) withdraws a token first, and a
/// successful reply deposits back. When the budget runs dry the call stops
/// retrying immediately and returns the last `busy`/`shed` reply it saw
/// (or the last transport error), so callers can distinguish "server said
/// come back later" from "gave up".
pub fn request_with_retries_budgeted(
    addr: impl ToSocketAddrs + Clone,
    request: &Request,
    timeout: Duration,
    retries: u32,
    base: Duration,
    budget: Option<&RetryBudget>,
) -> io::Result<String> {
    let seed = splitmix64(fnv1a(request.encode().as_bytes()) ^ next_nonce());
    let mut last_err: Option<io::Error> = None;
    let mut last_rejection: Option<String> = None;
    let mut hint_ms: Option<u64> = None;
    for attempt in 0..=retries {
        if attempt > 0 {
            if let Some(b) = budget {
                if !b.try_withdraw() {
                    break;
                }
            }
            let delay = match hint_ms {
                // The server said when to come back: honor it (jittered so
                // the rejected crowd doesn't return as one wave).
                Some(ms) => jittered(Duration::from_millis(ms), seed, attempt),
                None => backoff_delay(base, attempt, seed),
            };
            std::thread::sleep(delay);
        }
        match request_once(addr.clone(), request, timeout) {
            Ok(reply) => {
                // A busy/shed rejection is retryable by design: the server
                // shed load and said so. Anything else — success or a
                // structured error — is final.
                let err = ProtocolError::from_response(&reply);
                let retryable = err
                    .as_ref()
                    .is_some_and(|e| e.kind == "busy" || e.kind == "shed");
                if retryable && attempt < retries {
                    hint_ms = err.and_then(|e| e.retry_after_ms);
                    last_rejection = Some(reply);
                    continue;
                }
                if err.is_none() {
                    if let Some(b) = budget {
                        b.deposit();
                    }
                }
                return Ok(reply);
            }
            Err(e) => {
                last_err = Some(e);
                hint_ms = None;
            }
        }
    }
    if let Some(reply) = last_rejection {
        return Ok(reply);
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("request failed with no attempt")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_attempt_zero_never_waits() {
        for seed in 0..64 {
            assert_eq!(
                backoff_delay(Duration::from_millis(100), 0, seed),
                Duration::ZERO
            );
        }
    }

    #[test]
    fn backoff_jitter_stays_within_25_percent_and_doubles() {
        let base = Duration::from_millis(100);
        for seed in 0..256u64 {
            for attempt in 1..=6u32 {
                let exp = base * 2u32.pow(attempt - 1);
                let d = backoff_delay(base, attempt, seed);
                let lo = exp.mul_f64(0.75);
                let hi = exp.mul_f64(1.25);
                assert!(
                    d >= lo && d <= hi,
                    "seed {seed} attempt {attempt}: {d:?} outside [{lo:?}, {hi:?}]"
                );
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_seeds_desynchronize() {
        let base = Duration::from_millis(100);
        assert_eq!(backoff_delay(base, 3, 7), backoff_delay(base, 3, 7));
        // Across many seeds the delays cannot all collide: that would mean
        // the jitter is not keyed on the seed at all.
        let distinct: std::collections::HashSet<Duration> =
            (0..32).map(|s| backoff_delay(base, 1, s)).collect();
        assert!(
            distinct.len() > 16,
            "only {} distinct delays",
            distinct.len()
        );
    }

    #[test]
    fn budget_exhausts_and_deposits_refill() {
        let b = RetryBudget::new(2);
        assert!(b.try_withdraw());
        assert!(b.try_withdraw());
        assert!(!b.try_withdraw(), "third withdrawal must be refused");
        assert_eq!(b.exhausted_count(), 1);
        b.deposit();
        assert!(b.try_withdraw(), "deposit restores a token");
        assert!(!b.try_withdraw());
        assert_eq!(b.exhausted_count(), 2);
    }

    #[test]
    fn fractional_deposits_need_several_successes() {
        let b = RetryBudget::new(1).with_deposit_milli(250);
        assert!(b.try_withdraw());
        for _ in 0..3 {
            b.deposit();
            assert!(!b.try_withdraw(), "750 milli-tokens is not a whole token");
        }
        b.deposit();
        assert!(b.try_withdraw(), "four deposits of 250 earn one retry");
    }

    #[test]
    fn deposits_cap_at_capacity() {
        let b = RetryBudget::new(1);
        for _ in 0..10 {
            b.deposit();
        }
        assert_eq!(b.tokens_milli(), 1000, "bucket must not overfill");
    }

    #[test]
    fn time_refill_trickles_tokens_in() {
        // 1_000_000 milli-tokens/sec: effectively instant refill, so the
        // test asserts the mechanism without sleeping.
        let b = RetryBudget::new(1).with_refill_milli_per_sec(1_000_000);
        assert!(b.try_withdraw());
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.try_withdraw(), "refill should have restored the token");
    }
}
