//! Counters and latency histograms for `stats`, shared by `gpp-serve` and
//! `gpp-gateway`: [`counters!`](crate::counters) declares each counter once,
//! and a [`Histogram`] records in O(1) and reads a quantile without a sort.

/// Re-exported for `counters!` expansions in other crates.
pub use grophecy::report::Json;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Records between two halvings of serve's latency histograms.
const LATENCY_WINDOW: u64 = 4096;

/// A monotone tally. Relaxed: a counter publishes no other data, and the
/// `stats` reader tolerates being a few increments behind the workers.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn bump(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declares a set of [`Counter`]s, each exactly once: its field, its
/// `stats` key and the JSON objects (groups) it renders under. Expands to
/// a struct with one public `Counter` per field, `group(name)` — the
/// group's fields in declaration order — and `plus(&row)`. Rows of the same
/// set break counters out per machine or shard, and a total adds them in.
#[macro_export]
macro_rules! counters {
    (
        $(#[$attr:meta])*
        pub struct $name:ident {
            $( $(#[$doc:meta])* $field:ident: $key:literal in [$($group:literal),+], )*
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Default)]
        pub struct $name {
            $( $(#[$doc])* pub $field: $crate::metrics::Counter, )*
        }

        impl $name {
            /// The counters in `group` as `stats` fields, in declaration order.
            pub fn group(
                &self,
                group: &'static str,
            ) -> impl Iterator<Item = (&'static str, $crate::metrics::Json)> {
                [$(($key, &[$($group),+] as &[&str], self.$field.get())),*]
                    .into_iter()
                    .filter(move |(_, groups, _)| groups.contains(&group))
                    .map(|(key, _, n)| (key, $crate::metrics::Json::Num(n as f64)))
            }

            /// This set with each of `row`'s counters added in.
            pub fn plus(self, row: &$name) -> $name {
                $( self.$field.add(row.$field.get()); )*
                self
            }
        }
    };
}

counters! {
    /// `gpp-serve`'s counters. Those in the `machine` group are bumped on
    /// machine rows ([`Metrics::bump_machine`]); their totals sum the rows.
    pub struct ServeCounters {
        /// Requests that produced an `ok` response.
        served_ok: "served_ok" in ["stats"],
        /// Requests that produced a structured error response.
        served_err: "served_err" in ["stats"],
        /// Connections rejected with `busy` because the queue was full.
        rejected_busy: "rejected_busy" in ["stats"],
        /// Requests that exceeded their compute deadline.
        timeouts: "timeouts" in ["stats"],
        /// Requests routed to a machine (any machine-taking command).
        requests: "requests" in ["machine"],
        /// Calibration cache hits.
        calib_hits: "calibration_hits" in ["stats", "machine"],
        /// Calibration cache misses.
        calib_misses: "calibration_misses" in ["stats", "machine"],
        /// Projection memo hits.
        proj_hits: "projection_hits" in ["stats", "machine"],
        /// Projection memo misses.
        proj_misses: "projection_misses" in ["stats", "machine"],
        /// Calibration attempts that failed and were retried with backoff.
        calib_retries: "calibration_retries" in ["resilience"],
        /// Request handler panics isolated per request (a structured reply).
        panics_caught: "panics_caught" in ["resilience"],
        /// Workers that died outside per-request isolation and were respawned.
        worker_respawns: "worker_respawns" in ["resilience"],
        /// Replies served `"stale":true` from the last-good calibration.
        degraded_replies: "degraded_replies" in ["resilience", "machine"],
        /// Frames rejected with `too_large` before allocation.
        too_large_rejected: "too_large_rejected" in ["resilience"],
        /// Inbound frames corrupted by an injected fault before decoding.
        frames_corrupted: "frames_corrupted" in ["resilience"],
        /// Requests shed at admission or late because of their `deadline_ms`.
        shed_deadline: "shed_deadline" in ["resilience"],
        /// Connections shed oldest-first from a saturated accept queue.
        shed_queue: "shed_queue" in ["resilience"],
        /// Calibration retries refused by an empty retry budget.
        retry_budget_exhausted: "retry_budget_exhausted" in ["resilience"],
    }
}

/// Significant bits a bucket keeps: 64 exact buckets, then 32 per octave.
const SIG_BITS: u32 = 6;

/// Values at or above `2^32` µs (about 71 minutes) share the top bucket.
const MAX_BITS: u32 = 32;

const BUCKETS: usize = (1 << SIG_BITS) + (((MAX_BITS - SIG_BITS) as usize) << (SIG_BITS - 1));

/// A rolling latency distribution in microseconds, in fixed log-linear
/// buckets.
///
/// **Bucket rule** ([`Histogram::bucket_floor`]): a sample keeps its six
/// most significant bits, after capping at `2^32 − 1`; the rest are
/// cleared. So a sample below 64 µs is exact, and a larger one reads low
/// by less than 1/32 of itself. The rule is monotone, so a quantile equals
/// the nearest-rank quantile of the raw samples passed through the rule.
///
/// **Aging rule:** before the first record of each new window of `window`
/// records, every bucket count halves (rounding down): a sample's weight
/// halves once per window, and a lone outlier falls out after one window.
pub struct Histogram {
    counts: [u64; BUCKETS],
    /// The sum of `counts`.
    total: u64,
    since_halving: u64,
    window: u64,
}

impl Histogram {
    /// An empty histogram that halves once per `window` records.
    pub fn new(window: u64) -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
            total: 0,
            since_halving: 0,
            window,
        }
    }

    /// The bucket rule: what a sample of `us` reads as.
    pub fn bucket_floor(us: u64) -> u64 {
        floor(index(us))
    }

    /// Adds one sample, in O(1) (plus one pass over the buckets per window).
    pub fn record(&mut self, us: u64) {
        if self.since_halving == self.window {
            self.counts.iter_mut().for_each(|count| *count >>= 1);
            self.total = self.counts.iter().sum();
            self.since_halving = 0;
        }
        self.counts[index(us)] += 1;
        self.total += 1;
        self.since_halving += 1;
    }

    /// The samples counted now (after aging).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `pct`-th percentile: the bucket floor of the
    /// ⌈pct·n/100⌉-th smallest of the n counted samples; 0 when empty.
    pub fn quantile(&self, pct: u64) -> u64 {
        let rank = (self.total * pct).div_ceil(100).max(1);
        let mut seen = 0;
        let at = self.counts.iter().position(|&count| {
            seen += count;
            seen >= rank
        });
        at.map_or(0, floor)
    }
}

/// The bucket holding `us`: the value itself below 64, else 32 per octave.
fn index(us: u64) -> usize {
    let us = us.min((1 << MAX_BITS) - 1);
    let shift = (u64::BITS - us.leading_zeros()).saturating_sub(SIG_BITS);
    ((shift as usize) << (SIG_BITS - 1)) + (us >> shift) as usize
}

/// The smallest value bucket `i` holds: `index`'s inverse.
fn floor(i: usize) -> u64 {
    let shift = (i >> (SIG_BITS - 1)).saturating_sub(1);
    ((i - (shift << (SIG_BITS - 1))) as u64) << shift
}

/// Serve's counters, per-machine rows and latency histograms.
pub struct Metrics {
    /// When these metrics were created: the `uptime_seconds` origin.
    pub started: Instant,
    /// The counters kept once; the `machine` ones stay zero here.
    pub counters: ServeCounters,
    /// Machine rows, sorted by machine name.
    machines: Mutex<BTreeMap<String, ServeCounters>>,
    /// Total (queued + compute), queued and compute time, recorded together.
    latency: Mutex<[Histogram; 3]>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            counters: ServeCounters::default(),
            machines: Mutex::new(BTreeMap::new()),
            latency: Mutex::new([(); 3].map(|()| Histogram::new(LATENCY_WINDOW))),
        }
    }
}

impl Metrics {
    /// Records one completed request's wall time, split into the queue
    /// wait (accept to worker pickup) and the handler's compute time.
    pub fn record_latency(&self, queued: Duration, compute: Duration) {
        let us = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let (queued, compute) = (us(queued), us(compute));
        let [total, queue, work] = &mut *self.latency.lock();
        total.record(queued.saturating_add(compute));
        queue.record(queued);
        work.record(compute);
    }

    /// The median handler compute time, microseconds, under the bucket
    /// rule; 0 until a request completed. This is the admission yardstick:
    /// a request whose remaining deadline budget cannot cover it is shed
    /// instead of computed (a cold 0 sheds only budgets already gone).
    pub fn compute_p50_us(&self) -> u64 {
        self.latency.lock()[2].quantile(50)
    }

    /// The `stats` latency fields, microseconds.
    pub fn percentiles(&self) -> [(&'static str, u64); 6] {
        let [total, queued, compute] = &*self.latency.lock();
        [
            ("p50_latency_us", total.quantile(50)),
            ("p99_latency_us", total.quantile(99)),
            ("p50_queued_us", queued.quantile(50)),
            ("p99_queued_us", queued.quantile(99)),
            ("p50_compute_us", compute.quantile(50)),
            ("p99_compute_us", compute.quantile(99)),
        ]
    }

    /// Bumps counters on the named machine's row.
    pub fn bump_machine(&self, machine: &str, bump: impl FnOnce(&ServeCounters)) {
        let mut rows = self.machines.lock();
        match rows.get(machine) {
            Some(row) => bump(row),
            None => bump(rows.entry(machine.to_string()).or_default()),
        }
    }

    /// A copy of every machine row, sorted by machine name.
    pub fn machines(&self) -> Vec<(String, ServeCounters)> {
        let rows = self.machines.lock();
        let copy = |row| ServeCounters::default().plus(row);
        rows.iter()
            .map(|(name, row)| (name.clone(), copy(row)))
            .collect()
    }

    /// Every counter's total: the value kept once plus the machine rows'.
    pub fn totals(&self) -> ServeCounters {
        let totals = ServeCounters::default().plus(&self.counters);
        self.machines
            .lock()
            .values()
            .fold(totals, ServeCounters::plus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use Histogram as H;

    /// The nearest-rank (p50, p99) of the raw samples: the oracle the
    /// histogram's quantiles are held to through the bucket rule.
    fn percentiles(samples: impl Iterator<Item = u64>) -> (u64, u64) {
        let mut s: Vec<u64> = samples.collect();
        if s.is_empty() {
            return (0, 0);
        }
        s.sort_unstable();
        // Nearest-rank method: the p-th percentile is the ceil(p*n)-th sample.
        let rank = |p: f64| -> u64 {
            let idx = ((s.len() as f64 * p).ceil() as usize).clamp(1, s.len()) - 1;
            s[idx]
        };
        (rank(0.50), rank(0.99))
    }

    /// p50/p99 of total, queued and compute time.
    fn pcts(m: &Metrics) -> [u64; 6] {
        m.percentiles().map(|(_, us)| us)
    }

    #[test]
    fn the_bucket_rule_is_exact_below_64_and_within_a_32nd_above() {
        for us in (0..1 << 20).chain([(1 << 32) - 1]) {
            let kept = H::bucket_floor(us);
            assert!(kept == us || (us >= 64 && kept < us && (us - kept) * 32 < us));
            assert_eq!(index(kept), index(us));
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let m = Metrics::default();
        for us in 1..=100u64 {
            m.record_latency(Duration::ZERO, Duration::from_micros(us));
        }
        let [p50, p99, ..] = pcts(&m);
        assert_eq!((p50, p99), (H::bucket_floor(50), H::bucket_floor(99)));
    }

    #[test]
    fn queued_and_compute_split_is_tracked() {
        let m = Metrics::default();
        for us in 1..=100u64 {
            m.record_latency(Duration::from_micros(us * 10), Duration::from_micros(us));
        }
        // Total is the per-request sum, not the sum of percentiles.
        let want = [550, 1089, 500, 990, 50, 99].map(H::bucket_floor);
        assert_eq!(pcts(&m), want);
        assert_eq!(m.compute_p50_us(), H::bucket_floor(50));
    }

    #[test]
    fn ring_wraps_at_window() {
        let m = Metrics::default();
        for _ in 0..(LATENCY_WINDOW + 10) {
            m.record_latency(Duration::from_micros(2), Duration::from_micros(5));
        }
        let [p50, p99, ..] = pcts(&m);
        assert_eq!((p50, p99), (H::bucket_floor(7), H::bucket_floor(7)));
        // One halving at the window: 4096 → 2048, then 10 more.
        assert_eq!(m.latency.lock()[0].count(), LATENCY_WINDOW / 2 + 10);
    }

    #[test]
    fn empty_window_reports_zero() {
        assert_eq!(pcts(&Metrics::default()), [0; 6]);
    }

    #[test]
    fn per_machine_rows_accumulate_and_sort() {
        let m = Metrics::default();
        m.bump_machine("v2", |c| c.requests.bump());
        m.bump_machine("eureka", |c| {
            c.requests.bump();
            c.calib_misses.bump();
        });
        m.bump_machine("eureka", |c| c.calib_hits.bump());
        let counts =
            |c: &ServeCounters| [&c.requests, &c.calib_hits, &c.calib_misses].map(Counter::get);
        let rows = m.machines();
        assert_eq!(
            (rows[0].0.as_str(), counts(&rows[0].1)),
            ("eureka", [1, 1, 1])
        );
        assert_eq!((rows[1].0.as_str(), counts(&rows[1].1)), ("v2", [1, 0, 0]));
        assert_eq!(counts(&m.totals()), [2, 1, 1]);
    }

    /// Sample sets smaller than one window: empty, one sample, all equal,
    /// zeros and small values, and heavy tails up to 60 s.
    fn samples() -> impl Strategy<Value = Vec<u64>> {
        const MAX_US: u64 = 60_000_000;
        let n = 1..LATENCY_WINDOW as usize;
        let heavy = (1..=MAX_US, 0u32..=25).prop_map(|(us, shift)| us >> shift);
        prop_oneof![
            Just(Vec::new()),
            prop::collection::vec(0..=MAX_US, 1),
            (0..=MAX_US, n.clone()).prop_map(|(us, n)| vec![us; n]),
            prop::collection::vec(prop_oneof![Just(0u64), 0u64..64], n.clone()),
            prop::collection::vec(heavy, n),
        ]
    }

    proptest! {
        #[test]
        fn quantiles_equal_the_oracle_through_the_bucket_rule(samples in samples()) {
            let mut h = Histogram::new(LATENCY_WINDOW);
            for &us in &samples {
                h.record(us);
            }
            let (p50, p99) = percentiles(samples.iter().copied());
            prop_assert_eq!(h.quantile(50), H::bucket_floor(p50));
            prop_assert_eq!(h.quantile(99), H::bucket_floor(p99));
            prop_assert_eq!(h.count(), samples.len() as u64);
        }
    }
}
