//! Shared server-side caches.
//!
//! Three lookups make repeated requests cheap:
//!
//! * [`CalibrationCache`] — one calibrated [`Grophecy`] per (machine,
//!   seed). Calibration replays the two-point PCIe benchmark (20 timed
//!   transfers, one of 512 MB) on the simulated bus; doing that once per
//!   machine instead of once per request is the single biggest win.
//! * [`ProjectionCache`] — an LRU memo keyed by (machine, seed, skeleton
//!   content hash, hints). Projection results are deterministic for a
//!   key, so a hit is always exact. The service memoizes a
//!   [`RenderedProjection`]: the [`AppProjection`] together with the
//!   reply's `pcie` and `projection` objects, rendered once when the
//!   entry is made. A hit splices those bytes into its reply and formats
//!   only the fields that vary per request. Each entry holds about 1 KB of
//!   rendered JSON on top of the projection (0.6–1.2 KB for the committed
//!   skeletons).
//! * The memo's text index ([`ProjectionCache::get_text`]) — a second way
//!   into the same entries, keyed by the request's exact text
//!   ([`TextKey`]). The normalized key above can only be computed after
//!   the skeleton is parsed; a text alias answers an exact repeat before
//!   any parsing, lint or normalization. Each alias lives inside the
//!   entry it points at, at most four per entry, and dies with it. It
//!   stores the reply parts that depend on the exact text (the service
//!   keeps the fingerprint, the rendered diagnostics and transfer
//!   headroom), so it costs about the skeleton's length plus that rendered
//!   head and ~350 bytes of bookkeeping: 0.6–1.0 KB for the committed
//!   skeletons, more when findings are attached.
//!
//! All are guarded by `parking_lot::RwLock` and shared across the worker
//! pool via `Arc`.

use grophecy::projector::{AppProjection, Grophecy};
use grophecy::report::{projection_json, Json};
use parking_lot::RwLock;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

/// FNV-1a content hash used for skeleton texts and hint fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Key identifying one calibrated machine instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CalibKey {
    pub machine: String,
    pub seed: u64,
}

/// Cache of calibrated projectors, keyed by (machine, seed), plus a
/// per-machine **last-good** entry that survives any later calibration
/// failures — the degraded-serving fallback.
#[derive(Default)]
pub struct CalibrationCache {
    map: RwLock<HashMap<CalibKey, Arc<Grophecy>>>,
    last_good: RwLock<HashMap<String, Arc<Grophecy>>>,
}

impl CalibrationCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached projector or calibrates one with `calibrate`.
    /// The boolean is `true` on a cache hit.
    pub fn get_or_calibrate(
        &self,
        key: CalibKey,
        calibrate: impl FnOnce() -> Grophecy,
    ) -> (Arc<Grophecy>, bool) {
        if let Some(g) = self.get(&key) {
            return (g, true);
        }
        // Race window: two workers may both calibrate the same key; the
        // second insert wins and both results are identical (calibration
        // is deterministic per key), so this stays simple.
        let g = Arc::new(calibrate());
        self.insert(key, g.clone());
        (g, false)
    }

    /// Looks up a cached calibration.
    pub fn get(&self, key: &CalibKey) -> Option<Arc<Grophecy>> {
        self.map.read().get(key).cloned()
    }

    /// Caches a successful calibration and records it as the machine's
    /// last-good fallback.
    pub fn insert(&self, key: CalibKey, gro: Arc<Grophecy>) {
        self.last_good
            .write()
            .insert(key.machine.clone(), gro.clone());
        self.map.write().insert(key, gro);
    }

    /// The most recent successful calibration for a machine (any seed) —
    /// what degraded mode serves, flagged stale, when fresh calibration
    /// keeps failing.
    pub fn last_good(&self, machine: &str) -> Option<Arc<Grophecy>> {
        self.last_good.read().get(machine).cloned()
    }

    /// Number of cached calibrations.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether no calibration is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Key identifying one memoized projection.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProjectionKey {
    pub machine: String,
    pub seed: u64,
    /// FNV-1a of the *normalized* skeleton text, so formatting-only
    /// variants of the same program share an entry.
    pub skeleton_hash: u64,
    /// FNV-1a of the canonical hint fingerprint.
    pub hints_hash: u64,
    /// Structural program fingerprint
    /// (`gpp_gpu_model::program_fingerprint`): identical for programs
    /// whose kernels synthesize the same characteristics. Exposed in
    /// replies and `stats` memo rows so a gateway can route cache-hot.
    pub fingerprint: u128,
}

/// A projection as the `project` reply quotes it. The totals depend on
/// each request's `iters`, so the projection itself stays; the `pcie` and
/// `projection` objects do not, so they are rendered here once.
pub struct RenderedProjection {
    pub(crate) proj: AppProjection,
    /// The calibration's `{"h2d":…,"d2h":…}` pair. The memo key carries
    /// the calibration key (machine, seed), so it is fixed per entry.
    pub(crate) pcie: String,
    /// `projection_json(&proj)`, rendered.
    pub(crate) projection: String,
}

impl RenderedProjection {
    /// Renders `proj`, computed by `gro`, for splicing into replies.
    pub(crate) fn new(gro: &Grophecy, proj: AppProjection) -> Self {
        let model = gro.pcie_model();
        RenderedProjection {
            pcie: Json::obj([
                ("h2d", Json::Str(model.h2d.to_string())),
                ("d2h", Json::Str(model.d2h.to_string())),
            ])
            .render(),
            projection: projection_json(&proj).render(),
            proj,
        }
    }
}

/// The exact text of a `project` request, as far as its reply depends
/// on it: everything but `iters`, which only scales the totals each reply
/// computes, and `deadline_ms`, which admission and the deadline checks
/// handle per request. Hints stay in request order and the skeleton
/// verbatim, because diagnostic spans point into the exact text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TextKey<'a> {
    pub machine: &'a str,
    pub seed: u64,
    pub lint: bool,
    pub temporaries: &'a [String],
    pub sparse: &'a [(String, u64)],
    pub skeleton: &'a str,
}

/// An owned [`TextKey`], as an alias stores it.
#[derive(Debug)]
struct TextBuf {
    machine: String,
    seed: u64,
    lint: bool,
    temporaries: Vec<String>,
    sparse: Vec<(String, u64)>,
    skeleton: String,
}

impl TextBuf {
    fn of(t: &TextKey) -> TextBuf {
        TextBuf {
            machine: t.machine.to_string(),
            seed: t.seed,
            lint: t.lint,
            temporaries: t.temporaries.to_vec(),
            sparse: t.sparse.to_vec(),
            skeleton: t.skeleton.to_string(),
        }
    }

    fn key(&self) -> TextKey<'_> {
        TextKey {
            machine: &self.machine,
            seed: self.seed,
            lint: self.lint,
            temporaries: &self.temporaries,
            sparse: &self.sparse,
            skeleton: &self.skeleton,
        }
    }
}

/// Text aliases kept per memo entry. Formatting variants, hint orders and
/// `lint=` settings of one program each take one; further ones take the
/// parsing path every time.
const ALIASES_PER_ENTRY: usize = 4;

/// A bounded least-recently-used memo of projections, or of whatever
/// per-projection value `V` a caller keeps (the service keeps
/// [`RenderedProjection`]s), with an index by exact request text whose
/// aliases carry a per-text value `A`.
///
/// Implementation: a `HashMap` to entries plus a monotonically increasing
/// use-stamp; eviction scans for the smallest stamp. Eviction is
/// O(capacity) but only runs when full, and capacities here are small
/// (hundreds); the common path is one hash lookup under the lock. The text
/// index maps a [`TextKey`]'s hash to the entry that holds the alias; a hit
/// also compares the stored text in full, so a hash collision is a miss.
pub struct ProjectionCache<V = Arc<AppProjection>, A = ()> {
    inner: RwLock<LruInner<V, A>>,
    capacity: usize,
    hasher: RandomState,
}

struct LruInner<V, A> {
    map: HashMap<ProjectionKey, Entry<V, A>>,
    /// Text hash → the key of the entry holding that text's alias.
    texts: HashMap<u64, ProjectionKey>,
    clock: u64,
}

struct Entry<V, A> {
    stamp: u64,
    value: V,
    aliases: Vec<Alias<A>>,
}

struct Alias<A> {
    hash: u64,
    text: TextBuf,
    parts: A,
}

impl<V: Clone, A: Clone> ProjectionCache<V, A> {
    pub fn new(capacity: usize) -> Self {
        ProjectionCache {
            inner: RwLock::new(LruInner {
                map: HashMap::new(),
                texts: HashMap::new(),
                clock: 0,
            }),
            capacity: capacity.max(1),
            hasher: RandomState::new(),
        }
    }

    /// Looks up a projection, refreshing its recency on hit.
    pub fn get(&self, key: &ProjectionKey) -> Option<V> {
        let mut inner = self.inner.write();
        inner.clock += 1;
        let clock = inner.clock;
        inner.map.get_mut(key).map(|e| {
            e.stamp = clock;
            e.value.clone()
        })
    }

    /// Looks up a projection by the exact request text an alias was made
    /// for, refreshing the entry's recency on hit, and returns it with the
    /// alias's parts.
    pub fn get_text(&self, text: &TextKey) -> Option<(V, A)> {
        let hash = self.hasher.hash_one(text);
        let mut inner = self.inner.write();
        inner.clock += 1;
        let clock = inner.clock;
        let LruInner { map, texts, .. } = &mut *inner;
        let entry = map.get_mut(texts.get(&hash)?)?;
        let alias = entry
            .aliases
            .iter()
            .find(|a| a.hash == hash && a.text.key() == *text)?;
        entry.stamp = clock;
        Some((entry.value.clone(), alias.parts.clone()))
    }

    /// Inserts a projection, evicting the least-recently-used entry (with
    /// its aliases) when at capacity. Re-inserting a key keeps its aliases.
    pub fn insert(&self, key: ProjectionKey, value: V) {
        let mut inner = self.inner.write();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(e) = inner.map.get_mut(&key) {
            e.stamp = clock;
            e.value = value;
            return;
        }
        if inner.map.len() >= self.capacity {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                let evicted = inner.map.remove(&oldest).expect("oldest key is present");
                for alias in &evicted.aliases {
                    inner.texts.remove(&alias.hash);
                }
            }
        }
        inner.map.insert(
            key,
            Entry {
                stamp: clock,
                value,
                aliases: Vec::new(),
            },
        );
    }

    /// Records `text` as an alias of `key`'s entry, carrying `parts`. Does
    /// nothing when the entry is gone, already holds
    /// `ALIASES_PER_ENTRY` aliases, or the text's hash is taken.
    pub fn alias(&self, key: &ProjectionKey, text: &TextKey, parts: A) {
        let hash = self.hasher.hash_one(text);
        let mut inner = self.inner.write();
        let LruInner { map, texts, .. } = &mut *inner;
        let Some(entry) = map.get_mut(key) else {
            return;
        };
        if entry.aliases.len() >= ALIASES_PER_ENTRY || texts.contains_key(&hash) {
            return;
        }
        texts.insert(hash, key.clone());
        entry.aliases.push(Alias {
            hash,
            text: TextBuf::of(text),
            parts,
        });
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.read().map.len()
    }

    /// A snapshot of the memo's keys, sorted for stable presentation —
    /// what the `stats` reply renders as its `projection_memo` rows.
    pub fn keys(&self) -> Vec<ProjectionKey> {
        let mut keys: Vec<ProjectionKey> = self.inner.read().map.keys().cloned().collect();
        keys.sort_by(|a, b| {
            (
                &a.machine,
                a.seed,
                a.fingerprint,
                a.skeleton_hash,
                a.hints_hash,
            )
                .cmp(&(
                    &b.machine,
                    b.seed,
                    b.fingerprint,
                    b.skeleton_hash,
                    b.hints_hash,
                ))
        });
        keys
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> ProjectionKey {
        ProjectionKey {
            machine: "eureka".into(),
            seed: 1,
            skeleton_hash: n,
            hints_hash: 0,
            fingerprint: n as u128,
        }
    }

    fn dummy_projection() -> Arc<AppProjection> {
        Arc::new(AppProjection {
            kernels: Vec::new(),
            kernel_time: 0.0,
            plan: gpp_datausage::TransferPlan::default(),
            transfer_times: Vec::new(),
            transfer_time: 0.0,
            alloc_time: 0.0,
            timeline: None,
            multi_gpu: None,
        })
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache: ProjectionCache = ProjectionCache::new(2);
        cache.insert(key(1), dummy_projection());
        cache.insert(key(2), dummy_projection());
        assert!(cache.get(&key(1)).is_some()); // refresh 1; 2 is now LRU
        cache.insert(key(3), dummy_projection());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn reinsert_at_capacity_does_not_evict() {
        let cache: ProjectionCache = ProjectionCache::new(2);
        cache.insert(key(1), dummy_projection());
        cache.insert(key(2), dummy_projection());
        cache.insert(key(2), dummy_projection());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1)).is_some());
    }

    fn text(skeleton: &str) -> TextKey<'_> {
        TextKey {
            machine: "eureka",
            seed: 1,
            lint: true,
            temporaries: &[],
            sparse: &[],
            skeleton,
        }
    }

    #[test]
    fn aliases_are_capped_per_entry_and_die_with_their_entry() {
        let cache: ProjectionCache<u32, usize> = ProjectionCache::new(2);
        cache.insert(key(1), 1);
        let skeletons: Vec<String> = (0..ALIASES_PER_ENTRY + 2)
            .map(|i| format!("program p{i}\n"))
            .collect();
        for (i, s) in skeletons.iter().enumerate() {
            cache.alias(&key(1), &text(s), i);
        }
        // No entry, no alias.
        cache.alias(&key(9), &text("program orphan\n"), 9);
        let aliased = |cache: &ProjectionCache<u32, usize>| {
            let inner = cache.inner.read();
            let held: usize = inner.map.values().map(|e| e.aliases.len()).sum();
            (inner.texts.len(), held)
        };
        assert_eq!(aliased(&cache), (ALIASES_PER_ENTRY, ALIASES_PER_ENTRY));
        for (i, s) in skeletons.iter().enumerate() {
            let hit = cache.get_text(&text(s));
            assert_eq!(hit, (i < ALIASES_PER_ENTRY).then_some((1, i)), "alias {i}");
        }
        // Another seed is another text.
        let other = TextKey {
            seed: 2,
            ..text(&skeletons[0])
        };
        assert_eq!(cache.get_text(&other), None);

        // Re-inserting the key keeps its aliases.
        cache.insert(key(1), 10);
        assert_eq!(cache.get_text(&text(&skeletons[0])), Some((10, 0)));

        // Key 1 is least recently used once key 2 is made; key 3 evicts it.
        cache.insert(key(2), 2);
        cache.alias(&key(2), &text("program two\n"), 2);
        cache.insert(key(3), 3);
        assert_eq!(cache.get(&key(1)), None);
        assert_eq!(aliased(&cache), (1, 1));
        for s in &skeletons {
            assert_eq!(cache.get_text(&text(s)), None);
        }
        assert_eq!(cache.get_text(&text("program two\n")), Some((2, 2)));
    }

    #[test]
    fn fnv_is_stable_and_discriminating() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }
}
