//! Shared server-side caches.
//!
//! Three lookups make repeated requests cheap:
//!
//! * [`CalibrationCache`] — one calibrated [`Grophecy`] per (machine,
//!   seed), kept as a [`Calibration`] with the reply's `pcie` pair
//!   rendered once. Calibration replays the two-point PCIe benchmark (20
//!   timed transfers, one of 512 MB) on the simulated bus; doing that once
//!   per machine instead of once per request is the single biggest win.
//! * [`ProjectionCache`] — an LRU memo keyed by (machine, seed, skeleton
//!   content hash, hints). The content hash is
//!   [`gpp_skeleton::Program::content_hash`] of the parsed program, so
//!   formatting-only variants of a skeleton share an entry without the
//!   program being rendered back to text. Projection results are
//!   deterministic for a key, so a hit is always exact. The service
//!   memoizes a [`RenderedProjection`]: the [`AppProjection`] together
//!   with the reply's `projection` object, rendered once when the entry is
//!   made, and its calibration's `pcie` pair. A hit splices those bytes
//!   into its reply and formats only the fields that vary per request.
//!   Each entry holds about 1 KB of rendered JSON on top of the projection
//!   (0.6–1.2 KB for the committed skeletons). Entries sit in a fixed slab
//!   linked in recency order, so a lookup, a refresh and an eviction are
//!   each O(1): a full memo evicts its least recently used entry by taking
//!   the list's tail, and the new entry reuses that slot.
//! * The memo's text index ([`ProjectionCache::get_text`]) — a second way
//!   into the same entries, keyed by the request's exact text
//!   ([`TextKey`]), hashed once per request ([`TextHash`]). The
//!   normalized key above can only be computed after the skeleton is
//!   parsed; a text alias answers an exact repeat before any parsing, lint
//!   or normalization. Each alias lives inside the entry it points at
//!   (the index maps its hash to the entry's slot), at most four per
//!   entry, and dies with it. It
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
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::Arc;

/// FNV-1a content hash: hint fingerprints, gateway ring points and
/// payload keys, retry jitter seeds.
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

/// A calibrated projector with the `project` reply's `pcie` pair, which
/// depends on nothing else and so is rendered once per calibration.
#[derive(Clone)]
pub struct Calibration {
    pub(crate) gro: Arc<Grophecy>,
    /// `{"h2d":…,"d2h":…}`, rendered.
    pub(crate) pcie: Arc<str>,
}

impl Calibration {
    pub(crate) fn new(gro: Arc<Grophecy>) -> Calibration {
        let model = gro.pcie_model();
        let pcie = Json::obj([
            ("h2d", Json::Str(model.h2d.to_string())),
            ("d2h", Json::Str(model.d2h.to_string())),
        ])
        .render();
        Calibration {
            gro,
            pcie: pcie.into(),
        }
    }
}

/// Cache of calibrated projectors, keyed by (machine, seed), plus a
/// per-machine **last-good** entry that survives any later calibration
/// failures — the degraded-serving fallback.
#[derive(Default)]
pub struct CalibrationCache {
    map: RwLock<HashMap<CalibKey, Calibration>>,
    last_good: RwLock<HashMap<String, Calibration>>,
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
        if let Some(c) = self.get(&key) {
            return (c.gro, true);
        }
        // Race window: two workers may both calibrate the same key; the
        // second insert wins and both results are identical (calibration
        // is deterministic per key), so this stays simple.
        let c = Calibration::new(Arc::new(calibrate()));
        self.insert(key, c.clone());
        (c.gro, false)
    }

    /// Looks up a cached calibration.
    pub fn get(&self, key: &CalibKey) -> Option<Calibration> {
        self.map.read().get(key).cloned()
    }

    /// Caches a successful calibration and records it as the machine's
    /// last-good fallback.
    pub fn insert(&self, key: CalibKey, calibration: Calibration) {
        self.last_good
            .write()
            .insert(key.machine.clone(), calibration.clone());
        self.map.write().insert(key, calibration);
    }

    /// The most recent successful calibration for a machine (any seed) —
    /// what degraded mode serves, flagged stale, when fresh calibration
    /// keeps failing.
    pub fn last_good(&self, machine: &str) -> Option<Calibration> {
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
    /// The parsed program's content hash
    /// ([`gpp_skeleton::Program::content_hash`]), so formatting-only
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
/// `projection` objects do not, so they are rendered once.
pub struct RenderedProjection {
    pub(crate) proj: AppProjection,
    /// The calibration's rendered `pcie` pair. The memo key carries the
    /// calibration key (machine, seed), so it is fixed per entry.
    pub(crate) pcie: Arc<str>,
    /// `projection_json(&proj)`, rendered.
    pub(crate) projection: String,
}

impl RenderedProjection {
    /// Renders `proj`, computed by `calibration`, for splicing into
    /// replies.
    pub(crate) fn new(calibration: &Calibration, proj: AppProjection) -> Self {
        RenderedProjection {
            pcie: calibration.pcie.clone(),
            projection: projection_json(&proj).into_string(),
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

/// A [`TextKey`]'s hash under one memo's hasher, from
/// [`ProjectionCache::text_hash`]. A request computes it once and passes it
/// to both [`ProjectionCache::get_text`] and [`ProjectionCache::alias`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TextHash(u64);

/// Hashes a `u64` that is already a hash as itself, so the memo's indexes
/// do not hash their keys a second time. Their keys come from the memo's
/// randomly keyed `RandomState`, so a client can no more craft colliding
/// requests than under the default hasher.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(*b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

type PrehashedMap<V> = HashMap<u64, V, BuildHasherDefault<Prehashed>>;

/// No slot: the end of a recency list or a hash chain.
const NIL: u32 = u32::MAX;

/// A bounded least-recently-used memo of projections, or of whatever
/// per-projection value `V` a caller keeps (the service keeps
/// [`RenderedProjection`]s), with an index by exact request text whose
/// aliases carry a per-text value `A`.
///
/// Implementation: entries live in a slab of at most `capacity` slots,
/// linked in recency order by slot index. A key's hash maps to its slot
/// (slots whose keys share a hash are chained), and so does each alias's
/// text hash. A lookup is one hash and one map probe; a refresh relinks
/// two neighbours and allocates nothing; eviction takes the list's tail
/// and reuses its slot, alias list included, for the new entry. Every
/// operation is O(1). A text hit also compares the stored text in full, so
/// a hash collision is a miss.
pub struct ProjectionCache<V = Arc<AppProjection>, A = ()> {
    inner: RwLock<LruInner<V, A>>,
    capacity: usize,
    hasher: RandomState,
}

struct LruInner<V, A> {
    /// Key hash → the first slot of the chain of slots with that hash.
    keys: PrehashedMap<u32>,
    /// Text hash → the slot whose entry holds that text's alias.
    texts: PrehashedMap<u32>,
    slots: Vec<Slot<V, A>>,
    /// The most and the least recently used slot.
    head: u32,
    tail: u32,
}

struct Slot<V, A> {
    key: ProjectionKey,
    /// The memo hasher's hash of `key`.
    hash: u64,
    /// The next slot whose key has the same hash.
    chain: u32,
    /// The neighbours in recency order: `prev` was used more recently.
    prev: u32,
    next: u32,
    value: V,
    aliases: Vec<Alias<A>>,
}

struct Alias<A> {
    hash: TextHash,
    text: TextBuf,
    parts: A,
}

impl<V, A> LruInner<V, A> {
    fn slot(&self, s: u32) -> &Slot<V, A> {
        &self.slots[s as usize]
    }

    fn slot_mut(&mut self, s: u32) -> &mut Slot<V, A> {
        &mut self.slots[s as usize]
    }

    /// The slot holding `key`, whose hash is `hash`.
    fn find(&self, hash: u64, key: &ProjectionKey) -> Option<u32> {
        let mut s = *self.keys.get(&hash)?;
        while s != NIL {
            if self.slot(s).key == *key {
                return Some(s);
            }
            s = self.slot(s).chain;
        }
        None
    }

    /// Makes `s` the most recently used slot.
    fn touch(&mut self, s: u32) {
        if self.head != s {
            self.unlink(s);
            self.push_front(s);
        }
    }

    fn unlink(&mut self, s: u32) {
        let Slot { prev, next, .. } = *self.slot(s);
        match prev {
            NIL => self.head = next,
            p => self.slot_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slot_mut(n).prev = prev,
        }
    }

    fn push_front(&mut self, s: u32) {
        let head = self.head;
        let slot = self.slot_mut(s);
        slot.prev = NIL;
        slot.next = head;
        match head {
            NIL => self.tail = s,
            h => self.slot_mut(h).prev = s,
        }
        self.head = s;
    }

    /// Puts `s` at the front of its key hash's chain.
    fn chain_in(&mut self, s: u32) {
        let hash = self.slot(s).hash;
        self.slot_mut(s).chain = self.keys.insert(hash, s).unwrap_or(NIL);
    }

    /// Takes `s` out of its key hash's chain.
    fn chain_out(&mut self, s: u32) {
        let Slot { hash, chain, .. } = *self.slot(s);
        let first = self.keys[&hash];
        if first == s {
            if chain == NIL {
                self.keys.remove(&hash);
            } else {
                self.keys.insert(hash, chain);
            }
            return;
        }
        let mut p = first;
        while self.slot(p).chain != s {
            p = self.slot(p).chain;
        }
        self.slot_mut(p).chain = chain;
    }
}

impl<V: Clone, A: Clone> ProjectionCache<V, A> {
    pub fn new(capacity: usize) -> Self {
        ProjectionCache {
            inner: RwLock::new(LruInner {
                keys: PrehashedMap::default(),
                texts: PrehashedMap::default(),
                slots: Vec::new(),
                head: NIL,
                tail: NIL,
            }),
            capacity: capacity.clamp(1, NIL as usize),
            hasher: RandomState::new(),
        }
    }

    /// The hash [`get_text`](Self::get_text) and [`alias`](Self::alias)
    /// take for `text`.
    pub fn text_hash(&self, text: &TextKey) -> TextHash {
        TextHash(self.hasher.hash_one(text))
    }

    /// Looks up a projection, refreshing its recency on hit.
    pub fn get(&self, key: &ProjectionKey) -> Option<V> {
        let hash = self.hasher.hash_one(key);
        let mut inner = self.inner.write();
        let s = inner.find(hash, key)?;
        inner.touch(s);
        Some(inner.slot(s).value.clone())
    }

    /// Looks up a projection by the exact request text an alias was made
    /// for, refreshing the entry's recency on hit, and returns it with the
    /// alias's parts. `hash` is [`text_hash`](Self::text_hash)`(text)`.
    pub fn get_text(&self, text: &TextKey, hash: TextHash) -> Option<(V, A)> {
        let mut inner = self.inner.write();
        let s = *inner.texts.get(&hash.0)?;
        let slot = inner.slot(s);
        let alias = slot
            .aliases
            .iter()
            .find(|a| a.hash == hash && a.text.key() == *text)?;
        let hit = (slot.value.clone(), alias.parts.clone());
        inner.touch(s);
        Some(hit)
    }

    /// Inserts a projection, evicting the least-recently-used entry (with
    /// its aliases) when at capacity. Re-inserting a key keeps its aliases.
    pub fn insert(&self, key: ProjectionKey, value: V) {
        let hash = self.hasher.hash_one(&key);
        let mut inner = self.inner.write();
        if let Some(s) = inner.find(hash, &key) {
            inner.slot_mut(s).value = value;
            inner.touch(s);
            return;
        }
        if inner.slots.len() < self.capacity {
            let s = inner.slots.len() as u32;
            inner.slots.push(Slot {
                key,
                hash,
                chain: NIL,
                prev: NIL,
                next: NIL,
                value,
                aliases: Vec::new(),
            });
            inner.chain_in(s);
            inner.push_front(s);
            return;
        }
        // Full: the least recently used slot takes the new entry.
        let s = inner.tail;
        inner.chain_out(s);
        let LruInner { texts, slots, .. } = &mut *inner;
        let slot = &mut slots[s as usize];
        for alias in slot.aliases.drain(..) {
            texts.remove(&alias.hash.0);
        }
        slot.key = key;
        slot.hash = hash;
        slot.value = value;
        inner.chain_in(s);
        inner.touch(s);
    }

    /// Records `text` as an alias of `key`'s entry, carrying `parts`. Does
    /// nothing when the entry is gone, already holds
    /// `ALIASES_PER_ENTRY` aliases, or the text's hash is taken. `hash` is
    /// [`text_hash`](Self::text_hash)`(text)`.
    pub fn alias(&self, key: &ProjectionKey, text: &TextKey, hash: TextHash, parts: A) {
        let key_hash = self.hasher.hash_one(key);
        let mut inner = self.inner.write();
        let Some(s) = inner.find(key_hash, key) else {
            return;
        };
        let LruInner { texts, slots, .. } = &mut *inner;
        let aliases = &mut slots[s as usize].aliases;
        if aliases.len() >= ALIASES_PER_ENTRY || texts.contains_key(&hash.0) {
            return;
        }
        texts.insert(hash.0, s);
        aliases.push(Alias {
            hash,
            text: TextBuf::of(text),
            parts,
        });
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.read().slots.len()
    }

    /// A snapshot of the memo's keys, sorted for stable presentation —
    /// what the `stats` reply renders as its `projection_memo` rows.
    pub fn keys(&self) -> Vec<ProjectionKey> {
        let mut keys: Vec<ProjectionKey> = self
            .inner
            .read()
            .slots
            .iter()
            .map(|s| s.key.clone())
            .collect();
        keys.sort_by(key_order);
        keys
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The order [`ProjectionCache::keys`] presents keys in.
fn key_order(a: &ProjectionKey, b: &ProjectionKey) -> std::cmp::Ordering {
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
}

/// The memo as it was before its recency list: a map of entries with use
/// stamps, evicting by a scan for the smallest stamp. Kept as the oracle the
/// differential test runs [`ProjectionCache`] against.
#[cfg(test)]
mod oracle {
    use super::{ProjectionKey, TextBuf, TextHash, TextKey, ALIASES_PER_ENTRY};
    use std::collections::HashMap;

    pub struct StampMemo<V, A> {
        map: HashMap<ProjectionKey, Entry<V, A>>,
        texts: HashMap<TextHash, ProjectionKey>,
        clock: u64,
        capacity: usize,
    }

    struct Entry<V, A> {
        stamp: u64,
        value: V,
        aliases: Vec<(TextHash, TextBuf, A)>,
    }

    impl<V: Clone, A: Clone> StampMemo<V, A> {
        pub fn new(capacity: usize) -> Self {
            StampMemo {
                map: HashMap::new(),
                texts: HashMap::new(),
                clock: 0,
                capacity: capacity.max(1),
            }
        }

        pub fn get(&mut self, key: &ProjectionKey) -> Option<V> {
            self.clock += 1;
            let clock = self.clock;
            self.map.get_mut(key).map(|e| {
                e.stamp = clock;
                e.value.clone()
            })
        }

        pub fn get_text(&mut self, text: &TextKey, hash: TextHash) -> Option<(V, A)> {
            self.clock += 1;
            let entry = self.map.get_mut(self.texts.get(&hash)?)?;
            let (_, _, parts) = entry
                .aliases
                .iter()
                .find(|(h, t, _)| *h == hash && t.key() == *text)?;
            entry.stamp = self.clock;
            Some((entry.value.clone(), parts.clone()))
        }

        pub fn insert(&mut self, key: ProjectionKey, value: V) {
            self.clock += 1;
            if let Some(e) = self.map.get_mut(&key) {
                e.stamp = self.clock;
                e.value = value;
                return;
            }
            if self.map.len() >= self.capacity {
                let oldest = self
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(k, _)| k.clone())
                    .expect("a full memo has an oldest entry");
                for (hash, _, _) in self.map.remove(&oldest).unwrap().aliases {
                    self.texts.remove(&hash);
                }
            }
            let entry = Entry {
                stamp: self.clock,
                value,
                aliases: Vec::new(),
            };
            self.map.insert(key, entry);
        }

        pub fn alias(&mut self, key: &ProjectionKey, text: &TextKey, hash: TextHash, parts: A) {
            let Some(entry) = self.map.get_mut(key) else {
                return;
            };
            if entry.aliases.len() >= ALIASES_PER_ENTRY || self.texts.contains_key(&hash) {
                return;
            }
            self.texts.insert(hash, key.clone());
            entry.aliases.push((hash, TextBuf::of(text), parts));
        }

        pub fn keys(&self) -> Vec<ProjectionKey> {
            let mut keys: Vec<ProjectionKey> = self.map.keys().cloned().collect();
            keys.sort_by(super::key_order);
            keys
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// `get_text` with the text's own hash.
    fn get_text<V: Clone, A: Clone>(
        cache: &ProjectionCache<V, A>,
        text: &TextKey,
    ) -> Option<(V, A)> {
        cache.get_text(text, cache.text_hash(text))
    }

    fn alias<V: Clone, A: Clone>(
        cache: &ProjectionCache<V, A>,
        key: &ProjectionKey,
        text: &TextKey,
        parts: A,
    ) {
        cache.alias(key, text, cache.text_hash(text), parts)
    }

    #[test]
    fn aliases_are_capped_per_entry_and_die_with_their_entry() {
        let cache: ProjectionCache<u32, usize> = ProjectionCache::new(2);
        cache.insert(key(1), 1);
        let skeletons: Vec<String> = (0..ALIASES_PER_ENTRY + 2)
            .map(|i| format!("program p{i}\n"))
            .collect();
        for (i, s) in skeletons.iter().enumerate() {
            alias(&cache, &key(1), &text(s), i);
        }
        // No entry, no alias.
        alias(&cache, &key(9), &text("program orphan\n"), 9);
        let aliased = |cache: &ProjectionCache<u32, usize>| {
            let inner = cache.inner.read();
            let held: usize = inner.slots.iter().map(|s| s.aliases.len()).sum();
            (inner.texts.len(), held)
        };
        assert_eq!(aliased(&cache), (ALIASES_PER_ENTRY, ALIASES_PER_ENTRY));
        for (i, s) in skeletons.iter().enumerate() {
            let hit = get_text(&cache, &text(s));
            assert_eq!(hit, (i < ALIASES_PER_ENTRY).then_some((1, i)), "alias {i}");
        }
        // Another seed is another text.
        let other = TextKey {
            seed: 2,
            ..text(&skeletons[0])
        };
        assert_eq!(get_text(&cache, &other), None);

        // Re-inserting the key keeps its aliases.
        cache.insert(key(1), 10);
        assert_eq!(get_text(&cache, &text(&skeletons[0])), Some((10, 0)));

        // Key 1 is least recently used once key 2 is made; key 3 evicts it.
        cache.insert(key(2), 2);
        alias(&cache, &key(2), &text("program two\n"), 2);
        cache.insert(key(3), 3);
        assert_eq!(cache.get(&key(1)), None);
        assert_eq!(aliased(&cache), (1, 1));
        for s in &skeletons {
            assert_eq!(get_text(&cache, &text(s)), None);
        }
        assert_eq!(get_text(&cache, &text("program two\n")), Some((2, 2)));
    }

    #[test]
    fn keys_sharing_a_hash_chain_and_unchain_in_any_order() {
        // Drive the chains directly: three slots filed under one hash.
        let cache: ProjectionCache<u32> = ProjectionCache::new(3);
        for n in 1..=3 {
            cache.insert(key(n), n as u32);
        }
        let mut inner = cache.inner.write();
        inner.keys.clear();
        for s in 0..3 {
            inner.slot_mut(s).hash = 7;
            inner.chain_in(s);
        }
        for n in 1..=3 {
            assert_eq!(inner.find(7, &key(n)), Some(n as u32 - 1));
        }
        inner.chain_out(1); // the middle of the chain
        assert_eq!(inner.find(7, &key(2)), None);
        assert_eq!(inner.find(7, &key(1)), Some(0));
        inner.chain_out(2); // its head
        inner.chain_out(0); // the last
        assert!(inner.keys.is_empty());
    }

    #[test]
    fn fnv_is_stable_and_discriminating() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(u64),
        Insert(u64, u32),
        GetText(usize),
        Alias(u64, usize, u32),
    }

    /// Keys 0–5 and texts 0–15 over capacities 1–8: re-inserts, refreshes
    /// and evictions all happen, several texts alias one entry past the
    /// cap, and texts `t` and `t + 8` share a hash.
    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let alias = || (0u64..6, 0usize..16, 0u32..1000).prop_map(|(k, t, p)| Op::Alias(k, t, p));
        let op = prop_oneof![
            (0u64..6).prop_map(Op::Get),
            (0u64..6, 0u32..1000).prop_map(|(k, v)| Op::Insert(k, v)),
            (0usize..16).prop_map(Op::GetText),
            alias(),
            alias(),
        ];
        prop::collection::vec(op, 1..120)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every operation returns what the stamp-scan memo returns, and
        /// both hold the same keys after every step.
        #[test]
        fn the_memo_agrees_with_the_stamp_scan_oracle(capacity in 1usize..9, ops in ops()) {
            let memo: ProjectionCache<u32, u32> = ProjectionCache::new(capacity);
            let mut oracle = oracle::StampMemo::new(capacity);
            let skeletons: Vec<String> = (0..16).map(|t| format!("program p{t}\n")).collect();
            let text_of = |t: usize| (text(&skeletons[t]), TextHash(t as u64 % 8));
            for op in ops {
                match op {
                    Op::Get(k) => prop_assert_eq!(memo.get(&key(k)), oracle.get(&key(k))),
                    Op::Insert(k, v) => {
                        memo.insert(key(k), v);
                        oracle.insert(key(k), v);
                    }
                    Op::GetText(t) => {
                        let (text, hash) = text_of(t);
                        prop_assert_eq!(memo.get_text(&text, hash), oracle.get_text(&text, hash));
                    }
                    Op::Alias(k, t, p) => {
                        let (text, hash) = text_of(t);
                        memo.alias(&key(k), &text, hash, p);
                        oracle.alias(&key(k), &text, hash, p);
                    }
                }
                prop_assert_eq!(memo.keys(), oracle.keys());
                prop_assert_eq!(memo.len(), oracle.keys().len());
            }
        }
    }
}
