//! The content-addressed image cache: build once, serve many.
//!
//! Every `build`/`run`/`trace` request resolves to a [`CacheKey`] —
//! `(benchmark, scheme label, plan digest)` — before anything is built.
//! The plan digest ([`CompressionPlan::digest`]) covers exactly the
//! fields that determine the image bytes, so two requests whose plans
//! make identical decisions share an entry regardless of how those plans
//! were obtained; the segment CRCs PR 5 seals into every image make the
//! cached value *checkable*, not just addressable.
//!
//! Three properties the concurrency battery holds the cache to:
//!
//! * **verify-on-hit** — every hit re-runs
//!   [`MemoryImage::verify_integrity`] before the image is served. A
//!   poisoned entry (whatever corrupted it) is evicted and rebuilt, and
//!   the rejection is counted; a corrupt image is *never* served.
//!   Every lookup hands out a [`Verified`] token, so that one check is
//!   the only one a warm run pays: the loader takes the token as proof.
//! * **single-flight** — concurrent misses on one key build once;
//!   late arrivals wait on a condvar and are served the insert (counted
//!   as hits: they did not build). A builder that fails or panics
//!   releases the flight so waiters retry rather than deadlock.
//! * **byte-budgeted LRU** — resident bytes
//!   ([`MemoryImage::resident_bytes`]) never exceed the budget: inserts
//!   evict least-recently-used entries first, and an image larger than
//!   the whole budget is served but never cached (`uncached`).
//!
//! The counters reconcile exactly, and the stress battery asserts it:
//! `lookups == hits + misses + poisoned`, and
//! `entries == inserts − evictions − poisoned`.
//!
//! With a [`DiskStore`] attached ([`ImageCache::with_store`]), misses
//! probe the store before building — a verified disk file is served as
//! an [`Outcome::StoreHit`] (counted in `hits` and `store_hits`) — and
//! every fresh build is spilled so the next daemon on the same
//! `--cache-dir` starts warm. Nothing a store yields has skipped
//! verification: [`DiskStore::load`] checks every file it decodes,
//! quarantines failures, and returns the survivors as [`Verified`]
//! tokens, which the cache serves without a second check. A fresh
//! build is verified once before it is inserted.
//!
//! [`CompressionPlan::digest`]: rtdc::plan::CompressionPlan::digest
//! [`MemoryImage::verify_integrity`]: rtdc::image::MemoryImage::verify_integrity
//! [`MemoryImage::resident_bytes`]: rtdc::image::MemoryImage::resident_bytes

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};

use rtdc::image::{MemoryImage, Verified};

use crate::protocol::ServeError;
use crate::store::DiskStore;

/// The content address of a cached image.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Benchmark or known-answer program name.
    pub bench: String,
    /// Scheme label (`native`, `d`, `cp+rf`, `d+plan`, ...).
    pub label: String,
    /// [`CompressionPlan::digest`] of the driving plan (0 for native
    /// images, which have no plan).
    ///
    /// [`CompressionPlan::digest`]: rtdc::plan::CompressionPlan::digest
    pub plan_digest: u32,
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{:08x}", self.bench, self.label, self.plan_digest)
    }
}

/// How a lookup resolved (logged, never put in a response — responses
/// must be pure functions of the request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served from cache, integrity verified.
    Hit,
    /// Not resident, but recovered from the disk store (decoded and
    /// integrity-verified) without building. Counted as a hit.
    StoreHit,
    /// Not cached; this request built the image.
    Miss,
    /// Cached but failed integrity verification; this request evicted
    /// the entry and rebuilt the image (or was served by a concurrent
    /// rebuild of the same key).
    Poisoned,
}

/// A snapshot of the cache counters (the `stats` op's `cache` object).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups through [`ImageCache::get_or_build`].
    pub lookups: u64,
    /// Lookups served from cache (verified). Includes `store_hits`.
    pub hits: u64,
    /// The subset of `hits` recovered from the disk store rather than
    /// resident memory.
    pub store_hits: u64,
    /// Lookups that built because nothing was cached.
    pub misses: u64,
    /// Lookups that found a cached entry failing verification
    /// (the entry was evicted and rebuilt).
    pub poisoned: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Entries removed by LRU byte pressure.
    pub evictions: u64,
    /// Successful builds too large for the budget, served uncached.
    pub uncached: u64,
    /// Builds that returned an error.
    pub build_failures: u64,
    /// Times a lookup blocked on another thread's in-flight build of
    /// the same key (each wake-up from the condvar counts once; the
    /// served lookup still resolves as a hit/miss/poisoned outcome).
    pub flight_waits: u64,
    /// Entries resident now.
    pub entries: u64,
    /// Bytes resident now.
    pub resident_bytes: u64,
    /// The configured budget.
    pub budget_bytes: u64,
}

impl CacheStats {
    /// Every counter as `(name, value)`, in the `stats` op's order: the
    /// one field list behind both the `stats` op's `cache` object and the
    /// `serve.cache.<name>` gauges.
    pub fn fields(&self) -> [(&'static str, u64); 13] {
        [
            ("lookups", self.lookups),
            ("hits", self.hits),
            ("store_hits", self.store_hits),
            ("misses", self.misses),
            ("poisoned", self.poisoned),
            ("inserts", self.inserts),
            ("evictions", self.evictions),
            ("uncached", self.uncached),
            ("build_failures", self.build_failures),
            ("flight_waits", self.flight_waits),
            ("entries", self.entries),
            ("resident_bytes", self.resident_bytes),
            ("budget_bytes", self.budget_bytes),
        ]
    }
}

struct Entry {
    image: Arc<MemoryImage>,
    bytes: u64,
    last_use: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    building: HashSet<CacheKey>,
    tick: u64,
    bytes: u64,
    lookups: u64,
    hits: u64,
    store_hits: u64,
    misses: u64,
    poisoned: u64,
    inserts: u64,
    evictions: u64,
    uncached: u64,
    build_failures: u64,
    flight_waits: u64,
}

impl Inner {
    /// Evicts least-recently-used entries until `bytes <= budget`,
    /// never evicting `keep` (the entry being inserted, which is MRU by
    /// definition and guaranteed to fit on its own).
    fn evict_to(&mut self, budget: u64, keep: &CacheKey) {
        while self.bytes > budget {
            let victim = self
                .map
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            let removed = self.map.remove(&victim).expect("victim just found");
            self.bytes -= removed.bytes;
            self.evictions += 1;
        }
    }
}

/// The concurrent content-addressed image cache.
pub struct ImageCache {
    inner: Mutex<Inner>,
    flights: Condvar,
    budget: u64,
    store: Option<Arc<DiskStore>>,
}

impl ImageCache {
    /// An empty cache holding at most `budget_bytes` of resident images.
    /// A budget of 0 disables caching entirely (every lookup misses and
    /// nothing is inserted) — the servebench "cold" configuration.
    pub fn new(budget_bytes: u64) -> ImageCache {
        ImageCache {
            inner: Mutex::new(Inner::default()),
            flights: Condvar::new(),
            budget: budget_bytes,
            store: None,
        }
    }

    /// Like [`ImageCache::new`], backed by a persistent [`DiskStore`]:
    /// misses probe the store before building (a verified disk file is
    /// a [`Outcome::StoreHit`]), and every fresh build is spilled so the
    /// next daemon on this store starts warm.
    pub fn with_store(budget_bytes: u64, store: Arc<DiskStore>) -> ImageCache {
        ImageCache {
            store: Some(store),
            ..ImageCache::new(budget_bytes)
        }
    }

    /// The backing disk store, if one is attached.
    pub fn store(&self) -> Option<&Arc<DiskStore>> {
        self.store.as_ref()
    }

    /// Serves `key` from cache, or builds it with `build` exactly once
    /// per flight. Returns the image, as a [`Verified`] token the
    /// loader accepts without a second check, and how the lookup
    /// resolved. Every path verifies exactly once: a hit re-checks the
    /// resident entry, a store hit arrives verified from
    /// [`DiskStore::load`], and a fresh build is checked before it is
    /// inserted.
    ///
    /// The cache lock is **not** held while building or while verifying
    /// CRCs, so independent keys build and verify concurrently.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns, or [`ServeError::BuildFailed`] if the
    /// built image fails its own integrity check; the flight is released
    /// either way.
    pub fn get_or_build(
        &self,
        key: &CacheKey,
        build: impl FnOnce() -> Result<MemoryImage, ServeError>,
    ) -> Result<(Verified<Arc<MemoryImage>>, Outcome), ServeError> {
        let mut poisoned_here = false;
        let mut guard = self.inner.lock().expect("cache lock");
        guard.lookups += 1;
        loop {
            if guard.map.contains_key(key) {
                guard.tick += 1;
                let tick = guard.tick;
                let entry = guard.map.get_mut(key).expect("entry just found");
                entry.last_use = tick;
                let image = Arc::clone(&entry.image);
                drop(guard);
                if let Ok(verified) = Verified::new(Arc::clone(&image)) {
                    if poisoned_here {
                        // This lookup evicted a poisoned entry, then
                        // waited out another thread's rebuild: it is
                        // already counted as `poisoned`.
                        return Ok((verified, Outcome::Poisoned));
                    }
                    let mut g = self.inner.lock().expect("cache lock");
                    g.hits += 1;
                    return Ok((verified, Outcome::Hit));
                }
                // Poisoned: evict exactly the entry we verified (another
                // thread may have already replaced it) and rebuild.
                guard = self.inner.lock().expect("cache lock");
                let evicted = guard
                    .map
                    .get(key)
                    .is_some_and(|entry| Arc::ptr_eq(&entry.image, &image));
                if !evicted {
                    // Someone else already evicted/replaced it; retry the
                    // lookup from scratch (this lookup is counted as no
                    // outcome yet, or as `poisoned` by an earlier pass).
                    continue;
                }
                let removed = guard.map.remove(key).expect("entry present");
                guard.bytes -= removed.bytes;
                if !poisoned_here {
                    guard.poisoned += 1;
                    poisoned_here = true;
                }
                // Fall through to the build path below.
            }
            if guard.building.contains(key) {
                guard.flight_waits += 1;
                guard = self.flights.wait(guard).expect("cache lock");
                continue;
            }
            guard.building.insert(key.clone());
            break;
        }
        drop(guard);

        // Build without the lock. The guard releases the flight even if
        // `build` panics, so waiters retry instead of deadlocking.
        struct Flight<'a> {
            cache: &'a ImageCache,
            key: &'a CacheKey,
        }
        impl Drop for Flight<'_> {
            fn drop(&mut self) {
                let mut g = self.cache.inner.lock().expect("cache lock");
                g.building.remove(self.key);
                drop(g);
                self.cache.flights.notify_all();
            }
        }
        let flight = Flight { cache: self, key };

        // Probe the disk store before committing to a build. A verified
        // disk file is a hit this process never paid a build for; it
        // becomes resident so subsequent lookups are plain hits. A
        // poisoned resident entry is always *rebuilt* (the store file
        // shares its lineage, so the fresh build is the safe source).
        if !poisoned_here {
            if let Some(store) = &self.store {
                if let Ok(Some(image)) = store.load(key) {
                    let image = image.into_shared();
                    let mut g = self.inner.lock().expect("cache lock");
                    g.hits += 1;
                    g.store_hits += 1;
                    self.insert_locked(&mut g, key, image.owner());
                    drop(g);
                    drop(flight);
                    return Ok((image, Outcome::StoreHit));
                }
            }
        }
        // Only now is this lookup a miss: nothing resident, nothing
        // (valid) on disk.
        let outcome = if poisoned_here {
            Outcome::Poisoned
        } else {
            let mut g = self.inner.lock().expect("cache lock");
            g.misses += 1;
            drop(g);
            Outcome::Miss
        };

        let built = build().and_then(|image| {
            Verified::new(Arc::new(image)).map_err(|e| ServeError::BuildFailed {
                detail: format!("built image failed its integrity check: {e}"),
            })
        });
        match built {
            Err(e) => {
                let mut g = self.inner.lock().expect("cache lock");
                g.build_failures += 1;
                drop(g);
                drop(flight);
                Err(e)
            }
            Ok(image) => {
                let mut g = self.inner.lock().expect("cache lock");
                self.insert_locked(&mut g, key, image.owner());
                drop(g);
                drop(flight);
                // Spill after waking waiters (they are served from the
                // map); the store skips keys already on disk.
                if let Some(store) = &self.store {
                    let _ = store.spill(key, &image);
                }
                Ok((image, outcome))
            }
        }
    }

    /// Inserts `image` under `key`, honoring the byte budget (oversized
    /// images count `uncached` and are served unresident). Requires the
    /// inner lock, passed as `g`.
    fn insert_locked(&self, g: &mut Inner, key: &CacheKey, image: &Arc<MemoryImage>) {
        let bytes = image.resident_bytes();
        if bytes > self.budget {
            g.uncached += 1;
            return;
        }
        g.tick += 1;
        let tick = g.tick;
        let prev = g.map.insert(
            key.clone(),
            Entry {
                image: Arc::clone(image),
                bytes,
                last_use: tick,
            },
        );
        // A concurrent poisoned rebuild can race us here; replacing is
        // correct (same key, same content).
        if let Some(prev) = prev {
            g.bytes -= prev.bytes;
        }
        g.bytes += bytes;
        g.inserts += 1;
        g.evict_to(self.budget, key);
    }

    /// Mutates the cached image under `key` in place, if present —
    /// the poisoning battery's fault-injection hook (there is no
    /// legitimate reason to mutate a cached image). Returns whether an
    /// entry was found. `Arc::make_mut` copies an image that a handed-out
    /// [`Verified`] token still shares, so a token never sees the
    /// mutation; only the next lookup's check does.
    pub fn mutate_entry(&self, key: &CacheKey, f: impl FnOnce(&mut MemoryImage)) -> bool {
        let mut g = self.inner.lock().expect("cache lock");
        match g.map.get_mut(key) {
            None => false,
            Some(entry) => {
                f(Arc::make_mut(&mut entry.image));
                true
            }
        }
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let g = self.inner.lock().expect("cache lock");
        CacheStats {
            lookups: g.lookups,
            hits: g.hits,
            store_hits: g.store_hits,
            misses: g.misses,
            poisoned: g.poisoned,
            inserts: g.inserts,
            evictions: g.evictions,
            uncached: g.uncached,
            build_failures: g.build_failures,
            flight_waits: g.flight_waits,
            entries: g.map.len() as u64,
            resident_bytes: g.bytes,
            budget_bytes: self.budget,
        }
    }

    /// The keys resident right now, most recently used last (tests).
    pub fn resident_keys(&self) -> Vec<CacheKey> {
        let g = self.inner.lock().expect("cache lock");
        let mut keys: Vec<(&CacheKey, u64)> = g.map.iter().map(|(k, e)| (k, e.last_use)).collect();
        keys.sort_by_key(|&(_, t)| t);
        keys.into_iter().map(|(k, _)| k.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdc::image::SizeReport;

    fn key(n: &str) -> CacheKey {
        CacheKey {
            bench: n.to_string(),
            label: "d".to_string(),
            plan_digest: 0xabcd,
        }
    }

    /// A tiny sealed image with one segment of `len` bytes.
    fn image(len: usize) -> MemoryImage {
        let mut img = MemoryImage {
            name: "t".into(),
            scheme: None,
            second_regfile: false,
            entry: 0,
            initial_sp: 0,
            segments: vec![rtdc::image::Segment {
                name: ".native".into(),
                base: 0x1000,
                bytes: vec![0xAB; len],
            }],
            c0_init: Vec::new(),
            handler_range: None,
            compressed_range: None,
            proc_regions: Vec::new(),
            proc_names: Vec::new(),
            sizes: SizeReport {
                original_text_bytes: len as u32,
                native_text_bytes: len as u32,
                compressed_payload_bytes: 0,
                handler_bytes: 0,
            },
            integrity: Vec::new(),
            line_crcs: Vec::new(),
        };
        img.seal();
        img
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = ImageCache::new(1 << 20);
        let (_, o1) = cache.get_or_build(&key("a"), || Ok(image(64))).unwrap();
        let (_, o2) = cache
            .get_or_build(&key("a"), || panic!("must not rebuild"))
            .unwrap();
        assert_eq!((o1, o2), (Outcome::Miss, Outcome::Hit));
        let s = cache.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (2, 1, 1));
        assert_eq!(s.entries, 1);
        assert_eq!(s.lookups, s.hits + s.misses + s.poisoned);
    }

    #[test]
    fn poisoned_entries_are_evicted_and_rebuilt() {
        let cache = ImageCache::new(1 << 20);
        cache.get_or_build(&key("a"), || Ok(image(64))).unwrap();
        assert!(cache.mutate_entry(&key("a"), |img| img.segments[0].bytes[0] ^= 1));
        let (served, outcome) = cache.get_or_build(&key("a"), || Ok(image(64))).unwrap();
        assert_eq!(outcome, Outcome::Poisoned);
        served.verify_integrity().expect("rebuilt image is clean");
        let s = cache.stats();
        assert_eq!(s.poisoned, 1);
        assert_eq!(
            s.entries as i64,
            (s.inserts - s.evictions - s.poisoned) as i64
        );
    }

    #[test]
    fn lru_eviction_respects_budget_and_order() {
        let img_bytes = image(100).resident_bytes();
        let cache = ImageCache::new(3 * img_bytes);
        for n in ["a", "b", "c"] {
            cache.get_or_build(&key(n), || Ok(image(100))).unwrap();
        }
        // Touch "a" so "b" is now LRU.
        cache.get_or_build(&key("a"), || unreachable!()).unwrap();
        cache.get_or_build(&key("d"), || Ok(image(100))).unwrap();
        let resident = cache.resident_keys();
        assert_eq!(resident.len(), 3);
        assert!(!resident.contains(&key("b")), "LRU entry b must be evicted");
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.resident_bytes <= s.budget_bytes);
    }

    #[test]
    fn oversized_images_are_served_uncached() {
        let cache = ImageCache::new(10);
        let (img, o) = cache.get_or_build(&key("big"), || Ok(image(1000))).unwrap();
        assert_eq!(o, Outcome::Miss);
        assert!(img.verify_integrity().is_ok());
        let s = cache.stats();
        assert_eq!((s.uncached, s.entries, s.resident_bytes), (1, 0, 0));
    }

    #[test]
    fn zero_budget_disables_caching() {
        let cache = ImageCache::new(0);
        for _ in 0..3 {
            let (_, o) = cache.get_or_build(&key("a"), || Ok(image(64))).unwrap();
            assert_eq!(o, Outcome::Miss);
        }
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn build_failure_releases_the_flight() {
        let cache = ImageCache::new(1 << 20);
        let err = cache
            .get_or_build(&key("a"), || {
                Err(ServeError::BuildFailed { detail: "x".into() })
            })
            .unwrap_err();
        assert_eq!(err.kind(), "build-failed");
        // The key is buildable again (no stuck flight).
        let (_, o) = cache.get_or_build(&key("a"), || Ok(image(64))).unwrap();
        assert_eq!(o, Outcome::Miss);
        assert_eq!(cache.stats().build_failures, 1);
    }

    #[test]
    fn store_backed_cache_recovers_across_instances() {
        let dir = std::env::temp_dir().join(format!(
            "rtdc-cache-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(DiskStore::open(&dir).unwrap());
        let cache = ImageCache::with_store(1 << 20, store);
        let (_, o) = cache.get_or_build(&key("a"), || Ok(image(64))).unwrap();
        assert_eq!(o, Outcome::Miss);
        drop(cache);

        // A "restarted daemon": fresh RAM cache, same directory.
        let store = Arc::new(DiskStore::open(&dir).unwrap());
        let cache = ImageCache::with_store(1 << 20, Arc::clone(&store));
        let (img, o) = cache
            .get_or_build(&key("a"), || panic!("must not rebuild"))
            .unwrap();
        assert_eq!(o, Outcome::StoreHit);
        img.verify_integrity().expect("store hit is verified");
        // Now resident: the next lookup is a plain hit.
        let (_, o) = cache.get_or_build(&key("a"), || unreachable!()).unwrap();
        assert_eq!(o, Outcome::Hit);
        let s = cache.stats();
        assert_eq!((s.hits, s.store_hits, s.misses), (2, 1, 0));
        assert_eq!(s.lookups, s.hits + s.misses + s.poisoned);
        assert_eq!(
            s.entries as i64,
            (s.inserts - s.evictions - s.poisoned) as i64
        );
        assert_eq!(store.stats().loads, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_misses_build_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = Arc::new(ImageCache::new(1 << 20));
        let builds = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (cache, builds) = (Arc::clone(&cache), Arc::clone(&builds));
                s.spawn(move || {
                    let (_, _) = cache
                        .get_or_build(&key("a"), || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(image(64))
                        })
                        .unwrap();
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "single-flight violated");
        let s = cache.stats();
        assert_eq!(s.lookups, 8);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
        // The losing threads blocked on the winner's flight (the 20ms
        // build window keeps the race from being theoretical).
        assert!(s.flight_waits >= 1, "{s:?}");
    }
}
