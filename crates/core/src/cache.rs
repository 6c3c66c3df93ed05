//! Process-wide cache of instrumented, translated modules.
//!
//! Validating, instrumenting, and flat-IR-translating a module is the
//! expensive, *input-independent* part of an analysis job; executing it is
//! the part that differs per job. A [`ModuleCache`] keys fully prepared
//! [`AnalysisSession`]s by `(module key, hook set)` so that repeated jobs
//! on the same binary — a batch manifest running one module under many
//! inputs, a [`crate::fleet::Fleet`] sweeping analysis sets across a
//! corpus — validate + instrument + translate **exactly once
//! process-wide**, no matter how many threads race on the first request.
//!
//! The cached value is an `Arc<AnalysisSession>`: two `Arc`s over
//! immutable data (`wasabi_vm::TranslatedModule` guarantees `Send + Sync`
//! at compile time), so a hit is a reference-count bump and every worker
//! thread instantiates its own per-run mutable state from the shared
//! translation.
//!
//! The key is caller-chosen (a file path, a workload name, or a
//! [`content_key`] over the wasm bytes): the cache trusts that equal keys
//! mean equal modules. The hook set is part of the key because
//! instrumentation output depends on it — the same binary under
//! `{call_pre}` and under all hooks are different instrumented modules.
//!
//! A resident process (the `wasabi-server` daemon) must not grow its
//! prepared-session cache without bound: [`ModuleCache::bounded`] caps
//! the entry count and evicts the least-recently-used entry past the
//! cap ([`ModuleCache::evictions`] counts them; an evicted key simply
//! rebuilds on its next request).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use wasabi::cache::ModuleCache;
//! use wasabi::hooks::HookSet;
//! use wasabi_wasm::builder::ModuleBuilder;
//! use wasabi_wasm::ValType;
//!
//! let mut builder = ModuleBuilder::new();
//! builder.function("main", &[], &[ValType::I32], |f| {
//!     f.i32_const(42);
//! });
//! let module = Arc::new(builder.finish());
//!
//! let cache = ModuleCache::new();
//! let first = cache.session_for("answer.wasm", HookSet::all(), &module)?;
//! let second = cache.session_for("answer.wasm", HookSet::all(), &module)?;
//! assert!(!first.hit && second.hit);
//! // Both lookups share ONE instrumented translation.
//! assert!(Arc::ptr_eq(&first.session, &second.session));
//! assert_eq!((cache.misses(), cache.hits()), (1, 1));
//! // The session shares the caller's module instead of copying it.
//! assert!(std::ptr::eq(first.session.module(), Arc::as_ptr(&module)));
//!
//! // A different hook set is a different instrumented module.
//! let other = cache.session_for("answer.wasm", HookSet::empty(), &module)?;
//! assert!(!other.hit);
//! assert_eq!(cache.len(), 2);
//! # Ok::<(), wasabi_wasm::ValidationError>(())
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wasabi_wasm::module::Module;
use wasabi_wasm::ValidationError;

use crate::diskcache::DiskCache;
use crate::hooks::HookSet;
use crate::instrument::Instrumenter;
use crate::runtime::AnalysisSession;

/// Content-addressed cache key for a wasm binary: a 64-bit FNV-1a hash
/// over the raw bytes, rendered as `fnv64:<16 hex digits>`.
///
/// This is what makes module identity *content*- rather than
/// caller-chosen: two uploads of the same bytes produce the same key, so
/// the `wasabi-server` content store dedups re-uploads and every client
/// submitting the same binary shares one [`ModuleCache`] entry. FNV-1a is
/// not collision-resistant against adversaries — it identifies modules
/// for deduplication, it does not authenticate them.
///
/// # Examples
///
/// ```
/// use wasabi::cache::content_key;
/// assert_eq!(content_key(b""), "fnv64:cbf29ce484222325");
/// assert_eq!(content_key(b"\0asm"), content_key(b"\0asm"));
/// assert_ne!(content_key(b"\0asm"), content_key(b"\0asn"));
/// ```
pub fn content_key(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv64:{hash:016x}")
}

/// What a cache entry is keyed by: the caller's module identity plus the
/// hook set the module is instrumented for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    module: String,
    hooks: HookSet,
}

/// Per-key build slot. The slot mutex serializes *same-key* builders (the
/// first builds, the rest wait and hit), while distinct keys instrument
/// and translate concurrently. Build costs are returned to the one caller
/// that paid them ([`CachedSession`]), not stored: hits are free.
/// `last_used` is the cache's logical clock value of the most recent
/// lookup, the recency that LRU eviction compares.
#[derive(Default)]
struct Slot {
    built: Mutex<Option<Arc<AnalysisSession>>>,
    last_used: AtomicU64,
}

/// The result of a [`ModuleCache::session_for`] lookup.
#[derive(Clone)]
pub struct CachedSession {
    /// The shared instrumented + translated session.
    pub session: Arc<AnalysisSession>,
    /// `true` if the entry already existed (this lookup paid nothing).
    pub hit: bool,
    /// Wall time of the fused direct-emit build (validate + instrument +
    /// translate in one pass) paid *by this lookup* — zero on a hit.
    /// There is no instrument/translate split: the direct-emit path has
    /// no internal phase boundary to attribute one to.
    pub build: Duration,
}

impl std::fmt::Debug for CachedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedSession")
            .field("hit", &self.hit)
            .field("build", &self.build)
            .finish()
    }
}

/// Keyed cache of instrumented, translated modules — see the
/// [module docs](crate::cache) for the contract and an example.
#[derive(Default)]
pub struct ModuleCache {
    entries: Mutex<HashMap<CacheKey, Arc<Slot>>>,
    /// Maximum number of entries; `None` = unbounded (the pre-daemon
    /// behavior, still right for one-shot batch runs).
    capacity: Option<usize>,
    /// Logical clock: incremented on every lookup, stamped into the
    /// touched slot's `last_used`.
    clock: AtomicU64,
    /// Second tier: on-disk prepared sessions, consulted on a memory miss
    /// before building and written back after every build (memory → disk
    /// → build). `None` = memory-only (the default).
    disk: Option<DiskCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    evictions: AtomicU64,
}

impl ModuleCache {
    /// An empty cache.
    pub fn new() -> Self {
        ModuleCache::default()
    }

    /// An empty cache behind an `Arc`, ready to share across a
    /// [`crate::fleet::Fleet`] and its submitters.
    pub fn shared() -> Arc<Self> {
        Arc::new(ModuleCache::new())
    }

    /// An empty cache holding at most `capacity` entries (clamped to at
    /// least 1). Past the cap, completing a build evicts the
    /// least-recently-used *built* entry; entries mid-build are never
    /// evicted. Evicted sessions stay alive for whoever still holds
    /// their `Arc` — eviction only forgets the cache's own reference, so
    /// the evicted key rebuilds on its next request.
    pub fn bounded(capacity: usize) -> Self {
        ModuleCache {
            capacity: Some(capacity.max(1)),
            ..ModuleCache::default()
        }
    }

    /// Attach an on-disk second tier: memory misses consult `disk` before
    /// building, and every completed build is written back to it — so a
    /// fresh process (a restarted daemon) warm-starts known modules from
    /// small file reads instead of rebuilds. Disk entries survive memory
    /// LRU eviction *and* process exit; a corrupt or stale entry is a
    /// disk miss and gets overwritten by the rebuild
    /// ([`crate::diskcache`]).
    #[must_use]
    pub fn with_disk(mut self, disk: DiskCache) -> Self {
        self.disk = Some(disk);
        self
    }

    /// The session for `(key, hooks)`, building it from `module` exactly
    /// once per distinct key.
    ///
    /// Concurrent lookups of the **same** key block until the first
    /// completes, then hit; lookups of distinct keys build concurrently.
    /// `module` is only read on a miss; the caller guarantees that equal
    /// keys always name equal modules. A session built or loaded on a miss
    /// shares `module` (it keeps a clone of the `Arc`, not of the module).
    ///
    /// # Errors
    ///
    /// Fails if the module does not validate. Errors are not cached — a
    /// later lookup of the same key retries the build.
    pub fn session_for(
        &self,
        key: &str,
        hooks: HookSet,
        module: &Arc<Module>,
    ) -> Result<CachedSession, ValidationError> {
        let slot = {
            let mut entries = self.entries.lock().unwrap();
            Arc::clone(
                entries
                    .entry(CacheKey {
                        module: key.to_string(),
                        hooks,
                    })
                    .or_default(),
            )
        };
        // Stamp recency on every lookup (hit or miss): LRU eviction
        // compares these logical-clock values.
        slot.last_used.store(
            self.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );

        let mut built = slot.built.lock().unwrap();
        if let Some(session) = &*built {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(CachedSession {
                session: Arc::clone(session),
                hit: true,
                build: Duration::ZERO,
            });
        }

        // Memory miss: consult the disk tier, then build — all while
        // holding the slot lock, so same-key racers wait for this one
        // build instead of duplicating it.
        let start = Instant::now();
        let disk_loaded = self.disk.as_ref().and_then(|disk| {
            let loaded = disk.load(key, hooks, module);
            if loaded.is_some() {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
            } else {
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
            }
            loaded
        });
        let session = match disk_loaded {
            Some(session) => Arc::new(session),
            None => {
                // Failpoint: a `delay` here stalls every same-key racer
                // (they wait on this slot's build), a `panic` unwinds
                // into the caller's containment, an `error` surfaces as
                // a structured build failure.
                if let Some(msg) = crate::fault::fire("cache/build") {
                    return Err(ValidationError::module(msg));
                }
                // Entries are built via the direct-emit path — the whole
                // point of fusing instrument and translate is that every
                // cache miss gets cheaper — and written back to the disk
                // tier (overwriting any corrupt entry that just missed).
                let (translated, info) = Instrumenter::new(hooks).run_direct(Arc::clone(module))?;
                let session = Arc::new(AnalysisSession::from_direct(translated, info));
                if let Some(disk) = &self.disk {
                    disk.store(key, hooks, &session);
                }
                session
            }
        };
        let build = start.elapsed();

        *built = Some(Arc::clone(&session));
        self.misses.fetch_add(1, Ordering::Relaxed);
        drop(built);
        self.evict_past_capacity(&slot);
        Ok(CachedSession {
            session,
            hit: false,
            build,
        })
    }

    /// Drop least-recently-used entries until the map fits the capacity
    /// bound. `keep` is the slot the caller just built — never a victim,
    /// even if a racing lookup has not re-stamped it yet. Slots still
    /// mid-build (their `built` mutex is held, or holds `None`) are
    /// skipped: evicting one would discard a build another thread is
    /// paying for right now.
    fn evict_past_capacity(&self, keep: &Arc<Slot>) {
        let Some(capacity) = self.capacity else {
            return;
        };
        let mut entries = self.entries.lock().unwrap();
        while entries.len() > capacity {
            let victim = entries
                .iter()
                .filter(|(_, slot)| !Arc::ptr_eq(slot, keep))
                .filter(|(_, slot)| {
                    slot.built
                        .try_lock()
                        .map(|built| built.is_some())
                        .unwrap_or(false)
                })
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(key, _)| key.clone());
            let Some(victim) = victim else {
                // Everything over the cap is mid-build; those builders'
                // completions will re-run eviction.
                break;
            };
            entries.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of lookups that found an existing entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups the in-memory tier could not serve (each either
    /// loaded from the disk tier or performed a fused direct-emit build —
    /// split by [`disk_hits`](ModuleCache::disk_hits) /
    /// [`disk_misses`](ModuleCache::disk_misses) when a disk tier is
    /// attached; with none, every miss is a build).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Memory misses served by loading a prepared session from the disk
    /// tier (no rebuild). Always 0 without [`with_disk`](ModuleCache::with_disk).
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Memory misses the disk tier could not serve either (absent,
    /// corrupt, or stale entry) — each one paid a full build. Always 0
    /// without [`with_disk`](ModuleCache::with_disk).
    pub fn disk_misses(&self) -> u64 {
        self.disk_misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by LRU eviction (always 0 for an unbounded cache).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The entry cap, if this cache is [`bounded`](ModuleCache::bounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of distinct `(module key, hook set)` entries.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// `true` if no entry has been requested yet.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().unwrap().is_empty()
    }

    /// Drop all entries (counters are kept). Subsequent lookups rebuild.
    pub fn clear(&self) {
        self.entries.lock().unwrap().clear();
    }
}

impl std::fmt::Debug for ModuleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModuleCache")
            .field("entries", &self.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("disk", &self.disk.as_ref().map(DiskCache::dir))
            .field("disk_hits", &self.disk_hits())
            .field("disk_misses", &self.disk_misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_wasm::builder::ModuleBuilder;
    use wasabi_wasm::ValType;

    fn module(answer: i32) -> Arc<Module> {
        let mut builder = ModuleBuilder::new();
        builder.function("main", &[], &[ValType::I32], |f| {
            f.i32_const(answer);
        });
        Arc::new(builder.finish())
    }

    #[test]
    fn distinct_keys_build_distinct_entries() {
        let cache = ModuleCache::new();
        let a = cache
            .session_for("a", HookSet::all(), &module(1))
            .expect("builds");
        let b = cache
            .session_for("b", HookSet::all(), &module(2))
            .expect("builds");
        assert!(!a.hit && !b.hit);
        assert!(!Arc::ptr_eq(&a.session, &b.session));
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn miss_reports_build_time_and_hit_reports_zero() {
        let cache = ModuleCache::new();
        let miss = cache
            .session_for("m", HookSet::all(), &module(7))
            .expect("builds");
        assert!(miss.build > Duration::ZERO);
        let hit = cache
            .session_for("m", HookSet::all(), &module(7))
            .expect("hits");
        assert!(hit.hit);
        assert_eq!(hit.build, Duration::ZERO);
    }

    #[test]
    fn sessions_share_the_callers_module() {
        let dir = std::env::temp_dir().join(format!("wasabi-cache-share-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = module(8);
        let cold = ModuleCache::new().with_disk(DiskCache::new(&dir).expect("creates dir"));
        let built = cold.session_for("k", HookSet::all(), &m).expect("builds");
        assert!(!built.hit);
        assert!(std::ptr::eq(built.session.module(), Arc::as_ptr(&m)));

        // A restarted cache loads the session from the disk tier, and that
        // session shares the module too.
        let warm = ModuleCache::new().with_disk(DiskCache::new(&dir).expect("opens dir"));
        let loaded = warm.session_for("k", HookSet::all(), &m).expect("loads");
        assert_eq!(warm.disk_hits(), 1);
        assert!(std::ptr::eq(loaded.session.module(), Arc::as_ptr(&m)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_same_key_lookups_build_exactly_once() {
        let cache = ModuleCache::new();
        let module = module(3);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    cache
                        .session_for("shared", HookSet::all(), &module)
                        .expect("builds or hits")
                });
            }
        });
        assert_eq!(cache.misses(), 1, "one translation per distinct module");
        assert_eq!(cache.hits(), 7);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn validation_errors_are_not_cached() {
        // A function body leaving the wrong type on the stack fails
        // validation.
        let mut builder = ModuleBuilder::new();
        builder.function("main", &[], &[ValType::I32], |f| {
            f.i64_const(1);
        });
        let bad = Arc::new(builder.finish());
        let cache = ModuleCache::new();
        assert!(cache.session_for("bad", HookSet::all(), &bad).is_err());
        assert_eq!(cache.misses(), 0);
        // The same key can later be built from a fixed module.
        let good = module(1);
        assert!(cache.session_for("bad", HookSet::all(), &good).is_ok());
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn bounded_cache_evicts_the_coldest_key_and_rebuilds_on_rerequest() {
        let cache = ModuleCache::bounded(2);
        let (a, b, c) = (module(1), module(2), module(3));
        cache.session_for("a", HookSet::all(), &a).expect("builds");
        cache.session_for("b", HookSet::all(), &b).expect("builds");
        assert_eq!((cache.len(), cache.evictions()), (2, 0));

        // Touch "a" so "b" is now the coldest entry, then overflow.
        cache.session_for("a", HookSet::all(), &a).expect("hits");
        cache.session_for("c", HookSet::all(), &c).expect("builds");
        assert_eq!(cache.len(), 2, "capacity bound holds");
        assert_eq!(cache.evictions(), 1);

        // The hot key survived, the cold one was evicted and rebuilds.
        assert!(cache.session_for("a", HookSet::all(), &a).expect("hit").hit);
        let b_again = cache
            .session_for("b", HookSet::all(), &b)
            .expect("rebuilds");
        assert!(!b_again.hit, "evicted key rebuilds on re-request");
        assert_eq!(cache.misses(), 4, "a, b, c, and the b rebuild");
        assert_eq!(
            cache.evictions(),
            2,
            "rebuilding b evicted the next-coldest"
        );
    }

    #[test]
    fn bounded_cache_keeps_distinct_hook_sets_as_distinct_entries() {
        let cache = ModuleCache::bounded(1);
        let m = module(4);
        let all = cache.session_for("m", HookSet::all(), &m).expect("builds");
        let none = cache
            .session_for("m", HookSet::empty(), &m)
            .expect("builds");
        assert!(!Arc::ptr_eq(&all.session, &none.session));
        assert_eq!(cache.len(), 1, "capacity 1 holds one of the two");
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = ModuleCache::new();
        for i in 0..16 {
            cache
                .session_for(&format!("k{i}"), HookSet::all(), &module(i))
                .expect("builds");
        }
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.capacity(), None);
    }

    #[test]
    fn concurrent_lookups_respect_the_capacity_bound() {
        let cache = ModuleCache::bounded(2);
        let modules: Vec<Arc<Module>> = (0..6).map(module).collect();
        let cache_ref = &cache;
        std::thread::scope(|s| {
            for (i, m) in modules.iter().enumerate() {
                s.spawn(move || {
                    cache_ref
                        .session_for(&format!("k{i}"), HookSet::all(), m)
                        .expect("builds or hits")
                });
            }
        });
        assert!(cache.len() <= 2, "len {} over capacity", cache.len());
        assert_eq!(cache.evictions(), cache.misses() - cache.len() as u64);
    }

    #[test]
    fn disk_tier_survives_a_cache_restart() {
        let dir = std::env::temp_dir().join(format!("wasabi-cache-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = module(6);
        let cold = ModuleCache::new().with_disk(DiskCache::new(&dir).expect("creates dir"));
        let first = cold.session_for("k", HookSet::all(), &m).expect("builds");
        assert!(!first.hit);
        assert_eq!((cold.disk_hits(), cold.disk_misses()), (0, 1), "cold build");

        // A fresh cache over the same directory — a restarted daemon.
        let warm = ModuleCache::new().with_disk(DiskCache::new(&dir).expect("opens dir"));
        let second = warm.session_for("k", HookSet::all(), &m).expect("loads");
        assert!(!second.hit, "memory tier is cold after restart");
        assert_eq!(
            (warm.disk_hits(), warm.disk_misses()),
            (1, 0),
            "served from the disk tier, no rebuild"
        );
        assert_eq!(
            second.session.translated().code_debug(),
            first.session.translated().code_debug(),
            "disk-loaded code is bit-identical to the built one"
        );
        // Third lookup: memory tier now holds it, disk untouched.
        assert!(warm.session_for("k", HookSet::all(), &m).expect("hits").hit);
        assert_eq!(warm.disk_hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn content_key_is_deterministic_and_content_sensitive() {
        let bytes = wasabi_wasm::encode::encode(&module(9));
        assert_eq!(content_key(&bytes), content_key(&bytes));
        let other = wasabi_wasm::encode::encode(&module(10));
        assert_ne!(content_key(&bytes), content_key(&other));
        assert!(content_key(&bytes).starts_with("fnv64:"));
        assert_eq!(content_key(&bytes).len(), "fnv64:".len() + 16);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let cache = ModuleCache::new();
        let m = module(5);
        cache.session_for("k", HookSet::all(), &m).expect("builds");
        cache.clear();
        assert!(cache.is_empty());
        cache
            .session_for("k", HookSet::all(), &m)
            .expect("rebuilds");
        assert_eq!(cache.misses(), 2);
    }
}
