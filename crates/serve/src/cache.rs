//! Per-tick forecast cache (DESIGN.md §12).
//!
//! The cache fronts the model: a hit answers a forecast request without a
//! single forward pass. Entries hold the *full grid* — raw-unit μ and total
//! σ over every node and the whole horizon — so one computed forecast
//! serves any node-subset / horizon-prefix slice of itself (the per-node
//! part of the key from the issue becomes response slicing, strictly more
//! sharing than keying per subset).
//!
//! A key is the request key that also groups co-batched requests (window
//! hash, seed derivation, `n_samples`) plus the model generation and the
//! data tick. Only requests whose RNG is a pure function of their fields
//! (an explicit `seed` or a `tick` to derive one from) are cacheable —
//! legacy seedless requests draw from the arrival-indexed server fork, so
//! two of them never produce the same bytes and caching them would be a
//! correctness bug, not an optimisation. Hash collisions are ruled out by
//! storing the window's exact bit pattern and comparing it on every hit.
//!
//! Staleness is handled three ways, all required by the serving contract:
//! the TTL (`--cache-ttl-ms`, the data cadence) expires entries against the
//! *server* clock — under `STUQ_FAKE_CLOCK` that is logical time, so expiry
//! is as deterministic as everything else; the generation field keys every
//! entry to the model artifact that produced it; and the whole cache is
//! dropped on a hot-reload swap and on breaker-open, so a stale generation
//! can never leak even within a tick.

use std::collections::{HashMap, VecDeque};

use stuq_tensor::Tensor;

use crate::batcher::RequestKey;

/// Full cache key. The request key's `x_hash` is FNV-1a over the window's
/// f32 bit pattern; exactness comes from the entry-side bit comparison,
/// not the hash.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Reload generation of the model that computed the entry.
    pub(crate) generation: u64,
    /// Data tick the request declared (None for explicitly-seeded requests
    /// without one).
    pub(crate) tick: Option<u64>,
    /// Window hash, seed derivation and sample count.
    pub(crate) request: RequestKey,
}

/// A cached full-grid forecast in raw units.
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// Raw input window, the collision guard for `x_hash` (compared bit
    /// for bit).
    pub x_raw: Vec<f32>,
    /// Predictive mean `[N, τ]`, raw units.
    pub mu_raw: Tensor,
    /// Total predictive σ `[N, τ]`, raw units (envelope already applied).
    pub sigma_raw: Tensor,
    /// Samples the cached run used (uncut, so == requested).
    pub samples_used: usize,
    /// Samples the cached run was asked for.
    pub samples_requested: usize,
    /// Server-clock insertion time, for TTL expiry.
    pub at_ms: u64,
}

/// FNV-1a over the bit pattern of a float slice. Stable across platforms
/// and runs — part of the determinism surface, so no `DefaultHasher`.
pub fn hash_window(data: &[f32]) -> u64 {
    data.iter().fold(stuq_artifact::FNV1A64_OFFSET, |h, v| {
        stuq_artifact::fnv1a64_fold(h, &v.to_bits().to_le_bytes())
    })
}

/// True when two windows have the same f32 bit patterns — the exact
/// compare behind [`hash_window`]'s prefilter, for grouping and for hits.
pub(crate) fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.iter().map(|v| v.to_bits()).eq(b.iter().map(|v| v.to_bits()))
}

/// Bounded TTL cache with FIFO eviction. Insertion order drives eviction —
/// never map iteration order — so behaviour is deterministic.
pub struct ForecastCache {
    cap: usize,
    ttl_ms: u64,
    map: HashMap<CacheKey, CacheEntry>,
    order: VecDeque<CacheKey>,
}

impl ForecastCache {
    /// A cache holding at most `cap` entries, each living `ttl_ms`.
    pub fn new(cap: usize, ttl_ms: u64) -> Self {
        ForecastCache { cap: cap.max(1), ttl_ms, map: HashMap::new(), order: VecDeque::new() }
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a key and its window `x` at server time `now_ms`. Expired
    /// entries and hash collisions (key matches, window bits do not) both
    /// miss; an expired entry is dropped on the spot.
    pub fn get(&mut self, key: &CacheKey, x: &[f32], now_ms: u64) -> Option<&CacheEntry> {
        let expired = match self.map.get(key) {
            None => return None,
            Some(e) => now_ms.saturating_sub(e.at_ms) >= self.ttl_ms,
        };
        if expired {
            self.map.remove(key);
            self.order.retain(|k| k != key);
            return None;
        }
        self.map.get(key).filter(|e| same_bits(&e.x_raw, x))
    }

    /// Inserts an entry, evicting the oldest insertion when at capacity.
    /// Returns the number of evictions (0 or 1; re-inserting an existing
    /// key replaces it in place).
    pub fn insert(&mut self, key: CacheKey, entry: CacheEntry) -> usize {
        let mut evicted = 0;
        if self.map.insert(key.clone(), entry).is_none() {
            self.order.push_back(key);
            while self.map.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                    evicted += 1;
                } else {
                    break;
                }
            }
        }
        evicted
    }

    /// Drops everything (hot-reload swap, breaker-open). Returns how many
    /// entries were invalidated.
    pub fn clear(&mut self) -> usize {
        let n = self.map.len();
        self.map.clear();
        self.order.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_hash_is_fnv1a64_of_the_little_endian_bits() {
        let xs = [1.5f32, -0.0, f32::NAN, f32::from_bits(1), 3.0e38];
        let bytes: Vec<u8> = xs.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        assert_eq!(hash_window(&xs), stuq_artifact::fnv1a64(&bytes));
        assert_eq!(hash_window(&[]), stuq_artifact::fnv1a64(b""));
    }

    fn key(tick: u64) -> CacheKey {
        use crate::batcher::SeedSpec;
        let request = RequestKey { x_hash: 42, seed: SeedSpec::FromTick(tick), n_samples: 8 };
        CacheKey { generation: 1, tick: Some(tick), request }
    }

    /// The window whose f32 bit patterns are `bits`.
    fn w(bits: &[u32]) -> Vec<f32> {
        bits.iter().map(|&b| f32::from_bits(b)).collect()
    }

    fn entry(at_ms: u64) -> CacheEntry {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        CacheEntry {
            x_raw: w(&[7, 8]),
            mu_raw: t.clone(),
            sigma_raw: t,
            samples_used: 8,
            samples_requested: 8,
            at_ms,
        }
    }

    #[test]
    fn hit_requires_exact_window_bits() {
        let mut c = ForecastCache::new(4, 100);
        c.insert(key(1), entry(0));
        assert!(c.get(&key(1), &w(&[7, 8]), 10).is_some());
        assert!(c.get(&key(1), &w(&[7, 9]), 10).is_none(), "hash collision must miss");
        assert!(c.get(&key(2), &w(&[7, 8]), 10).is_none(), "different tick must miss");
    }

    #[test]
    fn ttl_expires_against_the_given_clock() {
        let mut c = ForecastCache::new(4, 50);
        c.insert(key(1), entry(100));
        assert!(c.get(&key(1), &w(&[7, 8]), 149).is_some());
        assert!(c.get(&key(1), &w(&[7, 8]), 150).is_none(), "age == ttl expires");
        assert_eq!(c.len(), 0, "expired entries are dropped");
    }

    #[test]
    fn capacity_evicts_oldest_insertion_first() {
        let mut c = ForecastCache::new(2, 1000);
        assert_eq!(c.insert(key(1), entry(0)), 0);
        assert_eq!(c.insert(key(2), entry(0)), 0);
        assert_eq!(c.insert(key(3), entry(0)), 1, "third insert evicts");
        assert!(c.get(&key(1), &w(&[7, 8]), 1).is_none(), "oldest goes first");
        assert!(c.get(&key(2), &w(&[7, 8]), 1).is_some());
        assert!(c.get(&key(3), &w(&[7, 8]), 1).is_some());
    }

    #[test]
    fn clear_reports_the_invalidated_count() {
        let mut c = ForecastCache::new(4, 1000);
        c.insert(key(1), entry(0));
        c.insert(key(2), entry(0));
        assert_eq!(c.clear(), 2);
        assert!(c.is_empty());
        assert!(c.get(&key(1), &w(&[7, 8]), 1).is_none());
    }

    #[test]
    fn window_hash_is_stable_and_bit_sensitive() {
        let a = hash_window(&[1.0, 2.0]);
        assert_eq!(a, hash_window(&[1.0, 2.0]));
        let two_next = f32::from_bits(2.0f32.to_bits() + 1);
        assert_ne!(a, hash_window(&[1.0, two_next]), "one ulp must change the hash");
        // 0.0 and -0.0 compare equal as floats but are different windows
        // bit-wise; the cache guards with bits, so the hash may differ.
        assert_ne!(hash_window(&[0.0]), hash_window(&[-0.0]));
    }
}
