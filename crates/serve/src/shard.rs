//! Deterministic sample-range sharding of a forecast's MC passes
//! (DESIGN.md §13).
//!
//! DeepSTUQ's served forecast reduces independent MC-dropout passes
//! (Eq. 19), so the cluster splits the *passes*, not the sensors: for an
//! `n`-pass forecast, shard `s` of `S` runs the contiguous range
//! `[s·n/S, (s+1)·n/S)`. The ranges are a pure function of `(n, S)` —
//! derived, never stored — so the router, every restarted worker, and every
//! test agree on them without coordination. When `n < S` some ranges are
//! empty; [`ShardMap::scatter`] omits them, so they cost no RPC.
//!
//! The map also carries a **replica dimension** (DESIGN.md §16): every
//! shard is served by `n_replicas` interchangeable workers, laid out
//! shard-major (`worker = shard · R + replica`). Replicas of a shard run the
//! same range from the same streams, which is why a replica failover never
//! changes response bytes.

use std::ops::Range;

/// `n_shards` sample-range shards, each served by `n_replicas`
/// interchangeable workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    n_shards: usize,
    n_replicas: usize,
}

impl ShardMap {
    /// A map over `n_shards` single-replica shards (clamped ≥ 1).
    pub fn new(n_shards: usize) -> Self {
        Self::replicated(n_shards, 1)
    }

    /// A map with `n_replicas` workers per shard (both clamped ≥ 1). The
    /// sample ranges are independent of the replica count.
    pub fn replicated(n_shards: usize, n_replicas: usize) -> Self {
        ShardMap { n_shards: n_shards.max(1), n_replicas: n_replicas.max(1) }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Replicas per shard.
    pub fn n_replicas(&self) -> usize {
        self.n_replicas
    }

    /// Total worker count (`shards × replicas`).
    pub fn n_workers(&self) -> usize {
        self.n_shards * self.n_replicas
    }

    /// Flat worker index backing `(shard, replica)` — shard-major, the
    /// derived assignment every component recomputes instead of storing.
    pub fn worker_index(&self, shard: usize, replica: usize) -> usize {
        assert!(shard < self.n_shards, "shard {shard} out of range ({})", self.n_shards);
        assert!(replica < self.n_replicas, "replica {replica} out of range ({})", self.n_replicas);
        shard * self.n_replicas + replica
    }

    /// The `(shard, replica)` pair a flat worker index serves.
    pub fn worker_role(&self, worker: usize) -> (usize, usize) {
        assert!(worker < self.n_workers(), "worker {worker} out of range ({})", self.n_workers());
        (worker / self.n_replicas, worker % self.n_replicas)
    }

    /// The passes shard `s` runs of an `n`-pass forecast:
    /// `[s·n/S, (s+1)·n/S)`.
    pub fn range(&self, s: usize, n: usize) -> Range<usize> {
        assert!(s < self.n_shards, "shard {s} out of range (cluster has {})", self.n_shards);
        s * n / self.n_shards..(s + 1) * n / self.n_shards
    }

    /// The non-empty `(shard, range)` pairs of an `n`-pass forecast, in
    /// shard (and therefore sample) order.
    pub fn scatter(&self, n: usize) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        (0..self.n_shards).map(move |s| (s, self.range(s, n))).filter(|(_, r)| !r.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_disjoint_and_total() {
        for (n, s) in [(10, 3), (621, 4), (7, 7), (5, 1), (3, 8), (1, 3), (0, 2)] {
            let map = ShardMap::new(s);
            let covered: Vec<usize> = map.scatter(n).flat_map(|(_, r)| r).collect();
            assert_eq!(
                covered,
                (0..n).collect::<Vec<_>>(),
                "n={n} s={s}: every pass once, in order"
            );
            let widths: Vec<usize> = (0..s).map(|sh| map.range(sh, n).len()).collect();
            let (lo, hi) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
            assert!(hi - lo <= 1, "n={n} s={s}: ranges balanced within one pass: {widths:?}");
        }
    }

    #[test]
    fn ranges_follow_the_floor_formula() {
        let map = ShardMap::new(3);
        assert_eq!(map.range(0, 10), 0..3);
        assert_eq!(map.range(1, 10), 3..6);
        assert_eq!(map.range(2, 10), 6..10);
        assert_eq!(ShardMap::new(0).n_shards(), 1, "shard count clamps to 1");
    }

    #[test]
    fn scatter_full_grid_covers_every_position() {
        // Every pass of every (n, S, R) on a small grid is scattered to
        // exactly the shard whose range holds it, in pass order.
        for shards in 1..=8 {
            for replicas in 1..=3 {
                let map = ShardMap::replicated(shards, replicas);
                for n in 0..=40 {
                    let mut next = 0;
                    for (s, r) in map.scatter(n) {
                        assert_eq!(r.start, next, "n={n} S={shards}: gap or overlap at shard {s}");
                        for j in r.clone() {
                            let owner = (0..shards).find(|&t| map.range(t, n).contains(&j));
                            assert_eq!(owner, Some(s), "n={n} S={shards}: pass {j}");
                        }
                        next = r.end;
                    }
                    assert_eq!(next, n, "n={n} S={shards}: every pass scattered");
                }
            }
        }
    }

    #[test]
    fn shard_count_clamps_to_node_count() {
        // A forecast touches at most one shard per pass: with fewer passes
        // than shards the empty ranges drop out, so the RPC count clamps to
        // min(n, S). The shard count itself clamps to at least one.
        for shards in 0..=6 {
            let map = ShardMap::new(shards);
            assert_eq!(map.n_shards(), shards.max(1));
            for n in 0..=12 {
                assert_eq!(map.scatter(n).count(), n.min(map.n_shards()), "n={n} S={shards}");
            }
        }
    }

    #[test]
    fn scatter_omits_untouched_shards() {
        // Fewer passes than shards: the empty ranges cost no RPC.
        let map = ShardMap::new(3);
        assert_eq!(map.scatter(1).collect::<Vec<_>>(), vec![(2, 0..1)]);
        assert_eq!(map.scatter(2).collect::<Vec<_>>(), vec![(1, 0..1), (2, 1..2)]);
        assert_eq!(map.scatter(0).count(), 0);
    }

    #[test]
    fn replica_dimension_is_shard_major_and_round_trips() {
        let map = ShardMap::replicated(3, 2);
        assert_eq!(map.n_replicas(), 2);
        assert_eq!(map.n_workers(), 6);
        for s in 0..3 {
            for r in 0..2 {
                let w = map.worker_index(s, r);
                assert_eq!(w, s * 2 + r);
                assert_eq!(map.worker_role(w), (s, r));
            }
        }
    }

    #[test]
    fn single_replica_map_matches_the_legacy_constructor() {
        let map = ShardMap::new(3);
        assert_eq!(map, ShardMap::replicated(3, 1));
        assert_eq!(map.n_workers(), map.n_shards());
        assert_eq!(map.worker_index(2, 0), 2, "R=1: worker index == shard index");
        assert_eq!(ShardMap::replicated(3, 0).n_replicas(), 1, "replicas clamp to 1");
    }

    #[test]
    fn replicas_never_move_the_sample_ranges() {
        for r in 1..=4 {
            let map = ShardMap::replicated(4, r);
            let solo = ShardMap::new(4);
            for s in 0..4 {
                assert_eq!(map.range(s, 10), solo.range(s, 10), "replicas={r} shard={s}");
            }
        }
    }
}
