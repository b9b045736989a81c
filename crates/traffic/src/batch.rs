//! Mini-batch iteration over window start indices.

use stuq_tensor::StuqRng;

/// Yields shuffled mini-batches of window start indices, one epoch at a time.
///
/// The iterator owns a copy of the start indices; call [`BatchIter::reshuffle`]
/// between epochs (or construct a fresh iterator) to draw a new order.
pub struct BatchIter {
    starts: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl BatchIter {
    /// Creates a shuffled batch iterator.
    pub fn new(mut starts: Vec<usize>, batch_size: usize, rng: &mut StuqRng) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        rng.shuffle(&mut starts);
        Self { starts, batch_size, cursor: 0 }
    }

    /// Creates a sequential (unshuffled) iterator — used for evaluation.
    pub fn sequential(starts: Vec<usize>, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        Self { starts, batch_size, cursor: 0 }
    }

    /// Reshuffles and rewinds for the next epoch.
    pub fn reshuffle(&mut self, rng: &mut StuqRng) {
        rng.shuffle(&mut self.starts);
        self.cursor = 0;
    }

    /// Rewinds without reshuffling.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }
}

impl Iterator for BatchIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.cursor >= self.starts.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.starts.len());
        let batch = self.starts[self.cursor..end].to_vec();
        self.cursor = end;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_start_exactly_once() {
        let mut rng = StuqRng::new(5);
        let iter = BatchIter::new((0..103).collect(), 16, &mut rng);
        let mut seen: Vec<usize> = iter.flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn last_batch_may_be_short() {
        let mut rng = StuqRng::new(5);
        let batches: Vec<_> = BatchIter::new((0..10).collect(), 4, &mut rng).collect();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[2].len(), 2);
    }

    #[test]
    fn sequential_preserves_order() {
        let batches: Vec<_> = BatchIter::sequential((0..6).collect(), 2).collect();
        assert_eq!(batches, vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
    }

    #[test]
    fn reshuffle_changes_order() {
        let mut rng = StuqRng::new(5);
        let mut iter = BatchIter::new((0..64).collect(), 64, &mut rng);
        let first = iter.next().unwrap();
        iter.reshuffle(&mut rng);
        let second = iter.next().unwrap();
        assert_ne!(first, second);
    }
}
