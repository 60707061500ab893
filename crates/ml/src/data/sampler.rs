//! Mini-batch sampling over a client's sample indices.

use rand::seq::SliceRandom;
use rand::Rng;

/// Epoch-based mini-batch sampler over a single client's shard.
///
/// Samples are visited in a random order that is reshuffled every epoch; when
/// the shard is smaller than the batch size the whole shard is returned. This
/// matches the paper's setup of a fixed mini-batch size of 32 per client per
/// round.
///
/// The sampler draws *indices*; the caller fetches the rows they name (the
/// FL round engine asks its `ShardSource` for exactly those rows), so a
/// batch costs no copy of the shard and no allocation once the caller's
/// index buffer has grown.
///
/// # Examples
///
/// ```
/// use agsfl_ml::data::MinibatchSampler;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut sampler = MinibatchSampler::new(10, 4);
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let mut indices = Vec::new();
/// sampler.next_indices_into(&mut rng, &mut indices);
/// assert_eq!(indices.len(), 4);
/// assert!(indices.iter().all(|&i| i < 10));
/// ```
#[derive(Debug, Clone)]
pub struct MinibatchSampler {
    batch_size: usize,
    order: Vec<usize>,
    cursor: usize,
}

impl MinibatchSampler {
    /// Creates a sampler over a shard of `len` samples.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new(len: usize, batch_size: usize) -> Self {
        Self::from_epoch((0..len).collect(), 0, batch_size)
    }

    /// A sampler resuming the epoch `order` at `cursor`, as
    /// [`MinibatchSampler::order`]/[`MinibatchSampler::cursor`] captured
    /// it, so a resumed run draws exactly the batches the uninterrupted run
    /// would. Nothing is checked beyond the batch size: the caller
    /// validates that `order` is a permutation of the shard's samples and
    /// that `cursor` is in range (the FL checkpoint reader returns a typed
    /// error where this would panic later).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn from_epoch(order: Vec<usize>, cursor: usize, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        Self {
            batch_size,
            order,
            cursor,
        }
    }

    /// Configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The current epoch's visit order (for checkpointing).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Position of the next sample within [`MinibatchSampler::order`]
    /// (for checkpointing).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Resets the sampler to the start of a fresh identity-order epoch over
    /// a shard of `len` samples, reusing the order buffer's capacity.
    ///
    /// Equivalent to `MinibatchSampler::new` over the new shard, but
    /// allocation-free once the buffer has grown.
    pub fn reset_identity(&mut self, len: usize) {
        self.order.clear();
        self.order.extend(0..len);
        self.cursor = 0;
    }

    /// Writes the next mini-batch's sample indices into `out` (cleared
    /// first), reshuffling at epoch boundaries.
    ///
    /// The indices are rows of the shard: the caller fetches their data,
    /// and the derivative-sign estimator re-evaluates the loss of one of
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if the shard is empty.
    pub fn next_indices_into<R: Rng + ?Sized>(&mut self, rng: &mut R, out: &mut Vec<usize>) {
        assert!(!self.order.is_empty(), "cannot sample from an empty shard");
        let effective = self.batch_size.min(self.order.len());
        out.clear();
        while out.len() < effective {
            if self.cursor == 0 {
                self.order.shuffle(rng);
            }
            out.push(self.order[self.cursor]);
            self.cursor = (self.cursor + 1) % self.order.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The next batch's indices, through a fresh buffer.
    fn next(sampler: &mut MinibatchSampler, rng: &mut ChaCha8Rng) -> Vec<usize> {
        let mut out = Vec::new();
        sampler.next_indices_into(rng, &mut out);
        out
    }

    #[test]
    fn batch_has_requested_size() {
        let mut sampler = MinibatchSampler::new(10, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let idx = next(&mut sampler, &mut rng);
        assert_eq!(idx.len(), 4);
        assert!(idx.iter().all(|&i| i < 10));
    }

    #[test]
    fn small_shard_returns_whole_shard() {
        let mut sampler = MinibatchSampler::new(3, 32);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut idx = next(&mut sampler, &mut rng);
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn every_sample_visited_once_per_epoch() {
        let mut sampler = MinibatchSampler::new(8, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut seen = Vec::new();
        for _ in 0..2 {
            seen.extend(next(&mut sampler, &mut rng));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn reused_buffer_is_overwritten() {
        let mut a = MinibatchSampler::new(9, 4);
        let mut b = a.clone();
        let mut rng_a = ChaCha8Rng::seed_from_u64(3);
        let mut rng_b = rng_a.clone();
        let mut reused = vec![7; 20];
        for _ in 0..5 {
            a.next_indices_into(&mut rng_a, &mut reused);
            assert_eq!(reused, next(&mut b, &mut rng_b));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = MinibatchSampler::new(9, 4);
        let mut b = MinibatchSampler::new(9, 4);
        let mut rng_a = ChaCha8Rng::seed_from_u64(5);
        let mut rng_b = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..5 {
            assert_eq!(next(&mut a, &mut rng_a), next(&mut b, &mut rng_b));
        }
    }

    #[test]
    fn from_epoch_resumes_mid_epoch() {
        let mut a = MinibatchSampler::new(9, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        next(&mut a, &mut rng); // leaves the cursor mid-epoch
        let mut b = MinibatchSampler::from_epoch(a.order().to_vec(), a.cursor(), 4);
        let mut rng_b = rng.clone();
        for _ in 0..6 {
            assert_eq!(next(&mut a, &mut rng), next(&mut b, &mut rng_b));
        }
    }

    #[test]
    #[should_panic]
    fn empty_shard_panics() {
        let mut sampler = MinibatchSampler::new(0, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let _ = next(&mut sampler, &mut rng);
    }

    #[test]
    #[should_panic]
    fn zero_batch_size_panics() {
        let _ = MinibatchSampler::new(4, 0);
    }
}
