//! Schedule-free generation: fixed-width blocks of one `ChaCha8Rng`
//! stream, each drawn from its own seeked copy.
//!
//! The synthetic generators draw everything from one master stream, in
//! one order. Most of it is Gaussians, and every Gaussian costs exactly
//! two keystream words ([`normal_words`]), so a block of them — a
//! prototype row, a writer's style, one sample row — has a width known
//! before it is drawn. A generator's sequential pass makes only the
//! variable-length draws (shuffles, preference weights, rejection-sampled
//! classes) on the master stream and [`skip`]s over every fixed-width
//! block, recording the word it starts at. [`fill_seeked`] then draws the
//! blocks on the pool, each from a clone of the master seeked to its
//! start word. Every block reads exactly the words the sequential
//! generator would have given it, whichever worker draws it and in
//! whatever order, so any worker count writes the same bytes and leaves
//! the master stream where the sequential generator leaves it.

use agsfl_exec::Executor;
use rand_chacha::ChaCha8Rng;

/// Keystream words `n` Gaussians draw from a `ChaCha8Rng`: exactly two
/// each, whatever their values.
///
/// `init::standard_normal` draws `gen_range(f32::MIN_POSITIVE..1.0)` and
/// then `gen::<f32>()`. The second is one word by construction. The first
/// is a rejection loop that never rejects: the span `1.0 − MIN_POSITIVE`
/// rounds to `1.0`, and the unit draw is at most `1 − 2⁻²³`, so the
/// candidate `unit + MIN_POSITIVE` rounds to at most `1 − 2⁻²³ < 1.0`.
pub(crate) fn normal_words(n: usize) -> u128 {
    2 * n as u128
}

/// Moves `rng` past a block of `words` keystream words without drawing
/// them, and returns the word the block starts at.
pub(crate) fn skip(rng: &mut ChaCha8Rng, words: u128) -> u128 {
    let start = rng.get_word_pos();
    rng.set_word_pos(start + words);
    start
}

/// Draws every block of `blocks` on `exec`'s pool: `fill` gets a clone
/// of `master` seeked to the block's start word and must consume exactly
/// `width` words (checked in debug builds). One region per call, the
/// blocks split across the workers in contiguous runs.
pub(crate) fn fill_seeked<T: Send>(
    exec: &Executor,
    master: &ChaCha8Rng,
    width: u128,
    blocks: &mut [(u128, T)],
    fill: impl Fn(&mut ChaCha8Rng, &mut T) + Sync,
) {
    exec.map_mut(blocks, |(start, out)| {
        let mut rng = master.clone();
        rng.set_word_pos(*start);
        fill(&mut rng, out);
        debug_assert_eq!(
            rng.get_word_pos(),
            *start + width,
            "a block drew other than its width"
        );
    });
}
