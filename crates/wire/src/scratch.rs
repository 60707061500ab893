//! Reusable encode workspace.

use agsfl_sparse::topk;

use crate::codec::Codec;

/// Smallest capacity (bytes or entries) a scratch buffer bothers shrinking
/// below — tiny buffers are never worth releasing.
const SHRINK_FLOOR: usize = 256;

/// Grow-only-with-decay policy shared by the workspace buffers: tracks an
/// exponentially decaying demand high-water mark and releases capacity once
/// it exceeds four times the recent demand. Long runs whose message sizes
/// drop (e.g. a cohort shrinking between rounds) stop pinning their
/// high-water-mark allocation after a few uses, while steady-state buffers
/// never shrink (demand stays at the observed size, so the 4× guard never
/// trips) and thus stay allocation-free.
pub(crate) fn note_demand_and_shrink<T>(buf: &mut Vec<T>, demand: &mut usize, used: usize) {
    *demand = used.max(*demand / 2).max(SHRINK_FLOOR);
    if buf.capacity() > *demand * 4 {
        buf.shrink_to(*demand * 2);
    }
}

/// Reusable workspace for [`Codec::encode_into`], matching the house style
/// of `agsfl_sparse::SelectionScratch` and `agsfl_ml`'s `Im2colScratch`:
/// reusable buffers invalidated by a generation bump, so steady-state
/// encoding performs no heap allocation.
///
/// * `frame` — the output byte buffer; it grows to the largest frame in
///   recent use (capacity decays when demand drops, see below) and is
///   logically cleared by starting a new generation.
/// * `staging` — an index-sort buffer used by
///   [`WireScratch::encode_unsorted`] and
///   [`WireScratch::encoded_len_unsorted`] to canonicalize rank-ordered
///   uplink messages before encoding or pricing them.
///
/// Each encode starts a new generation (see [`WireScratch::generation`]);
/// the byte slice returned by an encode borrows the workspace, so the
/// borrow checker guarantees a frame is copied out or consumed before the
/// next generation can overwrite it. The workspace carries no message
/// state across calls: encoding the same message twice yields identical
/// bytes.
///
/// Capacity is **demand-tracked, not grow-only**: each buffer remembers an
/// exponentially decaying high-water mark of recent use and releases
/// memory once its capacity exceeds four times that demand, so a workspace
/// that once encoded a huge message does not pin that allocation forever.
/// In steady state (stable message sizes) no allocation or release ever
/// happens.
#[derive(Debug, Clone, Default)]
pub struct WireScratch {
    generation: u64,
    frame: Vec<u8>,
    frame_demand: usize,
    staging: Vec<(usize, f32)>,
    staging_demand: usize,
}

impl WireScratch {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of frames encoded through this workspace so far. Each encode
    /// bumps the generation, invalidating the previous frame in O(1) (the
    /// buffer's capacity is retained while demand warrants it).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Current capacity of the frame buffer in bytes (for memory audits).
    pub fn frame_capacity(&self) -> usize {
        self.frame.capacity()
    }

    /// Starts a new encode generation and hands out the (cleared) frame
    /// buffer.
    pub(crate) fn begin(&mut self) -> &mut Vec<u8> {
        self.generation += 1;
        let used = self.frame.len();
        note_demand_and_shrink(&mut self.frame, &mut self.frame_demand, used);
        self.frame.clear();
        &mut self.frame
    }

    /// The current generation's frame bytes.
    pub(crate) fn frame(&self) -> &[u8] {
        &self.frame
    }

    /// Encodes a message whose entries are in **arbitrary order** (e.g. the
    /// magnitude-ranked uplink messages of the top-k sparsifiers): the
    /// entries are staged index-sorted in the workspace, then encoded.
    ///
    /// The entry order is presentation, not payload — a lossless codec
    /// carries the `(index, value)` *set*, and the receiver re-derives any
    /// rank order it needs (see `agsfl_fl`'s wire path).
    ///
    /// # Panics
    ///
    /// Panics if `entries` contains a duplicate or out-of-range index
    /// (debug: duplicates are caught by the strict-ordering assertion in the
    /// codec; release: out-of-range indices are caught by the encoder).
    pub fn encode_unsorted(
        &mut self,
        codec: &dyn Codec,
        dim: usize,
        entries: &[(usize, f32)],
    ) -> &[u8] {
        let mut staging = self.stage(entries);
        staging.sort_unstable_by_key(|&(j, _)| j);
        let frame_len = codec.encode_into(dim, &staging, self).len();
        self.staging = staging;
        &self.frame[..frame_len]
    }

    /// Exact encoded size of a message whose entries are in arbitrary
    /// order, without encoding it (used for hypothetical-`k'` probe
    /// pricing). The index sort runs through [`topk::sort_by_index`] on the
    /// caller's packed-key buffer: every client owns a `WireScratch`, so a
    /// key buffer in here would be held once per client for the one caller
    /// — the server's probe — that prices prefixes.
    ///
    /// # Panics
    ///
    /// Panics if an index does not fit in 32 bits.
    pub fn encoded_len_unsorted(
        &mut self,
        codec: &dyn Codec,
        dim: usize,
        entries: &[(usize, f32)],
        keys: &mut Vec<u64>,
    ) -> usize {
        let mut staging = self.stage(entries);
        topk::sort_by_index(&mut staging, keys);
        let len = codec.encoded_len(dim, &staging);
        self.staging = staging;
        len
    }

    /// Takes the staging buffer out of the workspace, filled with `entries`
    /// in the order given. The caller sorts it and must put it back.
    fn stage(&mut self, entries: &[(usize, f32)]) -> Vec<(usize, f32)> {
        let mut staging = std::mem::take(&mut self.staging);
        let used = staging.len();
        note_demand_and_shrink(&mut staging, &mut self.staging_demand, used);
        staging.clear();
        staging.extend_from_slice(entries);
        staging
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CooF32;

    #[test]
    fn frame_buffer_shrinks_after_demand_drops() {
        let mut scratch = WireScratch::new();
        // One huge message grows the buffer far beyond the floor.
        let big: Vec<(usize, f32)> = (0..20_000).map(|j| (j, j as f32)).collect();
        let _ = CooF32.encode_into(20_000, &big, &mut scratch);
        let peak = scratch.frame_capacity();
        assert!(peak >= 8 * 20_000);
        // Many small messages decay the demand; capacity must come down.
        let small = [(1usize, 1.0f32), (5, -2.0)];
        for _ in 0..24 {
            let _ = CooF32.encode_into(16, &small, &mut scratch);
        }
        assert!(
            scratch.frame_capacity() < peak / 4,
            "capacity {} did not shrink from peak {}",
            scratch.frame_capacity(),
            peak
        );
        // Encoding still works and is stateless after shrinking.
        let frame = CooF32.encode_into(16, &small, &mut scratch).to_vec();
        let mut out = Vec::new();
        let (dim, _) = crate::codec::decode_frame(&frame, &mut out).unwrap();
        assert_eq!(dim, 16);
        assert_eq!(out, small);
    }

    #[test]
    fn steady_state_capacity_is_stable() {
        let mut scratch = WireScratch::new();
        let msg: Vec<(usize, f32)> = (0..500).map(|j| (j * 2, 1.0)).collect();
        let _ = CooF32.encode_into(1000, &msg, &mut scratch);
        let settled = scratch.frame_capacity();
        for _ in 0..50 {
            let _ = CooF32.encode_into(1000, &msg, &mut scratch);
        }
        assert_eq!(scratch.frame_capacity(), settled);
    }
}
