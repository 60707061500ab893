//! Reusable encode workspace.

use agsfl_sparse::{topk, ClientUpload};

use crate::codec::Codec;

/// Reusable workspace for [`Codec::encode_into`], in the house style of
/// `agsfl_sparse::SelectionScratch` and `agsfl_ml`'s `Im2colScratch`:
/// grow-only buffers that each call clears or overwrites, so steady-state
/// encoding performs no heap allocation.
///
/// * `frame` — the output byte buffer, cleared by each encode.
/// * `staging` — an index-sort buffer used by
///   [`WireScratch::encoded_len_prefix`] to canonicalize ranked uplink
///   prefixes before pricing them. Only the server's one workspace ever
///   fills it: clients select their entry list in index order and call
///   [`Codec::encode_into`].
///
/// The byte slice returned by an encode borrows the workspace, so the
/// borrow checker guarantees a frame is copied out or consumed before the
/// next encode can overwrite it. The workspace carries no message
/// state across calls: encoding the same message twice yields identical
/// bytes.
///
/// Capacity is grow-only, the house rule for every reusable workspace:
/// both buffers are sized to the largest message seen and never shrink, so
/// once that message has been encoded no allocation ever happens again.
#[derive(Debug, Clone, Default)]
pub struct WireScratch {
    frame: Vec<u8>,
    staging: Vec<(usize, f32)>,
}

impl WireScratch {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current capacity of the frame buffer in bytes (for memory audits).
    pub fn frame_capacity(&self) -> usize {
        self.frame.capacity()
    }

    /// Starts a new encode: hands out the frame buffer, cleared.
    pub(crate) fn begin(&mut self) -> &mut Vec<u8> {
        self.frame.clear();
        &mut self.frame
    }

    /// The last encode's frame bytes.
    pub(crate) fn frame(&self) -> &[u8] {
        &self.frame
    }

    /// Exact encoded size of the upload an uplink of `len` entries would
    /// have been, without encoding it — used for hypothetical-`k'` probe
    /// pricing. That is the first `len` keys of the upload's ranked view
    /// (its top-`len` message) when the plan ranks, and its first `len`
    /// entries — already in index order — when it does not. A ranked prefix
    /// is unpacked into the workspace and index-sorted through
    /// [`topk::sort_by_index`] on the caller's packed-key buffer: every
    /// client owns a `WireScratch`, so a key buffer in here would be held
    /// once per client for the one caller — the server's probe — that
    /// prices prefixes.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the upload.
    pub fn encoded_len_prefix(
        &mut self,
        codec: Codec,
        dim: usize,
        upload: &ClientUpload,
        len: usize,
        keys: &mut Vec<u64>,
    ) -> usize {
        if upload.ranked.is_empty() {
            return codec.encoded_len(dim, &upload.entries[..len]);
        }
        self.staging.clear();
        self.staging
            .extend(upload.ranked[..len].iter().map(|&key| topk::key_entry(key)));
        topk::sort_by_index(&mut self.staging, keys);
        codec.encoded_len(dim, &self.staging)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CodecSpec;

    #[test]
    fn steady_state_capacity_is_stable() {
        let coo = CodecSpec::Coo.build();
        let mut scratch = WireScratch::new();
        let msg: Vec<(usize, f32)> = (0..500).map(|j| (j * 2, 1.0)).collect();
        let _ = coo.encode_into(1000, &msg, &mut scratch);
        let settled = scratch.frame_capacity();
        for _ in 0..50 {
            let _ = coo.encode_into(1000, &msg, &mut scratch);
        }
        assert_eq!(scratch.frame_capacity(), settled);
    }
}
