//! Property tests pinning the codec layer:
//!
//! * **Bit-exact roundtrip** for every codec over the messages the FL
//!   stack actually produces — the uplink messages and aggregated downlink
//!   of all five sparsifiers, plus empty and dense-degenerate messages.
//! * **Size ordering**: `Auto` never exceeds coo-f32 (or any concrete
//!   format), and every `encoded_len` equals the emitted frame length.
//! * **Reference equivalence**: the allocating `reference` encoders emit
//!   byte-identical frames to the scratch fast paths (the executable-spec
//!   contract the bench pairs rely on).

use agsfl_sparse::{
    topk, ClientUpload, FabTopK, FubTopK, PeriodicK, SendAll, SparseGradient, Sparsifier,
    UnidirectionalTopK,
};
use agsfl_wire::{decode_frame, frame_codec, reference, Codec, CodecSpec, WireScratch};
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn codecs() -> [Codec; 4] {
    CodecSpec::all().map(|spec| spec.build())
}

fn len(spec: CodecSpec, g: &SparseGradient) -> usize {
    spec.build().encoded_len(g.dim(), g.entries())
}

fn encode<'a>(spec: CodecSpec, g: &SparseGradient, scratch: &'a mut WireScratch) -> &'a [u8] {
    spec.build().encode_into(g.dim(), g.entries(), scratch)
}

fn sparsifiers() -> [Box<dyn Sparsifier>; 5] {
    [
        Box::new(FabTopK::new()),
        Box::new(FubTopK::new()),
        Box::new(UnidirectionalTopK::new()),
        Box::new(PeriodicK::new()),
        Box::new(SendAll::new()),
    ]
}

/// Asserts a frame decodes back to exactly `g`, bit for bit.
fn assert_bit_exact_roundtrip(codec: Codec, g: &SparseGradient) {
    let mut scratch = WireScratch::new();
    let frame = codec
        .encode_into(g.dim(), g.entries(), &mut scratch)
        .to_vec();
    assert_eq!(
        frame.len(),
        codec.encoded_len(g.dim(), g.entries()),
        "encoded_len disagrees with the emitted frame ({})",
        codec.name()
    );
    let mut out = Vec::new();
    let dim = codec.decode_into(&frame, &mut out).expect("valid frame");
    assert_eq!(dim, g.dim(), "{}", codec.name());
    let got: Vec<(usize, u32)> = out.iter().map(|&(j, v)| (j, v.to_bits())).collect();
    let expected: Vec<(usize, u32)> = g.entries().iter().map(|&(j, v)| (j, v.to_bits())).collect();
    assert_eq!(got, expected, "{}", codec.name());
}

/// Builds ranked uploads from seeded dense per-client accumulators.
fn random_uploads(seed: u64, n_clients: usize, dim: usize, k: usize) -> Vec<ClientUpload> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n_clients)
        .map(|i| {
            let dense: Vec<f32> = (0..dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
            ClientUpload::new(i, 1.0 / n_clients as f64, topk::top_k_entries(&dense, k))
        })
        .collect()
}

#[test]
fn degenerate_messages_round_trip() {
    let empty = SparseGradient::zeros(1_000);
    let dense = SparseGradient::from_sorted_entries(
        257,
        (0..257).map(|j| (j, (j as f32 - 128.0) * 0.5)).collect(),
    );
    let single = SparseGradient::from_entries(1, vec![(0, f32::MIN_POSITIVE)]);
    for codec in codecs() {
        for g in [&empty, &dense, &single] {
            assert_bit_exact_roundtrip(codec, g);
        }
    }
}

#[test]
fn reference_encoders_emit_identical_frames() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let dense: Vec<f32> = (0..2_000).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let entries: Vec<(usize, f32)> = dense
        .iter()
        .enumerate()
        .filter(|(j, _)| j % 7 == 0)
        .map(|(j, &v)| (j, v))
        .collect();
    let dim = dense.len();
    let mut scratch = WireScratch::new();
    let [coo, delta, bitmap, _] = codecs();
    assert_eq!(
        reference::coo_encode(dim, &entries),
        coo.encode_into(dim, &entries, &mut scratch)
    );
    assert_eq!(
        reference::delta_encode(dim, &entries),
        delta.encode_into(dim, &entries, &mut scratch)
    );
    assert_eq!(
        reference::bitmap_encode(dim, &entries),
        bitmap.encode_into(dim, &entries, &mut scratch)
    );
    let frame = coo.encode_into(dim, &entries, &mut scratch).to_vec();
    let (ref_dim, ref_entries) = reference::decode(&frame).unwrap();
    assert_eq!(ref_dim, dim);
    assert_eq!(ref_entries, entries);
}

/// Every codec must round-trip the messages every sparsifier actually
/// produces: each client's uplink (index-sorted canonical form) and the
/// aggregated downlink.
#[test]
fn all_sparsifier_outputs_round_trip_through_all_codecs() {
    for (which, sparsifier) in sparsifiers().into_iter().enumerate() {
        let dim = 400;
        let k = 37;
        let mut rng = ChaCha8Rng::seed_from_u64(100 + which as u64);
        let plan = sparsifier.upload_plan(dim, k, &mut rng);
        let uploads: Vec<ClientUpload> = {
            let raw = random_uploads(200 + which as u64, 4, dim, k);
            match &plan {
                agsfl_sparse::UploadPlan::Coordinates(coords) => raw
                    .iter()
                    .map(|u| {
                        let entries = coords.iter().map(|&j| (j, j as f32 * 0.1)).collect();
                        ClientUpload::new(u.client, u.weight, entries)
                    })
                    .collect(),
                _ => raw,
            }
        };
        let result = sparsifier.select(&uploads, dim, k);
        let mut scratch = WireScratch::new();
        let (mut keys, mut decoded) = (Vec::new(), Vec::new());
        for codec in codecs() {
            // Downlink: already a SparseGradient.
            assert_bit_exact_roundtrip(codec, &result.aggregated);
            // Uplinks: a rank-ordered message is index-sorted on packed keys
            // first (a wired client selects in index order to begin with).
            for upload in &uploads {
                let mut uplink = upload.entries.clone();
                topk::sort_by_index(&mut uplink, &mut keys);
                let frame = codec.encode_into(dim, &uplink, &mut scratch).to_vec();
                decode_frame(&frame, &mut decoded).unwrap();
                let mut expected = upload.entries.clone();
                expected.sort_unstable_by_key(|&(j, _)| j);
                let got: Vec<(usize, u32)> =
                    decoded.iter().map(|&(j, v)| (j, v.to_bits())).collect();
                let expected: Vec<(usize, u32)> =
                    expected.iter().map(|&(j, v)| (j, v.to_bits())).collect();
                assert_eq!(got, expected, "{} / {}", sparsifier.name(), codec.name());
            }
        }
    }
}

/// A wired client's frame, two ways: the ranked selection index-sorted and
/// encoded (what the client did while it still ranked) and the index-ordered
/// selection encoded as it is. Same bytes from all six formats and from
/// `Auto`, on short vectors (streaming select) and long ones (histogram
/// select), sparse, half-dense and whole, with magnitude ties.
#[test]
fn indexed_selection_encodes_to_the_frame_of_the_index_sorted_ranking() {
    let codecs: Vec<Codec> = CodecSpec::all()
        .into_iter()
        .chain(CodecSpec::lossy())
        .map(|spec| spec.build_seeded(0x5EED))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let (mut keys, mut scratch) = (Vec::new(), WireScratch::new());
    for dim in [97usize, 4096, 4097, 20_000] {
        for quantized in [false, true] {
            let residual: Vec<f32> = (0..dim)
                .map(|_| {
                    if quantized {
                        rng.gen_range(-8i32..8) as f32 * 0.125
                    } else {
                        rng.gen_range(-2.0f32..2.0)
                    }
                })
                .collect();
            for k in [1, dim / 50 + 1, dim / 2, dim] {
                let (mut ranked, mut indexed) = (Vec::new(), Vec::new());
                topk::top_k_entries_into(&residual, k, &mut keys, &mut ranked);
                topk::sort_by_index(&mut ranked, &mut keys);
                topk::top_k_entries_indexed_into(&residual, k, &mut keys, &mut indexed);
                for codec in &codecs {
                    let sorted_frame = codec.encode_into(dim, &ranked, &mut scratch).to_vec();
                    assert_eq!(
                        codec.encode_into(dim, &indexed, &mut scratch),
                        sorted_frame,
                        "{} at dim {dim}, k {k}",
                        codec.name()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary sparse messages (including exact-zero and extreme values)
    /// round-trip bit-exactly through every codec.
    #[test]
    fn prop_roundtrip_bit_exact(
        dim in 1usize..600,
        raw in proptest::collection::vec((0usize..600, -1.0e30f32..1.0e30), 0..80),
    ) {
        let entries: Vec<(usize, f32)> = raw
            .into_iter()
            .map(|(j, v)| (j % dim, v))
            .collect();
        let g = SparseGradient::from_entries(dim, entries);
        for codec in codecs() {
            assert_bit_exact_roundtrip(codec, &g);
        }
    }

    /// `Auto` emits the smallest frame and never exceeds `CooF32`.
    #[test]
    fn prop_auto_never_exceeds_coo(
        dim in 1usize..2_000,
        raw in proptest::collection::vec((0usize..2_000, -10.0f32..10.0), 0..120),
    ) {
        let entries: Vec<(usize, f32)> = raw
            .into_iter()
            .map(|(j, v)| (j % dim, v))
            .collect();
        let g = SparseGradient::from_entries(dim, entries);
        let auto = len(CodecSpec::Auto, &g);
        prop_assert!(auto <= len(CodecSpec::Coo, &g));
        prop_assert!(auto <= len(CodecSpec::DeltaVarint, &g));
        prop_assert!(auto <= len(CodecSpec::Bitmap, &g));
        // And its emitted frame matches the deterministic choice.
        let mut scratch = WireScratch::new();
        let frame = encode(CodecSpec::Auto, &g, &mut scratch);
        prop_assert_eq!(frame.len(), auto);
        prop_assert_eq!(
            frame_codec(frame).unwrap(),
            CodecSpec::Auto.build().choose(g.dim(), g.entries())
        );
    }

    /// Seeded sparsifier rounds: uplinks and downlink of every sparsifier
    /// family round-trip through `Auto` (the codec the simulation defaults
    /// to), and decoding is the exact inverse of encoding.
    #[test]
    fn prop_sparsifier_messages_roundtrip(
        seed in 0u64..200,
        n_clients in 1usize..5,
        dim in 8usize..120,
        k_raw in 1usize..40,
    ) {
        let k = 1 + k_raw % dim.min(32);
        let uploads = random_uploads(seed, n_clients, dim, k);
        let mut scratch = WireScratch::new();
        let mut out = Vec::new();
        for sparsifier in sparsifiers() {
            let result = sparsifier.select(&uploads, dim, k);
            let frame = encode(CodecSpec::Auto, &result.aggregated, &mut scratch).to_vec();
            let (frame_dim, id) = decode_frame(&frame, &mut out).unwrap();
            prop_assert_eq!(frame_dim, dim);
            prop_assert_eq!(
                id,
                CodecSpec::Auto.build().choose(dim, result.aggregated.entries())
            );
            let got: Vec<(usize, u32)> =
                out.iter().map(|&(j, v)| (j, v.to_bits())).collect();
            let expected: Vec<(usize, u32)> = result
                .aggregated
                .entries()
                .iter()
                .map(|&(j, v)| (j, v.to_bits()))
                .collect();
            prop_assert_eq!(got, expected);
        }
    }

    /// The reference encoders stay byte-identical to the fast paths for
    /// arbitrary messages.
    #[test]
    fn prop_reference_equivalence(
        dim in 1usize..300,
        raw in proptest::collection::vec((0usize..300, -10.0f32..10.0), 0..60),
    ) {
        let entries: Vec<(usize, f32)> = raw
            .into_iter()
            .map(|(j, v)| (j % dim, v))
            .collect();
        let g = SparseGradient::from_entries(dim, entries);
        let mut scratch = WireScratch::new();
        prop_assert_eq!(
            reference::coo_encode(dim, g.entries()),
            encode(CodecSpec::Coo, &g, &mut scratch)
        );
        prop_assert_eq!(
            reference::delta_encode(dim, g.entries()),
            encode(CodecSpec::DeltaVarint, &g, &mut scratch)
        );
        prop_assert_eq!(
            reference::bitmap_encode(dim, g.entries()),
            encode(CodecSpec::Bitmap, &g, &mut scratch)
        );
        // The independent reference decoder agrees with the fast path on
        // every valid frame of every codec.
        let mut out = Vec::new();
        for codec in codecs() {
            let frame = codec.encode_into(dim, g.entries(), &mut scratch).to_vec();
            let (ref_dim, ref_entries) = reference::decode(&frame).unwrap();
            let fast_dim = codec.decode_into(&frame, &mut out).unwrap();
            prop_assert_eq!(ref_dim, fast_dim);
            prop_assert_eq!(ref_entries.len(), out.len());
            for (a, b) in ref_entries.iter().zip(out.iter()) {
                prop_assert_eq!(a.0, b.0);
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
    }
}
