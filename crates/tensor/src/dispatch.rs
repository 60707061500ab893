//! Vector-width dispatch for the product kernels and the fused convolution
//! kernels (`kernels.rs`).
//!
//! Each kernel body is written once, generic over a `Vector` — a handful
//! of `f32` lanes with `load`/`splat`/`mul`/`add`/`relu`/`store`, a
//! lane-sign bit mask and its inverse, nothing else (no fused multiply-add,
//! no horizontal arithmetic) — and
//! instantiated at
//! every [`Level`]: a portable four-lane array type that is plain safe Rust
//! and compiles everywhere, plus `__m256` (AVX2) and `__m512` (AVX-512F) on
//! `x86_64`. Because every level performs the same IEEE operations on the
//! same operands in the same order, lane by lane, the levels are
//! bit-identical to each other and to the scalar spec in
//! [`crate::reference`]; width only changes how many independent output
//! elements advance per instruction.
//!
//! [`Level::detect`] is the product path's only selector: a pure function
//! of `is_x86_feature_detected!`, with no cargo feature, environment
//! variable, config field or settable global behind it. [`run`],
//! [`conv_relu_pool`] and [`conv_relu_pool_backward`] take the level as an
//! argument so the equivalence proptests and `bench-report` can drive every
//! level the host supports.
//!
//! # `unsafe` policy
//!
//! This is the one module of the crate that may use `unsafe` (the crate
//! root is `#![deny(unsafe_code)]`; `agsfl_exec::pool` is the only other
//! such module in the workspace). Two things need it, both here:
//!
//! * **Calling a `#[target_feature]` instantiation** from [`run`],
//!   [`conv_relu_pool`] or [`conv_relu_pool_backward`], after the level's `is_available` check has
//!   confirmed the CPU implements the feature.
//! * **The `Vector` impls of the `x86_64` register types**, which wrap
//!   `core::arch` intrinsics in safe methods. Those types are private to
//!   this module and are only ever named inside the `#[target_feature]`
//!   instantiations above, so no value of them exists — and none of their
//!   methods runs — on a CPU without the feature. Loads and stores go
//!   through pointers taken from bounds-checked array or slice references.
//!
//! Every `unsafe` block carries a `// SAFETY:` comment naming the
//! precondition it relies on, and every `#[target_feature]` entry point
//! states in its docs what its callers must have checked.
#![allow(unsafe_code)]

use crate::conv::{ConvLayer, ConvScratch, ConvShape};
use crate::kernels;
use crate::product::{MatrixView, Product};

/// A vector width the product kernels are compiled at.
///
/// Ordered from narrowest to widest; [`Level::detect`] picks the level the
/// product path runs at on this CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Level {
    /// Four-lane array vectors in plain safe Rust: the fallback on every
    /// target, and what an `x86_64` CPU without AVX2 runs.
    Portable,
    /// 256-bit `__m256` vectors (needs AVX2).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit `__m512` vectors (needs AVX-512F).
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Level {
    /// Every level compiled into this build, narrowest first.
    const COMPILED: &'static [Level] = &[
        Level::Portable,
        #[cfg(target_arch = "x86_64")]
        Level::Avx2,
        #[cfg(target_arch = "x86_64")]
        Level::Avx512,
    ];

    /// The level the product path uses on this CPU: the widest available
    /// one. A pure function of the CPU's feature bits — nothing a caller,
    /// a test or the environment can set.
    pub fn detect() -> Level {
        #[cfg(target_arch = "x86_64")]
        {
            Level::select(
                std::is_x86_feature_detected!("avx2"),
                std::is_x86_feature_detected!("avx512f"),
            )
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Level::Portable
        }
    }

    /// The selection rule behind [`Level::detect`], as a function of the
    /// two feature bits it reads.
    #[cfg(target_arch = "x86_64")]
    pub fn select(avx2: bool, avx512f: bool) -> Level {
        match (avx2, avx512f) {
            (true, true) => Level::Avx512,
            (true, false) => Level::Avx2,
            // AVX-512F without AVX2 does not exist in silicon; a hypervisor
            // masking AVX2 alone gets the portable body.
            (false, _) => Level::Portable,
        }
    }

    /// Whether this CPU can run the level.
    fn is_available(self) -> bool {
        self <= Level::detect()
    }

    /// The compiled levels this CPU can run, narrowest first; the last one
    /// is [`Level::detect`].
    pub fn available() -> impl Iterator<Item = Level> {
        Level::COMPILED
            .iter()
            .copied()
            .filter(|level| level.is_available())
    }

    /// Lower-case name for reports (`"portable"`, `"avx2"`, `"avx512"`).
    pub fn name(self) -> &'static str {
        match self {
            Level::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => "avx512",
        }
    }
}

/// Runs `op` on `(a, b, out)` at `level`.
///
/// The product path calls this with [`Level::detect`]; tests and
/// `bench-report` pass each available level.
///
/// # Panics
///
/// Panics if the CPU cannot run `level`, if the operand shapes do not fit
/// `op`, or if `out` is not the product's `rows * cols` long.
pub fn run(level: Level, op: Product, a: MatrixView<'_>, b: MatrixView<'_>, out: &mut [f32]) {
    let (rows, cols) = op.output_shape(a, b);
    assert_eq!(
        out.len(),
        rows * cols,
        "{op:?}: output length {} does not match {rows}x{cols}",
        out.len()
    );
    assert!(
        level.is_available(),
        "dispatch level {} is not available on this CPU",
        level.name()
    );
    match level {
        Level::Portable => kernels::run::<Lanes4>(op, a, b, out),
        // SAFETY: `is_available` above confirmed through
        // `is_x86_feature_detected!` that this CPU implements AVX2, the
        // only precondition of the `#[target_feature]` instantiation.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::run_avx2(op, a, b, out) },
        // SAFETY: as above, for AVX-512F and AVX2 (`Level::select` returns
        // `Avx512` only when both bits are set).
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { x86::run_avx512(op, a, b, out) },
    }
}

/// Runs the fused convolution → bias → ReLU → 2x2 average pool of `layer`
/// over every row of `images` at `level` (see [`crate::conv`] for the
/// layouts and the fold order every level keeps).
///
/// [`ConvLayer::relu_pool`] calls this with [`Level::detect`]; tests and
/// `bench-report` pass each available level.
///
/// # Panics
///
/// Panics if the CPU cannot run `level`, if `images` rows are not the
/// layer's input length, or if `pooled` (or `relu_mask`) is not
/// `images.rows()` times [`ConvShape::pooled_dim`] (or
/// [`ConvShape::mask_dim`]) long.
pub fn conv_relu_pool(
    level: Level,
    layer: ConvLayer<'_>,
    images: MatrixView<'_>,
    scratch: &mut ConvScratch,
    pooled: &mut [f32],
    relu_mask: Option<&mut [u8]>,
) {
    let shape = layer.shape();
    assert_eq!(images.cols(), shape.input_dim(), "image length");
    assert_eq!(
        pooled.len(),
        images.rows() * shape.pooled_dim(),
        "pooled output length"
    );
    if let Some(relu_mask) = &relu_mask {
        assert_eq!(
            relu_mask.len(),
            images.rows() * shape.mask_dim(),
            "ReLU mask length"
        );
    }
    assert!(
        level.is_available(),
        "dispatch level {} is not available on this CPU",
        level.name()
    );
    let work = scratch.reserve(shape);
    match level {
        Level::Portable => {
            kernels::conv_relu_pool::<Lanes4>(layer, images, work, pooled, relu_mask)
        }
        // SAFETY: `is_available` above confirmed through
        // `is_x86_feature_detected!` that this CPU implements AVX2, the
        // only precondition of the `#[target_feature]` instantiation.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::conv_relu_pool_avx2(layer, images, work, pooled, relu_mask) },
        // SAFETY: as above, for AVX-512F and AVX2 (`Level::select` returns
        // `Avx512` only when both bits are set).
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe {
            x86::conv_relu_pool_avx512(layer, images, work, pooled, relu_mask)
        },
    }
}

/// The weight and bias gradients of a convolution layer of `shape` over
/// every row of `images`, from the pooled gradient `dpooled` and the ReLU
/// mask the forward kept, at `level` (see [`crate::conv`] for the layouts
/// and the fold order every level keeps). `dweights` and `dbias` are
/// overwritten.
///
/// [`ConvLayer::relu_pool_backward`] calls this with [`Level::detect`];
/// tests and `bench-report` pass each available level.
///
/// # Panics
///
/// Panics if the CPU cannot run `level`, if `images` rows are not the
/// layer's input length, if `dpooled` (or `relu_mask`) is not
/// `images.rows()` times [`ConvShape::pooled_dim`] (or
/// [`ConvShape::mask_dim`]) long, or if `dweights` (or `dbias`) is not
/// `O·9·C` (or `O`) long.
#[allow(clippy::too_many_arguments)]
pub fn conv_relu_pool_backward(
    level: Level,
    shape: ConvShape,
    images: MatrixView<'_>,
    dpooled: &[f32],
    relu_mask: &[u8],
    scratch: &mut ConvScratch,
    dweights: &mut [f32],
    dbias: &mut [f32],
) {
    assert_eq!(images.cols(), shape.input_dim(), "image length");
    let batch = images.rows();
    assert_eq!(
        dpooled.len(),
        batch * shape.pooled_dim(),
        "pooled gradient length"
    );
    assert_eq!(
        relu_mask.len(),
        batch * shape.mask_dim(),
        "ReLU mask length"
    );
    assert_eq!(
        dweights.len(),
        shape.filters * shape.patch_dim(),
        "weight gradient length"
    );
    assert_eq!(dbias.len(), shape.filters, "bias gradient length");
    assert!(
        level.is_available(),
        "dispatch level {} is not available on this CPU",
        level.name()
    );
    let (work, table, mask) = scratch.reserve_backward(shape);
    let args = kernels::Backward {
        table,
        mask,
        shape,
        images,
        dpooled,
        relu_mask,
        dweights,
        dbias,
    };
    match level {
        Level::Portable => kernels::conv_relu_pool_backward::<Lanes4>(args, work),
        // SAFETY: `is_available` above confirmed through
        // `is_x86_feature_detected!` that this CPU implements AVX2, the
        // only precondition of the `#[target_feature]` instantiation.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::conv_relu_pool_backward_avx2(args, work) },
        // SAFETY: as above, for AVX-512F and AVX2 (`Level::select` returns
        // `Avx512` only when both bits are set).
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { x86::conv_relu_pool_backward_avx512(args, work) },
    }
}

/// A fixed number of `f32` lanes — the whole instruction set the kernel
/// bodies are written in. `mul` and `add` are separate IEEE operations at
/// every level (never fused), which is what keeps the levels bit-identical.
pub(crate) trait Vector: Copy {
    /// Lanes per vector.
    const LANES: usize;
    /// The most vectors of one output row the `aᵀ · b` kernel keeps live as
    /// accumulators: as much of the row as the register file holds, so the
    /// lhs is walked as few times as possible.
    const ROW_STRIP: usize;
    /// Filter blocks the convolution backward keeps live at once: as many
    /// as nine tap sums each, plus their operands, fit the register file.
    const FILTER_TILE: usize;

    /// All lanes set to `x`.
    fn splat(x: f32) -> Self;
    /// The first `LANES` elements of `src`. Panics if it is shorter.
    fn load(src: &[f32]) -> Self;
    /// The first `min(src.len(), LANES)` elements of `src`, remaining
    /// lanes zero.
    fn load_head(src: &[f32]) -> Self;
    /// Writes all lanes to the first `LANES` elements of `dst`. Panics if
    /// it is shorter.
    fn store(self, dst: &mut [f32]);
    /// Writes the first `min(dst.len(), LANES)` lanes to `dst`.
    fn store_head(self, dst: &mut [f32]);
    /// Lane-wise `self + rhs`.
    fn add(self, rhs: Self) -> Self;
    /// Lane-wise `self * rhs`.
    fn mul(self, rhs: Self) -> Self;
    /// Lane-wise [`crate::ops::relu`]: `x` where `x > 0`, else `+0.0` (so
    /// NaN and `-0.0` give `+0.0`) — what x86's `max(x, 0)` computes, its
    /// second operand winning ties and NaN.
    fn relu(self) -> Self;
    /// Bit `l` set iff lane `l` is `> 0` (an ordered compare: NaN and `±0`
    /// clear it) — where [`crate::ops::relu_grad`] is 1.
    fn positive_bits(self) -> u32;
    /// Lane `l` is `1.0` if bit `bit` (below 8) of `bytes[l]` is set, else
    /// `0.0`. Panics if `bytes` is shorter than `LANES`.
    fn bit_lanes(bytes: &[u8], bit: u32) -> Self;
}

/// The portable vector: four lanes in an array, plain safe Rust. LLVM
/// lowers it to whatever the build's baseline offers (one SSE register on
/// `x86_64`).
#[derive(Clone, Copy)]
pub(crate) struct Lanes4([f32; 4]);

impl Vector for Lanes4 {
    const LANES: usize = 4;
    const ROW_STRIP: usize = 4;
    const FILTER_TILE: usize = 1;

    #[inline(always)]
    fn splat(x: f32) -> Self {
        Lanes4([x; 4])
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        Lanes4(src[..4].try_into().expect("four lanes"))
    }

    #[inline(always)]
    fn load_head(src: &[f32]) -> Self {
        Lanes4(match *src {
            [] => [0.0; 4],
            [a] => [a, 0.0, 0.0, 0.0],
            [a, b] => [a, b, 0.0, 0.0],
            [a, b, c] => [a, b, c, 0.0],
            [a, b, c, d, ..] => [a, b, c, d],
        })
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        dst[..4].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn store_head(self, dst: &mut [f32]) {
        let n = dst.len().min(4);
        dst[..n].copy_from_slice(&self.0[..n]);
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Lanes4(std::array::from_fn(|l| self.0[l] + rhs.0[l]))
    }

    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Lanes4(std::array::from_fn(|l| self.0[l] * rhs.0[l]))
    }

    #[inline(always)]
    fn relu(self) -> Self {
        Lanes4(std::array::from_fn(|l| crate::ops::relu(self.0[l])))
    }

    #[inline(always)]
    fn positive_bits(self) -> u32 {
        let mut bits = 0;
        for l in 0..4 {
            bits |= u32::from(self.0[l] > 0.0) << l;
        }
        bits
    }

    #[inline(always)]
    fn bit_lanes(bytes: &[u8], bit: u32) -> Self {
        let bytes: &[u8; 4] = bytes[..4].try_into().expect("four lanes");
        let mut lanes = [0.0f32; 4];
        for l in 0..4 {
            lanes[l] = f32::from((bytes[l] >> bit) & 1);
        }
        Lanes4(lanes)
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use super::Vector;
    use crate::conv::ConvLayer;
    use crate::kernels;
    use crate::product::{MatrixView, Product};

    /// [`kernels::run`] compiled with AVX2 enabled: the generic body and
    /// every `Vector` method inline into this function and inherit the
    /// feature. Callers must have confirmed AVX2 ([`super::Level::Avx2`]
    /// available); calling it is `unsafe` for that reason alone.
    #[target_feature(enable = "avx2")]
    pub(super) fn run_avx2(op: Product, a: MatrixView<'_>, b: MatrixView<'_>, out: &mut [f32]) {
        kernels::run::<Avx2>(op, a, b, out);
    }

    /// [`kernels::run`] compiled with AVX-512F and AVX2 enabled. Callers
    /// must have confirmed both ([`super::Level::Avx512`] available).
    #[target_feature(enable = "avx512f,avx2")]
    pub(super) fn run_avx512(op: Product, a: MatrixView<'_>, b: MatrixView<'_>, out: &mut [f32]) {
        kernels::run::<Avx512>(op, a, b, out);
    }

    /// [`kernels::conv_relu_pool`] compiled with AVX2 enabled. Callers
    /// must have confirmed AVX2, as for [`run_avx2`].
    #[target_feature(enable = "avx2")]
    pub(super) fn conv_relu_pool_avx2(
        layer: ConvLayer<'_>,
        images: MatrixView<'_>,
        work: &mut [f32],
        pooled: &mut [f32],
        relu_mask: Option<&mut [u8]>,
    ) {
        kernels::conv_relu_pool::<Avx2>(layer, images, work, pooled, relu_mask);
    }

    /// [`kernels::conv_relu_pool`] compiled with AVX-512F and AVX2
    /// enabled. Callers must have confirmed both, as for [`run_avx512`].
    #[target_feature(enable = "avx512f,avx2")]
    pub(super) fn conv_relu_pool_avx512(
        layer: ConvLayer<'_>,
        images: MatrixView<'_>,
        work: &mut [f32],
        pooled: &mut [f32],
        relu_mask: Option<&mut [u8]>,
    ) {
        kernels::conv_relu_pool::<Avx512>(layer, images, work, pooled, relu_mask);
    }

    /// [`kernels::conv_relu_pool_backward`] compiled with AVX2 enabled.
    /// Callers must have confirmed AVX2, as for [`run_avx2`].
    #[target_feature(enable = "avx2")]
    pub(super) fn conv_relu_pool_backward_avx2(args: kernels::Backward<'_>, work: &mut [f32]) {
        kernels::conv_relu_pool_backward::<Avx2>(args, work);
    }

    /// [`kernels::conv_relu_pool_backward`] compiled with AVX-512F and AVX2
    /// enabled. Callers must have confirmed both, as for [`run_avx512`].
    #[target_feature(enable = "avx512f,avx2")]
    pub(super) fn conv_relu_pool_backward_avx512(args: kernels::Backward<'_>, work: &mut [f32]) {
        kernels::conv_relu_pool_backward::<Avx512>(args, work);
    }

    /// `MASK8[8 - n..][..8]` has its first `n` lanes set.
    const MASK8: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    /// Eight lanes in a `__m256`. Only named inside the AVX2 entry points
    /// ([`run_avx2`], [`conv_relu_pool_avx2`],
    /// [`conv_relu_pool_backward_avx2`]), i.e. only where AVX2 has been
    /// detected — the precondition every `unsafe` block below relies on.
    #[derive(Clone, Copy)]
    struct Avx2(__m256);

    impl Avx2 {
        /// Lane mask selecting the first `min(n, 8)` lanes.
        #[inline(always)]
        fn head_mask(n: usize) -> __m256i {
            let window: &[i32; 8] = MASK8[8 - n.min(8)..][..8].try_into().expect("eight lanes");
            // SAFETY: AVX2 is available (see the type's docs); the pointer
            // comes from a reference to exactly eight `i32`s.
            unsafe { _mm256_loadu_si256(window.as_ptr().cast()) }
        }
    }

    impl Vector for Avx2 {
        const LANES: usize = 8;
        const ROW_STRIP: usize = 8;
        const FILTER_TILE: usize = 1;

        #[inline(always)]
        fn splat(x: f32) -> Self {
            // SAFETY: AVX2 is available (see the type's docs).
            Avx2(unsafe { _mm256_set1_ps(x) })
        }

        #[inline(always)]
        fn load(src: &[f32]) -> Self {
            let src: &[f32; 8] = src[..8].try_into().expect("eight lanes");
            // SAFETY: AVX2 is available; the pointer comes from a reference
            // to exactly eight `f32`s and the load is unaligned.
            Avx2(unsafe { _mm256_loadu_ps(src.as_ptr()) })
        }

        #[inline(always)]
        fn load_head(src: &[f32]) -> Self {
            let mask = Self::head_mask(src.len());
            // SAFETY: AVX2 is available; a masked load reads memory only
            // for lanes whose mask is set, and the mask covers at most the
            // first `src.len()` elements of `src`.
            Avx2(unsafe { _mm256_maskload_ps(src.as_ptr(), mask) })
        }

        #[inline(always)]
        fn store(self, dst: &mut [f32]) {
            let dst: &mut [f32; 8] = (&mut dst[..8]).try_into().expect("eight lanes");
            // SAFETY: AVX2 is available; the pointer comes from a mutable
            // reference to exactly eight `f32`s and the store is unaligned.
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn store_head(self, dst: &mut [f32]) {
            let mask = Self::head_mask(dst.len());
            // SAFETY: AVX2 is available; a masked store writes memory only
            // for lanes whose mask is set, at most the first `dst.len()`
            // elements of `dst`.
            unsafe { _mm256_maskstore_ps(dst.as_mut_ptr(), mask, self.0) }
        }

        #[inline(always)]
        fn add(self, rhs: Self) -> Self {
            // SAFETY: AVX2 is available (see the type's docs).
            Avx2(unsafe { _mm256_add_ps(self.0, rhs.0) })
        }

        #[inline(always)]
        fn mul(self, rhs: Self) -> Self {
            // SAFETY: AVX2 is available (see the type's docs).
            Avx2(unsafe { _mm256_mul_ps(self.0, rhs.0) })
        }

        #[inline(always)]
        fn relu(self) -> Self {
            // SAFETY: AVX2 is available (see the type's docs). `max_ps`
            // returns its second operand, `+0.0`, when the lanes tie or
            // `self` is NaN.
            Avx2(unsafe { _mm256_max_ps(self.0, _mm256_setzero_ps()) })
        }

        #[inline(always)]
        fn positive_bits(self) -> u32 {
            // SAFETY: AVX2 is available (see the type's docs); the compare
            // and the sign-bit gather touch registers only.
            let bits = unsafe {
                _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(self.0, _mm256_setzero_ps()))
            };
            bits as u32
        }

        #[inline(always)]
        fn bit_lanes(bytes: &[u8], bit: u32) -> Self {
            let bytes: &[u8; 8] = bytes[..8].try_into().expect("eight lanes");
            // SAFETY: AVX2 is available (see the type's docs); the pointer
            // comes from a reference to exactly eight bytes, which the
            // 64-bit load reads; the rest touches registers only.
            Avx2(unsafe {
                let select = _mm256_set1_epi32(1 << bit);
                let wide = _mm256_cvtepu8_epi32(_mm_loadl_epi64(bytes.as_ptr().cast()));
                let set = _mm256_cmpeq_epi32(_mm256_and_si256(wide, select), select);
                _mm256_and_ps(_mm256_castsi256_ps(set), _mm256_set1_ps(1.0))
            })
        }
    }

    /// Sixteen lanes in a `__m512`. Only named inside the AVX-512 entry
    /// points ([`run_avx512`], [`conv_relu_pool_avx512`],
    /// [`conv_relu_pool_backward_avx512`]), i.e. only where AVX-512F has
    /// been detected — the precondition every `unsafe` block below relies
    /// on.
    #[derive(Clone, Copy)]
    struct Avx512(__m512);

    impl Avx512 {
        /// Lane mask selecting the first `min(n, 16)` lanes.
        #[inline(always)]
        fn head_mask(n: usize) -> __mmask16 {
            ((1u32 << n.min(16)) - 1) as __mmask16
        }
    }

    impl Vector for Avx512 {
        const LANES: usize = 16;
        const ROW_STRIP: usize = 8;
        const FILTER_TILE: usize = 2;

        #[inline(always)]
        fn splat(x: f32) -> Self {
            // SAFETY: AVX-512F is available (see the type's docs).
            Avx512(unsafe { _mm512_set1_ps(x) })
        }

        #[inline(always)]
        fn load(src: &[f32]) -> Self {
            let src: &[f32; 16] = src[..16].try_into().expect("sixteen lanes");
            // SAFETY: AVX-512F is available; the pointer comes from a
            // reference to exactly sixteen `f32`s and the load is unaligned.
            Avx512(unsafe { _mm512_loadu_ps(src.as_ptr()) })
        }

        #[inline(always)]
        fn load_head(src: &[f32]) -> Self {
            let mask = Self::head_mask(src.len());
            // SAFETY: AVX-512F is available; a masked load reads memory
            // only for lanes whose mask bit is set, at most the first
            // `src.len()` elements of `src`.
            Avx512(unsafe { _mm512_maskz_loadu_ps(mask, src.as_ptr()) })
        }

        #[inline(always)]
        fn store(self, dst: &mut [f32]) {
            let dst: &mut [f32; 16] = (&mut dst[..16]).try_into().expect("sixteen lanes");
            // SAFETY: AVX-512F is available; the pointer comes from a
            // mutable reference to exactly sixteen `f32`s and the store is
            // unaligned.
            unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn store_head(self, dst: &mut [f32]) {
            let mask = Self::head_mask(dst.len());
            // SAFETY: AVX-512F is available; a masked store writes memory
            // only for lanes whose mask bit is set, at most the first
            // `dst.len()` elements of `dst`.
            unsafe { _mm512_mask_storeu_ps(dst.as_mut_ptr(), mask, self.0) }
        }

        #[inline(always)]
        fn add(self, rhs: Self) -> Self {
            // SAFETY: AVX-512F is available (see the type's docs).
            Avx512(unsafe { _mm512_add_ps(self.0, rhs.0) })
        }

        #[inline(always)]
        fn mul(self, rhs: Self) -> Self {
            // SAFETY: AVX-512F is available (see the type's docs).
            Avx512(unsafe { _mm512_mul_ps(self.0, rhs.0) })
        }

        #[inline(always)]
        fn relu(self) -> Self {
            // SAFETY: AVX-512F is available (see the type's docs). `max_ps`
            // returns its second operand, `+0.0`, when the lanes tie or
            // `self` is NaN.
            Avx512(unsafe { _mm512_max_ps(self.0, _mm512_setzero_ps()) })
        }

        #[inline(always)]
        fn positive_bits(self) -> u32 {
            // SAFETY: AVX-512F is available (see the type's docs); the
            // compare writes a mask register only.
            let bits = unsafe { _mm512_cmp_ps_mask::<_CMP_GT_OQ>(self.0, _mm512_setzero_ps()) };
            u32::from(bits)
        }

        #[inline(always)]
        fn bit_lanes(bytes: &[u8], bit: u32) -> Self {
            let bytes: &[u8; 16] = bytes[..16].try_into().expect("sixteen lanes");
            // SAFETY: AVX-512F is available (see the type's docs); the
            // pointer comes from a reference to exactly sixteen bytes, which
            // the 128-bit load reads; the rest touches registers only.
            Avx512(unsafe {
                let wide = _mm512_cvtepu8_epi32(_mm_loadu_si128(bytes.as_ptr().cast()));
                let set = _mm512_test_epi32_mask(wide, _mm512_set1_epi32(1 << bit));
                _mm512_maskz_mov_ps(set, _mm512_set1_ps(1.0))
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_a_pure_function_of_the_cpu_features() {
        // No argument, no global: every call returns what the feature bits
        // alone determine.
        let first = Level::detect();
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            first,
            Level::select(
                std::is_x86_feature_detected!("avx2"),
                std::is_x86_feature_detected!("avx512f"),
            )
        );
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(first, Level::Portable);
        assert_eq!(Level::detect(), first);
        assert!(first.is_available());
        assert!(Level::Portable.is_available());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn selection_rule_truth_table() {
        assert_eq!(Level::select(false, false), Level::Portable);
        assert_eq!(Level::select(false, true), Level::Portable);
        assert_eq!(Level::select(true, false), Level::Avx2);
        assert_eq!(Level::select(true, true), Level::Avx512);
    }

    #[test]
    fn available_levels_are_a_prefix_of_the_compiled_ones() {
        let available: Vec<Level> = Level::available().collect();
        assert_eq!(available, Level::COMPILED[..available.len()]);
        assert_eq!(available.last(), Some(&Level::detect()));
    }
}
