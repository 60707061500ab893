//! The product kernel bodies — one register-tiled body per product shape —
//! and the fused convolution layer's forward and backward bodies, generic
//! over the [`Vector`] width [`crate::dispatch`] instantiates them at.
//!
//! Every body keeps a block of output elements in vector registers for the
//! whole contraction instead of streaming the output through memory once
//! per contraction step, and lays the vector lanes across *independent*
//! output elements, so no lane ever holds a partial sum that a horizontal
//! operation would have to combine. Each output element therefore sees
//! exactly the scalar sequence of multiplications and additions that
//! [`crate::reference`] spells out (the fold-order contract in
//! [`crate::product`]), whatever the width.
//!
//! Everything here is safe code and `#[inline(always)]`: the bodies inline
//! into the `#[target_feature]` entry points of the dispatch module and are
//! compiled with that entry's instruction set. That is also why the loops
//! are plain index loops: an iterator adaptor or closure that LLVM declines
//! to inline (`array::from_fn` was one) is compiled on its own, *without*
//! the entry's target feature, and every vector operation inside it turns
//! into a function call — measured at 2–7x slower, same bits.

// See the note on index loops above.
#![allow(clippy::needless_range_loop)]

use crate::conv::{
    padded_filters, plane_len, run_len, ConvLayer, ConvShape, KERNEL, MAX_LANES, SLOTS,
    TABLE_STRIDE,
};
use crate::dispatch::Vector;
use crate::product::{MatrixView, Product, Store};

/// Runs `op` with `V`-wide vectors. Shapes were checked by the caller.
#[inline(always)]
pub(crate) fn run<V: Vector>(op: Product, a: MatrixView<'_>, b: MatrixView<'_>, out: &mut [f32]) {
    match op {
        Product::MatmulAcc => for_each_strip::<V, _>(b.cols(), 4, &mut Matmul { a, b, out }),
        Product::TransposeMatmulGrouped(store) => transpose_matmul::<V, true>(a, b, out, store),
        Product::TransposeMatmul(store) => transpose_matmul::<V, false>(a, b, out, store),
        // The lanes-across-rows bodies transpose a block of lhs rows onto
        // the stack, so a contraction too long for it runs element by
        // element, in the same fold.
        Product::MatmulTransposeAcc if b.cols() > ACROSS_CHUNK => tree_dots(a, b, out),
        Product::MatmulTransposeAcc => dots_across_rows::<V, true>(a, b, out),
        Product::MatmulTransposeInto if b.cols() > ACROSS_CHUNK => sequential_dots(a, b, out),
        Product::MatmulTransposeInto => dots_across_rows::<V, false>(a, b, out),
    }
}

/// The `aᵀ · b` strip body with `store` as its compile-time store mode.
#[inline(always)]
fn transpose_matmul<V: Vector, const GROUPED: bool>(
    a: MatrixView<'_>,
    b: MatrixView<'_>,
    out: &mut [f32],
    store: Store,
) {
    let n = b.cols();
    match store {
        Store::Overwrite => for_each_strip::<V, _>(
            n,
            V::ROW_STRIP,
            &mut TransposeMatmul::<GROUPED, false> { a, b, out },
        ),
        Store::Add => for_each_strip::<V, _>(
            n,
            V::ROW_STRIP,
            &mut TransposeMatmul::<GROUPED, true> { a, b, out },
        ),
    }
}

/// One pass of a kernel over the column strip `j..j + w` of the output: `C`
/// vectors wide, the last of them partial (`w < C * LANES`) iff `MASKED`.
trait StripBody {
    fn strip<V: Vector, const C: usize, const MASKED: bool>(&mut self, j: usize, w: usize);
}

/// Covers `n` output columns with strips of at most `max_vectors` (a power
/// of two, at most 8) vectors, widest first, so the strip width — and with
/// it the number of accumulator registers — is a compile-time constant in
/// every instantiation of the body.
#[inline(always)]
fn for_each_strip<V: Vector, B: StripBody>(n: usize, max_vectors: usize, body: &mut B) {
    let mut j = 0;
    while j < n {
        let rest = n - j;
        let mut c = max_vectors;
        while c > 1 && (c - 1) * V::LANES >= rest {
            c /= 2;
        }
        let w = rest.min(c * V::LANES);
        match (c, w < c * V::LANES) {
            (8, false) => body.strip::<V, 8, false>(j, w),
            (8, true) => body.strip::<V, 8, true>(j, w),
            (4, false) => body.strip::<V, 4, false>(j, w),
            (4, true) => body.strip::<V, 4, true>(j, w),
            (2, false) => body.strip::<V, 2, false>(j, w),
            (2, true) => body.strip::<V, 2, true>(j, w),
            (_, false) => body.strip::<V, 1, false>(j, w),
            (_, true) => body.strip::<V, 1, true>(j, w),
        }
        j += w;
    }
}

/// Loads a `C`-vector strip from the front of `src` (`src.len()` is the
/// strip width).
#[inline(always)]
fn load_strip<V: Vector, const C: usize, const MASKED: bool>(src: &[f32]) -> [V; C] {
    let mut strip = [V::splat(0.0); C];
    for c in 0..C {
        let lanes = &src[c * V::LANES..];
        strip[c] = if MASKED && c + 1 == C {
            V::load_head(lanes)
        } else {
            V::load(lanes)
        };
    }
    strip
}

/// Four consecutive shared rows' strips, starting at row `first` of the
/// row-major `b` (`n` columns), columns `j..j + w`.
#[inline(always)]
fn load_group<V: Vector, const C: usize, const MASKED: bool>(
    b: &[f32],
    n: usize,
    first: usize,
    j: usize,
    w: usize,
) -> [[V; C]; 4] {
    let mut rows = [[V::splat(0.0); C]; 4];
    for t in 0..4 {
        rows[t] = load_strip::<V, C, MASKED>(&b[(first + t) * n + j..][..w]);
    }
    rows
}

/// `acc[c] += ((x₀·b₀[c] + x₁·b₁[c]) + x₂·b₂[c]) + x₃·b₃[c]` for every
/// vector of the strip — the four-way grouped term.
#[inline(always)]
fn add_group<V: Vector, const C: usize>(acc: &mut [V; C], x: [f32; 4], b_rows: &[[V; C]; 4]) {
    let x = [
        V::splat(x[0]),
        V::splat(x[1]),
        V::splat(x[2]),
        V::splat(x[3]),
    ];
    for c in 0..C {
        let term = x[0]
            .mul(b_rows[0][c])
            .add(x[1].mul(b_rows[1][c]))
            .add(x[2].mul(b_rows[2][c]))
            .add(x[3].mul(b_rows[3][c]));
        acc[c] = acc[c].add(term);
    }
}

/// `acc[c] += x·b[c]` for every vector of the strip.
#[inline(always)]
fn add_single<V: Vector, const C: usize>(acc: &mut [V; C], x: f32, b_row: &[V; C]) {
    let x = V::splat(x);
    for c in 0..C {
        acc[c] = acc[c].add(x.mul(b_row[c]));
    }
}

/// Stores a `C`-vector strip to the front of `dst` (`dst.len()` is the
/// strip width).
#[inline(always)]
fn store_strip<V: Vector, const C: usize, const MASKED: bool>(strip: [V; C], dst: &mut [f32]) {
    for c in 0..C {
        let lanes = &mut dst[c * V::LANES..];
        if MASKED && c + 1 == C {
            strip[c].store_head(lanes);
        } else {
            strip[c].store(lanes);
        }
    }
}

/// `out (m x n) += a (m x k) · b (k x n)`: paired rows go four (then two)
/// at a time against strips of up to four vectors, each rhs vector feeding
/// every row of the tile; an unpaired last row goes alone under its own
/// skip rules.
struct Matmul<'a> {
    a: MatrixView<'a>,
    b: MatrixView<'a>,
    out: &'a mut [f32],
}

impl StripBody for Matmul<'_> {
    #[inline(always)]
    fn strip<V: Vector, const C: usize, const MASKED: bool>(&mut self, j: usize, w: usize) {
        let m = self.a.rows();
        let mut i = 0;
        while i + 4 <= m {
            self.paired_rows::<V, 4, C, MASKED>(i, j, w);
            i += 4;
        }
        if i + 2 <= m {
            self.paired_rows::<V, 2, C, MASKED>(i, j, w);
            i += 2;
        }
        if i < m {
            self.last_row::<V, C, MASKED>(i, j, w);
        }
    }
}

impl Matmul<'_> {
    /// Rows `i..i + R` (`R` even: `R / 2` pairs) of the strip `j..j + w`.
    #[inline(always)]
    fn paired_rows<V: Vector, const R: usize, const C: usize, const MASKED: bool>(
        &mut self,
        i: usize,
        j: usize,
        w: usize,
    ) {
        let (k, n) = (self.a.cols(), self.b.cols());
        let b = self.b.as_slice();
        let a = &self.a.as_slice()[i * k..(i + R) * k];
        let mut acc = [[V::splat(0.0); C]; R];
        for r in 0..R {
            acc[r] = load_strip::<V, C, MASKED>(&self.out[(i + r) * n + j..][..w]);
        }
        let groups = k / 4;
        for g in 0..groups {
            let b_rows = load_group::<V, C, MASKED>(b, n, 4 * g, j, w);
            for r in 0..R {
                let x = &a[r * k + 4 * g..][..4];
                add_group(&mut acc[r], [x[0], x[1], x[2], x[3]], &b_rows);
            }
        }
        for kk in 4 * groups..k {
            let b_row = load_strip::<V, C, MASKED>(&b[kk * n + j..][..w]);
            for pair in 0..R / 2 {
                let (x, y) = (a[2 * pair * k + kk], a[(2 * pair + 1) * k + kk]);
                if x != 0.0 || y != 0.0 {
                    add_single(&mut acc[2 * pair], x, &b_row);
                    add_single(&mut acc[2 * pair + 1], y, &b_row);
                }
            }
        }
        for r in 0..R {
            store_strip::<V, C, MASKED>(acc[r], &mut self.out[(i + r) * n + j..][..w]);
        }
    }

    /// The unpaired row `i` of the strip `j..j + w`.
    #[inline(always)]
    fn last_row<V: Vector, const C: usize, const MASKED: bool>(
        &mut self,
        i: usize,
        j: usize,
        w: usize,
    ) {
        let (k, n) = (self.a.cols(), self.b.cols());
        let b = self.b.as_slice();
        let a_row = self.a.row(i);
        let out_strip = &mut self.out[i * n + j..][..w];
        let mut acc = load_strip::<V, C, MASKED>(out_strip);
        let groups = k / 4;
        for g in 0..groups {
            let x = &a_row[4 * g..][..4];
            if x[0] != 0.0 || x[1] != 0.0 || x[2] != 0.0 || x[3] != 0.0 {
                let b_rows = load_group::<V, C, MASKED>(b, n, 4 * g, j, w);
                add_group(&mut acc, [x[0], x[1], x[2], x[3]], &b_rows);
            }
        }
        for kk in 4 * groups..k {
            let x = a_row[kk];
            if x != 0.0 {
                let b_row = load_strip::<V, C, MASKED>(&b[kk * n + j..][..w]);
                add_single(&mut acc, x, &b_row);
            }
        }
        store_strip::<V, C, MASKED>(acc, out_strip);
    }
}

/// `aᵀ · b` for `a: kb x i`, `b: kb x n` into `out (i x n)`: each output
/// row's strip is folded in registers from `+0.0` across all `kb` shared
/// rows, then stored once — as it is, or (`ADD`) added to what `out` held,
/// so the output is written once and read at most once. `GROUPED` folds the
/// shared rows four at a time ([`Product::TransposeMatmulGrouped`]);
/// otherwise one at a time ([`Product::TransposeMatmul`]).
struct TransposeMatmul<'a, const GROUPED: bool, const ADD: bool> {
    a: MatrixView<'a>,
    b: MatrixView<'a>,
    out: &'a mut [f32],
}

impl<const GROUPED: bool, const ADD: bool> StripBody for TransposeMatmul<'_, GROUPED, ADD> {
    #[inline(always)]
    fn strip<V: Vector, const C: usize, const MASKED: bool>(&mut self, j: usize, w: usize) {
        let (kb, rows, n) = (self.a.rows(), self.a.cols(), self.b.cols());
        let (a, b) = (self.a.as_slice(), self.b.as_slice());
        let groups = if GROUPED { kb / 4 } else { 0 };
        for i in 0..rows {
            let mut acc = [V::splat(0.0); C];
            for g in 0..groups {
                let x = [
                    a[4 * g * rows + i],
                    a[(4 * g + 1) * rows + i],
                    a[(4 * g + 2) * rows + i],
                    a[(4 * g + 3) * rows + i],
                ];
                if x[0] == 0.0 && x[1] == 0.0 && x[2] == 0.0 && x[3] == 0.0 {
                    continue;
                }
                let b_rows = load_group::<V, C, MASKED>(b, n, 4 * g, j, w);
                add_group(&mut acc, x, &b_rows);
            }
            for kk in 4 * groups..kb {
                let x = a[kk * rows + i];
                if x == 0.0 {
                    continue;
                }
                let b_row = load_strip::<V, C, MASKED>(&b[kk * n + j..][..w]);
                add_single(&mut acc, x, &b_row);
            }
            let out_strip = &mut self.out[i * n + j..][..w];
            if ADD {
                let held = load_strip::<V, C, MASKED>(out_strip);
                for c in 0..C {
                    acc[c] = held[c].add(acc[c]);
                }
            }
            store_strip::<V, C, MASKED>(acc, out_strip);
        }
    }
}

/// The longest contraction the lanes-across-rows body transposes (a
/// multiple of eight): the back-propagated `dlogits · Wᵀ` contracts over the
/// classes (62 for the paper's models). A longer one takes [`tree_dots`]
/// or [`sequential_dots`].
const ACROSS_CHUNK: usize = 128;

/// `out (m x n) (+)= a (m x k) · bᵀ` for `b: n x k` and `k` at most
/// [`ACROSS_CHUNK`], with the vector lanes laid across `LANES` lhs rows:
/// lane `r` of every register belongs to output row `i0 + r`, so the dot
/// product's own lane sums (`TREE`: eight of them plus the tail,
/// [`Product::MatmulTransposeAcc`]) or its single running sum
/// ([`Product::MatmulTransposeInto`]) are whole registers and are combined
/// register by register — no horizontal sum. The lhs block is transposed
/// once and reused by every rhs row. Both buffers live on the stack: the
/// kernel allocates nothing.
#[inline(always)]
fn dots_across_rows<V: Vector, const TREE: bool>(
    a: MatrixView<'_>,
    b: MatrixView<'_>,
    out: &mut [f32],
) {
    /// Rhs rows whose results are staged before they are scattered into the
    /// output rows, so the scatter runs along contiguous output.
    const STAGE: usize = 64;
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let lanes = V::LANES;
    debug_assert!(
        k <= ACROSS_CHUNK,
        "the transposed block holds the contraction"
    );
    // transposed[p * lanes + r] = a[i0 + r][p]; rows past `m` stay zero.
    let mut transposed = [0.0f32; ACROSS_CHUNK * MAX_LANES];
    let transposed = &mut transposed[..k * lanes];
    let mut staged = [0.0f32; STAGE * MAX_LANES];
    for i0 in (0..m).step_by(lanes) {
        let block_rows = lanes.min(m - i0);
        if block_rows < lanes {
            transposed.fill(0.0);
        }
        for r in 0..block_rows {
            for (p, &x) in a.row(i0 + r).iter().enumerate() {
                transposed[p * lanes + r] = x;
            }
        }
        for j0 in (0..n).step_by(STAGE) {
            let block_cols = STAGE.min(n - j0);
            for jj in 0..block_cols {
                let b_row = b.row(j0 + jj);
                let dots: V = if TREE {
                    dot_tree(transposed, b_row)
                } else {
                    dot_sequential(transposed, b_row)
                };
                dots.store(&mut staged[jj * lanes..]);
            }
            for r in 0..block_rows {
                let out_row = &mut out[(i0 + r) * n + j0..][..block_cols];
                for jj in 0..block_cols {
                    if TREE {
                        out_row[jj] += staged[jj * lanes + r];
                    } else {
                        out_row[jj] = staged[jj * lanes + r];
                    }
                }
            }
        }
    }
}

/// [`Product::MatmulTransposeInto`] for a contraction longer than
/// [`ACROSS_CHUNK`]: each output is one running sum from `+0.0`, left to
/// right — the spec's own fold, element by element.
fn sequential_dots(a: MatrixView<'_>, b: MatrixView<'_>, out: &mut [f32]) {
    let n = b.rows();
    for i in 0..a.rows() {
        let a_row = a.row(i);
        for j in 0..n {
            let mut sum = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b.row(j)) {
                sum += x * y;
            }
            out[i * n + j] = sum;
        }
    }
}

/// [`Product::MatmulTransposeAcc`] for a contraction longer than
/// [`ACROSS_CHUNK`]: each output gets eight lane sums and a sequential tail,
/// combined as in [`dot_tree`] — the spec's own fold, element by element.
fn tree_dots(a: MatrixView<'_>, b: MatrixView<'_>, out: &mut [f32]) {
    let (k, n) = (a.cols(), b.rows());
    let full = k / 8 * 8;
    for i in 0..a.rows() {
        let a_row = a.row(i);
        for j in 0..n {
            let b_row = b.row(j);
            let mut l = [0.0f32; 8];
            for p in (0..full).step_by(8) {
                for q in 0..8 {
                    l[q] += a_row[p + q] * b_row[p + q];
                }
            }
            let mut tail = 0.0f32;
            for p in full..k {
                tail += a_row[p] * b_row[p];
            }
            out[i * n + j] +=
                (((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))) + tail;
        }
    }
}

/// Eight lane sums plus a sequential tail, combined as
/// `(((l₀+l₁)+(l₂+l₃)) + ((l₄+l₅)+(l₆+l₇))) + tail` — per lane of `V`, the
/// dot product of one transposed lhs row with `b_row`.
#[inline(always)]
fn dot_tree<V: Vector>(transposed: &[f32], b_row: &[f32]) -> V {
    let lanes = V::LANES;
    let k = b_row.len();
    let transposed = &transposed[..k * lanes];
    let mut sums = [V::splat(0.0); 8];
    let full = k / 8 * 8;
    for p in (0..full).step_by(8) {
        let a_chunk = &transposed[p * lanes..][..8 * lanes];
        let b_chunk = &b_row[p..][..8];
        for q in 0..8 {
            let a = V::load(&a_chunk[q * lanes..]);
            sums[q] = sums[q].add(a.mul(V::splat(b_chunk[q])));
        }
    }
    let mut tail = V::splat(0.0);
    for p in full..k {
        let a = V::load(&transposed[p * lanes..]);
        tail = tail.add(a.mul(V::splat(b_row[p])));
    }
    sums[0]
        .add(sums[1])
        .add(sums[2].add(sums[3]))
        .add(sums[4].add(sums[5]).add(sums[6].add(sums[7])))
        .add(tail)
}

/// One running sum from `+0.0`, left to right.
#[inline(always)]
fn dot_sequential<V: Vector>(transposed: &[f32], b_row: &[f32]) -> V {
    let mut sum = V::splat(0.0);
    for p in 0..b_row.len() {
        let a = V::load(&transposed[p * V::LANES..]);
        sum = sum.add(a.mul(V::splat(b_row[p])));
    }
    sum
}

/// [`crate::conv::ConvLayer::relu_pool`] with `V`-wide vectors; shapes were
/// checked by the caller and `work` is [`crate::conv::ConvScratch`]'s
/// region for the layer.
///
/// The vector lanes run across an image's pooling windows in pooled order
/// (`py·pw + px`), so a block of `LANES` windows advances per instruction.
/// Image by image, the kernel first splits the image into even- and
/// odd-column planes, then copies, for every patch index `k` and window
/// position `q = 2·dy + dx`, the input each window meets there into one
/// contiguous window-ordered run (run `4·k + q`). Block by block it
/// gathers the runs' vectors side by side — the operands of the block, at
/// fixed offsets, so the fold below indexes them without a bounds check —
/// and goes over them with the filters a pair at a time: four accumulators
/// per filter (one per window position) carry the contract's fold from the
/// bias seed, and ReLU, the pooling sum and the quarter follow in
/// registers, as do the ReLU mask's bits when they are asked for.
#[inline(always)]
pub(crate) fn conv_relu_pool<V: Vector>(
    layer: ConvLayer<'_>,
    images: MatrixView<'_>,
    work: &mut [f32],
    pooled: &mut [f32],
    relu_mask: Option<&mut [u8]>,
) {
    match relu_mask {
        Some(relu_mask) => conv_body::<V, true>(layer, images, work, pooled, relu_mask),
        None => conv_body::<V, false>(layer, images, work, pooled, &mut []),
    }
}

/// The kernel behind [`conv_relu_pool`]; `KEEP` writes `relu_mask`.
#[inline(always)]
fn conv_body<V: Vector, const KEEP: bool>(
    layer: ConvLayer<'_>,
    images: MatrixView<'_>,
    work: &mut [f32],
    pooled: &mut [f32],
    relu_mask: &mut [u8],
) {
    let shape = layer.shape();
    let (channels, height, width, filters) =
        (shape.channels, shape.height, shape.width, shape.filters);
    let (ph, pw) = shape.pooled_size();
    let (lanes, stride, run) = (V::LANES, width.div_ceil(2), run_len(shape));
    let (planes, work) = work.split_at_mut(plane_len(shape) + 2 * MAX_LANES);
    let (runs, operands) = work.split_at_mut(4 * shape.patch_dim() * run);
    for b in 0..images.rows() {
        let image = images.row(b);
        for row in 0..channels * height {
            let src = &image[row * width..][..width];
            let even = row * 2 * stride;
            for i in 0..width / 2 {
                planes[even + i] = src[2 * i];
                planes[even + stride + i] = src[2 * i + 1];
            }
            if width % 2 == 1 {
                planes[even + width / 2] = src[width - 1];
            }
        }
        // Window (py, px) at position (dy, dx) meets input column
        // 2·px + dx + kx of row 2·py + dy + ky: plane (dx + kx) mod 2,
        // offset (dx + kx) / 2. Each run row is copied in whole vectors;
        // the lanes past `pw` land where the next row (or the run's
        // slack) is written, and a load reaches past the last plane row
        // into the planes region's overhang.
        for c in 0..channels {
            for ky in 0..KERNEL {
                for kx in 0..KERNEL {
                    let k = (c * KERNEL + ky) * KERNEL + kx;
                    for q in 0..4 {
                        let (dy, dx) = (q / 2, q % 2);
                        let s = dx + kx;
                        let dst = (4 * k + q) * run;
                        for py in 0..ph {
                            let row = c * height + 2 * py + dy + ky;
                            let src = (row * 2 + s % 2) * stride + s / 2;
                            let mut x = 0;
                            while x < pw {
                                V::load(&planes[src + x..]).store(&mut runs[dst + py * pw + x..]);
                                x += lanes;
                            }
                        }
                    }
                }
            }
        }
        let pooled = &mut pooled[b * shape.pooled_dim()..][..shape.pooled_dim()];
        let relu_mask = if KEEP {
            &mut relu_mask[b * shape.mask_dim()..][..shape.mask_dim()]
        } else {
            &mut []
        };
        let mut p0 = 0;
        while p0 < ph * pw {
            for a in 0..4 * shape.patch_dim() {
                V::load(&runs[a * run + p0..]).store(&mut operands[a * lanes..]);
            }
            let mut block = WindowBlock {
                layer,
                operands,
                pooled: &mut *pooled,
                relu_mask: &mut *relu_mask,
                p0,
            };
            let mut o = 0;
            while o + 2 <= filters {
                block.filters::<V, 2, KEEP>(o);
                o += 2;
            }
            if o < filters {
                block.filters::<V, 1, KEEP>(o);
            }
            p0 += lanes;
        }
    }
}

/// The block of pooling windows `p0..p0 + LANES` (pooled order, the last
/// block partial) of one image, with the block's operands — vector
/// `4·k + q` the input patch index `k` meets at window position `q` — and
/// the image's rows of the two outputs.
struct WindowBlock<'a> {
    layer: ConvLayer<'a>,
    operands: &'a [f32],
    pooled: &'a mut [f32],
    relu_mask: &'a mut [u8],
    p0: usize,
}

impl WindowBlock<'_> {
    /// Filters `o..o + F` (`F` is 2 for a pair, 1 for the unpaired last
    /// filter): their pre-activations, pooled values and — if `KEEP` —
    /// ReLU mask bytes.
    #[inline(always)]
    fn filters<V: Vector, const F: usize, const KEEP: bool>(&mut self, o: usize) {
        let pre = self.pre_activations::<V, F>(o);
        let (ph, pw) = self.layer.shape().pooled_size();
        let windows = ph * pw;
        let n = V::LANES.min(windows - self.p0);
        for f in 0..F {
            let [r00, r01, r10, r11] = pre[f];
            let pooled = r00
                .relu()
                .add(r01.relu())
                .add(r10.relu())
                .add(r11.relu())
                .mul(V::splat(0.25));
            let at = (o + f) * windows + self.p0;
            store_lanes(pooled, &mut self.pooled[at..][..n]);
            if KEEP {
                let groups = windows.div_ceil(8);
                let filters = self.layer.shape().filters;
                for q in 0..4 {
                    let bits = pre[f][q].positive_bits() & ((1 << n) - 1);
                    let row = &mut self.relu_mask[q * groups * filters + o + f..];
                    store_mask_bits::<V>(bits, n, self.p0, row, filters);
                }
            }
        }
    }

    /// The four window positions' pre-activations of filters `o..o + F`
    /// over the block, in the contract's fold order and with its skip
    /// rules: a pair skips a leftover index that weighs zero in both its
    /// filters, and only an unpaired filter (`F == 1`) skips whole groups.
    #[inline(always)]
    fn pre_activations<V: Vector, const F: usize>(&self, o: usize) -> [[V; 4]; F] {
        let lanes = V::LANES;
        let patch = self.layer.shape().patch_dim();
        let (weights, bias) = (self.layer.weights(), self.layer.bias());
        let mut rows = [&[][..]; F];
        let mut acc = [[V::splat(0.0); 4]; F];
        for f in 0..F {
            rows[f] = &weights[(o + f) * patch..][..patch];
            acc[f] = [V::splat(bias[o + f]); 4];
        }
        let groups = patch / 4;
        for g in 0..groups {
            let k = 4 * g;
            if F == 1 {
                let w = &rows[0][k..][..4];
                if w[0] == 0.0 && w[1] == 0.0 && w[2] == 0.0 && w[3] == 0.0 {
                    continue;
                }
            }
            let mut w = [[V::splat(0.0); 4]; F];
            for f in 0..F {
                let row = &rows[f][k..][..4];
                for t in 0..4 {
                    w[f][t] = V::splat(row[t]);
                }
            }
            // The group's sixteen operand vectors; constant offsets below.
            let xs = &self.operands[4 * k * lanes..][..16 * lanes];
            for q in 0..4 {
                let mut x = [V::splat(0.0); 4];
                for t in 0..4 {
                    x[t] = V::load(&xs[(4 * t + q) * lanes..]);
                }
                for f in 0..F {
                    let term = w[f][0]
                        .mul(x[0])
                        .add(w[f][1].mul(x[1]))
                        .add(w[f][2].mul(x[2]))
                        .add(w[f][3].mul(x[3]));
                    acc[f][q] = acc[f][q].add(term);
                }
            }
        }
        for k in 4 * groups..patch {
            let mut live = false;
            for f in 0..F {
                live |= rows[f][k] != 0.0;
            }
            if !live {
                continue;
            }
            let xs = &self.operands[4 * k * lanes..][..4 * lanes];
            for q in 0..4 {
                let x = V::load(&xs[q * lanes..]);
                for f in 0..F {
                    acc[f][q] = acc[f][q].add(V::splat(rows[f][k]).mul(x));
                }
            }
        }
        acc
    }
}

/// Writes the `n` mask bits `bits` of windows `p0..p0 + n` (`p0` a multiple
/// of `LANES`) of one filter and window position: bit `w mod 8` of byte
/// `(w / 8)·filters` of `row`. A four-lane level writes a byte in two
/// halves, the first setting it and the second ORed in.
#[inline(always)]
fn store_mask_bits<V: Vector>(bits: u32, n: usize, p0: usize, row: &mut [u8], filters: usize) {
    let at = p0 / 8 * filters;
    if V::LANES < 8 {
        if p0.is_multiple_of(8) {
            row[at] = bits as u8;
        } else {
            row[at] |= (bits << (p0 % 8)) as u8;
        }
    } else {
        row[at] = bits as u8;
        if V::LANES > 8 && n > 8 {
            row[at + filters] = (bits >> 8) as u8;
        }
    }
}

/// Stores the first `dst.len()` lanes (at most `LANES`) of `v`.
#[inline(always)]
fn store_lanes<V: Vector>(v: V, dst: &mut [f32]) {
    if dst.len() == V::LANES {
        v.store(dst);
    } else {
        v.store_head(dst);
    }
}

/// The operands of [`conv_relu_pool_backward`], their lengths checked by
/// the caller.
pub(crate) struct Backward<'a> {
    /// [`crate::conv::ConvScratch`]'s table region for the shape.
    pub(crate) table: &'a mut [[usize; TABLE_STRIDE]],
    /// [`crate::conv::ConvScratch`]'s padded mask copy, zeroed.
    pub(crate) mask: &'a mut [u8],
    pub(crate) shape: ConvShape,
    pub(crate) images: MatrixView<'a>,
    pub(crate) dpooled: &'a [f32],
    pub(crate) relu_mask: &'a [u8],
    pub(crate) dweights: &'a mut [f32],
    pub(crate) dbias: &'a mut [f32],
}

/// [`crate::conv::ConvLayer::relu_pool_backward`] with `V`-wide vectors;
/// `work` is [`crate::conv::ConvScratch`]'s backward region for the shape.
///
/// The vector lanes run across filters, so each output's fold is one lane
/// of one register and `LANES` filters advance per instruction. A table
/// built once per call gives every convolution position its offset in an
/// image channel, its window's row of the pooled gradient and its mask
/// byte and bit; a position no window covers points at a row of zeros.
/// Image by image, the kernel first lays the pooled gradient out
/// window-major and quartered (`g / 4` of window `w`, filter `o` at
/// `w·stride + o`) and copies the mask in front of a row of zero bytes, so
/// a vector of filters at one position is one load of each. The bias
/// chains then walk every position in order, up to four filter blocks at a
/// time. For the weights, each filter block (or pair of blocks, at
/// [`Vector::FILTER_TILE`] 2), channel and lane sum (the eight residue
/// classes of the column index and the tail) walks its own positions in
/// order with the nine taps' sums in registers, recomputing `dpre` and
/// reading each tap from the image. The sums wait in `work` from image to
/// image and are combined by the dot tree at the end.
#[inline(always)]
pub(crate) fn conv_relu_pool_backward<V: Vector>(args: Backward<'_>, work: &mut [f32]) {
    let Backward {
        table,
        mask,
        shape,
        images,
        dpooled,
        relu_mask,
        dweights,
        dbias,
    } = args;
    let lanes = V::LANES;
    let taps = KERNEL * KERNEL;
    let (ch, cw) = shape.conv_size();
    let (ph, pw) = shape.pooled_size();
    let (windows, channels, filters) = (ph * pw, shape.channels, shape.filters);
    let (stride, blocks, positions) = (padded_filters(shape), filters.div_ceil(lanes), ch * cw);
    let (width, image_len) = (shape.width, shape.height * shape.width);
    // Column indices below `full` go to the eight lane sums, the rest to
    // the tail.
    let full = images.rows() * positions / 8 * 8;
    if filters == 0 {
        return;
    }
    let (grads, work) = work.split_at_mut((windows + 1) * stride);
    let (sums, chains) = work.split_at_mut(SLOTS * shape.patch_dim() * stride);
    // The padding lanes of `grads` and its last row, where the positions no
    // window covers read, are never written below: they stay `+0.0`.
    grads.fill(0.0);
    sums.fill(0.0);
    chains.fill(0.0);
    let groups = windows.div_ceil(8);
    for y in 0..ch {
        for x in 0..cw {
            let entry = &mut table[y * cw + x];
            entry[0] = y * width + x;
            if y < 2 * ph && x < 2 * pw {
                let w = (y / 2) * pw + x / 2;
                let q = 2 * (y % 2) + x % 2;
                entry[1] = w * stride;
                entry[2] = mask_entry(q, w, groups, filters);
            } else {
                entry[1] = windows * stride;
                entry[2] = 0;
            }
        }
    }
    for b in 0..images.rows() {
        let dpooled = &dpooled[b * shape.pooled_dim()..][..shape.pooled_dim()];
        quarter_window_major(dpooled, windows, grads, stride);
        // The image's mask, copied in front of zeros, so the vector load
        // of a filter block past its last row of bytes stays in bounds.
        mask[..shape.mask_dim()]
            .copy_from_slice(&relu_mask[b * shape.mask_dim()..][..shape.mask_dim()]);
        let grad = PreGradient { grads, mask };

        // The bias chains, up to four blocks of filters at a time.
        let mut blk = 0;
        while blk < blocks {
            let held = &mut chains[blk * lanes..];
            blk += match blocks - blk {
                1 => grad.bias_chains::<V, 1>(shape, blk * lanes, held),
                2 => grad.bias_chains::<V, 2>(shape, blk * lanes, held),
                3 => grad.bias_chains::<V, 3>(shape, blk * lanes, held),
                _ => grad.bias_chains::<V, 4>(shape, blk * lanes, held),
            };
        }

        // The weights' lane sums: slot `l < 8` takes the column indices
        // `p ≡ l (mod 8)` below `full`, slot 8 the tail.
        let first = b * positions;
        let lane_end = positions.min(full.saturating_sub(first));
        for c in 0..channels {
            let image = &images.row(b)[c * image_len..][..image_len];
            for slot in 0..SLOTS {
                let (start, end, step) = if slot < 8 {
                    ((slot + 8 - first % 8) % 8, lane_end, 8)
                } else {
                    (lane_end, positions, 1)
                };
                if start >= end {
                    continue;
                }
                let walk = Walk {
                    table,
                    image,
                    width,
                    grad: &grad,
                    positions: (start, end, step),
                };
                let mut blk = 0;
                while blk < blocks {
                    let held = &mut sums[((c * SLOTS + slot) * blocks + blk) * taps * lanes..];
                    if V::FILTER_TILE == 2 && blk + 2 <= blocks {
                        walk.tap_sums::<V, 2>(blk * lanes, held);
                        blk += 2;
                    } else {
                        walk.tap_sums::<V, 1>(blk * lanes, held);
                        blk += 1;
                    }
                }
            }
        }
    }

    // The dot tree per weight, landed on `+0.0`; the bias chains as they
    // are.
    let mut out = [0.0f32; MAX_LANES];
    for blk in 0..blocks {
        let o0 = blk * lanes;
        let n = lanes.min(filters - o0);
        for c in 0..channels {
            for t in 0..taps {
                let mut l = [V::splat(0.0); SLOTS];
                for slot in 0..SLOTS {
                    let at = (((c * SLOTS + slot) * blocks + blk) * taps + t) * lanes;
                    l[slot] = V::load(&sums[at..]);
                }
                let tree = l[0]
                    .add(l[1])
                    .add(l[2].add(l[3]))
                    .add(l[4].add(l[5]).add(l[6].add(l[7])));
                V::splat(0.0).add(tree.add(l[8])).store(&mut out);
                for f in 0..n {
                    dweights[(o0 + f) * shape.patch_dim() + c * taps + t] = out[f];
                }
            }
        }
        dbias[o0..o0 + n].copy_from_slice(&chains[o0..o0 + n]);
    }
}

/// One lane sum's walk over one image channel's positions
/// `(start..end).step_by(step)`.
struct Walk<'a> {
    table: &'a [[usize; TABLE_STRIDE]],
    image: &'a [f32],
    width: usize,
    grad: &'a PreGradient<'a>,
    positions: (usize, usize, usize),
}

impl Walk<'_> {
    /// Advances the nine tap sums of `T` filter blocks from filter `o` on
    /// over the walk, with them in registers; `held` holds the sums, block
    /// after block, tap after tap.
    #[inline(always)]
    fn tap_sums<V: Vector, const T: usize>(&self, o: usize, held: &mut [f32]) {
        let (lanes, taps) = (V::LANES, KERNEL * KERNEL);
        let mut acc = [[V::splat(0.0); KERNEL * KERNEL]; T];
        for k in 0..T {
            for t in 0..taps {
                acc[k][t] = V::load(&held[(k * taps + t) * lanes..]);
            }
        }
        let (start, end, step) = self.positions;
        let mut p = start;
        while p < end {
            let entry = &self.table[p];
            let d = self.grad.at::<V, T>(entry, o);
            let at = entry[0];
            for ky in 0..KERNEL {
                let row = &self.image[at + ky * self.width..][..KERNEL];
                for kx in 0..KERNEL {
                    let x = V::splat(row[kx]);
                    for k in 0..T {
                        let t = ky * KERNEL + kx;
                        acc[k][t] = acc[k][t].add(d[k].mul(x));
                    }
                }
            }
            p += step;
        }
        for k in 0..T {
            for t in 0..taps {
                acc[k][t].store(&mut held[(k * taps + t) * lanes..]);
            }
        }
    }
}

/// One image's `dpre` values, recomputed from its window-major quartered
/// pooled gradient and its ReLU mask.
struct PreGradient<'a> {
    grads: &'a [f32],
    mask: &'a [u8],
}

impl PreGradient<'_> {
    /// Advances the bias chains of `T` filter blocks from filter `o` on
    /// over the image's positions in order — row by row, each window's two
    /// positions in the row, then the `+0.0` of an uncovered trailing
    /// column or row — with them in registers; `held` holds the chains,
    /// block after block. Returns `T`.
    #[inline(always)]
    fn bias_chains<V: Vector, const T: usize>(
        &self,
        shape: ConvShape,
        o: usize,
        held: &mut [f32],
    ) -> usize {
        let lanes = V::LANES;
        let (ch, cw) = shape.conv_size();
        let (ph, pw) = shape.pooled_size();
        let (filters, groups) = (shape.filters, (ph * pw).div_ceil(8));
        let stride = self.grads.len() / (ph * pw + 1);
        let mut acc = [V::splat(0.0); T];
        for k in 0..T {
            acc[k] = V::load(&held[k * lanes..]);
        }
        for y in 0..ch {
            let covered = if y < 2 * ph { pw } else { 0 };
            for px in 0..covered {
                let w = (y / 2) * pw + px;
                for dx in 0..2 {
                    let q = 2 * (y % 2) + dx;
                    let entry = [0, w * stride, mask_entry(q, w, groups, filters)];
                    let d = self.at::<V, T>(&entry, o);
                    for k in 0..T {
                        acc[k] = acc[k].add(d[k]);
                    }
                }
            }
            for _ in 2 * covered..cw {
                for k in 0..T {
                    acc[k] = acc[k].add(V::splat(0.0));
                }
            }
        }
        for k in 0..T {
            acc[k].store(&mut held[k * lanes..]);
        }
        T
    }

    /// `dpre` of the `T` filter blocks from filter `o` on at the position
    /// of `entry`, the position's row of the backward's table:
    /// `(g / 4) · m`, which is `+0.0 · m` where no window covers it.
    #[inline(always)]
    fn at<V: Vector, const T: usize>(&self, entry: &[usize; TABLE_STRIDE], o: usize) -> [V; T] {
        let lanes = V::LANES;
        let (mask_at, bit) = (entry[2] >> 3, (entry[2] & 7) as u32);
        // One bounds check per row; the blocks' offsets are constants.
        let grads = &self.grads[entry[1] + o..][..T * lanes];
        let mask = &self.mask[mask_at + o..][..T * lanes];
        let mut d = [V::splat(0.0); T];
        for k in 0..T {
            let g = V::load(&grads[k * lanes..]);
            d[k] = g.mul(V::bit_lanes(&mask[k * lanes..], bit));
        }
        d
    }
}

/// The mask column of the backward's table for window `w` at position `q`:
/// the offset of its filters' byte row, times eight, plus its bit.
#[inline(always)]
fn mask_entry(q: usize, w: usize, groups: usize, filters: usize) -> usize {
    (((q * groups + w / 8) * filters) << 3) | (w % 8)
}

/// Lays one image's pooled gradient (`o·windows + w`) out window-major and
/// quartered: `g / 4` at `w·stride + o`, four filters at a time.
#[inline(always)]
fn quarter_window_major(dpooled: &[f32], windows: usize, grads: &mut [f32], stride: usize) {
    if windows == 0 {
        return;
    }
    let mut rows = dpooled.chunks_exact(windows);
    let mut o = 0;
    while let (Some(s0), Some(s1), Some(s2), Some(s3)) =
        (rows.next(), rows.next(), rows.next(), rows.next())
    {
        for (w, row) in grads.chunks_exact_mut(stride).take(windows).enumerate() {
            let g = &mut row[o..o + 4];
            g[0] = s0[w] / 4.0;
            g[1] = s1[w] / 4.0;
            g[2] = s2[w] / 4.0;
            g[3] = s3[w] / 4.0;
        }
        o += 4;
    }
    for (o, src) in dpooled.chunks_exact(windows).enumerate().skip(o) {
        for (g, &v) in grads[o..].iter_mut().step_by(stride).zip(src) {
            *g = v / 4.0;
        }
    }
}
