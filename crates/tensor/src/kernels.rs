//! The product kernel bodies: one register-tiled body per product shape,
//! generic over the [`Vector`] width [`crate::dispatch`] instantiates them
//! at.
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

use crate::dispatch::Vector;
use crate::product::{MatrixView, Product};

/// Runs `op` with `V`-wide vectors. Shapes were checked by the caller.
#[inline(always)]
pub(crate) fn run<V: Vector>(op: Product, a: MatrixView<'_>, b: MatrixView<'_>, out: &mut [f32]) {
    match op {
        Product::MatmulAcc => for_each_strip::<V, _>(b.cols(), 4, &mut Matmul { a, b, out }),
        Product::TransposeMatmulAcc => for_each_strip::<V, _>(
            b.cols(),
            V::ROW_STRIP,
            &mut TransposeMatmul::<true> { a, b, out },
        ),
        Product::TransposeMatmulInto => {
            out.fill(0.0);
            for_each_strip::<V, _>(
                b.cols(),
                V::ROW_STRIP,
                &mut TransposeMatmul::<false> { a, b, out },
            );
        }
        // The lanes-across-rows body transposes the lhs once per block of
        // `LANES` rows and reuses it for every rhs row, which pays when
        // there are at least as many rhs rows as contraction indices (the
        // back-propagated `dlogits · Wᵀ`: 6760 rows of 62); with few, long
        // rhs rows (the convolution's `dpre · colsᵀ`: 9 rows of 21,632)
        // the lanes run along the contraction instead.
        Product::MatmulTransposeAcc if b.rows() < b.cols() => long_dots::<V::Oct>(a, b, out),
        Product::MatmulTransposeAcc => dots_across_rows::<V, true>(a, b, out),
        Product::MatmulTransposeInto => dots_across_rows::<V, false>(a, b, out),
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

/// `out (i x n) += aᵀ · b` for `a: kb x i`, `b: kb x n`: each output row's
/// strip stays in registers across all `kb` shared rows, so the output is
/// read once and written once. `GROUPED` folds the shared rows four at a
/// time ([`Product::TransposeMatmulAcc`]); otherwise one at a time
/// ([`Product::TransposeMatmulInto`], whose caller zeroed `out`).
struct TransposeMatmul<'a, const GROUPED: bool> {
    a: MatrixView<'a>,
    b: MatrixView<'a>,
    out: &'a mut [f32],
}

impl<const GROUPED: bool> StripBody for TransposeMatmul<'_, GROUPED> {
    #[inline(always)]
    fn strip<V: Vector, const C: usize, const MASKED: bool>(&mut self, j: usize, w: usize) {
        let (kb, rows, n) = (self.a.rows(), self.a.cols(), self.b.cols());
        let (a, b) = (self.a.as_slice(), self.b.as_slice());
        let groups = if GROUPED { kb / 4 } else { 0 };
        for i in 0..rows {
            let out_strip = &mut self.out[i * n + j..][..w];
            let mut acc = load_strip::<V, C, MASKED>(out_strip);
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
            store_strip::<V, C, MASKED>(acc, out_strip);
        }
    }
}

/// `out (m x n) (+)= a (m x k) · bᵀ` for `b: n x k`, with the vector lanes
/// laid across `LANES` lhs rows: lane `r` of every register belongs to
/// output row `i0 + r`, so the dot product's own lane sums (`TREE`: eight
/// of them plus the tail, [`Product::MatmulTransposeAcc`]) or its single
/// running sum ([`Product::MatmulTransposeInto`]) are whole registers and
/// are combined register by register — no horizontal sum. The lhs block is
/// transposed once and reused by every rhs row.
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
    // transposed[p * lanes + r] = a[i0 + r][p]; rows past `m` stay zero.
    let mut transposed = vec![0.0f32; k * lanes];
    let mut staged = vec![0.0f32; STAGE * lanes];
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
                    dot_tree(&transposed, b_row)
                } else {
                    dot_sequential(&transposed, b_row)
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

/// [`Product::MatmulTransposeAcc`] for few, long rhs rows: the vector lanes
/// *are* the dot tree's eight lane sums (`O` is four or eight lanes wide,
/// so one or two registers per output element), held for a tile of
/// `2 x 4` outputs while a chunk of the contraction streams past. The
/// contraction is chunked so the rhs chunk stays in L1 while the lhs
/// streams once; the lane sums wait in `sums` between chunks, which keeps
/// every lane's additions in ascending index order.
#[inline(always)]
fn long_dots<O: Vector>(a: MatrixView<'_>, b: MatrixView<'_>, out: &mut [f32]) {
    /// Contraction indices per pass (a multiple of eight): 2 KB per row.
    const CHUNK: usize = 512;
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let full = k / 8 * 8;
    let mut sums = vec![0.0f32; m * n * 8];
    for p0 in (0..full).step_by(CHUNK) {
        let p1 = (p0 + CHUNK).min(full);
        let mut i = 0;
        while i < m {
            let it = (m - i).min(2);
            let mut j = 0;
            while j < n {
                let jt = match n - j {
                    4.. => 4,
                    2.. => 2,
                    _ => 1,
                };
                let args = (a, b, &mut sums[..], i, j, p0..p1);
                match (it, jt) {
                    (2, 4) => long_dots_tile::<O, 2, 4>(args),
                    (2, 2) => long_dots_tile::<O, 2, 2>(args),
                    (2, _) => long_dots_tile::<O, 2, 1>(args),
                    (_, 4) => long_dots_tile::<O, 1, 4>(args),
                    (_, 2) => long_dots_tile::<O, 1, 2>(args),
                    (_, _) => long_dots_tile::<O, 1, 1>(args),
                }
                j += jt;
            }
            i += it;
        }
    }
    for i in 0..m {
        for j in 0..n {
            let l = &sums[(i * n + j) * 8..][..8];
            let mut tail = 0.0f32;
            for (&x, &y) in a.row(i)[full..].iter().zip(&b.row(j)[full..]) {
                tail += x * y;
            }
            out[i * n + j] +=
                (((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))) + tail;
        }
    }
}

/// Advances the lane sums of outputs `(i..i + IT) x (j..j + JT)` over the
/// contraction indices `span` (a multiple of eight long).
#[inline(always)]
fn long_dots_tile<O: Vector, const IT: usize, const JT: usize>(
    (a, b, sums, i, j, span): (
        MatrixView<'_>,
        MatrixView<'_>,
        &mut [f32],
        usize,
        usize,
        std::ops::Range<usize>,
    ),
) {
    let n = b.rows();
    // One or two registers hold an output's eight lane sums.
    let parts = 8 / O::LANES;
    let mut a_rows = [&[][..]; IT];
    for r in 0..IT {
        a_rows[r] = &a.row(i + r)[span.clone()];
    }
    let mut b_rows = [&[][..]; JT];
    for c in 0..JT {
        b_rows[c] = &b.row(j + c)[span.clone()];
    }
    let mut acc = [[[O::splat(0.0); 2]; JT]; IT];
    for r in 0..IT {
        for c in 0..JT {
            let l = &sums[((i + r) * n + j + c) * 8..][..8];
            for part in 0..parts {
                acc[r][c][part] = O::load(&l[part * O::LANES..]);
            }
        }
    }
    for p in (0..span.len()).step_by(8) {
        for part in 0..parts {
            let at = p + part * O::LANES;
            let mut bv = [O::splat(0.0); JT];
            for c in 0..JT {
                bv[c] = O::load(&b_rows[c][at..]);
            }
            for r in 0..IT {
                let av = O::load(&a_rows[r][at..]);
                for c in 0..JT {
                    acc[r][c][part] = acc[r][c][part].add(av.mul(bv[c]));
                }
            }
        }
    }
    for r in 0..IT {
        for c in 0..JT {
            let l = &mut sums[((i + r) * n + j + c) * 8..][..8];
            for part in 0..parts {
                acc[r][c][part].store(&mut l[part * O::LANES..]);
            }
        }
    }
}
