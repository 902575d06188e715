//! ZFP's reversible integer decorrelating transform and negabinary mapping.
//!
//! The forward lift is a sequence of integer average/difference steps on
//! groups of 4 values (one group per block line along each axis). It is an
//! integer approximation of an orthogonal basis change. Like the reference
//! ZFP (before its "reversible mode"), the `>>1` floors make the roundtrip
//! *nearly* exact: a few integer units of error out of the `2^30`
//! fixed-point scale, i.e. ~1e-8 relative — far below any lossy budget.
//!
//! Negabinary maps signed coefficients to unsigned so that magnitude-order
//! bit planes can be emitted MSB-first without a separate sign pass.
//!
//! Every function here is `#[inline(always)]`: they are the leaves of the
//! codec's [`foresight_util::cpu::Kernel`]s, and a leaf left out of line
//! would be compiled at the baseline whatever width calls it (DESIGN.md
//! §23.3). [`lift_axis`] lifts all the lines of a block along one axis as
//! lanes, side by side, and the fixed-rate 1-D lanes call [`fwd_lift`] /
//! [`inv_lift`] once per lane the same way; there is one copy of each
//! lift (§24).

/// Forward lift on one 4-vector (stride-gathered by the caller).
#[inline(always)]
pub fn fwd_lift(p: &mut [i32; 4]) {
    let [mut x, mut y, mut z, mut w] = *p;
    // Non-overflowing for |v| < 2^30 as guaranteed by the cast stage;
    // wrapping ops keep debug builds panic-free on adversarial inputs.
    x = x.wrapping_add(w);
    x >>= 1;
    w = w.wrapping_sub(x);
    z = z.wrapping_add(y);
    z >>= 1;
    y = y.wrapping_sub(z);
    x = x.wrapping_add(z);
    x >>= 1;
    z = z.wrapping_sub(x);
    w = w.wrapping_add(y);
    w >>= 1;
    y = y.wrapping_sub(w);
    w = w.wrapping_add(y >> 1);
    y = y.wrapping_sub(w >> 1);
    *p = [x, y, z, w];
}

/// Inverse lift; exactly undoes [`fwd_lift`] on in-range inputs.
#[inline(always)]
pub fn inv_lift(p: &mut [i32; 4]) {
    let [mut x, mut y, mut z, mut w] = *p;
    y = y.wrapping_add(w >> 1);
    w = w.wrapping_sub(y >> 1);
    y = y.wrapping_add(w);
    w = w.wrapping_shl(1);
    w = w.wrapping_sub(y);
    z = z.wrapping_add(x);
    x = x.wrapping_shl(1);
    x = x.wrapping_sub(z);
    y = y.wrapping_add(z);
    z = z.wrapping_shl(1);
    z = z.wrapping_sub(y);
    w = w.wrapping_add(x);
    x = x.wrapping_shl(1);
    x = x.wrapping_sub(w);
    *p = [x, y, z, w];
}

const NBMASK: u32 = 0xAAAA_AAAA;

/// Signed -> negabinary.
#[inline(always)]
pub fn int2uint(x: i32) -> u32 {
    (x as u32).wrapping_add(NBMASK) ^ NBMASK
}

/// Negabinary -> signed.
#[inline(always)]
pub fn uint2int(x: u32) -> i32 {
    (x ^ NBMASK).wrapping_sub(NBMASK) as i32
}

/// Lifts every line of a block of `N = 4^d` values, stored x-fastest,
/// along one axis: `stride` 1 for x, 4 for y, 16 for z.
///
/// The lines are the lanes. They are taken apart into four rows — row
/// `j` holds value `j` of every line — so the lift runs once across all
/// of them as one plain loop, which the compiler widens to the vector
/// width of the [`foresight_util::cpu::Kernel`] it is inlined into, and
/// the rows are put back. `N` and `stride` are constants wherever this is
/// inlined, so both shuffles are fixed permutations.
#[inline(always)]
pub fn lift_axis<const N: usize>(data: &mut [i32; N], stride: usize, forward: bool) {
    debug_assert!(matches!(N, 4 | 16 | 64) && matches!(stride, 1 | 4 | 16) && stride * 4 <= N);
    let lines = N / 4;
    // The first value of each line.
    let base = |line: usize| line / stride * 4 * stride + line % stride;
    let mut rows = [[0i32; 16]; 4];
    for line in 0..lines {
        for (j, row) in rows.iter_mut().enumerate() {
            row[line] = data[base(line) + j * stride];
        }
    }
    for line in 0..lines {
        let mut p = [rows[0][line], rows[1][line], rows[2][line], rows[3][line]];
        if forward {
            fwd_lift(&mut p);
        } else {
            inv_lift(&mut p);
        }
        for (row, v) in rows.iter_mut().zip(p) {
            row[line] = v;
        }
    }
    for line in 0..lines {
        for (j, row) in rows.iter().enumerate() {
            data[base(line) + j * stride] = row[line];
        }
    }
}

/// [`fwd_xform`] (`forward`) or [`inv_xform`] of `L` blocks side by
/// side, `q[i][l]` being value `i` of block `l`: each lift step is one
/// operation across the blocks.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // the lane index runs through four rows
pub fn xform_lanes<const N: usize, const L: usize>(q: &mut [[i32; L]; N], forward: bool) {
    for stride in if forward { [1, 4, 16] } else { [16, 4, 1] } {
        for line in 0..if stride * 4 <= N { N / 4 } else { 0 } {
            let b = line / stride * 4 * stride + line % stride;
            let (i, j, k, m) = (b % N, (b + stride) % N, (b + 2 * stride) % N, (b + 3 * stride) % N);
            for l in 0..L {
                let mut p = [q[i][l], q[j][l], q[k][l], q[m][l]];
                if forward {
                    fwd_lift(&mut p);
                } else {
                    inv_lift(&mut p);
                }
                [q[i][l], q[j][l], q[k][l], q[m][l]] = p;
            }
        }
    }
}

/// Full forward transform of a block of `N = 4^d` values: one lift per
/// axis the block has, x first.
#[inline(always)]
pub fn fwd_xform<const N: usize>(data: &mut [i32; N]) {
    lift_axis(data, 1, true);
    if N >= 16 {
        lift_axis(data, 4, true);
    }
    if N >= 64 {
        lift_axis(data, 16, true);
    }
}

/// Full inverse transform (axes in reverse order).
#[inline(always)]
pub fn inv_xform<const N: usize>(data: &mut [i32; N]) {
    if N >= 64 {
        lift_axis(data, 16, false);
    }
    if N >= 16 {
        lift_axis(data, 4, false);
    }
    lift_axis(data, 1, false);
}

#[cfg(test)]
mod tests {
    use super::*;

    // ZFP's lift is *nearly* invertible: each `>>1` floors away a half
    // unit, so a roundtrip may perturb values by a few integer units (out
    // of the 2^30 fixed-point scale). The reference library behaves the
    // same way, which is why upstream later added a separate "reversible
    // mode". These tests pin the bound.
    const LIFT_TOL: i32 = 4;

    fn assert_near(a: [i32; 4], b: [i32; 4]) {
        for i in 0..4 {
            assert!((a[i] - b[i]).abs() <= LIFT_TOL, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn lift_roundtrip_error_is_bounded() {
        let cases: Vec<[i32; 4]> = vec![
            [0, 0, 0, 0],
            [1, 2, 3, 4],
            [-5, 100, -1000, 7],
            [1 << 29, -(1 << 29), (1 << 29) - 1, -(1 << 29) + 1],
            [123456789, -987654321 / 2, 0, -1],
        ];
        for c in cases {
            let mut v = c;
            fwd_lift(&mut v);
            inv_lift(&mut v);
            assert_near(v, c);
        }
    }

    #[test]
    fn lift_roundtrip_exhaustive_small() {
        // Exhaustive over a small value range.
        for a in -8i32..8 {
            for b in -8i32..8 {
                for c in -8i32..8 {
                    for d in -8i32..8 {
                        let orig = [a * 3, b * 5, c * 7, d * 11];
                        let mut v = orig;
                        fwd_lift(&mut v);
                        inv_lift(&mut v);
                        assert_near(v, orig);
                    }
                }
            }
        }
    }

    #[test]
    fn constant_input_concentrates_energy() {
        let mut v = [100, 100, 100, 100];
        fwd_lift(&mut v);
        assert_eq!(v[0], 100);
        assert_eq!(&v[1..], &[0, 0, 0]);
    }

    #[test]
    fn linear_ramp_has_sparse_coefficients() {
        let mut v = [0, 10, 20, 30];
        fwd_lift(&mut v);
        // A linear ramp needs only the average and first-order coefficient.
        assert_eq!(v[2], 0, "second-order coefficient should vanish: {v:?}");
    }

    #[test]
    fn negabinary_roundtrip() {
        for x in [-1000000i32, -1, 0, 1, 42, i32::MAX, i32::MIN, 1 << 30] {
            assert_eq!(uint2int(int2uint(x)), x);
        }
        for x in -2000i32..2000 {
            assert_eq!(uint2int(int2uint(x)), x);
        }
    }

    #[test]
    fn negabinary_magnitude_ordering() {
        // Small magnitudes must map to values with only low bits set, so
        // MSB-first plane truncation drops small coefficients last.
        assert_eq!(int2uint(0), 0);
        assert!(int2uint(1).leading_zeros() >= 30);
        assert!(int2uint(-1).leading_zeros() >= 30);
        assert!(int2uint(3).leading_zeros() > int2uint(1000).leading_zeros());
    }

    #[test]
    fn xform_roundtrip_3d() {
        fn roundtrip<const N: usize>(d: u32) {
            let orig: [i32; N] =
                std::array::from_fn(|i| ((i * 2654435761u64 as usize) as i32) >> 8);
            let mut v = orig;
            fwd_xform(&mut v);
            inv_xform(&mut v);
            // Rounding error compounds per axis but stays tiny relative to
            // the 2^30 fixed-point scale.
            let tol = LIFT_TOL * (1 << d);
            for (a, b) in v.iter().zip(&orig) {
                assert!((a - b).abs() <= tol, "dimension {d}: {a} vs {b}");
            }
        }
        roundtrip::<4>(1);
        roundtrip::<16>(2);
        roundtrip::<64>(3);
    }

    #[test]
    fn xform_decorrelates_smooth_block() {
        // A smooth 3-D field should concentrate magnitude in low-sequency
        // coefficients: coefficient 0 dominates.
        let mut v = [0i32; 64];
        for z in 0..4 {
            for y in 0..4 {
                for x in 0..4 {
                    v[x + 4 * y + 16 * z] = 10000 + (x as i32) * 10 + (y as i32) * 7 + (z as i32) * 3;
                }
            }
        }
        fwd_xform(&mut v);
        let total: i64 = v.iter().map(|&c| (c as i64).abs()).sum();
        assert!((v[0] as i64).abs() * 2 > total, "DC should dominate: {v:?}");
    }
}
