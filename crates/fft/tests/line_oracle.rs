//! The 3-D transforms against a test-only oracle, bit for bit.
//!
//! The oracle is the line transform and strided gather the crate used
//! before its butterflies took a conjugated twiddle table and its y / z
//! passes gathered several adjacent lines per batch: one radix-2 pass per
//! line, `match dir` inside every butterfly, and one serial strided copy
//! per line. Both orders of work must give the same `f64` bits, in both
//! directions, on any thread count.

use cosmo_fft::{fft3_forward, fft3_inverse, fft3_inverse_real, Complex, Direction, Fft, Grid3};
use foresight_util::parallel::with_threads;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference radix-2 line transform: bit reversal, then butterflies
/// with the direction resolved per butterfly.
#[allow(clippy::needless_range_loop)] // kept as the library had it
fn oracle_line(data: &mut [Complex], dir: Direction) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let log2n = n.trailing_zeros();
    let mut rev = vec![0u32; n];
    for i in 0..n {
        rev[i] = (rev[i >> 1] >> 1) | (((i & 1) as u32) << (log2n.max(1) - 1));
    }
    let mut twiddles = Vec::new();
    let mut m = 1;
    while m < n {
        for j in 0..m {
            twiddles.push(Complex::cis(-std::f64::consts::PI * j as f64 / m as f64));
        }
        m *= 2;
    }
    for i in 0..n {
        let j = rev[i] as usize;
        if i < j {
            data.swap(i, j);
        }
    }
    let mut m = 1;
    let mut toff = 0;
    while m < n {
        let tw = &twiddles[toff..toff + m];
        let step = 2 * m;
        let mut k = 0;
        while k < n {
            for j in 0..m {
                let w = match dir {
                    Direction::Forward => tw[j],
                    Direction::Inverse => tw[j].conj(),
                };
                let t = w * data[k + j + m];
                let u = data[k + j];
                data[k + j] = u + t;
                data[k + j + m] = u - t;
            }
            k += step;
        }
        toff += m;
        m = step;
    }
    if dir == Direction::Inverse {
        let inv_n = 1.0 / n as f64;
        for v in data.iter_mut() {
            *v = v.scale(inv_n);
        }
    }
}

/// The reference 3-D pass: every x line, then every y line, then every z
/// line, each copied out through its stride one at a time.
fn oracle_3d(data: &mut [Complex], grid: Grid3, dir: Direction) {
    for line in data.chunks_mut(grid.nx) {
        oracle_line(line, dir);
    }
    let axes = [
        (
            grid.ny,
            grid.nx,
            (0..grid.nz).flat_map(|z| (0..grid.nx).map(move |x| (x, 0, z))).collect::<Vec<_>>(),
        ),
        (
            grid.nz,
            grid.nx * grid.ny,
            (0..grid.ny).flat_map(|y| (0..grid.nx).map(move |x| (x, y, 0))).collect::<Vec<_>>(),
        ),
    ];
    for (n, stride, starts) in axes {
        let mut scratch = vec![Complex::ZERO; n];
        for (x, y, z) in starts {
            let start = grid.index(x, y, z);
            for (j, s) in scratch.iter_mut().enumerate() {
                *s = data[start + j * stride];
            }
            oracle_line(&mut scratch, dir);
            for (j, s) in scratch.iter().enumerate() {
                data[start + j * stride] = *s;
            }
        }
    }
}

fn bits(v: &[Complex]) -> Vec<(u64, u64)> {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

fn random_field(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect()
}

/// Forward on a real field and inverse on a full complex spectrum must
/// equal the oracle's bits; `fft3_inverse_real` must be their real parts.
fn check(grid: Grid3, threads: &[usize]) {
    let field = random_field(grid.len(), grid.len() as u64);
    let mut want_fwd: Vec<Complex> = field.iter().map(|&v| Complex::real(v)).collect();
    oracle_3d(&mut want_fwd, grid, Direction::Forward);
    let spectrum: Vec<Complex> =
        random_field(2 * grid.len(), 7).chunks(2).map(|c| Complex::new(c[0], c[1])).collect();
    let mut want_inv = spectrum.clone();
    oracle_3d(&mut want_inv, grid, Direction::Inverse);
    for &t in threads {
        let (fwd, inv, inv_real) = with_threads(t, || {
            (
                fft3_forward(&field, grid).unwrap(),
                fft3_inverse(&spectrum, grid).unwrap(),
                fft3_inverse_real(&spectrum, grid).unwrap(),
            )
        });
        assert!(bits(&fwd) == bits(&want_fwd), "forward {grid:?} on {t} threads");
        assert!(bits(&inv) == bits(&want_inv), "inverse {grid:?} on {t} threads");
        let re: Vec<u64> = want_inv.iter().map(|c| c.re.to_bits()).collect();
        assert!(
            inv_real.iter().map(|v| v.to_bits()).eq(re),
            "inverse real {grid:?} on {t} threads"
        );
    }
}

#[test]
fn line_transform_matches_the_oracle_in_both_directions() {
    for log2n in 0..=10 {
        let n = 1usize << log2n;
        let x: Vec<Complex> =
            random_field(2 * n, n as u64).chunks(2).map(|c| Complex::new(c[0], c[1])).collect();
        let plan = Fft::new(n).unwrap();
        for dir in [Direction::Forward, Direction::Inverse] {
            let mut got = x.clone();
            plan.process(&mut got, dir).unwrap();
            let mut want = x.clone();
            oracle_line(&mut want, dir);
            assert!(bits(&got) == bits(&want), "n = {n}, {dir:?}");
        }
    }
}

#[test]
fn small_grids_match_the_oracle_on_1_2_4_threads() {
    for grid in [Grid3::new(4, 8, 2), Grid3::new(2, 2, 64), Grid3::new(32, 16, 8)] {
        check(grid, &[1, 2, 4]);
    }
}

#[test]
fn grid_128_cubed_matches_the_oracle() {
    check(Grid3::cube(128), &[2]);
}
