//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! The transform is unnormalized in the forward direction and applies the
//! `1/n` factor on the inverse, so `inverse(forward(x)) == x`. A [`Fft`]
//! planner caches the bit-reversal permutation and twiddle factors for a
//! fixed power-of-two size; the free function [`fft_in_place`] builds a
//! throwaway plan for one-off use.

use crate::complex::Complex;
use foresight_util::{Error, Result};

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `X_k = sum_n x_n e^{-2 pi i k n / N}` (no normalization).
    Forward,
    /// `x_n = (1/N) sum_k X_k e^{+2 pi i k n / N}`.
    Inverse,
}

/// A cached FFT plan for a fixed power-of-two length.
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    /// Bit-reversal permutation indices.
    rev: Vec<u32>,
    /// Forward twiddles for each butterfly stage, flattened stage-major:
    /// stage `s` (half-size `m = 2^s`) stores `m` twiddles, from `m - 1`.
    twiddles: Vec<Complex>,
    /// The same table conjugated, for the inverse direction.
    conj_twiddles: Vec<Complex>,
}

impl Fft {
    /// Builds a plan for length `n` (must be a power of two, `n >= 1`).
    pub fn new(n: usize) -> Result<Self> {
        if n == 0 || !n.is_power_of_two() {
            return Err(Error::invalid(format!("FFT length {n} is not a power of two")));
        }
        let log2n = n.trailing_zeros();
        let mut rev = vec![0u32; n];
        for i in 0..n {
            rev[i] = (rev[i >> 1] >> 1) | (((i & 1) as u32) << (log2n.max(1) - 1));
        }
        if log2n == 0 {
            rev[0] = 0;
        }
        // Twiddles: for each stage with half-width m, w_j = e^{-i pi j / m}.
        let mut twiddles = Vec::new();
        let mut m = 1;
        while m < n {
            for j in 0..m {
                twiddles.push(Complex::cis(-std::f64::consts::PI * j as f64 / m as f64));
            }
            m *= 2;
        }
        let conj_twiddles = twiddles.iter().map(|w| w.conj()).collect();
        Ok(Self { n, rev, twiddles, conj_twiddles })
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate length-1 plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Transforms `data` in place; `data.len()` must equal the plan length.
    pub fn process(&self, data: &mut [Complex], dir: Direction) -> Result<()> {
        if data.len() != self.n {
            return Err(Error::invalid(format!(
                "buffer length {} does not match plan length {}",
                data.len(),
                self.n
            )));
        }
        self.process_rows::<1>(data, dir);
        Ok(())
    }

    /// Transforms `W` interleaved lines in place: element `j` of line `b`
    /// sits at `rows[j * W + b]`, so `rows.len()` is `W` times the plan
    /// length. Each line sees the butterflies [`Fft::process`] applies, in
    /// the same order, so its bits do not depend on `W`.
    pub(crate) fn process_rows<const W: usize>(&self, rows: &mut [Complex], dir: Direction) {
        let n = self.n;
        assert_eq!(rows.len(), n * W, "rows must hold W lines of the plan length");
        if n <= 1 {
            return;
        }
        // Bit-reversal permutation, one row of W values at a time.
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                let (head, tail) = rows.split_at_mut(j * W);
                head[i * W..(i + 1) * W].swap_with_slice(&mut tail[..W]);
            }
        }
        let table = match dir {
            Direction::Forward => &self.twiddles,
            Direction::Inverse => &self.conj_twiddles,
        };
        // Butterfly stages: the half-blocks of every 2m-row block pair up.
        let mut m = 1;
        while m < n {
            let tw = &table[m - 1..2 * m - 1];
            for block in rows.chunks_exact_mut(2 * m * W) {
                let (lo, hi) = block.split_at_mut(m * W);
                let pairs = lo.chunks_exact_mut(W).zip(hi.chunks_exact_mut(W));
                for ((lo, hi), &w) in pairs.zip(tw) {
                    for (u, v) in lo.iter_mut().zip(hi.iter_mut()) {
                        let t = w * *v;
                        let a = *u;
                        *u = a + t;
                        *v = a - t;
                    }
                }
            }
            m *= 2;
        }
        if dir == Direction::Inverse {
            let inv_n = 1.0 / n as f64;
            for v in rows.iter_mut() {
                *v = v.scale(inv_n);
            }
        }
    }
}

/// One-shot in-place FFT of a power-of-two-length buffer.
pub fn fft_in_place(data: &mut [Complex], dir: Direction) -> Result<()> {
    Fft::new(data.len())?.process(data, dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    acc += v * Complex::cis(-2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64);
                }
                acc
            })
            .collect()
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "{x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(Fft::new(0).is_err());
        assert!(Fft::new(3).is_err());
        assert!(Fft::new(12).is_err());
        assert!(Fft::new(8).is_ok());
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 16, 64] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 1.1).cos()))
                .collect();
            let mut y = x.clone();
            fft_in_place(&mut y, Direction::Forward).unwrap();
            assert_close(&y, &naive_dft(&x), 1e-9 * n as f64);
        }
    }

    #[test]
    fn forward_inverse_identity() {
        let n = 256;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i * i % 17) as f64 - 8.0, (i % 5) as f64))
            .collect();
        let mut y = x.clone();
        let plan = Fft::new(n).unwrap();
        plan.process(&mut y, Direction::Forward).unwrap();
        plan.process(&mut y, Direction::Inverse).unwrap();
        assert_close(&y, &x, 1e-10);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 32;
        let mut x = vec![Complex::ZERO; n];
        x[0] = Complex::ONE;
        fft_in_place(&mut x, Direction::Forward).unwrap();
        for v in &x {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn single_frequency_bin() {
        // x_n = e^{2 pi i 3 n / N} should put all energy in bin 3.
        let n = 64;
        let mut x: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(2.0 * std::f64::consts::PI * 3.0 * i as f64 / n as f64))
            .collect();
        fft_in_place(&mut x, Direction::Forward).unwrap();
        for (k, v) in x.iter().enumerate() {
            let expect = if k == 3 { n as f64 } else { 0.0 };
            assert!((v.abs() - expect).abs() < 1e-9, "bin {k}: {v:?}");
        }
    }

    #[test]
    fn mismatched_buffer_errors() {
        let plan = Fft::new(8).unwrap();
        let mut buf = vec![Complex::ZERO; 4];
        assert!(plan.process(&mut buf, Direction::Forward).is_err());
    }
}
