//! Compression-error distribution analysis.
//!
//! CBench exists partly because "the error generated by error-bounded
//! lossy compression may not always be evenly distributed in the
//! error-bound range. For instance, lossy compression — such as ZFP —
//! provides a Gaussian-like error distribution" (paper §IV-A-1). This
//! module quantifies that: an error histogram plus moment-based shape
//! statistics that cleanly separate uniform (SZ-like) from Gaussian-like
//! (ZFP-like) error.
//!
//! Shape discriminator: excess-free kurtosis `E[(e-mu)^4]/sigma^4` is
//! **1.8** for a uniform distribution and **3.0** for a Gaussian.

/// Summary of a pointwise-error distribution.
#[derive(Debug, Clone)]
pub struct ErrorDistribution {
    /// Histogram counts over `[-range, range]`.
    pub histogram: Vec<u64>,
    /// Half-width of the histogram domain.
    pub range: f64,
    /// Mean error (bias).
    pub mean: f64,
    /// Standard deviation.
    pub std_dev: f64,
    /// Kurtosis `E[(e-mu)^4] / sigma^4` (uniform 1.8, Gaussian 3.0).
    pub kurtosis: f64,
    /// Fraction of samples in the central half of the domain.
    pub central_mass: f64,
    /// Number of finite samples.
    pub count: u64,
}

impl ErrorDistribution {
    /// A crude classifier: `true` when the shape is closer to uniform
    /// than to Gaussian by the kurtosis midpoint (2.4).
    pub fn looks_uniform(&self) -> bool {
        self.kurtosis < 2.4
    }
}

/// Computes the error distribution of `recon - orig` with `bins` buckets.
///
/// `range` defaults to the max absolute error when `None`.
pub fn error_distribution(
    orig: &[f32],
    recon: &[f32],
    bins: usize,
    range: Option<f64>,
) -> ErrorDistribution {
    assert_eq!(orig.len(), recon.len(), "length mismatch");
    let bins = bins.max(3);
    let errors: Vec<f64> = orig
        .iter()
        .zip(recon)
        .filter(|(a, b)| a.is_finite() && b.is_finite())
        .map(|(&a, &b)| b as f64 - a as f64)
        .collect();
    let n = errors.len() as f64;
    if errors.is_empty() {
        return ErrorDistribution {
            histogram: vec![0; bins],
            range: 0.0,
            mean: 0.0,
            std_dev: 0.0,
            kurtosis: 0.0,
            central_mass: 0.0,
            count: 0,
        };
    }
    let range = range
        .unwrap_or_else(|| errors.iter().fold(0.0f64, |m, &e| m.max(e.abs())))
        .max(f64::MIN_POSITIVE);
    let mean = errors.iter().sum::<f64>() / n;
    let var = errors.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / n;
    let m4 = errors.iter().map(|e| (e - mean).powi(4)).sum::<f64>() / n;
    let kurtosis = if var > 0.0 { m4 / (var * var) } else { 0.0 };
    let mut histogram = vec![0u64; bins];
    let mut central = 0u64;
    for &e in &errors {
        let t = ((e + range) / (2.0 * range)).clamp(0.0, 1.0);
        let b = ((t * bins as f64) as usize).min(bins - 1);
        histogram[b] += 1;
        if e.abs() <= range / 2.0 {
            central += 1;
        }
    }
    ErrorDistribution {
        histogram,
        range,
        mean,
        std_dev: var.sqrt(),
        kurtosis,
        central_mass: central as f64 / n,
        count: errors.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_uniform(n: usize, amp: f64) -> Vec<f64> {
        let mut s = 0x853C49E6748FEA9Bu64;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * amp
            })
            .collect()
    }

    fn gaussianish(n: usize, sigma: f64) -> Vec<f64> {
        // Sum of 12 uniforms minus 6: classic approximate normal.
        let u = lcg_uniform(n * 12, 0.5);
        (0..n).map(|i| u[i * 12..(i + 1) * 12].iter().sum::<f64>() * sigma / (1.0f64)).collect()
    }

    fn apply(base: &[f32], errs: &[f64]) -> Vec<f32> {
        base.iter().zip(errs).map(|(&b, &e)| (b as f64 + e) as f32).collect()
    }

    #[test]
    fn uniform_error_classified_uniform() {
        let base: Vec<f32> = (0..50_000).map(|i| (i as f32 * 0.01).sin() * 100.0).collect();
        let recon = apply(&base, &lcg_uniform(base.len(), 0.05));
        let d = error_distribution(&base, &recon, 21, Some(0.05));
        assert!((d.kurtosis - 1.8).abs() < 0.15, "kurtosis {}", d.kurtosis);
        assert!(d.looks_uniform());
        // Uniform: central half holds ~half the mass.
        assert!((d.central_mass - 0.5).abs() < 0.05, "central {}", d.central_mass);
    }

    #[test]
    fn gaussian_error_classified_gaussian() {
        let base: Vec<f32> = (0..50_000).map(|i| (i as f32 * 0.02).cos() * 10.0).collect();
        let recon = apply(&base, &gaussianish(base.len(), 0.01));
        let d = error_distribution(&base, &recon, 21, None);
        assert!(d.kurtosis > 2.6, "kurtosis {}", d.kurtosis);
        assert!(!d.looks_uniform());
        assert!(d.central_mass > 0.75, "gaussian concentrates: {}", d.central_mass);
    }

    /// The paper's actual claim, end to end: SZ's ABS-mode error is
    /// uniform-ish across the bound, ZFP's is concentrated/Gaussian-like.
    #[test]
    fn sz_uniform_vs_zfp_gaussian_like() {
        let n = 32usize;
        let base: Vec<f32> = (0..n * n * n)
            .map(|i| {
                let x = (i % n) as f32 / n as f32;
                let y = ((i / n) % n) as f32 / n as f32;
                ((x * 7.3).sin() + (y * 5.1).cos()).exp() * 50.0
            })
            .collect();
        let sz_stream = lossy_sz::compress(
            &base,
            lossy_sz::Dims::D3(n, n, n),
            &lossy_sz::SzConfig::abs(0.1),
        )
        .unwrap();
        let (sz_rec, _) = lossy_sz::decompress(&sz_stream).unwrap();
        let zfp_stream = lossy_zfp::compress(
            &base,
            lossy_zfp::Dims::D3(n, n, n),
            &lossy_zfp::ZfpConfig::rate(8.0),
        )
        .unwrap();
        let (zfp_rec, _) = lossy_zfp::decompress(&zfp_stream).unwrap();
        let sz_d = error_distribution(&base, &sz_rec, 21, None);
        let zfp_d = error_distribution(&base, &zfp_rec, 21, None);
        assert!(
            sz_d.kurtosis < zfp_d.kurtosis,
            "SZ should be flatter: sz {} vs zfp {}",
            sz_d.kurtosis,
            zfp_d.kurtosis
        );
        assert!(
            zfp_d.central_mass > sz_d.central_mass,
            "ZFP should concentrate: {} vs {}",
            zfp_d.central_mass,
            sz_d.central_mass
        );
    }

    #[test]
    fn empty_and_nan_inputs() {
        let d = error_distribution(&[], &[], 10, None);
        assert_eq!(d.count, 0);
        let a = [f32::NAN, 1.0];
        let b = [f32::NAN, 1.5];
        let d = error_distribution(&a, &b, 10, None);
        assert_eq!(d.count, 1);
        assert!((d.mean - 0.5).abs() < 1e-9);
    }
}
