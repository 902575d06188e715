//! Field visualization: slice extraction and image rendering.
//!
//! Foresight's third component renders reconstructed fields for visual
//! comparison (paper Fig. 1a-c). This module produces those artifacts
//! without any graphics dependency: grayscale PGM and colormapped PPM
//! images of 2-D slices, with optional log scaling (density fields span
//! decades, exactly why the paper's panels are log-scaled).

use foresight_util::{Error, Result};

/// How to map field values to [0, 1] before colouring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scaling {
    /// Linear min-max normalization.
    Linear,
    /// `log10(max(v, floor))` normalization — the paper's density panels.
    Log10,
}

/// Extracts the z = `plane` slice of an `n^3` cube (x fastest).
pub fn cube_slice(data: &[f32], n: usize, plane: usize) -> Result<Vec<f32>> {
    if data.len() != n * n * n {
        return Err(Error::invalid("data is not an n^3 cube"));
    }
    if plane >= n {
        return Err(Error::invalid(format!("plane {plane} out of range {n}")));
    }
    let start = n * n * plane;
    Ok(data[start..start + n * n].to_vec())
}

/// Normalizes a slice to [0, 1] under the given scaling.
fn normalize(slice: &[f32], scaling: Scaling) -> Vec<f64> {
    let vals: Vec<f64> = slice
        .iter()
        .map(|&v| match scaling {
            Scaling::Linear => v as f64,
            Scaling::Log10 => (v.max(1e-6) as f64).log10(),
        })
        .collect();
    let (lo, hi) = vals.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
        if v.is_finite() {
            (l.min(v), h.max(v))
        } else {
            (l, h)
        }
    });
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    vals.into_iter()
        .map(|v| if v.is_finite() { (v - lo) / span } else { 0.0 })
        .collect()
}

/// Renders a `(nx, ny)` slice as an 8-bit grayscale PGM.
pub fn render_pgm(slice: &[f32], nx: usize, ny: usize, scaling: Scaling) -> Result<Vec<u8>> {
    if slice.len() != nx * ny {
        return Err(Error::invalid("slice does not match nx*ny"));
    }
    let norm = normalize(slice, scaling);
    let mut out = format!("P5\n{nx} {ny}\n255\n").into_bytes();
    out.extend(norm.iter().map(|&t| (t * 255.0) as u8));
    Ok(out)
}

/// A compact inferno-like colormap (7 anchors, linear interpolation).
fn colormap(t: f64) -> [u8; 3] {
    const ANCHORS: [[f64; 3]; 7] = [
        [0.0, 0.0, 0.015],
        [0.19, 0.04, 0.37],
        [0.45, 0.10, 0.43],
        [0.71, 0.21, 0.33],
        [0.90, 0.39, 0.16],
        [0.98, 0.65, 0.04],
        [0.99, 1.00, 0.64],
    ];
    let t = t.clamp(0.0, 1.0) * (ANCHORS.len() - 1) as f64;
    let i = (t as usize).min(ANCHORS.len() - 2);
    let f = t - i as f64;
    let mut rgb = [0u8; 3];
    for c in 0..3 {
        let v = ANCHORS[i][c] * (1.0 - f) + ANCHORS[i + 1][c] * f;
        rgb[c] = (v * 255.0) as u8;
    }
    rgb
}

/// Renders a `(nx, ny)` slice as a colormapped binary PPM.
pub fn render_ppm(slice: &[f32], nx: usize, ny: usize, scaling: Scaling) -> Result<Vec<u8>> {
    if slice.len() != nx * ny {
        return Err(Error::invalid("slice does not match nx*ny"));
    }
    let norm = normalize(slice, scaling);
    let mut out = format!("P6\n{nx} {ny}\n255\n").into_bytes();
    for &t in &norm {
        out.extend_from_slice(&colormap(t));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_extraction() {
        let n = 4;
        let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let s = cube_slice(&data, n, 2).unwrap();
        assert_eq!(s.len(), 16);
        assert_eq!(s[0], 32.0);
        assert!(cube_slice(&data, 4, 4).is_err());
        assert!(cube_slice(&data[..10], 4, 0).is_err());
    }

    #[test]
    fn pgm_structure() {
        let slice: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let img = render_pgm(&slice, 4, 4, Scaling::Linear).unwrap();
        assert!(img.starts_with(b"P5\n4 4\n255\n"));
        assert_eq!(img.len(), 11 + 16);
        // Extremes map to 0 and 255.
        assert_eq!(img[11], 0);
        assert_eq!(*img.last().unwrap(), 255);
    }

    #[test]
    fn ppm_structure_and_colormap_monotonicity() {
        let slice: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let img = render_ppm(&slice, 8, 1, Scaling::Linear).unwrap();
        assert!(img.starts_with(b"P6\n8 1\n255\n"));
        assert_eq!(img.len(), 11 + 24);
        // Red channel grows along the inferno ramp.
        let hdr = 11;
        assert!(img[hdr] < img[hdr + 7 * 3]);
    }

    #[test]
    fn log_scaling_compresses_dynamic_range() {
        // Values spanning 6 decades: linear scaling blacks out all but
        // the peak; log scaling spreads them.
        let slice = vec![1.0f32, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e6];
        let lin = render_pgm(&slice, 8, 1, Scaling::Linear).unwrap();
        let log = render_pgm(&slice, 8, 1, Scaling::Log10).unwrap();
        let hdr = 11;
        // Second value: linear ~0, log clearly above 0.
        assert_eq!(lin[hdr + 1], 0);
        assert!(log[hdr + 1] > 20);
    }

    #[test]
    fn non_finite_values_render_black() {
        let slice = vec![f32::NAN, 1.0, 2.0, 3.0];
        let img = render_pgm(&slice, 4, 1, Scaling::Linear).unwrap();
        assert_eq!(img[11], 0);
    }
}
