//! Fig. 1: visualization of original and reconstructed Nyx baryon
//! density (GPU-SZ, PW_REL 0.1 and 0.25) plus their power spectra.
//!
//! The paper's point: the two reconstructions look identical to the eye
//! (panels a-c), but the power spectrum (panel d) exposes PW_REL = 0.25 as
//! unacceptable. We emit mid-plane slices as PGM/PPM images and the PSD
//! ratio of both reconstructions.

use crate::prelude::*;
use cosmo_analysis::pk_ratio;
use foresight::viz::{cube_slice, render_pgm, render_ppm, Scaling};

pub(crate) fn build(ctx: &Ctx) -> Result<Exhibit> {
    let n = ctx.cli.n_side;
    let box_size = ctx.cli.synth().box_size;
    let grid = Grid3::cube(n);
    let field = &ctx.nyx()?.1[0];
    let mid_plane = |data: &[f32]| cube_slice(data, n, n / 2);

    let mut ex = Exhibit::default();
    let slice = mid_plane(&field.data)?;
    ex.file("fig1a_original.pgm", render_pgm(&slice, n, n, Scaling::Log10)?);
    ex.file("fig1a_original.ppm", render_ppm(&slice, n, n, Scaling::Log10)?);
    let orig_pk = power_spectrum_f32(&field.data, grid, box_size, 12)?;

    let mut table = Table::new(["panel", "pw_rel", "k", "pk_ratio"]);
    let mut series = Vec::new();
    for (panel, pw) in [("b", 0.1f64), ("c", 0.25f64)] {
        let (_, recon) = roundtrip(field, &CodecConfig::Sz(SzConfig::pw_rel(pw)))?;
        let pgm = render_pgm(&mid_plane(&recon)?, n, n, Scaling::Log10)?;
        ex.file(&format!("fig1{panel}_pwrel_{pw}.pgm"), pgm);
        let ratios = pk_ratio(&orig_pk, &power_spectrum_f32(&recon, grid, box_size, 12)?)?;
        for &(k, r) in &ratios {
            table.push_row([panel.to_string(), format!("{pw}"), fmt_f64(k), fmt_f64(r)]);
        }
        series.push((format!("pw_rel={pw}"), ratios));
    }

    ex.table("fig1d_psd", table, &[("panel", "d")]);
    ex.text("fig1d_psd.txt", chart(&series, 90, 20), &[("panel", "d")]);
    Ok(ex)
}
