//! Fig. 6: FoF halo-finder analysis on original vs reconstructed HACC
//! data, plus the best-fit HACC configurations (§V-B).
//!
//! Position fields are compressed (paper policy: GPU-SZ ABS mode with
//! bounds around 0.005-0.1 in box units of 256; cuZFP fixed rates 4-12 on
//! the reshaped arrays), particles are re-assembled, and the halo mass
//! function of each reconstruction is compared to the original via the
//! per-mass-bin count ratio. Velocities (PW_REL 0.025 for SZ, same rate
//! for ZFP) enter the overall dataset ratio exactly as in the paper's
//! 4.25x (GPU-SZ) vs 4x (cuZFP) result.

use crate::prelude::*;
use cosmo_analysis::{halo_count_ratio, mass_function};

const SZ_POS_BOUNDS: [f64; 3] = [0.005, 0.025, 0.1];
const SZ_VEL_PWREL: f64 = 0.025;
const ZFP_RATES: [f64; 3] = [4.0, 8.0, 12.0];

/// Compresses one coordinate array through the paper's cube reshape;
/// returns the reconstruction and the compression ratio.
fn roundtrip_coord(data: &[f32], cfg: &CodecConfig) -> Result<(Vec<f32>, f64)> {
    let (rec, mut recon) = roundtrip(&cubed("coord", data)?, cfg)?;
    recon.truncate(data.len());
    Ok((recon, rec.ratio))
}

/// A mass function as (log2 mass bin, halo count) chart points.
fn log2_points(mf: &[(usize, usize)]) -> Vec<(f64, f64)> {
    mf.iter().map(|&(m, c)| ((m as f64).log2(), c as f64)).collect()
}

pub(crate) fn build(ctx: &Ctx) -> Result<Exhibit> {
    let snap = ctx.hacc()?;
    let box_size = snap.box_size;
    let orig_cat = acceptance::halos(&snap.x, &snap.y, &snap.z, box_size)?;

    let mut curves =
        Table::new(["compressor", "param", "mass_bin", "orig_count", "recon_count", "ratio"]);
    let mut summary =
        Table::new(["compressor", "param", "halos", "worst_ratio_dev", "acceptable", "pos_ratio"]);
    summary.push_row(["original", "-", &orig_cat.halos.len().to_string(), "-", "-", "-"]);
    let mut series = vec![("orig".to_string(), log2_points(&mass_function(&orig_cat)))];
    // (position config, position ratio, acceptable)
    let mut cands = Vec::new();
    let configs = SZ_POS_BOUNDS
        .map(|eb| CodecConfig::Sz(SzConfig::abs(eb)))
        .into_iter()
        .chain(ZFP_RATES.map(|r| CodecConfig::Zfp(ZfpConfig::rate(r))));
    for cfg in configs {
        let (comp, param) = (cfg.id().display(), cfg.param_label());
        let mut coords: Vec<Vec<f32>> = Vec::with_capacity(3);
        let mut inv_ratio = 0.0;
        for axis in [&snap.x, &snap.y, &snap.z] {
            let (recon, ratio) = roundtrip_coord(axis, &cfg)?;
            coords.push(recon);
            inv_ratio += 1.0 / ratio;
        }
        let pos_ratio = 3.0 / inv_ratio;
        let cat = acceptance::halos(&coords[0], &coords[1], &coords[2], box_size)?;
        let ratios = halo_count_ratio(&orig_cat, &cat);
        let worst = acceptance::halo_deviation(&ratios);
        let key = [comp.to_string(), param.clone()];
        for &(mass, oc, rc, r) in &ratios {
            let counts = [mass, oc, rc].map(|c| c.to_string());
            curves.push_row(key.iter().cloned().chain(counts).chain([fmt_f64(r)]));
        }
        let accepted = Verdict::halo(worst).acceptable();
        let halos = cat.halos.len().to_string();
        let verdict = [halos, fmt_f64(worst), accepted.to_string(), fmt_f64(pos_ratio)];
        summary.push_row(key.into_iter().chain(verdict));
        series.push((format!("{comp}:{param}"), log2_points(&mass_function(&cat))));
        cands.push((cfg, pos_ratio, accepted));
    }

    // Overall best-fit dataset ratios: chosen position config + the
    // velocity policy (PW_REL 0.025 for SZ; same rate for ZFP).
    let mut overall = Vec::new();
    for (comp, paper) in [("GPU-SZ", "4.25x"), ("cuZFP", "4x")] {
        let best = cands
            .iter()
            .filter(|c| c.0.id().display() == comp && c.2)
            .max_by(|a, b| a.1.total_cmp(&b.1));
        let Some((cfg, pos_ratio, _)) = best else {
            overall.push(format!("{comp}: no acceptable configuration"));
            continue;
        };
        let vel_cfg = match cfg {
            CodecConfig::Sz(_) => CodecConfig::Sz(SzConfig::pw_rel(SZ_VEL_PWREL)),
            zfp => zfp.clone(),
        };
        let (mut orig_b, mut comp_b) = (0f64, 0f64);
        for v in [&snap.vx, &snap.vy, &snap.vz] {
            let (_, r) = roundtrip_coord(v, &vel_cfg)?;
            orig_b += (v.len() * 4) as f64;
            comp_b += (v.len() * 4) as f64 / r;
        }
        for _ in 0..3 {
            orig_b += (snap.len() * 4) as f64;
            comp_b += (snap.len() * 4) as f64 / pos_ratio;
        }
        overall.push(format!(
            "{comp}: best-fit position config {} -> overall HACC ratio {:.2}x (paper: {paper})",
            cfg.param_label(),
            orig_b / comp_b,
        ));
    }

    let mut ex = Exhibit::default();
    ex.table("fig6_curves", curves, &[("exhibit", "fig6")]);
    ex.table("fig6_summary", summary, &[("exhibit", "fig6")]);
    ex.text("fig6_massfunction.txt", chart(&series, 90, 22), &[]);
    ex.text("fig6_overall.txt", overall.join("\n"), &[]);
    Ok(ex)
}
