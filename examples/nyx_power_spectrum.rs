//! Nyx power-spectrum workflow: generate a synthetic Nyx snapshot,
//! compress the baryon density at several error bounds, and check the
//! paper's 1±1% pk-ratio acceptance band.
//!
//! ```text
//! cargo run --release --example nyx_power_spectrum
//! ```

use cosmo_analysis::acceptance::{self, Verdict};
use cosmo_data::{generate_nyx, SynthOptions};
use cosmo_fft::Grid3;
use foresight::cbench::{run_one, FieldData};
use foresight::codec::{CodecConfig, Shape};
use lossy_sz::SzConfig;

fn main() {
    let n = 64usize;
    let opts = SynthOptions { n_side: n, box_size: 256.0, seed: 20200704, steps: 8 };
    println!("simulating universe and gridding Nyx fields ({n}^3)...");
    let snap = generate_nyx(&opts).expect("synthesis");
    let grid = Grid3::cube(n);

    let field = FieldData::new(
        "baryon_density",
        snap.baryon_density.clone(),
        Shape::D3(n, n, n),
    )
    .unwrap();
    let orig_pk = acceptance::spectrum(&field.data, grid, opts.box_size).unwrap();
    println!("original P(k): {} shells, P(k_min)/P(k_max) = {:.1}", orig_pk.len(), orig_pk[0].pk / orig_pk.last().unwrap().pk);

    println!(
        "\n{:<14} {:>8} {:>10} {:>16} {:>12}",
        "abs bound", "ratio", "PSNR (dB)", "worst |pk-1|", "acceptable?"
    );
    for eb in [0.1f64, 10.0, 100.0, 1000.0, 5000.0] {
        let cfg = CodecConfig::Sz(SzConfig::abs(eb));
        let rec = run_one(&field, &cfg, true).expect("cbench");
        let recon = rec.reconstructed.as_ref().unwrap();
        let (_, worst) = acceptance::pk_curve(&orig_pk, recon, grid, opts.box_size).unwrap();
        println!(
            "{:<14} {:>7.2}x {:>10.2} {:>16.5} {:>12}",
            format!("{eb}"),
            rec.ratio,
            rec.distortion.psnr,
            worst,
            if Verdict::pk(worst).acceptable() { "yes" } else { "NO" }
        );
    }
    println!(
        "\nGuideline (§V-D): among the acceptable rows, pick the largest bound —\n\
         it has the highest ratio, the least storage, and the fastest transfers."
    );
}
