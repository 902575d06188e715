//! HACC halo workflow: simulate a particle universe, write/read it in the
//! GIO-lite format, compress the positions at several bounds in the
//! paper's cube layout, and compare Friends-of-Friends halo catalogs
//! (paper Fig. 6 in miniature).
//!
//! ```text
//! cargo run --release --example hacc_halos
//! ```

use cosmo_analysis::acceptance::{self, Verdict};
use cosmo_analysis::halo_count_ratio;
use cosmo_data::{generate_hacc, gio, SynthOptions};
use foresight::cbench::{cubed, overall_ratio, run_one};
use foresight::codec::CodecConfig;
use lossy_sz::SzConfig;

fn main() {
    let n = 32usize;
    let opts = SynthOptions { n_side: n, box_size: 256.0, seed: 4242, steps: 10 };
    println!("simulating universe ({}^3 particles)...", n);
    let snap = generate_hacc(&opts).expect("synthesis");

    // Round-trip through the GIO-lite file format, as the real pipeline
    // would (GenericIO in the paper).
    let path = std::env::temp_dir().join("hacc_example.gio");
    gio::write_hacc(&snap, &path).expect("write");
    let snap = gio::read_hacc(&path, opts.box_size).expect("read");
    std::fs::remove_file(&path).ok();
    println!("round-tripped {} particles through GIO-lite", snap.len());

    let orig = acceptance::halos(&snap.x, &snap.y, &snap.z, opts.box_size).unwrap();
    let b = orig.linking_length;
    println!("FoF (b = {b:.3}): {} halos in the original\n", orig.halos.len());

    println!(
        "{:<12} {:>8} {:>8} {:>10} {:>12} {:>22}",
        "abs bound", "ratio", "halos", "halo dev", "acceptable?", "count ratios by bin"
    );
    let positions: Vec<_> =
        [("x", &snap.x), ("y", &snap.y), ("z", &snap.z)].map(|(a, d)| cubed(a, d).unwrap()).into();
    for eb in [0.005f64, 0.05, 0.5, 2.0] {
        let cfg = CodecConfig::Sz(SzConfig::abs(eb));
        let mut records = Vec::new();
        let mut recon = Vec::new();
        for f in &positions {
            let mut rec = run_one(f, &cfg, true).unwrap();
            // The cube's padding follows the particles.
            recon.push(rec.reconstructed.take().unwrap()[..snap.len()].to_vec());
            records.push(rec);
        }
        let cat = acceptance::halos(&recon[0], &recon[1], &recon[2], opts.box_size).unwrap();
        let ratios = halo_count_ratio(&orig, &cat);
        let dev = acceptance::halo_deviation(&ratios);
        let summary: Vec<String> =
            ratios.iter().map(|&(m, _, _, r)| format!("{m}:{r:.2}")).collect();
        println!(
            "{:<12} {:>7.2}x {:>8} {:>10.4} {:>12} {:>22}",
            format!("{eb}"),
            overall_ratio(&records.iter().collect::<Vec<_>>()),
            cat.halos.len(),
            dev,
            if Verdict::halo(dev).acceptable() { "yes" } else { "NO" },
            summary.join(" ")
        );
    }
    println!(
        "\nSmall halos dissolve first as the bound approaches the linking length —\n\
         the paper's Fig. 6 behaviour."
    );
}
