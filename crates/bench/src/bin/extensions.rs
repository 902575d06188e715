//! Extension experiments beyond the paper's main exhibits:
//!
//! 1. **Decimation vs lossy** — the introduction's motivating claim:
//!    decimation at the same storage budget loses far more information
//!    than error-bounded lossy compression.
//! 2. **Correlation function** — ξ(r), the real-space twin of the power
//!    spectrum (§III), as an extra post-analysis acceptance metric.

use cosmo_analysis::{correlation_function_f32, distortion};
use cosmo_data::{decimate, generate_nyx};
use cosmo_fft::Grid3;
use foresight::cbench::{run_one, FieldData};
use foresight::codec::{CodecConfig, Shape};
use foresight::CinemaDb;
use foresight_bench::Cli;
use foresight_util::table::{fmt_f64, Table};
use lossy_sz::SzConfig;

fn main() {
    let cli = Cli::parse();
    let dir = cli.exhibit_dir("extensions");
    let opts = cli.synth();
    let mut db = CinemaDb::create(&dir).expect("cinema db");
    let n = cli.n_side;

    // --- 1. Decimation vs lossy at matched storage. ---
    println!("generating Nyx snapshot (n_side={n})...");
    let snap = generate_nyx(&opts).expect("nyx");
    let field =
        FieldData::new("baryon_density", snap.baryon_density.clone(), Shape::D3(n, n, n))
            .unwrap();
    let mut t1 = Table::new(["method", "ratio", "psnr_db", "max_abs_err"]);
    for k in [2usize, 4, 8] {
        let kept = decimate::stride_decimate(&field.data, k).unwrap();
        let rec = decimate::stride_reconstruct(&kept, k, field.data.len()).unwrap();
        let d = distortion(&field.data, &rec);
        t1.push_row([
            format!("decimation k={k}"),
            fmt_f64(decimate::stride_ratio(k, field.data.len())),
            fmt_f64(d.psnr),
            fmt_f64(d.max_abs_err),
        ]);
        // A lossy configuration tuned to roughly the same ratio.
        let mut eb = 1e-3;
        let mut best: Option<foresight::CBenchRecord> = None;
        for _ in 0..24 {
            let rec = run_one(&field, &CodecConfig::Sz(SzConfig::rel(eb)), false).unwrap();
            if rec.ratio >= k as f64 {
                best = Some(rec);
                break;
            }
            eb *= 1.8;
        }
        if let Some(rec) = best {
            t1.push_row([
                format!("GPU-SZ at >= {k}x ({})", rec.param),
                fmt_f64(rec.ratio),
                fmt_f64(rec.distortion.psnr),
                fmt_f64(rec.distortion.max_abs_err),
            ]);
        }
    }
    println!("\n== decimation vs error-bounded lossy (intro motivation) ==\n{}", t1.to_ascii());

    // --- 2. Correlation-function preservation. ---
    let grid = Grid3::cube(n);
    let orig_xi = correlation_function_f32(&field.data, grid, opts.box_size, 8).unwrap();
    let mut t2 = Table::new(["config", "ratio", "worst_xi_rel_dev"]);
    for rel in [1e-3f64, 1e-2, 3e-2] {
        let rec = run_one(&field, &CodecConfig::Sz(SzConfig::rel(rel)), true).unwrap();
        let xi = correlation_function_f32(
            rec.reconstructed.as_ref().unwrap(),
            grid,
            opts.box_size,
            8,
        )
        .unwrap();
        let dev = orig_xi
            .iter()
            .zip(&xi)
            .map(|(a, b)| if a.xi.abs() > 1e-12 { ((b.xi - a.xi) / a.xi).abs() } else { 0.0 })
            .fold(0.0f64, f64::max);
        t2.push_row([format!("rel={rel}"), fmt_f64(rec.ratio), fmt_f64(dev)]);
    }
    println!("== xi(r) two-point correlation preservation ==\n{}", t2.to_ascii());

    db.add_table("decimation_vs_lossy.csv", &t1, &[("experiment", "decimation".into())])
        .unwrap();
    db.add_table("correlation_preservation.csv", &t2, &[("experiment", "xi".into())]).unwrap();
    db.finalize().unwrap();
    println!("wrote {}", dir.display());
}
