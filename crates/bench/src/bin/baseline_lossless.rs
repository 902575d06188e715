//! §II-A baseline: lossless floating-point compression ratios on the
//! cosmology datasets.
//!
//! The paper motivates lossy compression with the claim that lossless
//! compressors (FPZIP, FPC) "can provide only compression ratios
//! typically lower than 2:1 for dense scientific data". This binary runs
//! FPC, the fpzip-like codec, and raw LZSS over every HACC and Nyx field
//! and prints the ratios next to a representative lossy configuration.

use foresight::cbench::run_one;
use foresight::codec::CodecConfig;
use foresight::CinemaDb;
use foresight_bench::{hacc_snapshot, nyx_fields, Cli};
use foresight_util::table::{fmt_f64, Table};
use foresight_util::Dims;
use lossless_fp::{fpc_compress, fpc_decompress, fpz_compress, fpz_decompress, ratio_f32};
use lossy_sz::SzConfig;

fn verify_fpc(data: &[f32]) -> f64 {
    let c = fpc_compress(data);
    let d = fpc_decompress(&c).expect("fpc roundtrip");
    assert!(data.iter().zip(&d).all(|(a, b)| a.to_bits() == b.to_bits()));
    ratio_f32(data.len(), c.len())
}

fn verify_fpz(data: &[f32], dims: Dims) -> f64 {
    let c = fpz_compress(data, dims).expect("fpz compress");
    let (d, _) = fpz_decompress(&c).expect("fpz roundtrip");
    assert!(data.iter().zip(&d).all(|(a, b)| a.to_bits() == b.to_bits()));
    ratio_f32(data.len(), c.len())
}

fn lzss_ratio(data: &[f32]) -> f64 {
    let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
    let c = lossy_sz::lossless::compress(&bytes);
    ratio_f32(data.len(), c.len())
}

fn main() {
    let cli = Cli::parse();
    let dir = cli.exhibit_dir("baseline_lossless");
    let opts = cli.synth();
    let mut db = CinemaDb::create(&dir).expect("cinema db");

    println!("generating datasets (n_side={})...", cli.n_side);
    let (_, nyx) = nyx_fields(&opts).expect("nyx");
    let hacc = hacc_snapshot(&opts).expect("hacc");

    let mut t = Table::new([
        "dataset", "field", "FPC", "fpzip-like", "LZSS", "lossy SZ rel=1e-3",
    ]);
    let n = cli.n_side;
    for f in &nyx {
        println!("  nyx/{}", f.name);
        let lossy =
            run_one(f, &CodecConfig::Sz(SzConfig::rel(1e-3)), false).expect("lossy").ratio;
        t.push_row([
            "Nyx".to_string(),
            f.name.clone(),
            fmt_f64(verify_fpc(&f.data)),
            fmt_f64(verify_fpz(&f.data, Dims::d3(n, n, n))),
            fmt_f64(lzss_ratio(&f.data)),
            fmt_f64(lossy),
        ]);
    }
    for (name, data) in hacc.fields() {
        println!("  hacc/{name}");
        let fd = foresight::cbench::FieldData::new(
            name,
            data.to_vec(),
            foresight::Shape::D1(data.len()),
        )
        .unwrap();
        let lossy =
            run_one(&fd, &CodecConfig::Sz(SzConfig::rel(1e-3)), false).expect("lossy").ratio;
        t.push_row([
            "HACC".to_string(),
            name.to_string(),
            fmt_f64(verify_fpc(data)),
            fmt_f64(verify_fpz(data, Dims::d1(data.len()))),
            fmt_f64(lzss_ratio(data)),
            fmt_f64(lossy),
        ]);
    }
    println!(
        "\n§II-A baseline — lossless vs lossy compression ratios (all verified bit-exact):\n{}",
        t.to_ascii()
    );
    println!(
        "Expectation from the paper: lossless stays near or below ~2:1 on dense\n\
         fields while error-bounded lossy reaches 5-15x."
    );
    db.add_table("baseline_lossless.csv", &t, &[("exhibit", "background".into())]).unwrap();
    db.finalize().unwrap();
    println!("wrote {}", dir.display());
}
