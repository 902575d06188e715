//! Entropy-stage throughput: packed canonical-Huffman encode and
//! LUT decode vs the original bit-at-a-time reference, measured on the
//! quantization codes of a Nyx baryon-density field.
//!
//! The "before" columns run the reference paths (`encode_bitwise` /
//! `decode_bitwise`, the seed implementation); the "after" columns run the
//! table-driven fast paths that `lossy_sz::compress`/`decompress` now use.
//! Throughput is reported in MB/s of the uncompressed f32 volume (the
//! same basis the paper's figures use). Results land in
//! `results/entropy_throughput/` following the exhibit CSV convention.
//!
//! Paper-scale run: `entropy_throughput --n-side 256`.

use foresight::CinemaDb;
use foresight_bench::{nyx_fields, Cli};
use foresight_util::bits::{BitReader, BitWriter};
use foresight_util::cli::{self, Context, Failure};
use foresight_util::flags;
use foresight_util::rule::PowerOfTwo;
use foresight_util::table::{fmt_f64, Table};
use lossy_sz::huffman::{histogram, Codebook};
use foresight_util::timer::time;
use lossy_sz::{block, Dims, PredictorKind};
use std::path::PathBuf;
use std::process::ExitCode;

const REPS: usize = 3;
/// Value-range-relative error bound, the paper's cuSZ operating point
/// (absolute bound = EB_REL * (max - min) of the field).
const EB_REL: f64 = 1e-3;

/// Runs `f` REPS times and returns the best wall-clock seconds.
fn best_secs<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let (_, secs) = time(|| std::hint::black_box(f()));
        best = best.min(secs);
    }
    best
}

flags! {
    /// Entropy-stage throughput on one Nyx field; exhibit's flags.
    pub struct Args = "entropy_throughput" {
        /// grid side
        pub n_side: usize as "--n-side" "<n>" = 64, in PowerOfTwo(8);
        /// seed of the synthetic universe
        pub seed: u64 as "--seed" "<s>" = 0x5EED;
        /// particle-mesh steps
        pub steps: usize as "--steps" "<k>" = 10;
        /// accepted as exhibit accepts it; unused here
        pub sim_side: usize as "--sim-side" "<m>" = 512;
        /// output root; writes <dir>/entropy_throughput/
        pub out: PathBuf as "--out" "<dir>" = PathBuf::from("results");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    cli::exit(run(&argv), || Args::command().usage())
}

fn run(argv: &[String]) -> Result<(), Failure> {
    let Args { n_side, seed, steps, sim_side, out } = Args::parse(argv, &[])?;
    let cli = Cli { n_side, seed, steps, sim_side, out };
    let dir = cli.out.join("entropy_throughput");
    let opts = cli.synth();
    let mut db = CinemaDb::create(&dir)?;

    println!("generating Nyx snapshot (n_side={})...", cli.n_side);
    let (_, fields) = nyx_fields(&opts)?;
    let field = &fields[0];
    let n_values = field.data.len();
    let volume_mb = (n_values * 4) as f64 / 1e6;

    // Quantize once; the entropy stage is what we time.
    let (lo, hi) = field
        .data
        .iter()
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let eb = EB_REL * (hi - lo) as f64;
    let dims = Dims::D3(cli.n_side, cli.n_side, cli.n_side);
    let ext = dims.extents();
    let mut codes = Vec::with_capacity(n_values);
    for b in &block::partition(dims, 32) {
        let o = block::compress_block(&field.data, ext, b, eb, 32768, PredictorKind::Lorenzo);
        codes.extend(o.codes);
    }
    let book = Codebook::from_frequencies(&histogram(&codes))?;
    let total_bits: u64 = {
        let hist = histogram(&codes);
        let lens: std::collections::HashMap<u32, u8> = book.entries().iter().copied().collect();
        hist.iter().map(|&(s, f)| f * lens[&s] as u64).sum()
    };
    println!(
        "field {} ({n_values} values, {:.1} MB), eb={eb:.3e} (rel {EB_REL:.0e}), \
         {} distinct symbols, {:.2} bits/value",
        field.name,
        volume_mb,
        book.len(),
        total_bits as f64 / n_values as f64
    );

    // Encode: before (bit-at-a-time) vs after (packed multi-bit writes).
    let enc_before = best_secs(|| {
        let mut w = BitWriter::with_capacity(codes.len());
        for &c in &codes {
            book.encode_bitwise(c, &mut w).unwrap();
        }
        w.into_bytes()
    });
    let encoder = book.encoder();
    let encode_all = || {
        let mut w = BitWriter::with_capacity(codes.len());
        for &c in &codes {
            encoder.encode(c, &mut w).unwrap();
        }
        w.into_bytes()
    };
    let enc_after = best_secs(encode_all);

    // The two encoders are bit-identical; decode the shared stream.
    let bytes = encode_all();

    // Decode: before (per-bit table walk) vs after (12-bit LUT).
    let dec_before = best_secs(|| {
        let mut r = BitReader::new(&bytes);
        let mut sum = 0u64;
        for _ in 0..codes.len() {
            sum += book.decode_bitwise(&mut r).unwrap() as u64;
        }
        sum
    });
    let mut decoded = Vec::new();
    let dec_after = best_secs(|| {
        decoded.clear();
        let mut r = BitReader::new(&bytes);
        book.decoder().decode_into(&mut r, codes.len(), &mut decoded).unwrap();
        decoded.last().copied()
    });
    assert_eq!(decoded, codes, "bulk decode must reproduce the symbol stream");

    let mut table = Table::new([
        "stage",
        "before_mbs",
        "after_mbs",
        "speedup",
        "n_side",
        "values",
        "reps",
    ]);
    for (stage, before, after) in
        [("encode", enc_before, enc_after), ("decode", dec_before, dec_after)]
    {
        table.push_row([
            stage.to_string(),
            fmt_f64(volume_mb / before),
            fmt_f64(volume_mb / after),
            fmt_f64(before / after),
            format!("{}", cli.n_side),
            format!("{n_values}"),
            format!("{REPS}"),
        ]);
    }

    println!(
        "\nEntropy-stage throughput (MB/s of uncompressed f32 volume, best of {REPS}):\n{}",
        table.to_ascii()
    );
    db.add_table("entropy_throughput.csv", &table, &[("panel", "throughput".into())])?;
    db.finalize().context("cinema db")?;
    println!("wrote {}", dir.display());
    Ok(())
}
