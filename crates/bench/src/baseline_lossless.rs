//! §II-A baseline: lossless floating-point compression ratios on the
//! cosmology datasets.
//!
//! The paper motivates lossy compression with the claim that lossless
//! compressors (FPZIP, FPC) "can provide only compression ratios
//! typically lower than 2:1 for dense scientific data". This exhibit runs
//! FPC, the fpzip-like codec, and raw LZSS over every HACC and Nyx field
//! and prints the ratios next to a representative lossy configuration.

use crate::prelude::*;
use foresight::cbench::FieldData;
use foresight::codec::Shape;
use lossless_fp::{fpc_compress, fpc_decompress, fpz_compress, fpz_decompress, ratio_f32};

/// Asserts a bit-exact round trip: the baseline's claim rests on it.
fn assert_bit_exact(data: &[f32], back: &[f32], codec: &str) {
    assert_eq!(data.len(), back.len(), "{codec} round trip changed the length");
    assert!(data.iter().zip(back).all(|(a, b)| a.to_bits() == b.to_bits()), "{codec} lost bits");
}

pub(crate) fn build(ctx: &Ctx) -> Result<Exhibit> {
    let (_, nyx) = ctx.nyx()?;
    let hacc = (ctx.hacc()?.fields().into_iter())
        .map(|(name, data)| FieldData::new(name, data.to_vec(), Shape::D1(data.len())))
        .collect::<Result<Vec<_>>>()?;
    let mut t = Table::new(["dataset", "field", "FPC", "fpzip-like", "LZSS", "lossy SZ rel=1e-3"]);
    for (dataset, fields) in [("Nyx", nyx), ("HACC", &hacc[..])] {
        for f in fields {
            let data = &f.data;
            let fpc = fpc_compress(data);
            assert_bit_exact(data, &fpc_decompress(&fpc)?, "FPC");
            let fpz = fpz_compress(data, f.shape)?;
            assert_bit_exact(data, &fpz_decompress(&fpz)?.0, "fpzip-like");
            let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
            let lzss = lossy_sz::lossless::compress(&bytes);
            let lossy = run_one(f, &CodecConfig::Sz(SzConfig::rel(1e-3)), false)?.ratio;
            t.push_row([
                dataset.to_string(),
                f.name.clone(),
                fmt_f64(ratio_f32(data.len(), fpc.len())),
                fmt_f64(ratio_f32(data.len(), fpz.len())),
                fmt_f64(ratio_f32(data.len(), lzss.len())),
                fmt_f64(lossy),
            ]);
        }
    }
    let mut ex = Exhibit::default();
    ex.table("baseline_lossless", t, &[("exhibit", "background")]);
    Ok(ex)
}
