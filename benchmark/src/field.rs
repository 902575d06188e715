//! `field-sz` and `field-zfp`: whole 128³ Nyx fields and 1-D HACC arrays
//! through one codec, one large call per field.

use crate::check::{self, check_reconstruction, Digest, Tally};
use crate::report::Metrics;
use crate::spans::{durations, Recorder, Span};
use crate::stats::{median, per_second, percentile_guarded, scaled};
use crate::workload::{Facts, Gates, RoundLog, Workload};
use cosmo_data::{generate_hacc, generate_nyx, SynthOptions};
use foresight::codec::{self, CodecConfig, Shape};
use foresight::gpu_backend::{gpu_compress, gpu_decompress};
use foresight_util::bits::{BitReader, BitWriter};
use foresight_util::{Error, Result};
use gpu_sim::{Breakdown, Device, GpuSpec};
use lossy_sz::huffman::{histogram, Codebook};
use lossy_sz::{block, lossless, Dims, SzConfig};
use lossy_zfp::ZfpConfig;
use rayon::{ThreadPool, ThreadPoolBuilder};

/// Grid side of both snapshots: 128³ f32 = 8.4 MB per array, twice the
/// 4 MiB per-core L2 of the reference machine.
pub const N_SIDE: usize = 128;
/// PM steps of the synthetic universe; one keeps set-up near 4 s.
pub const STEPS: usize = 1;
/// Passes of the SZ stage ledger.
const STAGE_REPS: usize = 3;
/// Bytes of a ZFP stream header (`lossy_zfp::stream` layout).
const ZFP_HEADER_BYTES: usize = 64;

/// Which codec the workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// `lossy_sz`, absolute error bound.
    Sz,
    /// `lossy_zfp`, fixed rate.
    Zfp,
}

struct Names {
    compress: &'static str,
    decompress: &'static str,
    metrics: [&'static str; 10],
}

impl Codec {
    fn names(self) -> Names {
        match self {
            Codec::Sz => Names {
                compress: "sz.compress",
                decompress: "sz.decompress",
                metrics: [
                    "sz.compress.calls",
                    "sz.compress.busy_s",
                    "sz.compress.mbs",
                    "sz.compress.p90_ms",
                    "sz.decompress.calls",
                    "sz.decompress.busy_s",
                    "sz.decompress.mbs",
                    "sz.decompress.p90_ms",
                    "sz.compress.t1_mbs",
                    "sz.par_speedup",
                ],
            },
            Codec::Zfp => Names {
                compress: "zfp.compress",
                decompress: "zfp.decompress",
                metrics: [
                    "zfp.compress.calls",
                    "zfp.compress.busy_s",
                    "zfp.compress.mbs",
                    "zfp.compress.p90_ms",
                    "zfp.decompress.calls",
                    "zfp.decompress.busy_s",
                    "zfp.decompress.mbs",
                    "zfp.decompress.p90_ms",
                    "zfp.compress.t1_mbs",
                    "zfp.par_speedup",
                ],
            },
        }
    }
}

struct Input {
    name: &'static str,
    data: Vec<f32>,
    shape: Shape,
    config: CodecConfig,
    /// Absolute bound the codec promises, if it promises one.
    abs_bound: Option<f64>,
    /// Stream length the mode fixes, if it fixes one.
    fixed_len: Option<usize>,
}

impl Input {
    fn bytes(&self) -> u64 {
        self.data.len() as u64 * 4
    }
}

/// Length of a fixed-rate ZFP stream: header plus `rate` bits per value
/// over whole 4^d blocks.
fn zfp_fixed_rate_len(shape: Shape, rate: f64) -> usize {
    let (blocks, cells) = match shape {
        Shape::D1(n) => (n.div_ceil(4), 4),
        Shape::D2(a, b) => (a.div_ceil(4) * b.div_ceil(4), 16),
        Shape::D3(a, b, c) => (a.div_ceil(4) * b.div_ceil(4) * c.div_ceil(4), 64),
    };
    let block_bits = (rate * cells as f64).round() as usize;
    ZFP_HEADER_BYTES + (blocks * block_bits).div_ceil(8)
}

fn input(codec: Codec, name: &'static str, data: Vec<f32>, shape: Shape, hacc: bool) -> Input {
    let (config, abs_bound, fixed_len) = match codec {
        Codec::Sz => {
            // HACC positions take the paper's absolute 0.005; everything
            // else 1e-3 of its value range.
            let position = hacc && !name.starts_with('v');
            let bound = if position { 0.005 } else { 1e-3 * check::value_range(&data) };
            (CodecConfig::Sz(SzConfig::abs(bound)), Some(bound), None)
        }
        Codec::Zfp => {
            let rate = if hacc { 8.0 } else { 4.0 };
            (CodecConfig::Zfp(ZfpConfig::rate(rate)), None, Some(zfp_fixed_rate_len(shape, rate)))
        }
    };
    Input { name, data, shape, config, abs_bound, fixed_len }
}

/// Simulated-device totals of the set-up pass.
#[derive(Debug, Clone, Copy, Default)]
struct GpuTotals {
    compress: Breakdown,
    decompress: Breakdown,
    bytes: u64,
    host_s: f64,
}

fn add(total: &mut Breakdown, b: &Breakdown) {
    total.init += b.init;
    total.kernel += b.kernel;
    total.memcpy += b.memcpy;
    total.free += b.free;
    total.fault += b.fault;
}

fn one_thread_pool() -> Result<ThreadPool> {
    ThreadPoolBuilder::new().num_threads(1).build().map_err(|e| Error::invalid(e.to_string()))
}

/// The set-up workload state.
pub struct FieldWorkload {
    codec: Codec,
    inputs: Vec<Input>,
    /// Stream and decode of the set-up pass; every round must match.
    reference: Vec<(Vec<u8>, Vec<f32>)>,
    facts: Facts,
    gpu: GpuTotals,
}

impl FieldWorkload {
    /// Synthesises both snapshots and runs the simulated-V100 pass, which
    /// doubles as the untimed warm-up round and yields the reference
    /// outputs.
    pub fn setup(codec: Codec, seed: u64, rec: &mut Recorder) -> Result<Self> {
        let opts = SynthOptions { n_side: N_SIDE, seed, steps: STEPS, ..SynthOptions::default() };
        let nyx = rec.span("cosmo.generate_nyx", |_| generate_nyx(&opts)).0?;
        let hacc = rec.span("cosmo.generate_hacc", |_| generate_hacc(&opts)).0?;
        let cube = Shape::D3(N_SIDE, N_SIDE, N_SIDE);
        let mut inputs = Vec::with_capacity(12);
        for (name, data) in [
            ("baryon_density", nyx.baryon_density),
            ("dark_matter_density", nyx.dark_matter_density),
            ("temperature", nyx.temperature),
            ("velocity_x", nyx.velocity_x),
            ("velocity_y", nyx.velocity_y),
            ("velocity_z", nyx.velocity_z),
        ] {
            inputs.push(input(codec, name, data, cube, false));
        }
        for (name, data) in [
            ("x", hacc.x),
            ("y", hacc.y),
            ("z", hacc.z),
            ("vx", hacc.vx),
            ("vy", hacc.vy),
            ("vz", hacc.vz),
        ] {
            let shape = Shape::D1(data.len());
            inputs.push(input(codec, name, data, shape, true));
        }

        let mut device = Device::new(GpuSpec::tesla_v100());
        let mut gpu = GpuTotals::default();
        let mut reference = Vec::with_capacity(inputs.len());
        let mut qualities = Vec::with_capacity(inputs.len());
        let mut compressed = 0u64;
        let (pass, host_s) = rec.span("gpu.exec", |_| -> Result<()> {
            for inp in &inputs {
                let (stream, c) = gpu_compress(&mut device, &inp.config, &inp.data, inp.shape)?;
                let (decoded, d) =
                    gpu_decompress(&mut device, inp.config.id(), &stream, inp.data.len() as u64)?;
                add(&mut gpu.compress, &c.breakdown);
                add(&mut gpu.decompress, &d.breakdown);
                gpu.bytes += inp.bytes();
                compressed += stream.len() as u64;
                qualities.push(check::quality(&inp.data, &decoded));
                reference.push((stream, decoded));
            }
            Ok(())
        });
        pass?;
        gpu.host_s = host_s;
        let (max_err_rel, psnr_db) = check::worst(&qualities);
        let sim_s = gpu.compress.total() + gpu.decompress.total();
        let facts = Facts {
            ratio: gpu.bytes as f64 / compressed as f64,
            psnr_db,
            max_err_rel,
            sim_gbs: 2.0 * gpu.bytes as f64 / 1e9 / sim_s,
        };
        Ok(Self { codec, inputs, reference, facts, gpu })
    }

    /// One pass of `compress` over every field under a single worker
    /// thread: the plain single-threaded baseline.
    fn single_thread_pass(&self, rec: &mut Recorder) -> Result<Vec<f64>> {
        let pool = one_thread_pool()?;
        let span_name = match self.codec {
            Codec::Sz => "sz.compress.t1",
            Codec::Zfp => "zfp.compress.t1",
        };
        self.inputs
            .iter()
            .map(|inp| {
                let (out, secs) = rec.span(span_name, |_| {
                    pool.install(|| codec::compress(&inp.data, inp.shape, &inp.config))
                });
                out.map(|_| secs)
            })
            .collect()
    }

    /// Times the SZ stages on Nyx `baryon_density` through the public
    /// stage functions, single-threaded, against the single-threaded
    /// `compress` of the same field; medians of `STAGE_REPS` passes.
    fn sz_stage_ledger(&self, rec: &mut Recorder, m: &mut Metrics) -> Result<()> {
        let inp = &self.inputs[0];
        let CodecConfig::Sz(cfg) = &inp.config else { return Ok(()) };
        let eb = inp.abs_bound.unwrap_or(cfg.mode.value());
        let dims = Dims::D3(N_SIDE, N_SIDE, N_SIDE);
        let ext = dims.extents();
        let one_thread = one_thread_pool()?;

        // Seconds per pass: quantize, histogram, encode, decode, lzss, compress.
        let mut secs: [Vec<f64>; 6] = Default::default();
        for _ in 0..STAGE_REPS {
            let (outputs, s) = rec.span("sz.stage.quantize", |_| {
                block::partition(dims, cfg.block_size)
                    .iter()
                    .map(|b| {
                        block::compress_block(&inp.data, ext, b, eb, cfg.radius, cfg.predictor)
                    })
                    .collect::<Vec<_>>()
            });
            secs[0].push(s);
            let codes: Vec<u32> = outputs.iter().flat_map(|o| o.codes.iter().copied()).collect();
            let (book, s) =
                rec.span("sz.stage.histogram", |_| Codebook::from_frequencies(&histogram(&codes)));
            secs[1].push(s);
            let book = book?;
            let (streams, s) = rec.span("sz.stage.huffman_encode", |_| {
                outputs
                    .iter()
                    .map(|o| {
                        let mut w = BitWriter::with_capacity(o.codes.len() / 2);
                        o.codes.iter().try_for_each(|&c| book.encode(c, &mut w))?;
                        Ok(w.into_bytes())
                    })
                    .collect::<Result<Vec<Vec<u8>>>>()
            });
            secs[2].push(s);
            let streams = streams?;
            let (decoded, s) = rec.span("sz.stage.huffman_decode", |_| {
                let mut symbols = Vec::with_capacity(codes.len());
                for (o, bytes) in outputs.iter().zip(&streams) {
                    book.decode_into(&mut BitReader::new(bytes), o.codes.len(), &mut symbols)?;
                }
                Ok::<_, Error>(symbols)
            });
            secs[3].push(s);
            if decoded? != codes {
                return Err(Error::corrupt("stage ledger: Huffman decode differs from the codes"));
            }
            let body: Vec<u8> = streams.concat();
            let (packed, s) = rec.span("sz.stage.lzss", |_| lossless::compress(&body));
            secs[4].push(s);
            std::hint::black_box(packed);
            let (stream, s) = rec.span("sz.compress.t1", |_| {
                one_thread.install(|| codec::compress(&inp.data, inp.shape, &inp.config))
            });
            secs[5].push(s);
            stream?;
        }

        let mb = inp.bytes() as f64 / 1e6;
        m.set_median("sz.stage.quantize_mbs", &per_second(mb, &secs[0]));
        m.set_median("sz.stage.histogram_mbs", &per_second(mb, &secs[1]));
        m.set_median("sz.stage.huffman_encode_mbs", &per_second(mb, &secs[2]));
        m.set_median("sz.stage.huffman_decode_mbs", &per_second(mb, &secs[3]));
        m.set_median("sz.stage.lzss_mbs", &per_second(mb, &secs[4]));
        // Covered time counts the two stages `compress` runs through the
        // very functions timed here. Its histogram is a private dense
        // fold, not the public `huffman::histogram` (an ordered-map
        // reference that is several times slower), and LZSS is off in
        // `SzConfig::abs`; both are reported above and left out here.
        m.set("sz.stage.covered_frac", (median(&secs[0]) + median(&secs[2])) / median(&secs[5]));
        Ok(())
    }
}

impl Workload for FieldWorkload {
    fn facts(&self) -> Facts {
        self.facts
    }

    fn round(&self, rec: &mut Recorder, log: &mut RoundLog, tally: &mut Tally) {
        let names = self.codec.names();
        let (mut write, mut read) = ((0u64, 0.0f64), (0u64, 0.0f64));
        for (inp, (ref_stream, ref_decoded)) in self.inputs.iter().zip(&self.reference) {
            let (stream, secs) =
                rec.span(names.compress, |_| codec::compress(&inp.data, inp.shape, &inp.config));
            write = (write.0 + inp.bytes(), write.1 + secs);
            log.op_ms.push(secs * 1e3);
            let decoded = stream.as_ref().ok().map(|s| {
                let (decoded, secs) = rec.span(names.decompress, |_| codec::decompress(s));
                read = (read.0 + inp.bytes(), read.1 + secs);
                decoded
            });
            rec.span("check.field", |_| {
                let verdict = match &stream {
                    Err(e) => Err(e.to_string()),
                    Ok(s) if inp.fixed_len.is_some_and(|n| n != s.len()) => Err(format!(
                        "stream is {} bytes, the rate fixes {:?}",
                        s.len(),
                        inp.fixed_len
                    )),
                    Ok(s) if s != ref_stream => {
                        Err("stream differs from the reference round".into())
                    }
                    Ok(_) => Ok(()),
                };
                tally.op(verdict.is_ok(), || {
                    format!("{} compress: {}", inp.name, verdict.unwrap_err())
                });
                if let Some(decoded) = decoded {
                    let verdict = match &decoded {
                        Err(e) => Err(e.to_string()),
                        Ok((values, _)) => {
                            check_reconstruction(&inp.data, values, ref_decoded, inp.abs_bound)
                        }
                    };
                    tally.op(verdict.is_ok(), || {
                        format!("{} decompress: {}", inp.name, verdict.unwrap_err())
                    });
                }
            });
        }
        log.write.push(write);
        log.read.push(read);
    }

    fn output_digest(&self) -> String {
        let mut digest = Digest::default();
        for (stream, decoded) in &self.reference {
            digest.bytes(stream);
            digest.values(decoded);
        }
        digest.hex()
    }

    fn layers(
        &self,
        spans: &[Span],
        _log: &RoundLog,
        rec: &mut Recorder,
        m: &mut Metrics,
    ) -> Result<()> {
        let names = self.codec.names();
        let field_mb = self.inputs[0].bytes() as f64 / 1e6;
        for (span_name, metric) in
            [(names.compress, &names.metrics[0..4]), (names.decompress, &names.metrics[4..8])]
        {
            let d = durations(spans, span_name);
            let busy: f64 = d.iter().sum();
            m.set(metric[0], d.len() as f64);
            m.set(metric[1], busy);
            m.set(metric[2], field_mb * d.len() as f64 / busy);
            let ms = scaled(&d, 1e3);
            if let Some(p90) = percentile_guarded(&ms, 0.90) {
                m.set_n(metric[3], p90, ms.len());
            }
        }

        // Pooled over one pass of the twelve fields, like `compress.mbs`
        // is pooled over the rounds: 3-D and 1-D fields run at different
        // rates, so medians of the two would not be comparable.
        let t1 = self.single_thread_pass(rec)?;
        let t1_mbs = field_mb * t1.len() as f64 / t1.iter().sum::<f64>();
        m.set_n(names.metrics[8], t1_mbs, t1.len());
        m.set(names.metrics[9], m.get(names.metrics[2]) / t1_mbs);
        if self.codec == Codec::Sz {
            self.sz_stage_ledger(rec, m)?;
        }

        let sim_s = self.gpu.compress.total() + self.gpu.decompress.total();
        m.set("gpu.exec.busy_s", self.gpu.host_s);
        m.set("gpu.sim.compress_gbs", self.gpu.bytes as f64 / 1e9 / self.gpu.compress.total());
        m.set("gpu.sim.decompress_gbs", self.gpu.bytes as f64 / 1e9 / self.gpu.decompress.total());
        m.set(
            "gpu.sim.kernel_frac",
            (self.gpu.compress.kernel + self.gpu.decompress.kernel) / sim_s,
        );
        // Compression only downloads the stream and decompression only
        // uploads it, so each pass's memcpy total is one direction.
        m.set("gpu.sim.h2d_frac", self.gpu.decompress.memcpy / sim_s);
        m.set("gpu.sim.d2h_frac", self.gpu.compress.memcpy / sim_s);
        Ok(())
    }

    fn gates(&self) -> Gates {
        match self.codec {
            Codec::Sz => Gates {
                layers: &["sz"],
                min_share: 0.80,
                bypassed: &["zfp", "store", "serve", "cluster"],
            },
            Codec::Zfp => Gates {
                layers: &["zfp"],
                min_share: 0.80,
                bypassed: &["sz", "store", "serve", "cluster"],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_length_matches_the_codec() {
        for (shape, rate) in [
            (Shape::D3(16, 16, 16), 8.0),
            (Shape::D3(8, 8, 8), 4.0),
            (Shape::D1(4099), 8.0),
            (Shape::D3(9, 5, 6), 4.0),
        ] {
            let data: Vec<f32> = (0..shape.len()).map(|i| (i as f32 * 0.37).sin()).collect();
            let stream =
                codec::compress(&data, shape, &CodecConfig::Zfp(ZfpConfig::rate(rate))).unwrap();
            assert_eq!(stream.len(), zfp_fixed_rate_len(shape, rate), "{shape:?} rate {rate}");
        }
    }
}
