//! `store-chunks`: the `.fstr` container and chunk-sized (16³) codec
//! calls — packing a six-field archive, then region reads against it.

use crate::check::{self, bits_equal, Digest, Tally};
use crate::gen::{self, RegionKind, RegionRead};
use crate::report::Metrics;
use crate::spans::{durations, Recorder, Span};
use crate::stats::{median, per_second, percentile_guarded, scaled};
use crate::workload::{Facts, Gates, RoundLog, Workload};
use cosmo_data::{generate_nyx, SynthOptions};
use foresight::codec::{self, CodecConfig, Shape};
use foresight::serve::{serve, ServeNode, ServeOptions, ServePayload, ServeRequest};
use foresight_store::{ChunkCodec, ChunkGrid, FieldShape, Region, StoreReader, StoreWriter};
use foresight_util::{crc::crc32, sha256::sha256, Error, Result};
use rayon::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// Field side: six 8.4 MB fields, each twice the reference 4 MiB L2.
pub const N_SIDE: usize = 128;
/// Chunk side: 16³ f32 = 16 KiB, so every codec call fits in L1/L2.
pub const CHUNK: usize = 16;
/// `read_region` calls per round.
pub const READS_PER_ROUND: usize = 160;
/// Fields each round extracts in full: one SZ field, one ZFP field.
const EXTRACT_FIELDS: [usize; 2] = [0, 3];
/// Individual chunk calls timed for the per-call cost of each codec.
const CHUNK_SAMPLES: usize = 512;

struct Field {
    name: &'static str,
    data: Vec<f32>,
    codec: ChunkCodec,
    abs_bound: Option<f64>,
}

/// The set-up workload state.
pub struct StoreWorkload {
    fields: Vec<Field>,
    shape: FieldShape,
    reads: Vec<RegionRead>,
    /// Archive bytes of the set-up pack; every round must reproduce them.
    archive: Vec<u8>,
    /// Full decode of every field from the set-up archive.
    extracts: Vec<Vec<f32>>,
    facts: Facts,
}

fn scratch_file() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    dir.join(format!("tmp-{}.fstr", std::process::id()))
}

/// True when `values` equals the `region` slice of the full field.
fn region_matches(full: &[f32], n_side: usize, region: &Region, values: &[f32]) -> bool {
    let ext = region.extents();
    if values.len() != ext[0] * ext[1] * ext[2] {
        return false;
    }
    let mut rows = values.chunks_exact(ext[0]);
    (region.lo[2]..region.hi[2]).all(|z| {
        (region.lo[1]..region.hi[1]).all(|y| {
            let start = region.lo[0] + n_side * (y + n_side * z);
            rows.next().is_some_and(|row| bits_equal(row, &full[start..start + ext[0]]))
        })
    })
}

fn pack(fields: &[Field], shape: FieldShape, rec: &mut Recorder) -> Result<Vec<u8>> {
    let mut writer = StoreWriter::new();
    for f in fields {
        rec.span("store.add_field", |_| {
            writer.add_field(0, f.name, &f.data, shape, [CHUNK; 3], &f.codec)
        })
        .0?;
    }
    rec.span("store.finish", |_| writer.finish()).0
}

impl StoreWorkload {
    /// Synthesises the snapshot, packs and verifies the reference
    /// archive (through a file once), decodes it, and replays the
    /// round's reads on a simulated two-V100 node.
    pub fn setup(seed: u64, rec: &mut Recorder) -> Result<Self> {
        let opts = SynthOptions {
            n_side: N_SIDE,
            seed,
            steps: crate::field::STEPS,
            ..SynthOptions::default()
        };
        let nyx = rec.span("cosmo.generate_nyx", |_| generate_nyx(&opts)).0?;
        let sz = |data: Vec<f32>, name| {
            let bound = 1e-3 * check::value_range(&data);
            Field { name, data, codec: ChunkCodec::sz_abs(bound), abs_bound: Some(bound) }
        };
        let zfp = |data: Vec<f32>, name| Field {
            name,
            data,
            codec: ChunkCodec::zfp_rate(8.0),
            abs_bound: None,
        };
        let fields = vec![
            sz(nyx.baryon_density, "baryon_density"),
            sz(nyx.dark_matter_density, "dark_matter_density"),
            sz(nyx.temperature, "temperature"),
            zfp(nyx.velocity_x, "velocity_x"),
            zfp(nyx.velocity_y, "velocity_y"),
            zfp(nyx.velocity_z, "velocity_z"),
        ];
        let shape = FieldShape::d3(N_SIDE, N_SIDE, N_SIDE);
        let reads = gen::region_reads(seed, N_SIDE, CHUNK, fields.len(), READS_PER_ROUND);

        let archive = rec.span("store.pack", |rec| pack(&fields, shape, rec)).0?;
        let path = scratch_file();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&path, &archive)?;
        let from_disk = StoreReader::open(&path).and_then(|r| r.verify());
        std::fs::remove_file(&path)?;
        if from_disk?.fields_ok != fields.len() {
            return Err(Error::corrupt("file round trip lost a field"));
        }

        let reader = Arc::new(StoreReader::from_bytes(archive.clone())?);
        let mut extracts = Vec::with_capacity(fields.len());
        let mut qualities = Vec::with_capacity(fields.len());
        for f in &fields {
            let (values, _) = reader.extract(0, f.name)?;
            qualities.push(check::quality(&f.data, &values));
            extracts.push(values);
        }
        let (max_err_rel, psnr_db) = check::worst(&qualities);

        // Every read arrives at once, so the makespan is the node's busy
        // time and the figure is its throughput at saturation.
        let requests: Vec<ServeRequest> = reads
            .iter()
            .enumerate()
            .map(|(id, r)| ServeRequest {
                id: id as u64,
                arrival_s: 0.0,
                deadline_s: None,
                payload: ServePayload::StoreRead {
                    store: Arc::clone(&reader),
                    snapshot: 0,
                    field: fields[r.field].name.to_string(),
                    region: r.region,
                },
            })
            .collect();
        // Deep enough that no read is turned away: the model figure
        // should cover exactly the round's reads.
        let serve_opts = ServeOptions { queue_depth: requests.len(), ..ServeOptions::default() };
        let report = rec
            .span("serve.model", |_| serve(&ServeNode::v100_pcie(2), &serve_opts, &requests))
            .0?;
        if report.rejected != 0 {
            return Err(Error::invalid("set-up serve pass rejected a read"));
        }

        let raw = (fields.len() * shape.len() * 4) as f64;
        let facts = Facts {
            ratio: raw / archive.len() as f64,
            psnr_db,
            max_err_rel,
            sim_gbs: report.sustained_gbs,
        };
        Ok(Self { fields, shape, reads, archive, extracts, facts })
    }

    fn field_bytes(&self) -> u64 {
        self.shape.len() as u64 * 4
    }

    /// Per-call cost of each codec on single chunks, and the same codec
    /// on the whole 128³ field for the fixed-cost ratio.
    fn chunk_costs(&self, rec: &mut Recorder, m: &mut Metrics) -> Result<()> {
        let grid = ChunkGrid::new(self.shape, [CHUNK; 3])?;
        let ids = grid.intersecting(&Region::full(self.shape));
        let chunk_shape = FieldShape::d3(CHUNK, CHUNK, CHUNK);
        let chunk_mb = (chunk_shape.len() * 4) as f64 / 1e6;
        for (f, spans, names) in [
            (
                &self.fields[0],
                ["sz.chunk16.compress", "sz.chunk16.decompress", "sz.field128.compress"],
                ["sz.chunk16.compress_us", "sz.chunk16.decompress_us", "sz.fixed_cost_ratio"],
            ),
            (
                &self.fields[3],
                ["zfp.chunk16.compress", "zfp.chunk16.decompress", "zfp.field128.compress"],
                ["zfp.chunk16.compress_us", "zfp.chunk16.decompress_us", "zfp.fixed_cost_ratio"],
            ),
        ] {
            let (mut compress_us, mut decompress_us) = (Vec::new(), Vec::new());
            for idx in ids.iter().take(CHUNK_SAMPLES) {
                let values = grid.gather(&f.data, *idx);
                let (stream, secs) =
                    rec.span(spans[0], |_| f.codec.compress_chunk(&values, chunk_shape));
                compress_us.push(secs * 1e6);
                let stream = stream?;
                let (decoded, secs) = rec.span(spans[1], |_| codec::decompress(&stream));
                decompress_us.push(secs * 1e6);
                decoded?;
            }
            let config = match &f.codec {
                ChunkCodec::Sz(c) => CodecConfig::Sz(c.clone()),
                ChunkCodec::Zfp(c) => CodecConfig::Zfp(*c),
            };
            let cube = Shape::D3(N_SIDE, N_SIDE, N_SIDE);
            let mut whole_s = Vec::new();
            for _ in 0..3 {
                let (stream, secs) =
                    rec.span(spans[2], |_| codec::compress(&f.data, cube, &config));
                stream?;
                whole_s.push(secs);
            }
            let whole_mbs = self.field_bytes() as f64 / 1e6 / median(&whole_s);
            let chunk_mbs = chunk_mb / (median(&compress_us) / 1e6);
            m.set_median(names[0], &compress_us);
            m.set_median(names[1], &decompress_us);
            m.set(names[2], whole_mbs / chunk_mbs);
        }
        Ok(())
    }

    /// Seconds the same chunks take through `compress_chunk` alone, under
    /// the same fan-out `add_field` uses.
    fn codec_only_pack(&self, rec: &mut Recorder) -> Result<f64> {
        let grid = ChunkGrid::new(self.shape, [CHUNK; 3])?;
        let ids = grid.intersecting(&Region::full(self.shape));
        let mut total = 0.0;
        for f in &self.fields {
            let chunks: Vec<(Vec<f32>, FieldShape)> = ids
                .iter()
                .map(|&idx| (grid.gather(&f.data, idx), grid.chunk_shape_at(idx)))
                .collect();
            let (streams, secs) = rec.span("store.codec_only.compress", |_| {
                chunks
                    .par_iter()
                    .map(|(values, shape)| f.codec.compress_chunk(values, *shape))
                    .collect::<Result<Vec<Vec<u8>>>>()
            });
            streams?;
            total += secs;
        }
        Ok(total)
    }

    /// Seconds `codec::decompress` alone takes on the fragments one
    /// round's `read_region` calls decode.
    fn codec_only_reads(&self, rec: &mut Recorder) -> Result<f64> {
        let reader = StoreReader::from_bytes(self.archive.clone())?;
        let mut total = 0.0;
        for r in &self.reads {
            let entry = reader
                .find(0, self.fields[r.field].name)
                .ok_or_else(|| Error::corrupt("field missing from the archive"))?;
            for idx in entry.grid.intersecting(&r.region) {
                let c = &entry.chunks[entry.grid.linear(idx)];
                let fragment = &self.archive[c.offset as usize..(c.offset + c.len) as usize];
                let (decoded, secs) =
                    rec.span("store.codec_only.decompress", |_| codec::decompress(fragment));
                decoded?;
                total += secs;
            }
        }
        Ok(total)
    }
}

impl Workload for StoreWorkload {
    fn facts(&self) -> Facts {
        self.facts
    }

    fn round(&self, rec: &mut Recorder, log: &mut RoundLog, tally: &mut Tally) {
        let (packed, pack_s) = rec.span("store.pack", |rec| pack(&self.fields, self.shape, rec));
        log.write.push((self.fields.len() as u64 * self.field_bytes(), pack_s));
        let same =
            rec.span("check.archive", |_| packed.as_ref().is_ok_and(|b| *b == self.archive)).0;
        tally.op(same, || match &packed {
            Err(e) => format!("pack: {e}"),
            Ok(_) => "pack: archive bytes differ from the reference round".into(),
        });
        let Ok(bytes) = packed else {
            log.read.push((0, 0.0));
            return;
        };

        let reader = match rec.span("store.open", |_| StoreReader::from_bytes(bytes)).0 {
            Ok(reader) => reader,
            Err(e) => {
                tally.op(false, || format!("open: {e}"));
                log.read.push((0, 0.0));
                return;
            }
        };
        let verified = rec.span("store.verify", |_| reader.verify()).0;
        tally.op(verified.as_ref().is_ok_and(|c| c.fields_ok == self.fields.len()), || {
            format!("verify: {verified:?}")
        });

        let mut read = (0u64, 0.0f64);
        let mut counts = [0u64; 3];
        for r in &self.reads {
            let name = self.fields[r.field].name;
            let (out, secs) =
                rec.span(r.kind.span_name(), |_| reader.read_region(0, name, r.region));
            log.op_ms.push(secs * 1e3);
            read.1 += secs;
            let ok = rec
                .span("check.region", |_| {
                    out.as_ref().is_ok_and(|(values, _)| {
                        region_matches(&self.extracts[r.field], N_SIDE, &r.region, values)
                    })
                })
                .0;
            tally.op(ok, || format!("read_region {name} {:?}: wrong values or error", r.region));
            if let Ok((_, stats)) = out {
                read.0 += stats.bytes_returned;
                counts[0] += stats.chunks_decoded;
                counts[1] += stats.bytes_touched;
                counts[2] += stats.bytes_returned;
            }
        }
        for i in EXTRACT_FIELDS {
            let f = &self.fields[i];
            let (full, secs) = rec.span("store.extract", |_| reader.extract(0, f.name));
            read = (read.0 + self.field_bytes(), read.1 + secs);
            let ok = rec
                .span("check.extract", |_| {
                    full.as_ref().is_ok_and(|(values, _)| {
                        bits_equal(values, &self.extracts[i])
                            && f.abs_bound.is_none_or(|b| check::max_abs_err(&f.data, values) <= b)
                    })
                })
                .0;
            tally.op(ok, || {
                format!("extract {}: differs from the reference or breaks the bound", f.name)
            });
        }
        log.read.push(read);
        for (key, n) in
            ["chunks_decoded", "bytes_touched", "bytes_returned"].into_iter().zip(counts)
        {
            *log.counts.entry(key).or_insert(0) += n;
        }
    }

    fn output_digest(&self) -> String {
        let mut digest = Digest::default();
        digest.bytes(&self.archive);
        for values in &self.extracts {
            digest.values(values);
        }
        digest.hex()
    }

    fn layers(
        &self,
        spans: &[Span],
        log: &RoundLog,
        rec: &mut Recorder,
        m: &mut Metrics,
    ) -> Result<()> {
        let rounds = log.read.len().max(1) as f64;

        let packs = durations(spans, "store.pack");
        let pack_s = median(&packs);
        let raw_mb = (self.fields.len() as u64 * self.field_bytes()) as f64 / 1e6;
        m.set("store.pack.calls", packs.len() as f64);
        m.set("store.pack.busy_s", packs.iter().sum());
        m.set_median("store.pack.mbs", &per_second(raw_mb, &packs));
        let opens = durations(spans, "store.open");
        m.set_median("store.open.us", &scaled(&opens, 1e6));
        let verifies = durations(spans, "store.verify");
        let archive_mb = self.archive.len() as f64 / 1e6;
        m.set_median("store.verify.mbs", &per_second(archive_mb, &verifies));

        let mut all_reads = Vec::new();
        for (kind, metric) in [
            (RegionKind::Cube32, "store.read.cube32.p50_ms"),
            (RegionKind::Plane, "store.read.plane.p50_ms"),
            (RegionKind::Chunk, "store.read.chunk.p50_ms"),
            (RegionKind::Pencil, "store.read.pencil.p50_ms"),
        ] {
            let ms = scaled(&durations(spans, kind.span_name()), 1e3);
            m.set_median(metric, &ms);
            all_reads.extend(ms);
        }
        let read_s = all_reads.iter().sum::<f64>() / 1e3;
        m.set("store.read.calls", all_reads.len() as f64);
        m.set("store.read.busy_s", read_s);
        if let Some(p90) = percentile_guarded(&all_reads, 0.90) {
            m.set_n("store.read.p90_ms", p90, all_reads.len());
        }
        let extracts = durations(spans, "store.extract");
        let field_mb = self.field_bytes() as f64 / 1e6;
        m.set_median("store.read.full.mbs", &per_second(field_mb, &extracts));

        let count = |key: &str| log.counts.get(key).copied().unwrap_or(0) as f64;
        m.set("store.read.chunks_decoded", count("chunks_decoded") / rounds);
        m.set("store.read.bytes_touched", count("bytes_touched") / rounds);
        m.set("store.read.amplification", count("bytes_touched") / count("bytes_returned"));

        m.set("store.pack.codec_frac", self.codec_only_pack(rec)? / pack_s);
        // `all_reads` holds the traced rounds only, half of all rounds.
        let traced_rounds = packs.len().max(1) as f64;
        m.set("store.read.decode_frac", self.codec_only_reads(rec)? / (read_s / traced_rounds));
        self.chunk_costs(rec, m)?;

        let crc_s = rec.span("util.crc32", |_| std::hint::black_box(crc32(&self.archive))).1;
        let sha_s = rec.span("util.sha256", |_| std::hint::black_box(sha256(&self.archive))).1;
        m.set("util.crc32.mbs", archive_mb / crc_s);
        m.set("util.sha256.mbs", archive_mb / sha_s);
        Ok(())
    }

    fn gates(&self) -> Gates {
        Gates { layers: &["store"], min_share: 0.90, bypassed: &["serve", "cluster"] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_slices_compare_against_the_full_field() {
        let n = 8;
        let full: Vec<f32> = (0..n * n * n).map(|i| i as f32).collect();
        let region = Region::new([1, 2, 3], [5, 4, 5]).unwrap();
        let mut values = Vec::new();
        for z in 3..5 {
            for y in 2..4 {
                for x in 1..5 {
                    values.push((x + n * (y + n * z)) as f32);
                }
            }
        }
        assert!(region_matches(&full, n, &region, &values));
        values[5] += 1.0;
        assert!(!region_matches(&full, n, &region, &values));
        assert!(!region_matches(&full, n, &region, &values[1..]));
    }
}
