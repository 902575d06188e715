//! The codec seam, pinned layer by layer.
//!
//! Four layers hand a field to a codec: the unified API
//! (`foresight::codec`), the simulated-GPU backend (plain and sanitizer
//! paths), the `.fstr` store (writer, reader, directory labels) and the
//! serve scheduler (raw, sharded and store-read requests). Each test
//! below drives one layer over every codec mode (SZ abs / rel / pw_rel,
//! ZFP rate / precision / accuracy) and every dimensionality (1-D, 2-D,
//! 3-D and a clamped odd 3-D shape) and hashes everything that layer
//! emits: stream and archive bytes, decoded value bits, returned shapes,
//! labels, simulated-clock reports, read accounting and whole serve
//! reports. A change to how any layer names a shape or picks a codec
//! moves a digest.
//!
//! The digests were blessed before the layers shared one `Dims`, one
//! codec enum and one dispatch; they must never move without a stream
//! or archive VERSION bump. The store and serve digests were re-blessed
//! at `.fstr` VERSION 2 (one codebook per SZ field, REL resolved over the
//! whole field); the codec API and GPU backend digests did not move.
//! The store digest was re-blessed once more, with no byte or value
//! moved, when region reads began decoding ZFP chunks in block layers:
//! `ReadStats` gained `blocks_decoded`, and its `bytes_touched` counts the
//! layers a read materializes instead of its whole chunks. The serve
//! digest did not move: the model still prices a read on whole chunks.

use foresight::codec::{self, CodecConfig, Shape};
use foresight::gpu_backend::{gpu_compress, gpu_decompress};
use foresight::{
    serve, serve_serial, Region, ServeNode, ServeOptions, ServePayload, ServeRequest, StoreReader,
    StoreWriter,
};
use foresight_util::sha256::{to_hex, Sha256};
use gpu_sim::{Device, GpuSpec, SanitizerConfig};
use lossy_sz::SzConfig;
use lossy_zfp::ZfpConfig;
use std::sync::Arc;

const CODEC_API_SHA256: &str = "ee246d1bbcc4b8c775f763749b407bf9fa4769c4f3b309c5999d54661380852f";
const GPU_BACKEND_SHA256: &str = "bac05f2d2a0081330812a003b9faa130db3a4a51a995e94c068e6fbe88e3ce97";
const STORE_SHA256: &str = "af16bbc78651bd0e3ac9c142108deff287f14e07b441ba7587b53ce192b76f7d";
const SERVE_SHA256: &str = "27c9ed5e6d687830ae996dd78c455c699d64cf2db74740f5cc0462393722a8b0";

/// Smooth ramps plus integer-PRNG noise (no libm: the same bytes on
/// every platform), offset so no value is zero.
fn field(n: usize, seed: u64) -> Vec<f32> {
    let mut s = 0x2545_F491_4F6C_DD1Du64 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..n)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let noise = (s >> 40) as f32 / 16_777_216.0 - 0.5;
            let ramp = (i % 97) as f32 * 0.25 + (i / 97) as f32 * 0.01;
            3.0 + ramp + noise
        })
        .collect()
}

fn configs() -> Vec<CodecConfig> {
    vec![
        CodecConfig::Sz(SzConfig::abs(0.05)),
        CodecConfig::Sz(SzConfig::rel(1e-3)),
        CodecConfig::Sz(SzConfig::pw_rel(1e-2)),
        CodecConfig::Zfp(ZfpConfig::rate(8.0)),
        CodecConfig::Zfp(ZfpConfig::precision(14)),
        CodecConfig::Zfp(ZfpConfig::accuracy(1e-2)),
    ]
}

fn shapes() -> [Shape; 4] {
    [Shape::D1(3000), Shape::D2(48, 40), Shape::D3(16, 12, 10), Shape::D3(9, 5, 7)]
}

/// Every (config, shape, field) case, in a fixed order.
fn cases() -> Vec<(CodecConfig, Shape, Vec<f32>)> {
    let mut out = Vec::new();
    for (ci, cfg) in configs().into_iter().enumerate() {
        for (si, shape) in shapes().into_iter().enumerate() {
            out.push((cfg.clone(), shape, field(shape.len(), (ci * 4 + si) as u64)));
        }
    }
    out
}

fn bits(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect()
}

/// A running digest over labelled records.
#[derive(Default)]
struct Digest(Sha256);

impl Digest {
    fn add(&mut self, label: &str, bytes: &[u8]) {
        self.0.update(&(label.len() as u64).to_le_bytes());
        self.0.update(label.as_bytes());
        self.0.update(&(bytes.len() as u64).to_le_bytes());
        self.0.update(bytes);
    }

    fn text(&mut self, label: &str, text: &str) {
        self.add(label, text.as_bytes());
    }

    fn check(self, name: &str, want: &str) {
        let got = to_hex(&self.0.finalize());
        assert_eq!(got, want, "{name} moved");
    }
}

fn chunk_for(shape: Shape) -> [usize; 3] {
    match shape {
        Shape::D1(_) => [512, 1, 1],
        Shape::D2(..) => [16, 16, 1],
        Shape::D3(..) => [8, 8, 8],
    }
}

#[test]
fn codec_api_is_pinned() {
    let mut d = Digest::default();
    for (cfg, shape, data) in cases() {
        let stream = codec::compress(&data, shape, &cfg).unwrap();
        let (decoded, back) = codec::decompress(&stream).unwrap();
        assert_eq!(back, shape);
        d.add("stream", &stream);
        d.add("decoded", &bits(&decoded));
        d.text("shape", &format!("{back:?}"));
        d.text("label", &cfg.label());
    }
    d.check("codec API", CODEC_API_SHA256);
}

#[test]
fn gpu_backend_is_pinned() {
    let mut d = Digest::default();
    for (cfg, shape, data) in cases() {
        let direct = codec::compress(&data, shape, &cfg).unwrap();
        for sanitized in [false, true] {
            let mut device = Device::new(GpuSpec::tesla_v100());
            if sanitized {
                device = device.with_sanitizer(SanitizerConfig::full());
            }
            let (stream, report) = gpu_compress(&mut device, &cfg, &data, shape).unwrap();
            assert_eq!(stream, direct, "the device path emits the host bytes");
            d.text("compress", &format!("{report:?}"));
            let (decoded, report) =
                gpu_decompress(&mut device, cfg.id(), &stream, data.len() as u64).unwrap();
            d.add("decoded", &bits(&decoded));
            d.text("decompress", &format!("{report:?}"));
            d.text("sanitizer", &format!("{:?}", device.sanitizer_report()));
        }
    }
    d.check("GPU backend", GPU_BACKEND_SHA256);
}

fn archive() -> Vec<u8> {
    let mut w = StoreWriter::new();
    for (i, (cfg, shape, data)) in cases().into_iter().enumerate() {
        w.add_field(i as u32 % 3, &format!("f{i}"), &data, shape, chunk_for(shape), &cfg).unwrap();
    }
    w.finish().unwrap()
}

#[test]
fn store_is_pinned() {
    let bytes = archive();
    let mut d = Digest::default();
    d.add("archive", &bytes);
    let reader = StoreReader::from_bytes(bytes).unwrap();
    for (i, (cfg, shape, _)) in cases().into_iter().enumerate() {
        let entry = reader.find(i as u32 % 3, &format!("f{i}")).unwrap();
        assert_eq!(entry.shape(), shape);
        d.text("labels", &format!("{} | {}", cfg.label(), entry.bound.label(entry.codec)));
        d.text("entry", &format!("{:?} {:?}", entry.codec, entry.shape().extents()));
        let (full, stats) = reader.extract(entry.snapshot, &entry.name).unwrap();
        d.add("full", &bits(&full));
        d.text("full stats", &format!("{stats:?}"));
        let ext = entry.shape().extents();
        let region = Region::new([ext[0] / 3, ext[1] / 3, ext[2] / 3], ext).unwrap();
        let (part, _) = reader.read_region(entry.snapshot, &entry.name, region).unwrap();
        d.add("region", &bits(&part));
        let plan = reader.plan_region(entry.snapshot, &entry.name, region).unwrap();
        d.text("plan", &format!("{plan:?}"));
    }
    d.check("store", STORE_SHA256);
}

#[test]
fn serve_is_pinned() {
    let store = Arc::new(StoreReader::from_bytes(archive()).unwrap());
    let mut requests = Vec::new();
    let mut push = |payload| {
        let id = requests.len() as u64;
        requests.push(ServeRequest { id, arrival_s: id as f64 * 2e-4, deadline_s: None, payload });
    };
    for (i, (cfg, shape, data)) in cases().into_iter().enumerate() {
        let stream = codec::compress(&data, shape, &cfg).unwrap();
        push(ServePayload::Compress { data, shape, config: cfg });
        push(ServePayload::Decompress { stream });
        let entry = &store.fields()[i];
        let ext = entry.shape().extents();
        push(ServePayload::StoreRead {
            store: Arc::clone(&store),
            snapshot: entry.snapshot,
            field: entry.name.clone(),
            region: Region::new([0, 0, 0], [ext[0].div_ceil(2), ext[1], ext[2]]).unwrap(),
        });
    }
    // Small shards: the 3 000-value cases split and travel in a container.
    let opts = ServeOptions { shard_bytes: 4096, queue_depth: 1024, ..ServeOptions::default() };
    let node = ServeNode::v100_pcie(2);
    let serial = serve_serial(&node, &opts, &requests).unwrap();
    let batched = serve(&node, &opts, &requests).unwrap();
    assert!(serial.responses.iter().all(|r| r.status.succeeded()));
    // Sharded compressions come back in a container; decoding it through
    // the scheduler returns the field.
    let sharded: Vec<ServeRequest> = serial
        .responses
        .iter()
        .filter_map(|r| r.output.as_ref().filter(|o| o.starts_with(b"FSH1")))
        .enumerate()
        .map(|(k, o)| ServeRequest {
            id: k as u64,
            arrival_s: k as f64 * 2e-4,
            deadline_s: None,
            payload: ServePayload::Decompress { stream: o.clone() },
        })
        .collect();
    assert!(!sharded.is_empty(), "no request sharded");
    let unsharded = serve_serial(&node, &opts, &sharded).unwrap();
    let mut d = Digest::default();
    d.text("serial", &format!("{serial:?}"));
    d.text("batched", &format!("{batched:?}"));
    d.text("containers", &format!("{unsharded:?}"));
    d.check("serve", SERVE_SHA256);
}
