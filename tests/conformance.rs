//! Golden-vector conformance suite.
//!
//! `tests/golden/` holds a committed 32^3 input field plus the exact
//! compressed streams GPU-SZ and cuZFP produce for it at two error-bound
//! configurations each — and, for cuZFP, for the same values as a 1-D
//! and a 2-D array and in its two variable-length modes, so every block
//! size and every coder path is pinned — with SHA-256 digests in
//! `manifest.json`. These
//! tests recompress the committed input and compare byte-for-byte, so
//! any change to predictor, quantizer, transform, or entropy stage that
//! alters the wire format fails loudly — with the digest pair, lengths,
//! and the first differing byte offset — instead of silently shipping an
//! incompatible stream.
//!
//! The fixture set also carries a committed `foresight-store` archive
//! (the same field chunked at 16^3, one field per codec) with blessed
//! digests for the archive bytes, its directory manifest, each field's
//! chunk payloads, the full decode, and a chunk-granular region read —
//! so the container format, the chunk addressing, and store-backed
//! serving are pinned by the same bless workflow as the codec streams.
//!
//! `tests/golden/v2/` keeps the SZ fixtures of the previous stream VERSION
//! (classic in-loop Lorenzo codes). This build cannot dequantize them, so
//! the policy is fail closed: every entry point must refuse them with the
//! typed `Corrupt("unsupported version 2")` error — never a panic, never
//! values. `tests/golden/v1/` keeps the previous archive VERSION (every
//! chunk a whole stream), refused on open. They are not regenerated by a
//! bless run.
//!
//! To re-bless after an *intentional* format change:
//!
//! ```text
//! FORESIGHT_BLESS=1 cargo test --test conformance
//! git diff tests/golden/   # review every regenerated artifact
//! ```
//!
//! The bless run rewrites the input field, all streams, and the
//! manifest; the diff is the reviewable record of the format change.

use foresight::codec::{self, CodecConfig, Shape};
use foresight::{
    serve, ChunkCodec, FieldShape, Region, ServeNode, ServeOptions, ServePayload, ServeRequest,
    StoreReader, StoreWriter,
};
use foresight_util::json::Value;
use foresight_util::sha256::sha256_hex;
use lossy_sz::SzConfig;
use lossy_zfp::ZfpConfig;
use std::path::{Path, PathBuf};

const N_SIDE: usize = 32;
const INPUT_FILE: &str = "input_32.f32le";
/// The committed golden archive: the 32^3 input chunked at 16^3 (eight
/// chunks per field), one field per store vector.
const ARCHIVE_FILE: &str = "store_32_chunk16.fstr";
/// The blessed conformance region: inside exactly one 16^3 chunk (x and
/// y in chunk 0, z in chunk 1), so chunk-granular reads are pinned too.
const STORE_REGION: ([usize; 3], [usize; 3]) = ([2, 2, 18], [14, 14, 30]);

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The conformance vectors: both codecs at two bounds each on the 32^3
/// field, then the ZFP coder paths those leave out — the same 32 768
/// values as a 1-D array (the HACC case) and as a 256 x 128 plane, and
/// the two variable-length modes.
fn vectors() -> Vec<(&'static str, Shape, CodecConfig)> {
    let cube = Shape::D3(N_SIDE, N_SIDE, N_SIDE);
    vec![
        ("sz_abs_1e-3", cube, CodecConfig::Sz(SzConfig::abs(1e-3))),
        ("sz_abs_1e-2", cube, CodecConfig::Sz(SzConfig::abs(1e-2))),
        ("zfp_rate_4", cube, CodecConfig::Zfp(ZfpConfig::rate(4.0))),
        ("zfp_rate_8", cube, CodecConfig::Zfp(ZfpConfig::rate(8.0))),
        ("zfp_1d_rate_8", Shape::D1(cube.len()), CodecConfig::Zfp(ZfpConfig::rate(8.0))),
        ("zfp_2d_rate_6", Shape::D2(256, 128), CodecConfig::Zfp(ZfpConfig::rate(6.0))),
        ("zfp_accuracy_1e-3", cube, CodecConfig::Zfp(ZfpConfig::accuracy(1e-3))),
        ("zfp_precision_12", cube, CodecConfig::Zfp(ZfpConfig::precision(12))),
    ]
}

/// Deterministic synthetic field: a smooth polynomial ramp plus xorshift
/// noise. Integer PRNG and plain f32 mul/add only — no libm calls — so
/// the same bytes come out on every platform.
fn golden_field() -> Vec<f32> {
    let n = N_SIDE * N_SIDE * N_SIDE;
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let noise = (s >> 40) as f32 / 16_777_216.0 - 0.5;
            let x = (i % N_SIDE) as f32 / N_SIDE as f32;
            let y = ((i / N_SIDE) % N_SIDE) as f32 / N_SIDE as f32;
            let z = (i / (N_SIDE * N_SIDE)) as f32 / N_SIDE as f32;
            let smooth = 80.0 * (x * x - 0.5 * y + 0.25 * z * z * z) + 20.0 * x * y * z;
            smooth + 0.2 * noise
        })
        .collect()
}

fn f32le_bytes(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn bless_requested() -> bool {
    std::env::var("FORESIGHT_BLESS").is_ok_and(|v| v == "1")
}

/// Human-readable mismatch report: digests, lengths, first differing
/// byte. `None` when the streams are identical.
fn diff_report(name: &str, expected: &[u8], actual: &[u8]) -> Option<String> {
    if expected == actual {
        return None;
    }
    let mut msg = format!(
        "vector {name}: stream mismatch\n  expected: {} ({} bytes)\n  actual:   {} ({} bytes)",
        sha256_hex(expected),
        expected.len(),
        sha256_hex(actual),
        actual.len()
    );
    match expected.iter().zip(actual).position(|(a, b)| a != b) {
        Some(off) => msg.push_str(&format!(
            "\n  first difference at byte {off} (expected {:#04x}, got {:#04x})",
            expected[off], actual[off]
        )),
        None => msg.push_str(&format!(
            "\n  streams agree for {} bytes, then lengths diverge",
            expected.len().min(actual.len())
        )),
    }
    Some(msg)
}

/// The archive conformance vectors: one chunked field per codec.
fn store_vectors() -> Vec<(&'static str, ChunkCodec)> {
    vec![
        ("sz_abs_1e-3", ChunkCodec::sz_abs(1e-3)),
        ("zfp_rate_8", ChunkCodec::zfp_rate(8.0)),
    ]
}

/// Packs the golden field into the conformance archive (deterministic:
/// same input, same codec configs, same chunking — same bytes).
fn build_archive(field: &[f32]) -> Vec<u8> {
    let mut w = StoreWriter::new();
    for (name, codec) in store_vectors() {
        w.add_field(0, name, field, FieldShape::d3(N_SIDE, N_SIDE, N_SIDE), [16, 16, 16], &codec)
            .unwrap();
    }
    w.finish().unwrap()
}

fn store_region() -> Region {
    Region::new(STORE_REGION.0, STORE_REGION.1).unwrap()
}

/// The `store` manifest section: archive digest, directory (manifest)
/// digest, and per-field payload/full-decode/region-read digests.
fn store_manifest_entry(archive: &[u8]) -> Value {
    let reader = StoreReader::from_bytes(archive.to_vec()).unwrap();
    let mut fields = Vec::new();
    for (name, _) in store_vectors() {
        let entry = reader.find(0, name).unwrap();
        let payload_hex = reader.field_payload_hex(entry).unwrap();
        let (full, _) = reader.extract(0, name).unwrap();
        let (sub, _) = reader.read_region(0, name, store_region()).unwrap();
        fields.push(Value::Object(vec![
            ("name".into(), Value::String(name.into())),
            ("payload_sha256".into(), Value::String(payload_hex)),
            ("full_sha256".into(), Value::String(sha256_hex(&f32le_bytes(&full)))),
            ("region_sha256".into(), Value::String(sha256_hex(&f32le_bytes(&sub)))),
        ]));
    }
    Value::Object(vec![
        ("file".into(), Value::String(ARCHIVE_FILE.into())),
        ("sha256".into(), Value::String(sha256_hex(archive))),
        ("manifest_sha256".into(), Value::String(reader.manifest_hex())),
        ("fields".into(), Value::Array(fields)),
    ])
}

/// Regenerates every golden artifact. Runs only under `FORESIGHT_BLESS=1`.
fn bless(dir: &Path) {
    std::fs::create_dir_all(dir).unwrap();
    let field = golden_field();
    let input_bytes = f32le_bytes(&field);
    std::fs::write(dir.join(INPUT_FILE), &input_bytes).unwrap();
    let mut entries = Vec::new();
    for (name, shape, cfg) in vectors() {
        let stream = codec::compress(&field, shape, &cfg).unwrap();
        let (decoded, _) = codec::decompress(&stream).unwrap();
        let file = format!("{name}.stream");
        std::fs::write(dir.join(&file), &stream).unwrap();
        entries.push(Value::Object(vec![
            ("name".into(), Value::String(name.into())),
            ("file".into(), Value::String(file)),
            ("bytes".into(), Value::Number(stream.len() as f64)),
            ("stream_sha256".into(), Value::String(sha256_hex(&stream))),
            (
                "decoded_sha256".into(),
                Value::String(sha256_hex(&f32le_bytes(&decoded))),
            ),
        ]));
    }
    let manifest = Value::Object(vec![
        (
            "shape".into(),
            Value::Array(vec![
                Value::Number(N_SIDE as f64),
                Value::Number(N_SIDE as f64),
                Value::Number(N_SIDE as f64),
            ]),
        ),
        (
            "input".into(),
            Value::Object(vec![
                ("file".into(), Value::String(INPUT_FILE.into())),
                ("sha256".into(), Value::String(sha256_hex(&input_bytes))),
            ]),
        ),
        ("vectors".into(), Value::Array(entries)),
        ("store".into(), {
            let archive = build_archive(&field);
            std::fs::write(dir.join(ARCHIVE_FILE), &archive).unwrap();
            store_manifest_entry(&archive)
        }),
    ]);
    std::fs::write(dir.join("manifest.json"), manifest.to_json()).unwrap();
    println!(
        "blessed {} vectors + {} store field(s) into {} — review `git diff tests/golden/`",
        vectors().len(),
        store_vectors().len(),
        dir.display()
    );
}

fn load_manifest(dir: &Path) -> Value {
    let path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nrun `FORESIGHT_BLESS=1 cargo test --test conformance` once",
            path.display()
        )
    });
    Value::parse(&text).expect("manifest.json parses")
}

fn load_input(dir: &Path, manifest: &Value) -> Vec<f32> {
    let input = manifest.get("input").expect("manifest has input");
    let file = input.get("file").and_then(Value::as_str).unwrap();
    let want_sha = input.get("sha256").and_then(Value::as_str).unwrap();
    let bytes = std::fs::read(dir.join(file)).expect("golden input readable");
    assert_eq!(
        sha256_hex(&bytes),
        want_sha,
        "golden input {file} does not match its manifest digest — the fixture is corrupt"
    );
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

#[test]
fn conformance_golden_vectors() {
    let dir = golden_dir();
    if bless_requested() {
        bless(&dir);
        return;
    }
    let manifest = load_manifest(&dir);
    let field = load_input(&dir, &manifest);
    let listed = manifest.get("vectors").and_then(Value::as_array).unwrap();
    assert_eq!(listed.len(), vectors().len(), "manifest covers every vector");
    let mut failures = Vec::new();
    for (name, shape, cfg) in vectors() {
        assert_eq!(field.len(), shape.len());
        let entry = listed
            .iter()
            .find(|v| v.get("name").and_then(Value::as_str) == Some(name))
            .unwrap_or_else(|| panic!("manifest missing vector '{name}'"));
        let file = entry.get("file").and_then(Value::as_str).unwrap();
        let committed = std::fs::read(dir.join(file)).expect("golden stream readable");
        assert_eq!(
            sha256_hex(&committed),
            entry.get("stream_sha256").and_then(Value::as_str).unwrap(),
            "committed {file} does not match its manifest digest — the fixture is corrupt"
        );
        // Recompress and require byte identity with the committed stream.
        let fresh = codec::compress(&field, shape, &cfg).unwrap();
        if let Some(msg) = diff_report(name, &committed, &fresh) {
            failures.push(msg);
            continue;
        }
        // The committed stream must still decode, to the committed bytes.
        let (decoded, dshape) = codec::decompress(&committed).unwrap();
        assert_eq!(dshape, shape);
        assert_eq!(
            sha256_hex(&f32le_bytes(&decoded)),
            entry.get("decoded_sha256").and_then(Value::as_str).unwrap(),
            "vector {name}: decoded output drifted from the blessed digest"
        );
    }
    assert!(
        failures.is_empty(),
        "{} of {} golden vectors diverged:\n{}",
        failures.len(),
        vectors().len(),
        failures.join("\n")
    );
}

/// The serving scheduler is part of the conformance surface: a request
/// routed through `serve` must emit exactly the golden stream.
#[test]
fn scheduler_output_matches_golden_vectors() {
    let dir = golden_dir();
    if bless_requested() {
        return; // fixtures are being regenerated by the main test
    }
    let manifest = load_manifest(&dir);
    let field = load_input(&dir, &manifest);
    let node = ServeNode::v100_pcie(2);
    // Field is 128 KiB; keep shard_bytes above that so the scheduler
    // emits a raw codec stream rather than a shard container.
    let opts = ServeOptions { shard_bytes: 1 << 20, ..Default::default() };
    let requests: Vec<ServeRequest> = vectors()
        .into_iter()
        .enumerate()
        .map(|(i, (_, shape, cfg))| ServeRequest {
            id: i as u64,
            arrival_s: i as f64 * 1e-4,
            deadline_s: None,
            payload: ServePayload::Compress { data: field.clone(), shape, config: cfg },
        })
        .collect();
    let report = serve(&node, &opts, &requests).unwrap();
    let listed = manifest.get("vectors").and_then(Value::as_array).unwrap();
    for (i, (name, ..)) in vectors().into_iter().enumerate() {
        let entry = listed
            .iter()
            .find(|v| v.get("name").and_then(Value::as_str) == Some(name))
            .unwrap();
        let resp = report.response(i as u64).unwrap();
        let out = resp.output.as_ref().expect("request served");
        assert_eq!(
            sha256_hex(out),
            entry.get("stream_sha256").and_then(Value::as_str).unwrap(),
            "vector {name}: scheduler-produced stream diverged from golden"
        );
    }
}

/// The cluster router is part of the conformance surface too: a request
/// placed, replicated, and — under chaos — failed over across nodes must
/// still emit exactly the golden stream. Bytes are placement- and
/// failover-independent by construction; this pins it against the
/// committed vectors.
#[test]
fn cluster_output_matches_golden_vectors_even_under_node_kill() {
    use foresight::{serve_cluster, ClusterOptions, ClusterRequest, ServeCluster};
    use gpu_sim::{NodeChaosPlan, NodeFaultEvent, NodeFaultKind};

    let dir = golden_dir();
    if bless_requested() {
        return; // fixtures are being regenerated by the main test
    }
    let manifest = load_manifest(&dir);
    let field = load_input(&dir, &manifest);
    let spec = ServeCluster::new(4, 2, ServeNode::v100_pcie(2));
    let requests: Vec<ClusterRequest> = vectors()
        .into_iter()
        .enumerate()
        .map(|(i, (name, shape, cfg))| ClusterRequest {
            key: name.to_string(),
            priority: 1,
            req: ServeRequest {
                id: i as u64,
                arrival_s: i as f64 * 1e-4,
                deadline_s: None,
                payload: ServePayload::Compress { data: field.clone(), shape, config: cfg },
            },
        })
        .collect();
    let listed = manifest.get("vectors").and_then(Value::as_array).unwrap();
    let chaos = NodeChaosPlan::new(vec![NodeFaultEvent {
        node: 0,
        kind: NodeFaultKind::Crash,
        at_s: 5e-4,
        duration_s: 0.0,
        slow_factor: 1.0,
    }])
    .unwrap();
    for (label, plan) in [("healthy", NodeChaosPlan::quiet()), ("node-kill", chaos)] {
        let opts = ClusterOptions {
            serve: ServeOptions { shard_bytes: 1 << 20, ..Default::default() },
            chaos: plan,
            ..Default::default()
        };
        let report = serve_cluster(&spec, &opts, &requests).unwrap();
        for (i, (name, ..)) in vectors().into_iter().enumerate() {
            let entry = listed
                .iter()
                .find(|v| v.get("name").and_then(Value::as_str) == Some(name))
                .unwrap();
            let resp = report.response(i as u64).unwrap();
            let out = resp.output.as_ref().expect("request served");
            assert_eq!(
                sha256_hex(out),
                entry.get("stream_sha256").and_then(Value::as_str).unwrap(),
                "vector {name}: cluster-produced stream diverged from golden ({label} run)"
            );
        }
    }
}

/// A single flipped byte anywhere in a stream must be caught — both by
/// the digest and by the readable diff.
#[test]
fn perturbed_stream_fails_loudly() {
    let dir = golden_dir();
    if bless_requested() {
        return;
    }
    let manifest = load_manifest(&dir);
    let listed = manifest.get("vectors").and_then(Value::as_array).unwrap();
    let entry = &listed[0];
    let file = entry.get("file").and_then(Value::as_str).unwrap();
    let name = entry.get("name").and_then(Value::as_str).unwrap();
    let committed = std::fs::read(dir.join(file)).unwrap();
    for &offset in &[0usize, committed.len() / 2, committed.len() - 1] {
        let mut bad = committed.clone();
        bad[offset] ^= 0x01;
        assert_ne!(
            sha256_hex(&bad),
            entry.get("stream_sha256").and_then(Value::as_str).unwrap(),
            "digest must change when byte {offset} flips"
        );
        let msg = diff_report(name, &committed, &bad).expect("diff detected");
        assert!(
            msg.contains(&format!("first difference at byte {offset}")),
            "diff names the corrupt offset: {msg}"
        );
    }
    // Identical streams produce no report.
    assert!(diff_report(name, &committed, &committed).is_none());
}

/// One golden stream per prior header VERSION: a v2 SZ stream and a v1
/// ZFP stream are refused with the typed version error through every
/// decoding entry point, and both version-1 archives on open.
#[test]
fn prior_version_fixtures_fail_closed() {
    use foresight_util::Error;
    if bless_requested() {
        return; // the manifest is being rewritten by the main test
    }
    let refused_as = |version: u8, what: &str, err: Error| match err {
        Error::Corrupt(msg) => assert!(
            msg.contains(&format!("unsupported version {version}")),
            "{what}: wrong reason: {msg}"
        ),
        other => panic!("{what}: expected Error::Corrupt, got {other:?}"),
    };
    // `ZFPR` is at VERSION 2. The v1 fixture is the rate-8 golden stream
    // with the version byte set back and the header CRC re-sealed, so the
    // version check — not a checksum — is what refuses it.
    let file = "zfp_rate_8.stream";
    let stream = std::fs::read(golden_dir().join("v1").join(file)).expect("v1 fixture readable");
    assert_eq!(stream[..5], *b"ZFPR\x01", "{file} is a version-1 ZFPR stream");
    let current = std::fs::read(golden_dir().join(file)).expect("current fixture readable");
    assert_eq!(stream[5..60], current[5..60], "{file} differs only in version and header CRC");
    assert_eq!(stream[64..], current[64..]);
    refused_as(1, file, lossy_zfp::decompress(&stream).expect_err("lossy_zfp::decompress"));
    refused_as(1, file, lossy_zfp::info(&stream).expect_err("lossy_zfp::info"));
    refused_as(1, file, codec::decompress(&stream).expect_err("codec::decompress"));

    let v2 = golden_dir().join("v2");
    let refused = |what: &str, err: Error| refused_as(2, what, err);
    for file in ["sz_abs_1e-3.stream", "sz_abs_1e-2.stream"] {
        let stream = std::fs::read(v2.join(file)).expect("v2 fixture readable");
        assert_eq!(stream[..5], *b"SZRS\x02", "{file} is a version-2 SZRS stream");
        refused(file, lossy_sz::decompress(&stream).expect_err("lossy_sz::decompress"));
        refused(file, lossy_sz::info(&stream).expect_err("lossy_sz::info"));
        refused(file, codec::decompress(&stream).expect_err("codec::decompress"));
    }
    // Both prior archives are version-1 containers — `v2/` with v2 SZ
    // chunks, `v1/` with v3 SZ chunks, each chunk a whole stream — and
    // are refused on the superblock version before any fragment is read.
    for dir in [v2, golden_dir().join("v1")] {
        let path = dir.join(ARCHIVE_FILE);
        let bytes = std::fs::read(&path).expect("prior archive readable");
        assert_eq!(
            bytes[..8],
            *b"FSTR\x01\x00\x00\x00",
            "{} is a version-1 archive",
            path.display()
        );
        for (what, opened) in
            [("open", StoreReader::open(&path)), ("from_bytes", StoreReader::from_bytes(bytes))]
        {
            match opened {
                Err(Error::Corrupt(msg)) => assert!(
                    msg.contains("unsupported archive version 1"),
                    "{} {what}: wrong reason: {msg}",
                    path.display()
                ),
                Err(other) => {
                    panic!("{} {what}: expected Error::Corrupt, got {other:?}", path.display())
                }
                Ok(_) => panic!("{} {what}: a version-1 archive opened", path.display()),
            }
        }
    }
}

/// An archive from a future writer fails closed on its version, before any
/// fragment is read. `future/store_version_3.fstr` is a valid 8^3 archive
/// (eight 4^3 GPU-SZ abs 1e-2 fragments and their codebook) with the
/// superblock version set to 3 and the superblock CRC re-sealed, so the
/// version check — not a checksum — is what refuses it.
#[test]
fn future_archive_version_fails_closed() {
    use foresight_util::crc::crc32;
    use foresight_util::Error;
    let path = golden_dir().join("future").join("store_version_3.fstr");
    let bytes = std::fs::read(&path).expect("future-version fixture readable");
    assert_eq!(bytes[..8], *b"FSTR\x03\x00\x00\x00", "a version-3 archive");
    let reseal = |mut b: Vec<u8>, version: u32| {
        b[4..8].copy_from_slice(&version.to_le_bytes());
        let crc = crc32(&b[..64]);
        b[64..68].copy_from_slice(&crc.to_le_bytes());
        b
    };
    // Valid in every other respect: set back to version 2, it opens,
    // every CRC and digest verifies, and its field decodes.
    let current = StoreReader::from_bytes(reseal(bytes.clone(), 2)).expect("opens as version 2");
    assert_eq!(current.verify().unwrap().fields_ok, 1);
    assert_eq!(current.extract(0, "rho").unwrap().0.len(), 512);

    let refused = |what: &str, r: foresight_util::Result<StoreReader>| match r {
        Err(Error::Corrupt(msg)) => {
            assert!(msg.contains("unsupported archive version 3"), "{what}: wrong reason: {msg}")
        }
        Err(other) => panic!("{what}: expected Error::Corrupt, got {other:?}"),
        Ok(_) => panic!("{what}: a version-3 archive opened"),
    };
    refused("from_bytes", StoreReader::from_bytes(bytes.clone()));
    refused("open", StoreReader::open(&path));
    // Every fragment byte flipped: a reader that looked at one would fail
    // on a chunk CRC; the version is refused first.
    let dir_offset = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let mut hostile = bytes.clone();
    hostile[68..dir_offset].iter_mut().for_each(|b| *b = !*b);
    refused("from_bytes, fragments flipped", StoreReader::from_bytes(hostile.clone()));
    let tmp = std::env::temp_dir().join(format!("fstr-future-{}.fstr", std::process::id()));
    std::fs::write(&tmp, &hostile).unwrap();
    let opened = StoreReader::open(&tmp);
    std::fs::remove_file(&tmp).unwrap();
    refused("open, fragments flipped", opened);
}

fn store_section(manifest: &Value) -> &Value {
    manifest.get("store").unwrap_or_else(|| {
        panic!(
            "manifest has no 'store' section\nrun `FORESIGHT_BLESS=1 cargo test --test conformance` once"
        )
    })
}

fn store_field_entry<'a>(store: &'a Value, name: &str) -> &'a Value {
    store
        .get("fields")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .find(|f| f.get("name").and_then(Value::as_str) == Some(name))
        .unwrap_or_else(|| panic!("store manifest missing field '{name}'"))
}

/// The archive container is part of the conformance surface: repacking
/// the committed input must reproduce the committed archive byte for
/// byte, the committed archive must verify end to end, and full and
/// chunk-granular reads must match their blessed digests.
#[test]
fn store_archive_matches_golden() {
    let dir = golden_dir();
    if bless_requested() {
        return; // fixtures are being regenerated by the main test
    }
    let manifest = load_manifest(&dir);
    let field = load_input(&dir, &manifest);
    let store = store_section(&manifest);
    let file = store.get("file").and_then(Value::as_str).unwrap();
    let committed = std::fs::read(dir.join(file)).expect("golden archive readable");
    assert_eq!(
        sha256_hex(&committed),
        store.get("sha256").and_then(Value::as_str).unwrap(),
        "committed {file} does not match its manifest digest — the fixture is corrupt"
    );
    // Repack and require byte identity with the committed archive: any
    // change to the superblock, directory encoding, chunk layout, or the
    // codecs' wire formats fails here with the first differing offset.
    let fresh = build_archive(&field);
    if let Some(msg) = diff_report("store archive", &committed, &fresh) {
        panic!("{msg}");
    }
    // The committed archive must open through the file-backed reader,
    // verify every integrity layer, and serve blessed reads.
    let reader = StoreReader::open(&dir.join(file)).unwrap();
    assert_eq!(
        reader.manifest_hex(),
        store.get("manifest_sha256").and_then(Value::as_str).unwrap(),
        "archive directory digest drifted from the blessed manifest"
    );
    let check = reader.verify().unwrap();
    assert_eq!(check.fields_ok, store_vectors().len());
    for (name, _) in store_vectors() {
        let entry = store_field_entry(store, name);
        let fe = reader.find(0, name).unwrap();
        assert_eq!(
            reader.field_payload_hex(fe).unwrap(),
            entry.get("payload_sha256").and_then(Value::as_str).unwrap(),
            "field {name}: chunk payload bytes drifted"
        );
        let (full, full_stats) = reader.extract(0, name).unwrap();
        assert_eq!(
            sha256_hex(&f32le_bytes(&full)),
            entry.get("full_sha256").and_then(Value::as_str).unwrap(),
            "field {name}: full decode drifted from the blessed digest"
        );
        assert_eq!(full_stats.chunks_decoded, 8, "32^3 at 16^3 chunks");
        let (sub, stats) = reader.read_region(0, name, store_region()).unwrap();
        assert_eq!(
            sha256_hex(&f32le_bytes(&sub)),
            entry.get("region_sha256").and_then(Value::as_str).unwrap(),
            "field {name}: region read drifted from the blessed digest"
        );
        // The blessed region sits inside exactly one chunk — pin the
        // chunk-granular access path, not just the bytes. The extract
        // above left that chunk in this reader's cache, so the decode
        // count is the plan's (what a fresh reader would do).
        assert_eq!(stats.chunks_intersected, 1, "region must touch exactly one chunk");
        assert_eq!((stats.chunks_decoded, stats.cache_hits()), (0, 1));
        assert_eq!(reader.plan_region(0, name, store_region()).unwrap().chunks_decoded, 1);
        assert_eq!(stats.chunks_in_field, 8);
    }
}

/// The committed bytes do not depend on the worker count: every golden
/// stream, the SZ ones through the traced device too, and the sealed
/// archive (parallel chunk CRCs, per-field digests hashed across
/// fields) come out identical on 1, 2 and 4 threads, every stream
/// decodes to the blessed values on each (the SZ ones on the device as
/// well), and `verify` returns the same tally.
#[test]
fn golden_bytes_identical_on_1_2_4_threads() {
    let dir = golden_dir();
    if bless_requested() {
        return; // fixtures are being regenerated by the main test
    }
    let manifest = load_manifest(&dir);
    let field = load_input(&dir, &manifest);
    let committed = |file: &str| std::fs::read(dir.join(file)).expect("golden file readable");
    let archive = committed(ARCHIVE_FILE);
    let listed = manifest.get("vectors").and_then(Value::as_array).unwrap();
    let blessed_decode = |name: &str| {
        let entry = listed.iter().find(|v| v.get("name").and_then(Value::as_str) == Some(name));
        entry.and_then(|e| e.get("decoded_sha256")).and_then(Value::as_str).unwrap().to_string()
    };
    for threads in [1, 2, 4] {
        foresight_util::parallel::with_threads(threads, || {
            for (name, shape, cfg) in vectors() {
                let golden = committed(&format!("{name}.stream"));
                let fresh = codec::compress(&field, shape, &cfg).unwrap();
                assert!(fresh == golden, "{name}: bytes differ on {threads} threads");
                let (decoded, _) = codec::decompress(&golden).unwrap();
                // Every value, bit for bit, whatever the thread count.
                assert_eq!(
                    sha256_hex(&f32le_bytes(&decoded)),
                    blessed_decode(name),
                    "{name}: decode differs on {threads} threads"
                );
                if let (CodecConfig::Sz(sz), Shape::D3(x, y, z)) = (&cfg, shape) {
                    let mut device = gpu_sim::Device::new(gpu_sim::GpuSpec::tesla_v100());
                    let dims = lossy_sz::Dims::D3(x, y, z);
                    let (traced, _) =
                        lossy_sz::gpu_exec::compress_on(&mut device, &field, dims, sz).unwrap();
                    assert!(traced == golden, "{name}: device bytes differ on {threads} threads");
                    let (on_device, _, _) =
                        lossy_sz::gpu_exec::decompress_on(&mut device, &golden).unwrap();
                    assert!(on_device == decoded, "{name}: device decode differs");
                }
            }
            let sealed = build_archive(&field);
            assert!(sealed == archive, "archive bytes differ on {threads} threads");
            let check = StoreReader::from_bytes(sealed).unwrap().verify().unwrap();
            assert_eq!((check.fields_ok, check.chunks_ok), (store_vectors().len(), 16));
        });
    }
}

/// Store-backed serving is part of the conformance surface: a
/// `StoreRead` request routed through the batched scheduler must emit
/// exactly the blessed region bytes.
#[test]
fn store_served_reads_match_golden_vectors() {
    let dir = golden_dir();
    if bless_requested() {
        return; // fixtures are being regenerated by the main test
    }
    let manifest = load_manifest(&dir);
    let store = store_section(&manifest);
    let file = store.get("file").and_then(Value::as_str).unwrap();
    let reader =
        std::sync::Arc::new(StoreReader::open(&dir.join(file)).expect("golden archive opens"));
    let node = ServeNode::v100_pcie(2);
    let opts = ServeOptions::default();
    let requests: Vec<ServeRequest> = store_vectors()
        .into_iter()
        .enumerate()
        .map(|(i, (name, _))| ServeRequest {
            id: i as u64,
            arrival_s: i as f64 * 1e-4,
            deadline_s: None,
            payload: ServePayload::StoreRead {
                store: reader.clone(),
                snapshot: 0,
                field: name.to_string(),
                region: store_region(),
            },
        })
        .collect();
    let report = serve(&node, &opts, &requests).unwrap();
    for (i, (name, _)) in store_vectors().into_iter().enumerate() {
        let entry = store_field_entry(store, name);
        let resp = report.response(i as u64).unwrap();
        let out = resp.output.as_ref().expect("request served");
        assert_eq!(
            sha256_hex(out),
            entry.get("region_sha256").and_then(Value::as_str).unwrap(),
            "field {name}: store-served region bytes diverged from golden"
        );
    }
    // The scheduler's store accounting must reflect chunk-granular
    // reads: one decoded chunk per request, not the whole field.
    assert_eq!(report.metrics.counter("store.chunks_decoded"), store_vectors().len() as u64);
}
