//! Perf-regression gate and the workspace's one timing harness: runs the
//! committed bench scenarios, emits a schema-versioned `BENCH_<n>.json`,
//! and compares against the previous file with noise-aware tolerances.
//!
//! ```text
//! cargo run --release --bin perf-gate [-- --dir <d>] [--rebaseline "<reason>"]
//! ```
//!
//! Seven scenarios cover the perf-critical paths:
//!
//! - **sz** — encode/decode wall throughput of a full SZ roundtrip
//!   (prediction, quantization, Huffman) on a synthetic Nyx-like field,
//!   plus the exact
//!   compressed byte count; decode throughput of the same field under
//!   noise, whose codes run to ten bits and more (the wide histograms of
//!   HACC positions, where a decoder that is fast on peaked ones can fall
//!   off a cliff); the roundtrip of a 16^3 cut of the field
//!   (µs per call: what a `.fstr` chunk or a serve shard pays, where the
//!   per-call Huffman tables are the fixed cost); and the Huffman stage
//!   alone on the field's codes, one thread, each way;
//! - **zfp** — fixed-rate ZFP encode/decode wall throughput of a HACC
//!   1-D array at rate 8 (4-value blocks, coded sixteen at a time) and a
//!   Nyx 3-D field at rate 4, the same calls on one thread as ns per
//!   block, the µs per call of a 16^3 cut of the field (decoded at rate
//!   8 too, the rate of `.fstr` chunks, and coded at rate 8), the exact
//!   compressed byte counts, and an exact digest of each stream's bytes
//!   and decoded values; and the variable-length modes: the Nyx field at
//!   fixed accuracy 1e-3 each way with its bytes and digest, and the
//!   digest of the HACC array at fixed precision 16;
//! - **store** — cold region reads of a `.fstr` archive: the p50 of a
//!   one-value plane and of a one-row pencil through a 128^3 ZFP field
//!   at rate 8 in 16^3 chunks, each on a fresh reader (what a read costs
//!   when it decodes every block layer it needs), and the exact blocks a
//!   plane decodes;
//! - **serve** — the batched multi-device scheduler on the default
//!   synthetic workload (sim-clock makespan, p50/p95/p99, sustained
//!   GB/s, exact executed bytes);
//! - **cluster** — the healthy multi-node router on the default Zipf
//!   workload (same sim-clock metrics plus completion counts);
//! - **analysis** — the power spectrum and the Friends-of-Friends halo
//!   finder of Figs. 5 and 6 on `exhibit`'s 64^3 universe, and the exact
//!   halo count;
//! - **ablation** — the compressed sizes of DESIGN §5's codec choices on
//!   one HACC position array (sizes only; their speeds are not recorded).
//!
//! Every metric carries a class that sets its comparison rule:
//!
//! - `exact` — byte counts and completion counts; any difference is a
//!   regression (the simulator is bit-deterministic, so these only move
//!   when behavior does);
//! - `model` — simulated-clock results; deterministic, but legitimate
//!   model changes move them, so only >2% in the worse direction fails;
//! - `wall` — real wall-clock throughput; noisy across machines and CI
//!   runners, so a >3x collapse is printed as a warning and never fails
//!   the gate.
//!
//! The output file is `BENCH_<seq>.json` where `seq` is one past the
//! highest existing `BENCH_*.json` in `--dir` (default: the current
//! directory), starting at 8 — the PR that introduced the gate. That
//! newest file is the comparison baseline; with none, the run only
//! records. A newest file that cannot be read or parsed stops the gate
//! before any scenario runs, and nothing is written. To time one change,
//! run the gate twice with `--dir` on a scratch directory: the second run
//! compares with the first.
//!
//! An intentional byte change (a stream VERSION bump, say) moves `exact`
//! metrics on purpose. `--rebaseline "<reason>"` is the only path that
//! accepts that: the new file records the reason and every `exact` metric
//! that moved, and becomes the baseline once committed. `model`
//! regressions still fail under it.
//!
//! Exit codes: the table in README "Command line" (1 is an `exact` /
//! `model` regression or an unreadable newest `BENCH_<n>.json`).

use cosmo_analysis::acceptance;
use cosmo_data::{generate_hacc, generate_nyx, SynthOptions};
use cosmo_fft::Grid3;
use foresight::config::{ClusterSettings, ServeSettings};
use foresight_util::bits::BitWriter;
use foresight_util::cli::{self, Context, Failure};
use foresight_util::flags;
use foresight_util::json::Value;
use foresight_util::rule::NonBlank;
use foresight_util::sha256::Sha256;
use foresight_util::timer::time;
use lossy_sz::huffman::{histogram, Codebook, LANES};
use lossy_sz::{Dims, EntropyBackend, PredictorKind, SzConfig};
use lossy_zfp::ZfpConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// First sequence number; `BENCH_8.json` belongs to the PR that
/// introduced the gate.
const BASE_SEQ: u64 = 8;
const SCHEMA: u64 = 1;
/// Scenario seed (shared; each scenario derives its workload from it).
const SEED: u64 = 0;

struct Metric {
    name: &'static str,
    value: f64,
    /// "exact" | "model" | "wall"
    class: &'static str,
    /// "higher" | "lower" — which direction is better.
    better: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, class: &'static str, better: &'static str) -> Self {
        Self { name, value, class, better }
    }
}

struct Scenario {
    name: &'static str,
    metrics: Vec<Metric>,
}

flags! {
    /// Runs the scenarios, writes the next `BENCH_<n>.json` and compares.
    pub struct PerfGate = "perf-gate" {
        /// where the BENCH_<n>.json files are
        pub dir: PathBuf as "--dir" "<d>" = PathBuf::from(".");
        /// accept moved exact metrics, recording why
        pub rebaseline: Option<String> as "--rebaseline" "\"<reason>\"", each in NonBlank;
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    cli::exit(run(&argv), || PerfGate::command().usage())
}

fn run(argv: &[String]) -> Result<(), Failure> {
    let PerfGate { dir, rebaseline } = PerfGate::parse(argv, &[])?;
    let previous = newest_bench(&dir)?;
    let scenarios = run_scenarios()
        .map_err(|e| Failure::new(cli::FAILURE, format!("perf-gate: scenario failed: {e}")))?;
    let seq = previous.as_ref().map_or(BASE_SEQ, |(s, _)| s + 1);
    let compared = previous.as_ref().map(|(_, doc)| compare(doc, &scenarios));
    let moved = match &compared {
        Some(Ok(moved)) => moved.as_slice(),
        _ => &[],
    };
    let of_class = |class: &str| -> Vec<&str> {
        moved.iter().filter(|m| m.class == class).map(|m| m.line.as_str()).collect()
    };
    let mut doc = to_doc(seq, &scenarios);
    if let (Some(reason), Some((prev_seq, _)), Value::Object(fields)) =
        (&rebaseline, &previous, &mut doc)
    {
        let exact = of_class("exact").into_iter().map(|l| Value::String(l.into())).collect();
        fields.push((
            "rebaseline".into(),
            Value::Object(vec![
                ("reason".into(), Value::String(reason.clone())),
                ("against".into(), Value::String(format!("BENCH_{prev_seq}.json"))),
                ("exact_moved".into(), Value::Array(exact)),
            ]),
        ));
    }
    let out = dir.join(format!("BENCH_{seq}.json"));
    write_bench(&out, &doc)?;
    println!("perf-gate: wrote {}", out.display());
    for s in &scenarios {
        for m in &s.metrics {
            println!("  {}.{} = {} [{}]", s.name, m.name, m.value, m.class);
        }
    }
    let Some((prev_seq, _)) = previous else {
        println!("perf-gate: no previous BENCH_*.json — baseline recorded, nothing to compare");
        return Ok(());
    };
    if let Some(Err(schemas)) = compared {
        println!("perf-gate: nothing compared against BENCH_{prev_seq}.json: {schemas}");
        return Ok(());
    }
    for w in of_class("wall") {
        eprintln!("perf-gate: warning (wall-clock, advisory): {w}");
    }
    let mut regressions = of_class("model");
    match &rebaseline {
        Some(reason) => {
            println!("perf-gate: rebaselined against BENCH_{prev_seq}.json — {reason}");
            for line in of_class("exact") {
                println!("  accepted: {line}");
            }
        }
        None => regressions.extend(of_class("exact")),
    }
    if regressions.is_empty() {
        println!("perf-gate: OK against BENCH_{prev_seq}.json (no exact/model regressions)");
        return Ok(());
    }
    let mut msg =
        format!("perf-gate: {} regression(s) against BENCH_{prev_seq}.json:", regressions.len());
    for r in &regressions {
        msg += &format!("\n  {r}");
    }
    if rebaseline.is_none() && !of_class("exact").is_empty() {
        msg += "\nperf-gate: an intended `exact` change goes through --rebaseline \"<reason>\"";
    }
    Err(Failure::new(cli::FAILURE, msg))
}

/// The newest `BENCH_<n>.json` in `dir` (the highest `n`) and its
/// document; `None` when there is none. A newest file that cannot be read
/// or parsed is a failure naming it: skipping it would reuse a sequence
/// number and compare with nothing.
fn newest_bench(dir: &Path) -> Result<Option<(u64, Value)>, Failure> {
    let entries =
        std::fs::read_dir(dir).context(format_args!("error: cannot list '{}'", dir.display()))?;
    let newest = entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name();
            let seq = name.to_str()?.strip_prefix("BENCH_")?.strip_suffix(".json")?.parse().ok()?;
            Some((seq, entry.path()))
        })
        .max_by_key(|&(seq, _)| seq);
    let Some((seq, path)) = newest else {
        return Ok(None);
    };
    Ok(Some((seq, cli::load_json(&path.to_string_lossy())?)))
}

/// Writes `doc` to `out`; a file that cannot be written is a failed run,
/// not a usage error.
fn write_bench(out: &Path, doc: &Value) -> Result<(), Failure> {
    std::fs::write(out, doc.to_json()).map_err(|e| {
        Failure::new(cli::FAILURE, format!("perf-gate: cannot write '{}': {e}", out.display()))
    })
}

/// The code measured: the commit, marked `-dirty` when the working tree
/// differs from it.
fn git_rev() -> String {
    git_rev_with("git")
}

/// [`git_rev`] through the `git` program at `git`; `unknown` when it
/// cannot run or fails.
fn git_rev_with(git: &str) -> String {
    std::process::Command::new(git)
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn run_scenarios() -> foresight_util::Result<Vec<Scenario>> {
    // `exhibit`'s universe at its defaults (64^3, seed 0x5EED, 10 steps).
    let universe = SynthOptions::default();
    let hacc = generate_hacc(&universe)?;
    Ok(vec![
        sz_scenario()?,
        zfp_scenario()?,
        store_scenario()?,
        serve_scenario()?,
        cluster_scenario()?,
        analysis_scenario(&universe, &hacc)?,
        ablation_scenario(&hacc.x)?,
    ])
}

/// Best-of-3 wall seconds (first run also warms caches).
fn best_secs<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let (_, secs) = time(|| std::hint::black_box(f()));
        best = best.min(secs);
    }
    best
}

/// Full SZ roundtrip (Lorenzo + canonical Huffman) on a deterministic
/// smooth field.
fn sz_scenario() -> foresight_util::Result<Scenario> {
    const N: usize = 64;
    let data: Vec<f32> = (0..N * N * N)
        .map(|i| {
            let x = (i % N) as f32;
            let y = ((i / N) % N) as f32;
            let z = (i / (N * N)) as f32;
            (0.13 * x).sin() + (0.07 * y).cos() + (0.11 * z).sin()
        })
        .collect();
    let dims = Dims::D3(N, N, N);
    let cfg = SzConfig::abs(1e-3);
    let stream = lossy_sz::compress(&data, dims, &cfg)?;
    let volume_mb = (data.len() * 4) as f64 / 1e6;
    let enc_s = best_secs(|| lossy_sz::compress(&data, dims, &cfg).expect("compress"));
    let dec_s = best_secs(|| lossy_sz::decompress(&stream).expect("decompress"));

    // The same field under uniform noise a thousand bounds wide: a wide,
    // flat code histogram.
    let mut lcg = SEED;
    let noisy: Vec<f32> = data
        .iter()
        .map(|v| {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            v + ((lcg >> 40) as f32 / (1u64 << 24) as f32 - 0.5)
        })
        .collect();
    let wide_stream = lossy_sz::compress(&noisy, dims, &cfg)?;
    let wide_dec_s = best_secs(|| lossy_sz::decompress(&wide_stream).expect("decompress"));

    // One chunk-sized call: the field's 16^3 corner, 100 calls a pass so
    // the clock's resolution does not show.
    const C: usize = 16;
    const CALLS: usize = 100;
    let chunk: Vec<f32> = (0..C * C * C)
        .map(|i| data[i % C + N * ((i / C) % C) + N * N * (i / (C * C))])
        .collect();
    let chunk_dims = Dims::D3(C, C, C);
    let chunk_stream = lossy_sz::compress(&chunk, chunk_dims, &cfg)?;
    let per_call_us = |pass_s: f64| pass_s * 1e6 / CALLS as f64;
    let chunk_enc_s = best_secs(|| {
        for _ in 0..CALLS {
            std::hint::black_box(lossy_sz::compress(&chunk, chunk_dims, &cfg).expect("compress"));
        }
    });
    let chunk_dec_s = best_secs(|| {
        for _ in 0..CALLS {
            std::hint::black_box(lossy_sz::decompress(&chunk_stream).expect("decompress"));
        }
    });

    // The Huffman stage alone on the field's codes, one thread, the way
    // `compress` and `decompress` run it: one stream per block against one
    // book, decoded four blocks side by side.
    let blocks: Vec<Vec<u32>> = lossy_sz::block::partition(dims, cfg.block_size)
        .iter()
        .map(|b| {
            let eb = cfg.mode.value();
            lossy_sz::block::compress_block(&data, dims.extents(), b, eb, cfg.radius, cfg.predictor)
                .codes
        })
        .collect();
    let book = Codebook::from_frequencies(&histogram(&blocks.concat()))?;
    let encode = || {
        let encoder = book.encoder();
        let stream = |codes: &Vec<u32>| {
            let mut w = BitWriter::with_capacity(codes.len() / 2);
            codes.iter().for_each(|&c| encoder.encode(c, &mut w).expect("encode"));
            w.into_bytes()
        };
        blocks.iter().map(stream).collect::<Vec<_>>()
    };
    let code_streams = encode();
    let huffman_enc_s = best_secs(encode);
    let decoder = book.decoder_for(data.len());
    let mut outs: [Vec<u32>; LANES] = Default::default();
    let huffman_dec_s = best_secs(|| {
        for (streams, codes) in code_streams.chunks(LANES).zip(blocks.chunks(LANES)) {
            let lanes = std::array::from_fn(|l| streams.get(l).map_or(&[][..], |s| &s[..]));
            let counts = std::array::from_fn(|l| codes.get(l).map_or(0, Vec::len));
            decoder.decode_lanes(lanes, counts, &mut outs).expect("decode");
        }
    });
    Ok(Scenario {
        name: "sz",
        metrics: vec![
            Metric::new("encode_mbs", volume_mb / enc_s, "wall", "higher"),
            Metric::new("decode_mbs", volume_mb / dec_s, "wall", "higher"),
            Metric::new("decode_wide_mbs", volume_mb / wide_dec_s, "wall", "higher"),
            Metric::new("compressed_bytes", stream.len() as f64, "exact", "lower"),
            Metric::new("chunk16_compress_us", per_call_us(chunk_enc_s), "wall", "lower"),
            Metric::new("chunk16_decompress_us", per_call_us(chunk_dec_s), "wall", "lower"),
            Metric::new("chunk16_compressed_bytes", chunk_stream.len() as f64, "exact", "lower"),
            Metric::new("huffman_encode_mbs", volume_mb / huffman_enc_s, "wall", "higher"),
            Metric::new("huffman_decode_mbs", volume_mb / huffman_dec_s, "wall", "higher"),
        ],
    })
}

/// Fixed-rate ZFP, the paper's cuZFP mode, on the synthetic universe at
/// 64^3: a HACC position array as 1-D blocks at rate 8 and a Nyx density
/// field as 3-D blocks at rate 4, each way, on the pool and on one thread
/// (1 MiB each, so the kernel runs in cache), the field at fixed accuracy
/// and the array at fixed precision, whose blocks vary in length, and a
/// 16^3 cut of the field as one chunk-sized call.
fn zfp_scenario() -> foresight_util::Result<Scenario> {
    const N: usize = 64;
    let opts = SynthOptions { n_side: N, seed: SEED, steps: 1, ..SynthOptions::default() };
    let hacc = generate_hacc(&opts)?.x;
    let nyx = generate_nyx(&opts)?.baryon_density;
    let one_thread = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool");
    let mut metrics = Vec::new();
    for (data, dims, rate, [encode, decode, bytes, digest, encode_1t, decode_1t]) in [
        (
            &hacc,
            lossy_zfp::Dims::D1(hacc.len()),
            8.0,
            [
                "hacc1d_encode_mbs",
                "hacc1d_decode_mbs",
                "hacc1d_compressed_bytes",
                "hacc1d_digest",
                "block1t_1d_encode_ns",
                "block1t_1d_decode_ns",
            ],
        ),
        (
            &nyx,
            lossy_zfp::Dims::D3(N, N, N),
            4.0,
            [
                "nyx3d_encode_mbs",
                "nyx3d_decode_mbs",
                "nyx3d_compressed_bytes",
                "nyx3d_digest",
                "block1t_3d_encode_ns",
                "block1t_3d_decode_ns",
            ],
        ),
    ] {
        let cfg = ZfpConfig::rate(rate);
        let stream = lossy_zfp::compress(data, dims, &cfg)?;
        let volume_mb = (data.len() * 4) as f64 / 1e6;
        let enc = || lossy_zfp::compress(data, dims, &cfg).expect("compress");
        let dec = || lossy_zfp::decompress(&stream).expect("decompress");
        let blocks = dims.extents().iter().map(|n| n.div_ceil(4)).product::<usize>() as f64;
        let (enc_s, dec_s) = (best_secs(enc), best_secs(dec));
        let (enc_1t_s, dec_1t_s) = one_thread.install(|| (best_secs(enc), best_secs(dec)));
        metrics.extend([
            Metric::new(encode, volume_mb / enc_s, "wall", "higher"),
            Metric::new(decode, volume_mb / dec_s, "wall", "higher"),
            Metric::new(bytes, stream.len() as f64, "exact", "lower"),
            Metric::new(digest, zfp_digest(&stream)?, "exact", "lower"),
            Metric::new(encode_1t, enc_1t_s * 1e9 / blocks, "wall", "lower"),
            Metric::new(decode_1t, dec_1t_s * 1e9 / blocks, "wall", "lower"),
        ]);
    }

    // The variable-length modes, whose blocks carry a length table: the
    // field at a fixed accuracy each way, and the HACC array at a fixed
    // precision, pinned by their bytes and decoded values.
    let (acc_dims, acc) = (lossy_zfp::Dims::D3(N, N, N), ZfpConfig::accuracy(1e-3));
    let acc_stream = lossy_zfp::compress(&nyx, acc_dims, &acc)?;
    let acc_enc_s = best_secs(|| lossy_zfp::compress(&nyx, acc_dims, &acc).expect("compress"));
    let acc_dec_s = best_secs(|| lossy_zfp::decompress(&acc_stream).expect("decompress"));
    let nyx_mb = (nyx.len() * 4) as f64 / 1e6;
    let prec =
        lossy_zfp::compress(&hacc, lossy_zfp::Dims::D1(hacc.len()), &ZfpConfig::precision(16))?;
    metrics.extend([
        Metric::new("nyx3d_acc_encode_mbs", nyx_mb / acc_enc_s, "wall", "higher"),
        Metric::new("nyx3d_acc_decode_mbs", nyx_mb / acc_dec_s, "wall", "higher"),
        Metric::new("nyx3d_acc_compressed_bytes", acc_stream.len() as f64, "exact", "lower"),
        Metric::new("nyx3d_acc_digest", zfp_digest(&acc_stream)?, "exact", "lower"),
        Metric::new("hacc1d_prec_digest", zfp_digest(&prec)?, "exact", "lower"),
    ]);

    const C: usize = 16;
    const CALLS: usize = 100;
    let chunk: Vec<f32> = (0..C * C * C)
        .map(|i| nyx[i % C + N * ((i / C) % C) + N * N * (i / (C * C))])
        .collect();
    let (chunk_dims, cfg) = (lossy_zfp::Dims::D3(C, C, C), ZfpConfig::rate(4.0));
    let chunk_stream = lossy_zfp::compress(&chunk, chunk_dims, &cfg)?;
    // Rate 8, 512-bit blocks: what `.fstr` chunks and the cluster's
    // shards hold.
    let chunk_r8 = lossy_zfp::compress(&chunk, chunk_dims, &ZfpConfig::rate(8.0))?;
    let per_call_us = |pass_s: f64| pass_s * 1e6 / CALLS as f64;
    let chunk_enc_s = best_secs(|| {
        for _ in 0..CALLS {
            std::hint::black_box(lossy_zfp::compress(&chunk, chunk_dims, &cfg).expect("compress"));
        }
    });
    let r8 = ZfpConfig::rate(8.0);
    let chunk_r8_enc_s = best_secs(|| {
        for _ in 0..CALLS {
            std::hint::black_box(lossy_zfp::compress(&chunk, chunk_dims, &r8).expect("compress"));
        }
    });
    let chunk_dec_s = best_secs(|| {
        for _ in 0..CALLS {
            std::hint::black_box(lossy_zfp::decompress(&chunk_stream).expect("decompress"));
        }
    });
    let chunk_r8_dec_s = best_secs(|| {
        for _ in 0..CALLS {
            std::hint::black_box(lossy_zfp::decompress(&chunk_r8).expect("decompress"));
        }
    });
    metrics.extend([
        Metric::new("chunk16_compress_us", per_call_us(chunk_enc_s), "wall", "lower"),
        Metric::new("chunk16_decompress_us", per_call_us(chunk_dec_s), "wall", "lower"),
        Metric::new("chunk16_r8_compress_us", per_call_us(chunk_r8_enc_s), "wall", "lower"),
        Metric::new("chunk16_r8_decompress_us", per_call_us(chunk_r8_dec_s), "wall", "lower"),
        Metric::new("chunk16_compressed_bytes", chunk_stream.len() as f64, "exact", "lower"),
        Metric::new("chunk16_digest", zfp_digest(&chunk_stream)?, "exact", "lower"),
        Metric::new("chunk16_r8_digest", zfp_digest(&chunk_r8)?, "exact", "lower"),
    ]);
    Ok(Scenario { name: "zfp", metrics })
}

/// The first 52 bits of the SHA-256 of a ZFP stream and of the values it
/// decodes to: an integer an f64 holds exactly, so that an `exact` row
/// pins every byte and value, not only the stream's length.
fn zfp_digest(stream: &[u8]) -> foresight_util::Result<f64> {
    let (values, _) = lossy_zfp::decompress(stream)?;
    let mut hash = Sha256::new();
    hash.update(stream);
    values.iter().for_each(|v| hash.update(&v.to_le_bytes()));
    let head = u64::from_be_bytes(hash.finalize()[..8].try_into().expect("eight bytes"));
    Ok((head >> 12) as f64)
}

/// Cold plane and pencil reads of a fixed-rate ZFP field: sixteen of
/// each at spread positions, each on a fresh reader opened outside the
/// timed call, reported as the median milliseconds.
fn store_scenario() -> foresight_util::Result<Scenario> {
    use foresight_store::{ChunkCodec, FieldShape, Region, StoreReader, StoreWriter};
    const N: usize = 128;
    let data: Vec<f32> = (0..N * N * N)
        .map(|i| {
            let (x, y, z) = ((i % N) as f32, ((i / N) % N) as f32, (i / (N * N)) as f32);
            (0.13 * x).sin() + (0.07 * y).cos() + (0.11 * z).sin()
        })
        .collect();
    let mut w = StoreWriter::new();
    let shape = FieldShape::d3(N, N, N);
    w.add_field(0, "v", &data, shape, [16; 3], &ChunkCodec::zfp_rate(8.0))?;
    let archive = w.finish()?;
    let cold_p50_ms = |region: fn(usize) -> foresight_util::Result<Region>| {
        let mut ms = Vec::new();
        for k in 0..16 {
            let reader = StoreReader::from_bytes(archive.clone())?;
            let region = region(k)?;
            let (read, secs) = time(|| reader.read_region(0, "v", region));
            read?;
            ms.push(secs * 1e3);
        }
        ms.sort_by(f64::total_cmp);
        Ok::<f64, foresight_util::Error>((ms[7] + ms[8]) / 2.0)
    };
    let plane = |k: usize| Region::new([0, 0, 8 * k + 3], [N, N, 8 * k + 4]);
    let pencil = |k: usize| Region::new([0, 8 * k + 5, 127 - 8 * k], [N, 8 * k + 6, 128 - 8 * k]);
    let (plane_ms, pencil_ms) = (cold_p50_ms(plane)?, cold_p50_ms(pencil)?);
    let reader = StoreReader::from_bytes(archive)?;
    let blocks = reader.plan_region(0, "v", plane(0)?)?.blocks_decoded;
    Ok(Scenario {
        name: "store",
        metrics: vec![
            Metric::new("zfp128_plane_cold_p50_ms", plane_ms, "wall", "lower"),
            Metric::new("zfp128_pencil_cold_p50_ms", pencil_ms, "wall", "lower"),
            Metric::new("zfp128_plane_blocks_decoded", blocks as f64, "exact", "lower"),
        ],
    })
}

fn latency_metrics(
    summary: Option<foresight_util::telemetry::HistogramSummary>,
    out: &mut Vec<Metric>,
) {
    let s = |f: fn(&foresight_util::telemetry::HistogramSummary) -> f64| {
        summary.as_ref().map(f).unwrap_or(0.0) * 1e3
    };
    out.push(Metric::new("p50_ms", s(|l| l.p50), "model", "lower"));
    out.push(Metric::new("p95_ms", s(|l| l.p95), "model", "lower"));
    out.push(Metric::new("p99_ms", s(|l| l.p99), "model", "lower"));
}

/// The batched serving scheduler on its default synthetic workload.
fn serve_scenario() -> foresight_util::Result<Scenario> {
    let settings = ServeSettings::default();
    let node = settings.to_node();
    let opts = settings.to_serve_options(gpu_sim::FaultRates::default());
    let mut wl = settings.to_workload_spec();
    wl.seed = SEED;
    let reqs = foresight::synth_workload(&wl)?;
    let report = foresight::serve(&node, &opts, &reqs)?;
    let mut metrics = vec![
        Metric::new("makespan_s", report.makespan_s, "model", "lower"),
        Metric::new("sustained_gbs", report.sustained_gbs, "model", "higher"),
        Metric::new("executed_bytes", report.executed_bytes as f64, "exact", "lower"),
    ];
    latency_metrics(report.latency(), &mut metrics);
    Ok(Scenario { name: "serve", metrics })
}

/// The healthy multi-node router on its default Zipf workload.
fn cluster_scenario() -> foresight_util::Result<Scenario> {
    let settings = ClusterSettings::default();
    let spec = settings.to_cluster();
    let opts = foresight::ClusterOptions {
        chaos: gpu_sim::NodeChaosPlan::quiet(),
        ..settings.to_cluster_options()?
    };
    let mut wl = settings.to_workload_spec();
    wl.seed = SEED;
    let reqs = foresight::cluster_workload(&wl)?;
    let report = foresight::serve_cluster(&spec, &opts, &reqs)?;
    let mut metrics = vec![
        Metric::new("makespan_s", report.makespan_s, "model", "lower"),
        Metric::new("sustained_gbs", report.sustained_gbs, "model", "higher"),
        Metric::new("completed", report.completed as f64, "exact", "higher"),
    ];
    latency_metrics(report.latency(), &mut metrics);
    Ok(Scenario { name: "cluster", metrics })
}

/// The acceptance rule's two analyses on `exhibit`'s universe: the power
/// spectrum of the Nyx baryon density (Fig. 5; best of three) and the
/// Friends-of-Friends catalogue of the HACC positions (Fig. 6; one call,
/// since it takes seconds), with the halo count it finds.
fn analysis_scenario(
    universe: &SynthOptions,
    hacc: &cosmo_data::HaccSnapshot,
) -> foresight_util::Result<Scenario> {
    let density = generate_nyx(universe)?.baryon_density;
    let grid = Grid3::cube(universe.n_side);
    let pk_s = best_secs(|| acceptance::spectrum(&density, grid, universe.box_size).expect("pk"));
    let (catalog, fof_s) = time(|| acceptance::halos(&hacc.x, &hacc.y, &hacc.z, hacc.box_size));
    Ok(Scenario {
        name: "analysis",
        metrics: vec![
            Metric::new("pk64_ms", pk_s * 1e3, "wall", "lower"),
            Metric::new("fof64_s", fof_s, "wall", "lower"),
            Metric::new("fof64_halos", catalog?.halos.len() as f64, "exact", "higher"),
        ],
    })
}

/// DESIGN §5's codec ablations as compressed bytes of one HACC position
/// array. SZ runs at ABS 0.005 (Fig. 6's tightest bound): `sz_bytes` is
/// the default (block 32, adaptive predictor, Huffman), and each other
/// row changes one choice. ZFP codes the array as 1-D blocks and as the
/// paper's two 3-D reshapes, at fixed accuracy 0.005: at a fixed rate the
/// size is the rate times the padded length, whatever the layout.
fn ablation_scenario(x: &[f32]) -> foresight_util::Result<Scenario> {
    use cosmo_data::convert::{cube_shape_for, thin_shape_for, to_3d};
    let sz = SzConfig::abs(0.005);
    let mut metrics = Vec::new();
    for (name, cfg) in [
        ("sz_bytes", sz.clone()),
        ("sz_block8_bytes", SzConfig { block_size: 8, ..sz }),
        ("sz_block16_bytes", SzConfig { block_size: 16, ..sz }),
        ("sz_lorenzo_bytes", SzConfig { predictor: PredictorKind::Lorenzo, ..sz }),
        ("sz_regression_bytes", SzConfig { predictor: PredictorKind::Regression, ..sz }),
        ("sz_lzss_bytes", SzConfig { entropy: EntropyBackend::HuffmanLzss, ..sz }),
    ] {
        let bytes = lossy_sz::compress(x, Dims::D1(x.len()), &cfg)?.len();
        metrics.push(Metric::new(name, bytes as f64, "exact", "lower"));
    }
    let zfp = ZfpConfig::accuracy(0.005);
    let bytes = lossy_zfp::compress(x, lossy_zfp::Dims::D1(x.len()), &zfp)?.len();
    metrics.push(Metric::new("zfp_1d_bytes", bytes as f64, "exact", "lower"));
    let (cube, thin) = (cube_shape_for(x.len()), thin_shape_for(x.len()));
    for (name, (a, b, c)) in [("zfp_cube_bytes", cube), ("zfp_thin_bytes", thin)] {
        let mut bytes = 0;
        for part in to_3d(x, (a, b, c))?.parts {
            bytes += lossy_zfp::compress(&part, lossy_zfp::Dims::D3(a, b, c), &zfp)?.len();
        }
        metrics.push(Metric::new(name, bytes as f64, "exact", "lower"));
    }
    Ok(Scenario { name: "ablation", metrics })
}

fn to_doc(seq: u64, scenarios: &[Scenario]) -> Value {
    let scen = scenarios
        .iter()
        .map(|s| {
            let metrics = s
                .metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Value::Object(vec![
                            ("value".into(), Value::Number(m.value)),
                            ("class".into(), Value::String(m.class.into())),
                            ("better".into(), Value::String(m.better.into())),
                        ]),
                    )
                })
                .collect();
            (
                s.name.to_string(),
                Value::Object(vec![("metrics".into(), Value::Object(metrics))]),
            )
        })
        .collect();
    Value::Object(vec![
        ("schema".into(), Value::Number(SCHEMA as f64)),
        ("seq".into(), Value::Number(seq as f64)),
        ("git_rev".into(), Value::String(git_rev())),
        ("seed".into(), Value::Number(SEED as f64)),
        ("scenarios".into(), Value::Object(scen)),
    ])
}

/// A metric that compares worse than (`model`, `wall`) or differently
/// from (`exact`) the previous document.
struct Moved {
    /// "exact" | "model" | "wall"
    class: &'static str,
    line: String,
}

/// Compares current metrics against a previous document; returns one entry
/// per `exact` difference and `model` regression (these fail the gate) and
/// one per `wall` collapse (these only warn). Metrics absent on either
/// side are skipped (the schema is allowed to grow). A document of another
/// schema is not compared: the error names both schemas.
fn compare(prev: &Value, scenarios: &[Scenario]) -> Result<Vec<Moved>, String> {
    let schema = prev.get("schema");
    if schema.and_then(Value::as_u64) != Some(SCHEMA) {
        let theirs = schema.map_or("no schema".into(), |s| format!("schema {}", s.to_json()));
        return Err(format!("it has {theirs}, this run writes schema {SCHEMA}"));
    }
    let mut moved = Vec::new();
    for s in scenarios {
        for m in &s.metrics {
            let Some(old) = prev
                .get("scenarios")
                .and_then(|v| v.get(s.name))
                .and_then(|v| v.get("metrics"))
                .and_then(|v| v.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64)
            else {
                continue;
            };
            let worse = m.better == "lower";
            let (regressed, verdict) = match m.class {
                "exact" => (m.value != old, "changed"),
                // Deterministic sim-clock values: >2% in the worse
                // direction means the model got slower, not noisier.
                "model" => {
                    (if worse { m.value > old * 1.02 } else { m.value < old * 0.98 }, "worse")
                }
                // Wall-clock throughput: machine- and load-dependent, so
                // only a collapse (3x) is reported, and as a warning.
                _ => (if worse { m.value > old * 3.0 } else { m.value < old / 3.0 }, "worse"),
            };
            if regressed {
                let line = format!(
                    "{}.{} [{}]: {} -> {} ({verdict})",
                    s.name, m.name, m.class, old, m.value
                );
                moved.push(Moved { class: m.class, line });
            }
        }
    }
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn another_schema_is_not_compared_and_both_schemas_are_named() {
        let scenarios = [Scenario {
            name: "sz",
            metrics: vec![Metric::new("compressed_bytes", 1.0, "exact", "lower")],
        }];
        for (doc, theirs) in [(r#"{"schema":2}"#, "it has schema 2"), ("{}", "it has no schema")] {
            let err = compare(&Value::parse(doc).unwrap(), &scenarios).err().expect(doc);
            assert_eq!(err, format!("{theirs}, this run writes schema {SCHEMA}"));
        }
        let same = format!(r#"{{"schema":{SCHEMA},"scenarios":{{}}}}"#);
        assert!(compare(&Value::parse(&same).unwrap(), &scenarios).unwrap().is_empty());
    }

    /// A digest one bit off is an `exact` change: it fails the gate as
    /// `changed`.
    #[test]
    fn a_digest_one_bit_off_fails_as_changed() {
        let (data, dims) = ([1.5; 64], lossy_zfp::Dims::D1(64));
        let digest = zfp_digest(&lossy_zfp::compress(&data, dims, &ZfpConfig::rate(8.0)).unwrap());
        let digest = digest.unwrap();
        assert!(digest < (1u64 << 52) as f64 && digest.fract() == 0.0);
        let doc = Value::parse(&format!(
            r#"{{"schema":{SCHEMA},"scenarios":{{"zfp":{{"metrics":{{"nyx3d_digest":
               {{"value":{digest},"class":"exact","better":"lower"}}}}}}}}}}"#
        ))
        .unwrap();
        let now = |value: f64| {
            let metrics = vec![Metric::new("nyx3d_digest", value, "exact", "lower")];
            [Scenario { name: "zfp", metrics }]
        };
        assert!(compare(&doc, &now(digest)).unwrap().is_empty());
        let moved = compare(&doc, &now((digest as u64 ^ 1) as f64)).unwrap();
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].class, "exact");
        assert!(moved[0].line.starts_with("zfp.nyx3d_digest [exact]"), "{}", moved[0].line);
        assert!(moved[0].line.ends_with("(changed)"), "{}", moved[0].line);
    }

    /// A `BENCH` file that cannot be written fails the run (exit 1), and
    /// is not reported as a usage error.
    #[test]
    fn an_unwritable_bench_file_is_a_failed_run() {
        let missing = std::env::temp_dir().join(format!("perf-gate-none-{}", std::process::id()));
        let err = write_bench(&missing.join("BENCH_8.json"), &Value::Object(vec![])).unwrap_err();
        assert_eq!(err.code, cli::FAILURE, "{}", err.message);
        assert!(err.message.contains("cannot write") && err.message.contains("BENCH_8.json"));
    }

    /// Without a `git` to run, the revision is `unknown`, not an error.
    #[test]
    fn the_revision_is_unknown_when_git_cannot_run() {
        let missing = std::env::temp_dir().join(format!("no-git-{}", std::process::id()));
        assert_eq!(git_rev_with(&missing.to_string_lossy()), "unknown");
    }
}
