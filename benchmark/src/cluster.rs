//! `cluster-storm`: thousands of block-sized requests through
//! `serve_cluster`, so the router and the per-node scheduler do most of
//! the work and the large-field codec paths none.

use crate::check::{self, le_bytes, Digest, Tally};
use crate::gen::{self, Zipf};
use crate::report::Metrics;
use crate::spans::{durations, Recorder, Span};
use crate::stats::median;
use crate::workload::{Facts, Gates, RoundLog, Workload};
use cosmo_data::{generate_nyx, SynthOptions};
use foresight::cluster::{
    serve_cluster, ClusterOptions, ClusterReport, ClusterRequest, ServeCluster,
};
use foresight::codec::{self, CodecConfig, Shape};
use foresight::serve::{
    serve, shard_plan, ServeNode, ServeOptions, ServePayload, ServeRequest, ServeStatus,
};
use foresight_store::{ChunkCodec, FieldShape, Region, StoreReader, StoreWriter};
use foresight_util::{Error, Result};
use lossy_sz::SzConfig;
use lossy_zfp::ZfpConfig;
use rand::Rng;
use rayon::prelude::*;
use std::sync::Arc;

/// Field side of the snapshot the blocks and the archive are cut from.
pub const N_SIDE: usize = 64;
/// Chunk side of the archive behind `StoreRead` requests.
const CHUNK: usize = 16;
/// Distinct blocks in the catalog.
const CATALOG: usize = 64;
/// Requests per replay; the router's share of the time grows with this.
pub const REQUESTS: usize = 4096;
/// Requests per replay of the short run behind `cluster.scaling_exp`.
const REQUESTS_SHORT: usize = 1024;
/// Repetitions of the short run.
const SHORT_REPS: usize = 3;
/// Poisson arrival rate on the simulated clock.
const ARRIVAL_HZ: f64 = 6000.0;
/// Priority tiers requests draw from.
const PRIORITIES: u64 = 3;

/// One replay: the requests and the bytes each must answer with.
struct Replay {
    requests: Vec<ClusterRequest>,
    expected: Vec<Arc<Vec<u8>>>,
    /// Uncompressed bytes on the uncompressed side of every request.
    raw_bytes: u64,
}

/// What a report must repeat exactly from round to round.
fn fingerprint(report: &ClusterReport) -> String {
    let mut digest = Digest::default();
    let mut words = vec![
        report.makespan_s.to_bits(),
        report.submitted as u64,
        report.completed as u64,
        report.rejected as u64,
        report.failovers,
        report.redirects,
    ];
    for r in &report.responses {
        words.extend([
            r.id,
            r.node.map_or(u64::MAX, |n| n as u64),
            r.completed_s.to_bits(),
            u64::from(r.redirects),
        ]);
    }
    digest.bytes(&words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>());
    digest.hex()
}

/// The set-up workload state.
pub struct ClusterWorkload {
    spec: ServeCluster,
    opts: ClusterOptions,
    ingest: Replay,
    readback: Replay,
    /// Report fingerprints of the set-up round: ingest, readback.
    reference: [String; 2],
    /// The set-up round's ingest report figures the layer metrics quote.
    ingest_report: ReportFigures,
    facts: Facts,
}

#[derive(Debug, Clone, Copy, Default)]
struct ReportFigures {
    completed: usize,
    rejected: usize,
    failovers: u64,
    p99_s: f64,
    makespan_s: f64,
}

fn cut_block(field: &[f32], origin: [usize; 3], side: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(side * side * side);
    for z in origin[2]..origin[2] + side {
        for y in origin[1]..origin[1] + side {
            let row = origin[0] + N_SIDE * (y + N_SIDE * z);
            out.extend_from_slice(&field[row..row + side]);
        }
    }
    out
}

impl ClusterWorkload {
    /// Builds the block catalog, the chunked archive and both request
    /// streams, then runs one untimed round whose reports every timed
    /// round must reproduce.
    pub fn setup(seed: u64, rec: &mut Recorder) -> Result<Self> {
        let opts = SynthOptions {
            n_side: N_SIDE,
            seed,
            steps: crate::field::STEPS,
            ..SynthOptions::default()
        };
        let nyx = rec.span("cosmo.generate_nyx", |_| generate_nyx(&opts)).0?;
        let fields = nyx.fields();
        let ranges: Vec<f64> = fields.iter().map(|(_, d)| check::value_range(d)).collect();
        // The seed places the blocks; the request mix is the workload's.
        let mut place = gen::rng_for(seed, 3);
        let mut mix = gen::rng_for(gen::MIX_SEED, 3);

        // Catalog: 8³ and 16³ blocks, SZ and ZFP alternating, with the
        // stream and the decode a direct codec call gives.
        struct Entry {
            data: Vec<f32>,
            shape: Shape,
            config: CodecConfig,
            stream: Arc<Vec<u8>>,
            decoded: Arc<Vec<u8>>,
        }
        let mut catalog = Vec::with_capacity(CATALOG);
        let mut errors = vec![check::ErrorSum::default(); fields.len()];
        for k in 0..CATALOG {
            let f = k % fields.len();
            let side = [8, 16][(k / 2) % 2];
            let origin = [0; 3].map(|_| place.gen_range(0..(N_SIDE - side + 1) as u64) as usize);
            let data = cut_block(fields[f].1, origin, side);
            let config = if k % 2 == 0 {
                CodecConfig::Sz(SzConfig::abs(1e-2 * ranges[f]))
            } else {
                CodecConfig::Zfp(ZfpConfig::rate(8.0))
            };
            let shape = Shape::D3(side, side, side);
            let stream = codec::compress(&data, shape, &config)?;
            let (values, _) = codec::decompress(&stream)?;
            errors[f].add(&data, &values);
            catalog.push(Entry {
                data,
                shape,
                config,
                stream: Arc::new(stream),
                decoded: Arc::new(le_bytes(&values)),
            });
        }

        // Archive of the six fields; a `StoreRead` asks for one chunk.
        let shape = FieldShape::d3(N_SIDE, N_SIDE, N_SIDE);
        let mut writer = StoreWriter::new();
        for (i, (name, data)) in fields.iter().enumerate() {
            let chunk_codec = if i < 3 {
                ChunkCodec::sz_abs(1e-3 * ranges[i])
            } else {
                ChunkCodec::zfp_rate(8.0)
            };
            writer.add_field(0, name, data, shape, [CHUNK; 3], &chunk_codec)?;
        }
        let store = Arc::new(StoreReader::from_bytes(writer.finish()?)?);
        let per_axis = N_SIDE / CHUNK;
        let mut chunks = Vec::with_capacity(fields.len() * per_axis.pow(3));
        for (name, _) in &fields {
            for c in 0..per_axis.pow(3) {
                let lo = [c % per_axis, (c / per_axis) % per_axis, c / (per_axis * per_axis)]
                    .map(|i| i * CHUNK);
                let region = Region::new(lo, lo.map(|v| v + CHUNK))?;
                let (values, _) = store.read_region(0, name, region)?;
                chunks.push((*name, c, region, Arc::new(le_bytes(&values))));
            }
        }

        let block_zipf = Zipf::new(CATALOG, 1.1);
        let chunk_zipf = Zipf::new(chunks.len(), 1.1);
        let mut replay = |readback: bool| {
            let arrivals = gen::poisson_arrivals(&mut mix, ARRIVAL_HZ, REQUESTS);
            let mut out = Replay { requests: Vec::new(), expected: Vec::new(), raw_bytes: 0 };
            for (id, arrival_s) in arrivals.into_iter().enumerate() {
                let priority = mix.gen_range(0..PRIORITIES) as u8;
                let (key, payload, expected, raw) = if readback && mix.gen::<f64>() < 0.4 {
                    let (name, c, region, bytes) = &chunks[chunk_zipf.draw(&mut mix)];
                    let payload = ServePayload::StoreRead {
                        store: Arc::clone(&store),
                        snapshot: 0,
                        field: name.to_string(),
                        region: *region,
                    };
                    (format!("{name}/c{c}"), payload, Arc::clone(bytes), bytes.len())
                } else {
                    let k = block_zipf.draw(&mut mix);
                    let e = &catalog[k];
                    if readback {
                        let payload = ServePayload::Decompress { stream: e.stream.to_vec() };
                        (format!("blk{k}"), payload, Arc::clone(&e.decoded), e.decoded.len())
                    } else {
                        let payload = ServePayload::Compress {
                            data: e.data.clone(),
                            shape: e.shape,
                            config: e.config.clone(),
                        };
                        (format!("blk{k}"), payload, Arc::clone(&e.stream), e.data.len() * 4)
                    }
                };
                out.raw_bytes += raw as u64;
                out.expected.push(expected);
                out.requests.push(ClusterRequest {
                    key,
                    priority,
                    req: ServeRequest { id: id as u64, arrival_s, deadline_s: None, payload },
                });
            }
            out
        };
        let ingest = replay(false);
        let readback = replay(true);

        let spec = ServeCluster::new(4, 2, ServeNode::v100_pcie(2));
        let opts = ClusterOptions::default();
        let first =
            rec.span("cluster.ingest", |_| serve_cluster(&spec, &opts, &ingest.requests)).0?;
        let second =
            rec.span("cluster.readback", |_| serve_cluster(&spec, &opts, &readback.requests)).0?;
        let compressed: usize = ingest.expected.iter().map(|s| s.len()).sum();
        // Per field over all of its blocks, against the field's range: a
        // block's own range can be arbitrarily small.
        let qualities: Vec<check::Quality> =
            errors.iter().zip(&ranges).map(|(e, &range)| e.quality(range)).collect();
        let (max_err_rel, psnr_db) = check::worst(&qualities);
        let facts = Facts {
            ratio: ingest.raw_bytes as f64 / compressed as f64,
            psnr_db,
            max_err_rel,
            sim_gbs: first.sustained_gbs,
        };
        let ingest_report = ReportFigures {
            completed: first.completed,
            rejected: first.rejected,
            failovers: first.failovers,
            p99_s: first.latency().map_or(0.0, |h| h.p99),
            makespan_s: first.makespan_s,
        };
        let reference = [fingerprint(&first), fingerprint(&second)];
        Ok(Self { spec, opts, ingest, readback, reference, ingest_report, facts })
    }

    /// One replay through `serve_cluster`, checked request by request.
    fn replay(
        &self,
        span: &'static str,
        replay: &Replay,
        reference: &str,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> f64 {
        let (report, secs) =
            rec.span(span, |_| serve_cluster(&self.spec, &self.opts, &replay.requests));
        rec.span("check.replay", |_| match &report {
            Err(e) => tally.op(false, || format!("{span}: {e}")),
            Ok(report) => {
                let accounted = report.completed + report.rejected == report.submitted
                    && report.rejected == 0
                    && report.responses.len() == replay.requests.len();
                tally.op(accounted && fingerprint(report) == reference, || {
                    format!(
                        "{span}: {} completed + {} rejected of {} submitted, or the report \
                         differs from the reference round",
                        report.completed, report.rejected, report.submitted
                    )
                });
                for (resp, want) in report.responses.iter().zip(&replay.expected) {
                    let ok = resp.status == ServeStatus::Done
                        && resp.output.as_deref() == Some(want.as_slice());
                    tally.op(ok, || {
                        format!(
                            "{span}: request {} {} or wrong bytes",
                            resp.id,
                            resp.status.label()
                        )
                    });
                }
            }
        });
        secs
    }

    /// Seconds the first `take` requests of both replays need without the
    /// router: `(serve, codec)`. `serve` runs them on one node, its queue
    /// deep enough that the scheduler places every request; `codec` runs
    /// the same payloads through the codecs under one fan-out, with no
    /// scheduler either.
    fn without_router(&self, take: usize, rec: &mut Recorder) -> Result<(f64, f64)> {
        let node = ServeNode::v100_pcie(2);
        let opts = ServeOptions { queue_depth: take, ..ServeOptions::default() };
        let (mut serve_s, mut codec_s) = (0.0, 0.0);
        for replay in [&self.ingest, &self.readback] {
            let requests: Vec<ServeRequest> =
                replay.requests[..take].iter().map(|c| c.req.clone()).collect();
            let (report, secs) = rec.span("serve.replay", |_| serve(&node, &opts, &requests));
            if report?.rejected != 0 {
                return Err(Error::invalid("single-node replay rejected a request"));
            }
            serve_s += secs;
            let (done, secs) = rec.span("serve.codec_par", |_| {
                requests
                    .par_iter()
                    .map(|r| codec_only(r, opts.shard_bytes))
                    .collect::<Result<Vec<usize>>>()
            });
            done?;
            codec_s += secs;
        }
        Ok((serve_s, codec_s))
    }
}

/// The payload's codec work alone: what `serve` does before it schedules.
fn codec_only(req: &ServeRequest, shard_bytes: u64) -> Result<usize> {
    Ok(match &req.payload {
        ServePayload::Compress { data, shape, config } => shard_plan(*shape, shard_bytes)
            .into_iter()
            .map(|(off, sub)| {
                codec::compress(&data[off..off + sub.len()], sub, config).map(|s| s.len())
            })
            .sum::<Result<usize>>()?,
        ServePayload::Decompress { stream } => le_bytes(&codec::decompress(stream)?.0).len(),
        ServePayload::StoreRead { store, snapshot, field, region } => {
            le_bytes(&store.read_region(*snapshot, field, *region)?.0).len()
        }
    })
}

impl Workload for ClusterWorkload {
    fn facts(&self) -> Facts {
        self.facts
    }

    fn round(&self, rec: &mut Recorder, log: &mut RoundLog, tally: &mut Tally) {
        let ingest_s = self.replay("cluster.ingest", &self.ingest, &self.reference[0], rec, tally);
        let readback_s =
            self.replay("cluster.readback", &self.readback, &self.reference[1], rec, tally);
        log.write.push((self.ingest.raw_bytes, ingest_s));
        log.read.push((self.readback.raw_bytes, readback_s));
        log.op_ms.push((ingest_s + readback_s) * 1e3);
    }

    fn output_digest(&self) -> String {
        let mut digest = Digest::default();
        for replay in [&self.ingest, &self.readback] {
            for bytes in &replay.expected {
                digest.bytes(bytes);
            }
        }
        for fp in &self.reference {
            digest.bytes(fp.as_bytes());
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
        let ingest = durations(spans, "cluster.ingest");
        let readback = durations(spans, "cluster.readback");
        let busy: f64 = ingest.iter().chain(&readback).sum();
        m.set("cluster.ingest.busy_s", ingest.iter().sum());
        m.set("cluster.readback.busy_s", readback.iter().sum());
        m.set("cluster.req_per_s", ((ingest.len() + readback.len()) * REQUESTS) as f64 / busy);
        let cluster_s = median(&ingest) + median(&readback);

        let (serve_s, codec_s) = self.without_router(REQUESTS, rec)?;
        m.set("serve.replay.busy_s", serve_s);
        m.set("serve.replay.req_per_s", (2 * REQUESTS) as f64 / serve_s);
        m.set("serve.codec_par.busy_s", codec_s);
        m.set("serve.sched_frac", (serve_s - codec_s) / serve_s);
        m.set_n("cluster.router_frac", (cluster_s - serve_s) / cluster_s, ingest.len());
        m.set("cluster.codec_frac", codec_s / cluster_s);

        // A quarter of the stream: linear cost would take a quarter of
        // the time.
        let mut short_s = Vec::new();
        for _ in 0..SHORT_REPS {
            let mut secs = 0.0;
            for replay in [&self.ingest, &self.readback] {
                let (report, s) = rec.span("cluster.replay_short", |_| {
                    serve_cluster(&self.spec, &self.opts, &replay.requests[..REQUESTS_SHORT])
                });
                report?;
                secs += s;
            }
            short_s.push(secs);
        }
        let short_s = median(&short_s);
        let (short_serve_s, short_codec_s) = self.without_router(REQUESTS_SHORT, rec)?;
        m.set_n("cluster.router_frac.n1024", (short_s - short_serve_s) / short_s, SHORT_REPS);
        m.set("serve.sched_frac.n1024", (short_serve_s - short_codec_s) / short_serve_s);
        m.set_n(
            "cluster.us_per_req.n1024",
            short_s * 1e6 / (2 * REQUESTS_SHORT) as f64,
            SHORT_REPS,
        );
        m.set_n("cluster.us_per_req.n4096", cluster_s * 1e6 / (2 * REQUESTS) as f64, ingest.len());
        m.set("cluster.scaling_exp", (cluster_s / short_s).log2() / 2.0);

        let r = self.ingest_report;
        m.set("cluster.completed", r.completed as f64);
        m.set("cluster.rejected", r.rejected as f64);
        m.set("cluster.failovers", r.failovers as f64);
        m.set("cluster.sim.p99_ms", r.p99_s * 1e3);
        m.set("cluster.sim.makespan_s", r.makespan_s);
        Ok(())
    }

    /// Router plus scheduler self time over `serve_cluster` time: all of
    /// it that is not codec work. It comes from differences between
    /// replays, not from nested spans, because `serve_cluster` is one call.
    fn dominant_share(&self, _spans: &[Span], m: &Metrics) -> f64 {
        1.0 - m.get("cluster.codec_frac")
    }

    fn gates(&self) -> Gates {
        Gates { layers: &["cluster"], min_share: 0.45, bypassed: &["sz", "zfp", "store"] }
    }
}
