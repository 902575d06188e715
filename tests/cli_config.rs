//! Integration: the JSON-config entry points used by `foresight-cli`.

use foresight::runner::run_pipeline;
use foresight::{ForesightConfig, SlurmSim};

#[test]
fn config_file_roundtrip_drives_a_full_pipeline() {
    let out = std::env::temp_dir().join(format!("cli_it_{}", std::process::id()));
    let json = format!(
        r#"{{
        "input": {{ "dataset": "nyx", "n_side": 16, "seed": 3, "steps": 2 }},
        "compressors": [ {{ "name": "cuzfp", "rates": [8] }} ],
        "analysis": ["distortion", "power-spectrum"],
        "output": {{ "dir": "{}", "cinema": true }}
    }}"#,
        out.display()
    );
    let path = std::env::temp_dir().join(format!("cli_it_{}.json", std::process::id()));
    std::fs::write(&path, &json).unwrap();

    let cfg = ForesightConfig::from_file(&path).unwrap();
    let report = run_pipeline(&cfg, &SlurmSim::default()).unwrap();
    assert_eq!(report.records.len(), 6);
    assert!(report.artifacts >= 2, "cinema artifacts expected");
    assert!(out.join("data.csv").exists(), "cinema index written");
    assert!(out.join("cbench.csv").exists());

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn missing_and_malformed_config_files_error_cleanly() {
    assert!(ForesightConfig::from_file("/nonexistent/config.json").is_err());
    let path = std::env::temp_dir().join(format!("cli_bad_{}.json", std::process::id()));
    std::fs::write(&path, "{ this is not json").unwrap();
    let err = ForesightConfig::from_file(&path).unwrap_err();
    assert!(matches!(err, foresight_util::Error::Config(_)));
    std::fs::remove_file(&path).ok();
}

/// Sets every option of every section to a non-default value (except
/// `sanitize.racecheck`: a section with both checks off is invalid).
const MAXIMAL: &str = r#"{
    "input": { "dataset": "hacc", "n_side": 32, "seed": 42, "steps": 6, "box_size": 128.5 },
    "compressors": [
        { "name": "gpu-sz", "mode": "pw_rel", "bounds": [0.1, 0.25], "block_size": 8 },
        { "name": "gpu-sz", "mode": "rel", "bounds": [0.001] },
        { "name": "cuzfp", "rates": [2, 4.5] }
    ],
    "analysis": ["distortion", "power-spectrum", "halo-finder", "throughput"],
    "output": { "dir": "out/maximal", "cinema": true },
    "chaos": { "seed": 7, "transfer": 0.05, "bit_flip": 0.01, "kernel": 0.02, "oom": 0.03,
               "node": 0.1, "device_retries": 5, "op_retries": 4, "job_retries": 6 },
    "sanitize": { "memcheck": false, "racecheck": true },
    "serve": { "devices": 4, "link": "pcie", "max_batch": 16, "queue_depth": 32,
               "shard_kb": 128, "window_ms": 0.5, "seed": 9, "requests": 12,
               "arrival_hz": 1000.5, "deadline_ms": 2.5, "decompress_fraction": 0.5 },
    "cluster": { "nodes": 3, "replication": 3, "devices": 1, "link": "pcie",
                 "queue_depth": 48, "shard_kb": 64, "window_ms": 0.75, "seed": 11,
                 "heartbeat_ms": 1.5, "probe_misses": 4, "breaker_threshold": 5,
                 "breaker_open_ms": 10.5, "backoff_base_ms": 0.25, "backoff_cap_ms": 4.5,
                 "requests": 24, "arrival_hz": 2500.5, "fields": 5, "zipf_s": 0.9,
                 "decompress_fraction": 0.4, "deadline_ms": 3.5, "priorities": 2,
                 "faults": [
                   { "kind": "slow", "node": 1, "at_ms": 0.2, "duration_ms": 2.0, "factor": 4.0 },
                   { "kind": "crash", "node": 2, "at_ms": 0.8, "duration_ms": 1.0, "factor": 1.5 },
                   { "kind": "partition", "node": 1, "at_ms": 0.5, "duration_ms": 1.5,
                     "factor": 2.0 }
                 ] },
    "slo": [ { "metric": "cluster.latency.p99", "threshold_ms": 5.0, "window": 0.002,
               "slow_window": 0.016, "objective": 0.999 },
             { "metric": "cluster.shed", "threshold_ms": 1, "window": 0.004 } ],
    "store": { "file": "maximal.fstr", "chunk": 8, "snapshot": 3 }
}"#;

/// `to_json()` of the three shipped examples and of [`MAXIMAL`] is
/// pinned byte for byte under `tests/golden/config/`, and each pinned
/// document parses back to the value it was written from. Re-bless only
/// after an intentional change to the config format:
/// `FORESIGHT_BLESS=1 cargo test --test cli_config`.
#[test]
fn serialized_configs_match_golden_bytes_and_parse_back() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = root.join("tests/golden/config");
    let mut cases: Vec<(String, ForesightConfig)> = vec![(
        "maximal.json".into(),
        ForesightConfig::from_json(MAXIMAL).unwrap(),
    )];
    for name in ["cluster_bench.json", "store_pack.json", "telemetry_smoke.json"] {
        let cfg = ForesightConfig::from_file(root.join("examples").join(name)).unwrap();
        cases.push((name.into(), cfg));
    }
    for (name, cfg) in cases {
        let path = golden.join(&name);
        if std::env::var("FORESIGHT_BLESS").is_ok_and(|v| v == "1") {
            std::fs::create_dir_all(&golden).unwrap();
            std::fs::write(&path, cfg.to_json()).unwrap();
        }
        let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read {}: {e}\nrun `FORESIGHT_BLESS=1 cargo test --test cli_config` once",
                path.display()
            )
        });
        assert_eq!(cfg.to_json(), pinned, "{name}: to_json() drifted from the pinned bytes");
        let back = ForesightConfig::from_json(&pinned).unwrap();
        assert_eq!(back, cfg, "{name}: pinned bytes parse to a different value");
    }
}
