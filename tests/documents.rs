//! The documents `mempool-run` exports, read back with the suite's one
//! JSON reader and held to their schemas: `mempool-metrics-v2`,
//! `mempool-power-v1`, the folded profile, the `mempool-trace-v1` Chrome
//! trace, `mempool-campaign-metrics-v1` with its embedded registries, and
//! the `run --json` record; and the `profile` subcommand's two reports.
//! Each is produced by the built binary and left in
//! `target/tmp/documents/<test>/`, which CI uploads.

use mempool::json::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

const RUN_BIN: &str = env!("CARGO_BIN_EXE_mempool-run");

/// Every core bumps a shared counter, then stores and loads its own word.
const PROGRAM: &str = "csrr t0, mhartid\nli a0, 0x8000\nli a1, 1\namoadd.w a2, a1, (a0)\n\
                       slli t1, t0, 2\nli t2, 0x10000\nadd t1, t1, t2\nsw t0, 0(t1)\n\
                       lw t3, 0(t1)\nfence\necall\n";

/// A fresh directory for one test's documents, kept after the run.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("documents")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `mempool-run` in `dir`; returns its stdout.
fn mempool_run(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(RUN_BIN)
        .current_dir(dir)
        .args(args)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).expect("document written");
    parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn int(v: &Value) -> u64 {
    v.as_u64()
        .unwrap_or_else(|| panic!("not an unsigned integer: {v:?}"))
}

fn num(v: &Value) -> f64 {
    v.as_f64().unwrap_or_else(|| panic!("not a number: {v:?}"))
}

/// A `mempool-metrics-v2` registry: cluster and tile scopes, and every
/// histogram's min ≤ p50 ≤ p90 ≤ p99 ≤ max, with its buckets summing to
/// its count. Returns the scope paths.
fn check_metrics(doc: &Value) -> Vec<String> {
    assert_eq!(doc["schema"].as_str(), Some("mempool-metrics-v2"));
    let scopes = doc["scopes"].as_array().expect("a scope array");
    let paths: Vec<String> = scopes
        .iter()
        .map(|s| s["path"].as_str().expect("a scope path").to_owned())
        .collect();
    assert!(paths.iter().any(|p| p == "cluster"), "{paths:?}");
    assert!(
        paths.iter().any(|p| p.starts_with("cluster/tile")),
        "{paths:?}"
    );
    for scope in scopes {
        for (name, h) in scope["histograms"].as_object().expect("a histogram map") {
            let chain = ["min", "p50", "p90", "p99", "max"].map(|k| int(&h[k]));
            assert!(chain.windows(2).all(|w| w[0] <= w[1]), "{name}: {chain:?}");
            let buckets = h["buckets"].as_array().expect("a bucket array");
            assert_eq!(
                buckets.iter().map(int).sum::<u64>(),
                int(&h["count"]),
                "{name}"
            );
        }
    }
    let latency = &scopes[0]["histograms"]["latency"];
    assert_eq!(scopes[0]["path"].as_str(), Some("cluster"));
    assert!(int(&latency["count"]) > 0 && int(&latency["sum"]) >= int(&latency["count"]));
    paths
}

#[test]
fn a_profiled_run_exports_schema_valid_metrics_power_profile_and_trace() {
    let dir = scratch("run");
    std::fs::write(dir.join("metrics.s"), PROGRAM).expect("program");
    mempool_run(
        &dir,
        &[
            "run",
            "--small",
            "metrics.s",
            "--metrics-json",
            "metrics.json",
            "--trace-out",
            "trace.json",
            "--trace-sample",
            "8",
            "--profile-out",
            "profile.folded",
            "--power-out",
            "power.json",
        ],
    );

    let paths = check_metrics(&read_json(&dir.join("metrics.json")));
    assert!(
        paths.iter().any(|p| p.contains("/region")),
        "no profiler region scopes: {paths:?}"
    );

    let power = read_json(&dir.join("power.json"));
    assert_eq!(power["schema"].as_str(), Some("mempool-power-v1"));
    assert_eq!(int(&power["num_tiles"]), 16);
    let windows = power["windows"].as_array().expect("a window array");
    assert!(!windows.is_empty());
    for w in windows {
        assert!(int(&w["end"]) > int(&w["start"]), "{w:?}");
        assert_eq!(
            w["tiles_mw"].as_array().map(<[Value]>::len),
            Some(16),
            "{w:?}"
        );
        let split = num(&w["compute_w"]) + num(&w["interconnect_w"]);
        assert!((num(&w["cluster_w"]) - split).abs() < 0.01, "{w:?}");
        assert!(num(&w["cluster_w"]) > 0.0, "{w:?}");
    }

    let folded = std::fs::read_to_string(dir.join("profile.folded")).expect("profile");
    assert!(folded.lines().count() > 0, "empty folded-stack profile");
    for line in folded.lines() {
        let (frames, count) = line.rsplit_once(' ').expect("`<frames> <count>`");
        assert!(frames.starts_with("tile"), "{line}");
        count.parse::<u64>().unwrap_or_else(|_| panic!("{line}"));
    }

    let trace = read_json(&dir.join("trace.json"));
    assert_eq!(
        trace["otherData"]["schema"].as_str(),
        Some("mempool-trace-v1")
    );
    let events = trace["traceEvents"].as_array().expect("an event array");
    let spans: Vec<&Value> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("X"))
        .collect();
    assert!(!spans.is_empty(), "no spans sampled");
    assert!(spans
        .iter()
        .all(|e| e["ts"].as_u64().is_some() && e["dur"].as_u64().is_some()));
    assert!(events
        .iter()
        .any(|e| e["name"].as_str() == Some("process_name")));
}

/// `profile` prints the region breakdown and the hottest PCs; `profile
/// --host` prints the eleven phase rows of the host cost model, each a
/// non-negative µs-per-cycle figure, and a total that is their sum.
#[test]
fn the_profile_subcommand_reports_regions_and_host_phases() {
    let dir = scratch("profile");
    std::fs::write(dir.join("metrics.s"), PROGRAM).expect("program");
    let summary = mempool_run(
        &dir,
        &["profile", "--small", "--window", "256", "metrics.s"],
    );
    assert!(summary.contains("region breakdown"), "{summary}");
    assert!(summary.contains("hottest PCs"), "{summary}");

    let host = mempool_run(&dir, &["profile", "--host", "--small", "metrics.s"]);
    let rows: Vec<(&str, f64)> = host
        .lines()
        .skip_while(|l| !l.starts_with("host µs per simulated cycle"))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| {
            let (label, us) = l.trim().rsplit_once(' ').expect("`<row> <µs>`");
            let us: f64 = us.parse().unwrap_or_else(|_| panic!("{l}"));
            (label.trim(), us)
        })
        .collect();
    let labels: Vec<&str> = rows.iter().map(|&(label, _)| label).collect();
    let expected: Vec<&str> = mempool::HostRow::ALL.iter().map(|r| r.label()).collect();
    assert_eq!(labels[..labels.len() - 1], expected[..], "{host}");
    let (total_label, total) = rows[rows.len() - 1];
    assert_eq!(total_label, "total", "{host}");
    assert!(rows.iter().all(|&(_, us)| us >= 0.0), "{host}");
    let sum: f64 = rows[..rows.len() - 1].iter().map(|&(_, us)| us).sum();
    // Each figure is rounded to 1 ns: twelve roundings are at most 6 ns.
    assert!(
        (sum - total).abs() <= 0.0061,
        "rows sum to {sum}, total {total}: {host}"
    );
    assert!(total > 0.0, "{host}");
    assert!(host.contains("ms of the run's"), "{host}");
}

#[test]
fn a_load_sweep_exports_campaign_metrics_with_embedded_registries() {
    let dir = scratch("campaign");
    mempool_run(
        &dir,
        &[
            "campaign",
            "--topology",
            "topH",
            "--small",
            "--loads",
            "0.05,0.10",
            "--warmup",
            "200",
            "--measure",
            "1000",
            "--drain",
            "20000",
            "--seed",
            "3",
            "--metrics-json",
            "campaign.json",
        ],
    );
    let doc = read_json(&dir.join("campaign.json"));
    assert_eq!(doc["schema"].as_str(), Some("mempool-campaign-metrics-v1"));
    assert_eq!(int(&doc["windows"]["measure"]), 1000);
    let points = doc["points"].as_array().expect("a point array");
    assert_eq!(points.len(), 2);
    for point in points {
        assert!(num(&point["throughput"]) > 0.0, "{point:?}");
        check_metrics(&point["metrics"]);
    }
}

#[test]
fn the_run_record_carries_its_digests_as_hex_strings() {
    let dir = scratch("json");
    std::fs::write(dir.join("metrics.s"), PROGRAM).expect("program");
    let record = parse(&mempool_run(
        &dir,
        &["run", "--small", "--json", "metrics.s"],
    ))
    .expect("`run --json` prints one JSON document");
    for digest in ["state_digest", "l1_digest"] {
        let hex = record[digest]
            .as_str()
            .unwrap_or_else(|| panic!("{digest}: {record:?}"));
        assert!(hex.starts_with("0x") && hex.len() == 18, "{digest}: {hex}");
    }
    assert_eq!(record["cycles"], record["run_cycles"]);
    assert_eq!(int(&record["faults"]["injected"]), 0);
}
