//! Smoke test of the benchmark itself: each workload runs a few steps
//! per phase, prints every metric with its unit, and passes its checks;
//! a falsified expected value is reported as a failure; the committed
//! `BENCHMARK.json` matches the benchmark's catalog.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["ga_sync", "lock_counter", "halo_push"];

const END_TO_END: [(&str, &str); 5] =
    [("step_p50_us", "us"), ("step_p99_us", "us"), ("steps_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

const PER_LAYER: [(&str, &str); 28] = [
    ("ga.put_us_p50", "us"),
    ("ga.sync_us_p50", "us"),
    ("ga.sync_us_p99", "us"),
    ("core.lock_us_p50", "us"),
    ("core.lock_us_p99", "us"),
    ("core.unlock_us_p50", "us"),
    ("core.get_u64_us_p50", "us"),
    ("core.put_u64_us_p50", "us"),
    ("core.plan_post_us_p50", "us"),
    ("core.plan_sync_us_p50", "us"),
    ("core.plan_sync_us_p99", "us"),
    ("core.wire_msgs_per_step", "count"),
    ("core.wire_bytes_per_step", "B"),
    ("core.server_msgs_per_step", "count"),
    ("core.fence_roundtrips_per_step", "count"),
    ("shm-plane.ops_per_step", "count"),
    ("proto.barrier_poll_ns", "ns"),
    ("proto.barrier_polls_per_step", "count"),
    ("proto.mcs_poll_ns", "ns"),
    ("proto.notify_poll_ns", "ns"),
    ("transport.pack_gbps", "GB/s"),
    ("transport.unpack_gbps", "GB/s"),
    ("transport.bytes_per_step", "B-computed"),
    ("netfab.rtt_8b_us_p50", "us"),
    ("netfab.rtt_64k_us_p50", "us"),
    ("trace.overhead_frac", "frac"),
    ("host.calib_ns", "ns"),
    ("failed_frac", "frac"),
];

/// Run the benchmark binary; returns its standard output.
fn bench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "perfbench {args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

fn smoke(workload: &str, trace: &str, extra: &[&str]) -> String {
    let mut args = vec!["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--smoke"];
    args.extend_from_slice(extra);
    bench(&args)
}

fn last_line(out: &str) -> &str {
    out.lines().last().expect("a result line")
}

fn assert_metrics(out: &str, metrics: &[(&str, &str)]) {
    let json = last_line(out);
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = json.find(&key).unwrap_or_else(|| panic!("{name} missing from {json}"));
        let rest = &json[at + key.len()..];
        let (value, tail) = rest.split_once(", ").expect("value then unit");
        value.parse::<f64>().unwrap_or_else(|e| panic!("{name}: bad value {value:?}: {e}"));
        assert!(tail.starts_with(&format!("\"unit\": \"{unit}\"}}")), "{name}: unit is not {unit}: {tail}");
    }
    assert_eq!(json.matches("\"value\"").count(), metrics.len(), "unexpected metrics in {json}");
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for w in WORKLOADS {
        let plain = smoke(w, "0", &[]);
        assert!(last_line(&plain).starts_with("{\"correct\": true, "), "{w}: {plain}");
        assert!(last_line(&plain).contains("\"failed\": 0, "), "{w}: {plain}");
        assert!(plain.contains("failed_frac = 0 "), "{w}: {plain}");
        assert!(plain.contains("seed=7"), "{w}: the seed is recorded");
        assert_metrics(&plain, &END_TO_END);

        let traced = smoke(w, "1", &[]);
        assert!(last_line(&traced).starts_with("{\"correct\": true, "), "{w}: {traced}");
        assert_metrics(&traced, &PER_LAYER);
        for (name, unit) in PER_LAYER {
            assert!(traced.contains(&format!("\n{name} = ")) && traced.contains(unit), "{w}: no line for {name}");
        }
    }
}

#[test]
fn lock_counter_leaves_the_wire_idle() {
    let traced = smoke("lock_counter", "1", &[]);
    assert!(last_line(&traced).contains("\"core.wire_msgs_per_step\": {\"value\": 0, "), "{traced}");
}

#[test]
fn a_wrong_output_is_reported_as_a_failure() {
    for w in WORKLOADS {
        let out = smoke(w, "0", &["--corrupt"]);
        let json = last_line(&out);
        assert!(json.starts_with("{\"correct\": false, "), "{w}: {json}");
        assert!(!json.contains("\"failed\": 0, "), "{w}: {json}");
    }
}

#[test]
fn committed_manifest_matches_the_catalog() {
    let committed = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert_eq!(committed, bench(&["--manifest"]), "regenerate with: python3 perfbench/run.py --manifest");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(committed.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")), "{name} ({unit})");
    }
    for w in WORKLOADS {
        assert!(committed.contains(&format!("{{\"name\": \"{w}\", \"why\": ")), "{w}");
    }
}
