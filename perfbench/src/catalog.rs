//! The benchmark's declared surface: workloads, metrics, units and
//! bounds. `BENCHMARK.json` at the repository root is generated from
//! this table (`perfbench --manifest`), and the smoke test checks that
//! the committed file still matches it.

/// A workload name and why it is in the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// The three application patterns of the paper, each stressing a
/// different mix of layers.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ga_sync",
        why: "Fig. 7 superstep over TCP, shm plane off: 4x4 remote patch puts then GA_Sync; small-message latency \
              through netfab, core encode/apply and the proto combined barrier",
    },
    Workload {
        name: "lock_counter",
        why: "Fig. 8 MCS lock cycle guarding a shared counter, shm plane on: contended lock engines and cross-process \
              shm with zero wire messages; an IO-driver change should not move it",
    },
    Workload {
        name: "halo_push",
        why: "notified halo exchange over TCP, shm plane off: 8 boundary rows (32 KiB) of a 512^2 grid via a reused \
              TransferPlan; bulk frames, notify path and Segment copies, the bulk twin of ga_sync",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy)]
pub enum Better {
    Lower,
    Higher,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change is a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

/// Printed by an untraced run (`--trace 0`). Failed steps are reported
/// through the result's `attempted`/`failed` fields rather than as a
/// metric here: a gated metric must never read 0.
///
/// The timing bounds are wide because a small shared host is noisy: on a
/// 2-vCPU VM, ten 20 s runs of the same code spread by 5-14% (IQR over
/// median) in step p50 and steps/s and by 9-12% in step p99, while a
/// fixed integer loop (`host.calib_ns`) drifts by up to 9%.
pub const END_TO_END: [Metric; 5] = [
    e2e("step_p50_us", "us", Better::Lower, 0.25),
    e2e("step_p99_us", "us", Better::Lower, 0.25),
    e2e("steps_per_s", "1/s", Better::Higher, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.1),
];

/// Printed by a traced run (`--trace 1`), on every workload. A timing of
/// a layer that a workload never calls reads 0.
pub const PER_LAYER: [Metric; 28] = [
    layer("ga.put_us_p50", "us", Better::Lower),
    layer("ga.sync_us_p50", "us", Better::Lower),
    layer("ga.sync_us_p99", "us", Better::Lower),
    layer("core.lock_us_p50", "us", Better::Lower),
    layer("core.lock_us_p99", "us", Better::Lower),
    layer("core.unlock_us_p50", "us", Better::Lower),
    layer("core.get_u64_us_p50", "us", Better::Lower),
    layer("core.put_u64_us_p50", "us", Better::Lower),
    layer("core.plan_post_us_p50", "us", Better::Lower),
    layer("core.plan_sync_us_p50", "us", Better::Lower),
    layer("core.plan_sync_us_p99", "us", Better::Lower),
    layer("core.wire_msgs_per_step", "count", Better::Lower),
    layer("core.wire_bytes_per_step", "B", Better::Lower),
    layer("core.server_msgs_per_step", "count", Better::Lower),
    layer("core.fence_roundtrips_per_step", "count", Better::Lower),
    layer("shm-plane.ops_per_step", "count", Better::Higher),
    layer("proto.barrier_poll_ns", "ns", Better::Lower),
    layer("proto.barrier_polls_per_step", "count", Better::Lower),
    layer("proto.mcs_poll_ns", "ns", Better::Lower),
    layer("proto.notify_poll_ns", "ns", Better::Lower),
    layer("transport.pack_gbps", "GB/s", Better::Higher),
    layer("transport.unpack_gbps", "GB/s", Better::Higher),
    layer("transport.bytes_per_step", "B-computed", Better::Lower),
    layer("netfab.rtt_8b_us_p50", "us", Better::Lower),
    layer("netfab.rtt_64k_us_p50", "us", Better::Lower),
    layer("trace.overhead_frac", "frac", Better::Lower),
    layer("host.calib_ns", "ns", Better::Lower),
    layer("failed_frac", "frac", Better::Lower),
];

/// Look up a metric's unit by name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
        .unit
}

fn metric_json(m: &Metric) -> String {
    let better = match m.better {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    match m.bound {
        Some(b) => format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {b}}}",
            m.name, m.unit
        ),
        None => format!("    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}", m.name, m.unit),
    }
}

/// The full `BENCHMARK.json` document.
pub fn manifest_json() -> String {
    let workloads: Vec<String> =
        WORKLOADS.iter().map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why)).collect();
    let e2e: Vec<String> = END_TO_END.iter().map(metric_json).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(metric_json).collect();
    format!(
        "{{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        crate::RUN_SECONDS,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "duplicate metric {n}");
            assert!(n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200, "{}: why is {} chars", w.name, w.why.len());
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").and_then(|m| m.bound);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup && m.bound <= Some(0.25)));
    }
}
