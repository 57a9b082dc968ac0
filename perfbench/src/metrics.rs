//! Metric names, units, and the per-layer arithmetic over a traced run.
//! The names here are the ones BENCHMARK.json declares (a test keeps the
//! two in step).

use crate::trace::Summary;
use crate::workloads::{forensic::SCANS, Counts};
use std::collections::BTreeMap;

/// End-to-end metrics, printed with tracing off and bounded in
/// BENCHMARK.json.
pub const END_TO_END: [(&str, &str); 4] = [
    ("cells_per_s", "1/s"),
    ("cpu_s_per_cell", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// End-to-end figures printed in the table with tracing off but neither
/// bounded nor in the result line: call latency over every call of the run
/// (host spells included) and the failed share, which is 0 on a healthy
/// commit.
pub const PRINTED: [(&str, &str); 3] = [
    ("call_ms_p50", "ms"),
    ("call_ms_p90", "ms"),
    ("failed_frac", "ratio"),
];

/// Per-layer metrics, printed by the traced run.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("memsim.boot_ms", "ms"),
    ("memsim.remix_ms", "ms"),
    ("memsim.teardown_ms", "ms"),
    ("memsim.clone_ms", "ms"),
    ("memsim.pages_zeroed", "count"),
    ("memsim.ops", "count"),
    ("memsim.ns_per_op", "ns"),
    ("rsa.keygen_ms", "ms"),
    ("rsa.private_op_us", "us"),
    ("servers.start_ms", "ms"),
    ("servers.traffic_ms", "ms"),
    ("servers.rotate_ms", "ms"),
    ("servers.handshakes", "count"),
    ("servers.us_per_handshake", "us"),
    ("servers.shed", "count"),
    ("servers.retries", "count"),
    ("exploits.capture_ms", "ms"),
    ("exploits.disclosed_bytes", "bytes"),
    ("keyscan.capture_scan_ms", "ms"),
    ("keyscan.tick_scan_ms", "ms"),
    ("keyscan.frames_rescanned", "count"),
    ("keyscan.rescan_fraction", "ratio"),
    ("keyscan.hits", "count"),
    ("keyscan.bytes_per_s.zero_written.1ep", "B/s"),
    ("keyscan.bytes_per_s.zero_written.4ep", "B/s"),
    ("keyscan.bytes_per_s.post_experiment.1ep", "B/s"),
    ("keyscan.bytes_per_s.post_experiment.4ep", "B/s"),
    ("keyscan.bytes_per_s.high_entropy.1ep", "B/s"),
    ("keyscan.bytes_per_s.high_entropy.4ep", "B/s"),
    ("harness.cell_self_ms", "ms"),
    ("harness.client_idle_frac", "ratio"),
    ("harness.trace_overhead", "ratio"),
    ("host.user_s", "s"),
    ("host.sys_s", "s"),
    ("host.minflt", "count"),
];

/// Spans that execute simulated kernel operations; `memsim.ns_per_op`
/// divides their time by the operations counted.
const SIM_SPANS: [&str; 7] = [
    "memsim.boot",
    "memsim.remix",
    "servers.start",
    "servers.traffic",
    "servers.rotate",
    "servers.stop",
    "exploits.capture",
];

/// What the layer arithmetic reads.
#[derive(Debug)]
pub struct Traced<'a> {
    /// Spans folded per name.
    pub spans: &'a Summary,
    /// Simulated counts of the first pass (each cell once): these repeat
    /// exactly for one seed.
    pub pass: &'a Counts,
    /// Simulated counts of every traced call, for ratios against span time.
    pub all: &'a Counts,
    /// Bytes of one forensic image.
    pub image_bytes: usize,
}

/// The span- and count-derived per-layer metrics this input has data for.
/// Metrics of a layer the input never ran are absent.
#[must_use]
pub fn layers(t: &Traced<'_>) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let s = t.spans;
    let mean_ms = |name: &str| {
        let tot = s.get(name);
        (tot.count > 0).then(|| tot.mean_ms())
    };
    for (metric, span) in [
        ("memsim.boot_ms", "memsim.boot"),
        ("memsim.remix_ms", "memsim.remix"),
        ("memsim.teardown_ms", "memsim.teardown"),
        ("memsim.clone_ms", "memsim.clone"),
        ("rsa.keygen_ms", "rsa.keygen"),
        ("servers.start_ms", "servers.start"),
        ("servers.traffic_ms", "servers.traffic"),
        ("servers.rotate_ms", "servers.rotate"),
        ("exploits.capture_ms", "exploits.capture"),
        ("keyscan.capture_scan_ms", "keyscan.capture_scan"),
        ("keyscan.tick_scan_ms", "keyscan.tick_scan"),
    ] {
        if let Some(v) = mean_ms(span) {
            m.insert(metric, v);
        }
    }
    if let Some(v) = mean_ms("rsa.private_op") {
        m.insert("rsa.private_op_us", v * 1e3);
    }
    // A fault sweep reports its scan wall per call; spread it over the
    // incremental scans the sweep counted.
    let sweep_scan = s.get("keyscan.sweep_scan");
    if let (true, Some(&scans)) = (sweep_scan.count > 0, t.all.get("keyscan.scans")) {
        if scans > 0.0 {
            m.insert("keyscan.tick_scan_ms", sweep_scan.ns as f64 / scans / 1e6);
        }
    }
    for name in [
        "memsim.pages_zeroed",
        "memsim.ops",
        "servers.handshakes",
        "servers.shed",
        "servers.retries",
        "exploits.disclosed_bytes",
        "keyscan.frames_rescanned",
        "keyscan.hits",
    ] {
        if let Some(&v) = t.pass.get(name) {
            m.insert(name, v);
        }
    }
    if let (Some(&r), Some(&total)) = (
        t.pass.get("keyscan.frames_rescanned"),
        t.pass.get("keyscan.frames_total"),
    ) {
        if total > 0.0 {
            m.insert("keyscan.rescan_fraction", r / total);
        }
    }
    let sim_ns: u64 = SIM_SPANS.iter().map(|n| s.get(n).ns).sum();
    if let Some(&ops) = t.all.get("memsim.ops") {
        if ops > 0.0 && sim_ns > 0 {
            m.insert("memsim.ns_per_op", sim_ns as f64 / ops);
        }
    }
    let traffic = s.get("servers.traffic");
    if let Some(&hs) = t.all.get("servers.handshakes") {
        if hs > 0.0 && traffic.count > 0 {
            m.insert("servers.us_per_handshake", traffic.ns as f64 / hs / 1e3);
        }
    }
    for row in SCANS {
        for name in row {
            let tot = s.get(name);
            if tot.count > 0 && tot.ns > 0 {
                m.insert(
                    name,
                    t.image_bytes as f64 * tot.count as f64 / (tot.ns as f64 / 1e9),
                );
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Kind, Span};

    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(text.matches(&entry).count(), 1, "{entry}");
        }
        assert_eq!(
            text.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + 4
        );
    }

    #[test]
    fn layer_arithmetic() {
        let span = |name, start, end| Span {
            name,
            start,
            end,
            parent: None,
            call: 0,
            kind: Kind::Standalone,
        };
        let mut sum = Summary::default();
        sum.absorb(&[
            span("memsim.boot", 0, 2_000_000),
            span("memsim.boot", 0, 4_000_000),
            span("servers.traffic", 0, 3_000_000),
            span("rsa.private_op", 0, 500),
            span(SCANS[2][1], 0, 500_000_000),
        ]);
        let pass = Counts::from([
            ("keyscan.frames_rescanned", 5.0),
            ("keyscan.frames_total", 20.0),
        ]);
        let all = Counts::from([("memsim.ops", 9_000.0), ("servers.handshakes", 30.0)]);
        let m = layers(&Traced {
            spans: &sum,
            pass: &pass,
            all: &all,
            image_bytes: 64,
        });
        assert_eq!(m["memsim.boot_ms"], 3.0);
        assert_eq!(m["rsa.private_op_us"], 0.5);
        assert_eq!(m["keyscan.rescan_fraction"], 0.25);
        // boot 6 ms + traffic 3 ms over 9000 ops.
        assert_eq!(m["memsim.ns_per_op"], 1_000.0);
        assert_eq!(m["servers.us_per_handshake"], 100.0);
        assert_eq!(m[SCANS[2][1]], 128.0);
        assert_eq!(m["keyscan.frames_rescanned"], 5.0);
        assert!(!m.contains_key("memsim.remix_ms"));
    }
}
