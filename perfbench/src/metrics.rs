//! The benchmark's metric catalog: every metric it reports, with its
//! unit and direction. `BENCHMARK.json` lists the same names; a test
//! keeps the two in step.

/// An end-to-end metric: `(name, unit, better)`.
pub type EndToEnd = (&'static str, &'static str, &'static str);

/// Reported by every untraced run, on every workload.
pub const END_TO_END: [EndToEnd; 6] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_ok_frac", "frac", "higher"),
];

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric (and workload) a change here should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

/// Reported by every traced run, on every workload.
pub const PER_LAYER: [LayerMetric; 38] = [
    m("market.points_generated", "count", "lower", "setup_s"),
    m("market.gen_ns_per_point", "ns", "lower", "setup_s"),
    m(
        "market.arena_hit_frac",
        "frac",
        "higher",
        "op_p50_ms (sweep, fleet, jobs)",
    ),
    m(
        "market.cursor_ns_per_segment",
        "ns",
        "lower",
        "op_p50_ms (jobs, sweep)",
    ),
    m(
        "cloudsim.meter_ns_per_hour",
        "ns",
        "lower",
        "op_p50_ms (sweep, fleet)",
    ),
    m(
        "cloudsim.leases",
        "count",
        "lower",
        "op_p50_ms (sweep, fleet)",
    ),
    m(
        "cloudsim.lease_ns",
        "ns",
        "lower",
        "op_p50_ms (sweep, fleet)",
    ),
    m(
        "cloudsim.request_denied_frac",
        "frac",
        "lower",
        "op_p50_ms (sweep, fleet)",
    ),
    m("core.ns_per_sim_day", "ns", "lower", "op_p50_ms (sweep)"),
    m("core.tick_steps", "count", "lower", "op_p50_ms (fleet)"),
    m("core.tick_step_ns", "ns", "lower", "op_p50_ms (fleet)"),
    m(
        "core.tick_step_useful_frac",
        "frac",
        "higher",
        "op_p50_ms (fleet)",
    ),
    m(
        "forecast.feed_ns_per_segment",
        "ns",
        "lower",
        "op_p90_ms (sweep), op_p50_ms (jobs)",
    ),
    m(
        "forecast.decide_ns",
        "ns",
        "lower",
        "op_p90_ms (sweep), op_p50_ms (jobs)",
    ),
    m(
        "virt.plan_ns",
        "ns",
        "lower",
        "none predicted (few migrations per run)",
    ),
    m(
        "virt.checkpoint_ns",
        "ns",
        "lower",
        "none predicted (few migrations per run)",
    ),
    m("workload.mva_solve_ns", "ns", "lower", "op_p50_ms (fleet)"),
    m(
        "workload.fleet_response_ns",
        "ns",
        "lower",
        "op_p50_ms (fleet)",
    ),
    m(
        "workload.traffic_ns_per_sample",
        "ns",
        "lower",
        "op_p50_ms (fleet)",
    ),
    m(
        "fleet.vm_ticks",
        "count",
        "lower",
        "op_p50_ms, op_p90_ms, peak_rss_mb (fleet)",
    ),
    m(
        "fleet.ns_per_vm_tick",
        "ns",
        "lower",
        "op_p50_ms, op_p90_ms (fleet)",
    ),
    m("jobs.jobs_run", "count", "higher", "op_p50_ms (jobs)"),
    m("jobs.revocations", "count", "lower", "op_p50_ms (jobs)"),
    m("jobs.ns_per_job", "ns", "lower", "op_p50_ms (jobs)"),
    m("jobs.useful_frac", "frac", "higher", "op_p50_ms (jobs)"),
    m("telemetry.events", "count", "lower", "setup_s (query)"),
    m(
        "eventstore.encode_ns_per_event",
        "ns",
        "lower",
        "setup_s (query)",
    ),
    m(
        "eventstore.bytes_per_event",
        "B",
        "lower",
        "peak_rss_mb (query)",
    ),
    m(
        "eventstore.events_per_block",
        "count",
        "higher",
        "op_p50_ms (query)",
    ),
    m(
        "eventstore.open_ns_per_block",
        "ns",
        "lower",
        "op_p50_ms (query)",
    ),
    m(
        "eventstore.decode_ns_per_event",
        "ns",
        "lower",
        "op_p50_ms, op_p90_ms (query)",
    ),
    m(
        "eventstore.blocks_decoded_frac.full",
        "frac",
        "lower",
        "op_p90_ms (query)",
    ),
    m(
        "eventstore.blocks_decoded_frac.zone",
        "frac",
        "lower",
        "op_p50_ms (query)",
    ),
    m(
        "eventstore.blocks_decoded_frac.window",
        "frac",
        "lower",
        "op_p50_ms (query)",
    ),
    m(
        "eventstore.blocks_decoded_frac.kind",
        "frac",
        "lower",
        "op_p50_ms (query)",
    ),
    m(
        "eventstore.blocks_decoded_frac.vms",
        "frac",
        "lower",
        "op_p50_ms (query)",
    ),
    m(
        "analysis.grid_parallel_eff",
        "ratio",
        "higher",
        "none here: sweep ops run one seed, on the calling thread",
    ),
    m(
        "trace.overhead_ratio",
        "ratio",
        "lower",
        "none: traced over untraced pass time",
    ),
];

/// Is `name` a valid metric name (letters, digits, `_`, `.`, `-`; at
/// most 64, starting with a letter or digit)?
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad metric name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
    }

    #[test]
    fn benchmark_json_lists_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(json::Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(json::Value::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layer: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layer);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(json::Value::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
