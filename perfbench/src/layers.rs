//! The per-layer metric table and the counter arithmetic behind it.
//!
//! Every workload prints every per-layer metric, in the order of
//! [`LAYER_METRICS`]; a layer a workload never enters reads 0 there (see
//! `LAYERS.md` for which layers each workload exercises).

use std::collections::HashMap;

use minesweeper_join::core::ShardStats;
use minesweeper_join::storage::ExecStats;

use crate::report::{ratio, Report};

/// `(name, unit)` of every per-layer metric, grouped by layer.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("text.parse_us", "us"),
    ("server.protocol_parse_us", "us"),
    ("server.self_ms", "ms"),
    ("server.flushes_per_response", "count"),
    ("server.admission_wait_frac", "fraction"),
    ("engine.prepare_hit_us", "us"),
    ("engine.prepare_miss_ms", "ms"),
    ("engine.bind_ms", "ms"),
    ("engine.cache_hit_ratio", "fraction"),
    ("engine.exec_replans", "count"),
    ("core.plan.find_gap_per_point_read", "count"),
    ("core.stream.exec_ms", "ms"),
    ("core.stream.ns_per_probe_point", "ns"),
    ("core.stream.find_gap_calls", "count"),
    ("core.stream.probe_points", "count"),
    ("core.stream.find_gap_per_row", "ratio"),
    ("cds.constraints_inserted", "count"),
    ("cds.next_calls", "count"),
    ("cds.backtracks", "count"),
    ("cds.next_per_probe_point", "ratio"),
    ("storage.load_ms", "ms"),
    ("storage.bitset_share", "fraction"),
    ("storage.bitset_words_per_probe", "ratio"),
    ("storage.delta_probes", "count"),
    ("storage.merge_steps_per_probe", "ratio"),
    ("storage.auto_compactions", "count"),
    ("core.sharded.tasks", "count"),
    ("core.sharded.skew", "ratio"),
    ("core.sharded.stolen_frac", "fraction"),
    ("core.sharded.first_row_ms", "ms"),
    ("render.self_ms", "ms"),
    ("render.ns_per_row", "ns"),
    ("render.bytes_per_row", "B"),
    ("durability.wal_append_us", "us"),
    ("durability.wal_bytes_per_user_byte", "ratio"),
    ("durability.checkpoint_ms", "ms"),
    ("durability.replayed_records", "count"),
    ("baselines.lftj_ms", "ms"),
    ("core.ms_over_lftj", "ratio"),
    ("serve.point_p99_ms", "ms"),
    ("serve.first_row_p99_ms", "ms"),
    ("serve.write_p50_ms", "ms"),
    ("serve.write_p99_ms", "ms"),
    ("serve.recovery_s", "s"),
    ("speed.reference_ms", "ms"),
    ("trace.span_cost_ns", "ns"),
    ("trace.overhead_frac", "fraction"),
];

/// Per-layer values collected by one workload.
#[derive(Default)]
pub struct Layers(HashMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Pushes every metric of [`LAYER_METRICS`] into `report`.
    pub fn emit(&self, report: &mut Report) {
        for &(name, unit) in LAYER_METRICS {
            report.layer(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// Work counters summed over a set of executions of one request class.
#[derive(Default)]
pub struct Work {
    pub requests: u64,
    pub stats: ExecStats,
    /// Summed wall time of the executions, in nanoseconds.
    pub exec_ns: f64,
    /// Parallel executions and their per-shard figures.
    pub parallel: u64,
    pub tasks: u64,
    pub stolen: u64,
    pub skew_sum: f64,
}

impl Work {
    pub fn add(&mut self, stats: &ExecStats, exec_ms: f64, shards: Option<&[ShardStats]>) {
        self.requests += 1;
        self.stats.merge(stats);
        self.exec_ns += exec_ms * 1e6;
        if let Some(shards) = shards.filter(|s| !s.is_empty()) {
            self.parallel += 1;
            self.tasks += shards.len() as u64;
            self.stolen += shards.iter().filter(|s| s.stolen).count() as u64;
            let gaps: Vec<f64> = shards
                .iter()
                .map(|s| s.stats.find_gap_calls as f64)
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let max = gaps.iter().cloned().fold(0.0, f64::max);
            self.skew_sum += ratio(max, mean);
        }
    }

    fn per_request(&self, v: u64) -> f64 {
        ratio(v as f64, self.requests as f64)
    }

    /// Sets the `core.stream`, `cds` and `storage` probe counter metrics
    /// from these executions (per request means).
    pub fn set_probe_layers(&self, layers: &mut Layers) {
        let s = &self.stats;
        layers.set(
            "core.stream.ns_per_probe_point",
            ratio(self.exec_ns, s.probe_points as f64),
        );
        layers.set(
            "core.stream.find_gap_calls",
            self.per_request(s.find_gap_calls),
        );
        layers.set("core.stream.probe_points", self.per_request(s.probe_points));
        layers.set(
            "core.stream.find_gap_per_row",
            ratio(s.find_gap_calls as f64, s.outputs as f64),
        );
        layers.set(
            "cds.constraints_inserted",
            self.per_request(s.constraints_inserted),
        );
        layers.set("cds.next_calls", self.per_request(s.cds_next_calls));
        layers.set("cds.backtracks", self.per_request(s.backtracks));
        layers.set(
            "cds.next_per_probe_point",
            ratio(s.cds_next_calls as f64, s.probe_points as f64),
        );
        layers.set(
            "storage.bitset_share",
            ratio(s.bitset_probes as f64, s.find_gap_calls as f64),
        );
        layers.set(
            "storage.bitset_words_per_probe",
            ratio(s.bitset_words_scanned as f64, s.bitset_probes as f64),
        );
        layers.set("storage.delta_probes", self.per_request(s.delta_probes));
        layers.set(
            "storage.merge_steps_per_probe",
            ratio(s.merge_steps as f64, s.find_gap_calls as f64),
        );
    }

    /// Sets the `core.sharded` metrics from the parallel executions among
    /// these (left at 0 when there were none).
    pub fn set_sharded_layers(&self, layers: &mut Layers) {
        if self.parallel > 0 {
            let p = self.parallel as f64;
            layers.set("core.sharded.tasks", self.tasks as f64 / p);
            layers.set("core.sharded.skew", self.skew_sum / p);
            layers.set(
                "core.sharded.stolen_frac",
                ratio(self.stolen as f64, self.tasks as f64),
            );
        }
    }
}
