//! The names this program reports and the gates `compare` applies.
//! `BENCHMARK.json` declares the same names, units, directions and
//! end-to-end bounds; a test holds the two together.

use crate::Workload::{self, AdmitCold, PolicyChurn, ReadWarm, WriteMix};

pub const WORKLOADS: [&str; 4] = ["read_warm", "admit_cold", "write_mix", "policy_churn"];

const EVERY: &[Workload] = &Workload::ALL;

/// (name, unit, higher is better, bound). Client-observed over TCP with
/// tracing off, on every workload and never 0: the `end_to_end` list of
/// `BENCHMARK.json`. The bound is the share of the parent's median by
/// which the metric may get worse.
pub const END_TO_END: &[(&str, &str, bool, f64)] = &[
    ("req_p50_us", "us", false, 0.25),
    ("req_p99_us", "us", false, 0.25),
    ("req_per_s", "1/s", true, 0.25),
    ("rss_mb", "MB", false, 0.10),
    ("setup_s", "s", false, 0.25),
];

/// (name, unit, higher is better, bound, workloads it exists on).
pub type ClientMetric = (
    &'static str,
    &'static str,
    bool,
    Option<f64>,
    &'static [Workload],
);

/// Client-observed like the end-to-end metrics and measured by the same
/// untraced run, but present on some workloads only (or, `fail_ratio`,
/// always 0), which `BENCHMARK.json`'s `end_to_end` list does not allow.
/// `compare` gates the ones with a bound on their workloads;
/// `BENCHMARK.json` lists them first under `per_layer`.
pub const CLIENT: &[ClientMetric] = &[
    ("fail_ratio", "ratio", false, Some(0.0), EVERY),
    ("req_tail_us", "us", false, None, EVERY),
    ("rate_ok_per_s", "1/s", true, Some(0.25), &[ReadWarm]),
    ("open_p99_us", "us", false, Some(0.25), &[ReadWarm]),
    ("accept_p50_us", "us", false, Some(0.25), &[AdmitCold]),
    ("deny_p50_us", "us", false, Some(0.25), &[AdmitCold]),
    ("fastpath_p50_us", "us", false, Some(0.25), &[AdmitCold]),
    ("write_p50_us", "us", false, Some(0.25), &[WriteMix]),
    ("write_p99_us", "us", false, Some(0.25), &[WriteMix]),
    ("write_ok_p50_us", "us", false, None, &[WriteMix]),
    ("write_denied_p50_us", "us", false, None, &[WriteMix]),
    ("recovery_ms", "ms", false, Some(0.25), &[WriteMix]),
    (
        "policy_change_p50_us",
        "us",
        false,
        Some(0.25),
        &[PolicyChurn],
    ),
];

/// (name, unit, higher is better). Single layers, from the traced run;
/// 0 on a workload that bypasses the layer.
pub const LAYERS: &[(&str, &str, bool)] = &[
    // server
    ("server.roundtrip_us", "us", false),
    ("server.wire_queue_self_us", "us", false),
    ("server.frame.encode_us", "us", false),
    ("server.frame.decode_us", "us", false),
    ("server.resp_bytes_per_req", "B", false),
    ("server.open_p99_us.r1000", "us", false),
    ("server.open_p99_us.r2000", "us", false),
    ("server.open_p99_us.r3000", "us", false),
    ("server.open_p99_us.r4000", "us", false),
    ("server.gen_lag_max_us", "us", false),
    ("server.resp_shed", "count", false),
    ("server.resp_timeout", "count", false),
    // core: shared engine and lock
    ("core.shared.execute_us", "us", false),
    ("core.shared.lock_self_us", "us", false),
    ("core.engine.execute_us", "us", false),
    // admission front half
    ("sql.parse_us", "us", false),
    ("algebra.bind_us", "us", false),
    ("algebra.normalize_us", "us", false),
    ("core.cache.fingerprint_us", "us", false),
    // caches
    ("core.plancache.get_us", "us", false),
    ("core.plancache.hit_ratio", "ratio", true),
    ("core.plancache.invalidated", "count", false),
    ("core.cache.lookup_us", "us", false),
    ("core.cache.hit_ratio", "ratio", true),
    ("core.cache.entries_end", "count", false),
    // compiled capabilities
    ("core.compiled.admit_us", "us", false),
    ("core.compiled.fastpath_hit_ratio", "ratio", true),
    ("core.compiled.compile_count", "count", false),
    // prover
    ("core.nontruman.check_plan_us", "us", false),
    ("core.nontruman.check_plan_nocert_us", "us", false),
    ("analyze.cert_emit_self_us", "us", false),
    ("core.nontruman.c3_probes_per_req", "count", false),
    ("core.nontruman.views_considered", "count", false),
    ("optimizer.expand_us", "us", false),
    ("optimizer.dag_op_nodes", "count", false),
    ("optimizer.dag_eq_nodes", "count", false),
    // policy churn
    ("analyze.check_certificate_us", "us", false),
    ("core.cache.revalidation_hits", "count", true),
    ("core.cache.revalidation_misses", "count", false),
    ("core.cache.invalidated", "count", false),
    ("core.invalidation.policy_changes", "count", false),
    ("core.engine.policy_change_us", "us", false),
    // executor and storage
    ("exec.execute_bound_us", "us", false),
    ("exec.rows_cloned_per_req", "count", false),
    ("exec.rows_out_per_req", "count", false),
    ("storage.table_rows", "count", false),
    // write path
    ("core.engine.dml_inmem_us.insert", "us", false),
    ("core.engine.dml_inmem_us.update", "us", false),
    ("core.engine.dml_inmem_us.delete", "us", false),
    ("core.engine.dml_inmem_us.denied", "us", false),
    ("core.durability.dml_durable_us", "us", false),
    ("wal.append_self_us", "us", false),
    ("wal.log_bytes_per_write", "B", false),
    ("wal.snapshot_stall_p99_us", "us", false),
    ("wal.snapshot_stall_max_us", "us", false),
    // the trace itself
    ("trace.depth_c_coverage", "ratio", true),
    ("trace.overhead_ratio", "ratio", false),
];

/// Counts the single-threaded replay makes: they repeat exactly for a
/// seed, so `compare` lets them get worse by nothing.
pub const EXACT: &[&str] = &[
    "core.plancache.hit_ratio",
    "core.cache.hit_ratio",
    "core.compiled.fastpath_hit_ratio",
    "core.nontruman.c3_probes_per_req",
    "core.nontruman.views_considered",
    "optimizer.dag_op_nodes",
    "optimizer.dag_eq_nodes",
    "exec.rows_out_per_req",
    "server.resp_bytes_per_req",
    "wal.log_bytes_per_write",
];

/// What `compare` holds a metric to on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    pub higher_is_better: bool,
    /// `None`: shown side by side, never a regression.
    pub bound: Option<f64>,
}

pub fn gate(name: &str, workload: &str) -> Option<Gate> {
    if let Some(&(_, _, higher_is_better, bound)) = END_TO_END.iter().find(|m| m.0 == name) {
        return Some(Gate {
            higher_is_better,
            bound: Some(bound),
        });
    }
    if let Some(&(_, _, higher_is_better, bound, on)) = CLIENT.iter().find(|m| m.0 == name) {
        let applies = on.iter().any(|w| w.name() == workload);
        return Some(Gate {
            higher_is_better,
            bound: bound.filter(|_| applies),
        });
    }
    LAYERS
        .iter()
        .find(|m| m.0 == name)
        .map(|&(_, _, higher_is_better)| Gate {
            higher_is_better,
            bound: EXACT.contains(&name).then_some(0.0),
        })
}

/// (name, unit) of the metrics the run with `--trace 1` reports: the
/// `per_layer` list of `BENCHMARK.json`, in its order.
pub fn per_layer() -> impl Iterator<Item = (&'static str, &'static str)> {
    CLIENT
        .iter()
        .map(|m| (m.0, m.1))
        .chain(LAYERS.iter().map(|m| (m.0, m.1)))
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(per_layer())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}
