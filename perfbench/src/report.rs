//! The result line and the scenario record printed with every result.

use std::fmt::Write;

/// Every per-layer metric of the traced run, with its unit, in output
/// order (the `per_layer` list of `BENCHMARK.json`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.late_ms_p99", "ms"),
    ("serve.server_ms_p50", "ms"),
    ("serve.server_ms_p99", "ms"),
    ("serve.wire_ms_p50", "ms"),
    ("serve.outside_online_ms", "ms"),
    ("serve.decode_us", "us"),
    ("cluster.router_added_ms_p50", "ms"),
    ("cluster.upstream_ms_p50", "ms"),
    ("cluster.upstream_retries", "count"),
    ("cluster.upstream_errors", "count"),
    ("online.release_ms_p50", "ms"),
    ("online.ingest_ms_p50", "ms"),
    ("online.wal_append_us", "us"),
    ("online.wal_bytes_per_req", "B"),
    ("online.rss_kb_per_user", "kB"),
    ("calibrate.attempts_per_release", "count"),
    ("calibrate.guard_us", "us"),
    ("calibrate.plan_rungs", "count"),
    ("lppm.emission_column_us", "us"),
    ("lppm.emission_columns_per_req", "count"),
    ("lppm.with_budget_ms", "ms"),
    ("lppm.with_budget_calls", "count"),
    ("lppm.perturb_us", "us"),
    ("quantify.peek_us", "us"),
    ("quantify.peeks_per_release", "count"),
    ("quantify.observe_us", "us"),
    ("quantify.candidate_ms", "ms"),
    ("qp.check_ms", "ms"),
    ("qp.checks", "count"),
    ("qp.unknown_share", "share"),
    ("qp.violated_share", "share"),
    ("markov.transition_at_calls_per_req", "count"),
    ("markov.transition_at_us", "us"),
    ("linalg.vecmat_us", "us"),
    ("trace.overhead", "ratio"),
];

/// One run's verdict and metrics, printed as the last stdout line.
#[derive(Debug)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (requests, or plan calls).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// An empty, so far correct report.
    pub fn new() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Records one metric, replacing an earlier value of the same name.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_owned(), value, unit),
            None => self.metrics.push((name.to_owned(), value, unit)),
        }
    }

    /// Pre-fills every per-layer metric with 0, the value a layer the
    /// workload never runs reports.
    pub fn zero_layers(&mut self) {
        for (name, unit) in PER_LAYER {
            self.metric(name, 0.0, unit);
        }
    }

    /// The JSON result object.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// What a result was measured on: machine, build, workload shape, and
/// the thread and connection counts on both sides.
#[derive(Debug, Default)]
pub struct Scenario {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// States of the world.
    pub m: usize,
    /// Non-zeros of the transition matrix.
    pub nnz: usize,
    /// Daemon topology and thread counts.
    pub daemon: String,
    /// Generator threads and connections.
    pub generator: String,
    /// CPUs the process could use when it started.
    pub nproc: usize,
    /// The one CPU every thread of the run is pinned to, if pinning worked.
    pub cpu: Option<usize>,
}

impl Scenario {
    /// One JSON line.
    pub fn to_json(&self) -> String {
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        format!(
            "{{\"scenario\": {{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"pinned_cpu\": {}, \"profile\": \"{profile}\", \
             \"rustc\": \"{}\", \"m\": {}, \"nnz\": {}, \"daemon\": \"{}\", \"generator\": \"{}\"}}}}",
            self.workload,
            self.seed,
            self.nproc,
            self.cpu.map_or("null".to_owned(), |c| c.to_string()),
            env!("PERFBENCH_RUSTC"),
            self.m,
            self.nnz,
            self.daemon,
            self.generator
        )
    }
}
