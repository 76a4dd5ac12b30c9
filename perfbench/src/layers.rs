//! Per-layer measurements shared by the workloads: solver counters,
//! the cold-oracle pass and the self-time breakdown of a trace.

use crate::report::Outcome;
use crate::spans::{self_ns_by_layer, Tracer};
use crate::stats::{median, summarize};
use dagsfc_core::solvers::{SolveOutcome, SolverStats};
use dagsfc_core::{Flow, SolveError};
use dagsfc_net::routing::{bucket_kernel_available, ArcWeight};
use dagsfc_net::{Network, OracleStats, PathOracle};

/// Delay budget (µs) of the cold pass's LARAC queries on workloads whose
/// flows carry none: the middle of the delay sweep's grid.
pub const COLD_LARAC_BUDGET_US: f64 = 80.0;

/// Solver work summed over the solves of a traced run.
#[derive(Debug, Default)]
pub struct SolveAcc {
    ok_us: Vec<f64>,
    reject_us: Vec<f64>,
    totals: SolverStats,
    oracle_hits: u64,
    oracle_misses: u64,
}

impl SolveAcc {
    /// Records one solve that took `us` µs.
    pub fn record(&mut self, us: f64, result: &Result<SolveOutcome, SolveError>) {
        match result {
            Ok(out) => {
                self.ok_us.push(us);
                let s = &out.stats;
                let t = &mut self.totals;
                t.explored += s.explored;
                t.kept += s.kept;
                t.nodes_expanded += s.nodes_expanded;
                t.fst_nodes += s.fst_nodes;
                t.bst_nodes += s.bst_nodes;
                t.candidates_generated += s.candidates_generated;
                t.candidates_delay_rejected += s.candidates_delay_rejected;
                t.cache_hits += s.cache_hits;
                t.cache_misses += s.cache_misses;
            }
            Err(_) => self.reject_us.push(us),
        }
    }

    /// Adds the counters of an oracle the solves ran against.
    pub fn add_oracle(&mut self, stats: OracleStats) {
        self.oracle_hits += stats.hits;
        self.oracle_misses += stats.misses;
    }

    /// Solves recorded.
    pub fn solves(&self) -> usize {
        self.ok_us.len() + self.reject_us.len()
    }

    /// Sets the `core.*` metrics and the oracle metrics of `net`.
    /// Counters are per successful solve: a rejected solve returns no
    /// statistics.
    pub fn finish(&self, out: &mut Outcome) {
        let all: Vec<f64> = self.ok_us.iter().chain(&self.reject_us).copied().collect();
        let s = summarize(&all);
        out.set("core.solve_us_p50", s.p50);
        out.set("core.solve_us_p99", s.tail);
        out.set("core.reject_solve_us_p50", median(&self.reject_us));
        let ok = self.ok_us.len().max(1) as f64;
        let t = &self.totals;
        let queries = t.cache_hits + t.cache_misses;
        out.set("core.path_queries_per_solve", queries as f64 / ok);
        out.set("core.path_cache_hit_ratio", ratio(t.cache_hits, queries));
        out.set(
            "core.nodes_expanded_per_solve",
            t.nodes_expanded as f64 / ok,
        );
        out.set(
            "core.candidates_generated_per_solve",
            t.candidates_generated as f64 / ok,
        );
        out.set(
            "core.candidates_kept_ratio",
            ratio(t.kept as u64, t.explored as u64),
        );
        out.set("core.fst_nodes_per_solve", t.fst_nodes as f64 / ok);
        out.set("core.bst_nodes_per_solve", t.bst_nodes as f64 / ok);
        out.set(
            "core.delay_rejected_per_solve",
            t.candidates_delay_rejected as f64 / ok,
        );
        if self.oracle_hits + self.oracle_misses > 0 {
            out.set_oracle(self.oracle_hits, self.oracle_misses, self.solves());
        }
    }
}

impl Outcome {
    /// Sets the path-oracle metrics from hit/miss counts over `solves`.
    pub fn set_oracle(&mut self, hits: u64, misses: u64, solves: usize) {
        self.set(
            "net.tree_misses_per_solve",
            misses as f64 / solves.max(1) as f64,
        );
        self.set("net.oracle_hit_ratio", ratio(hits, hits + misses));
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The cold-oracle pass: for each flow, a price tree, a Delay-axis tree
/// and a LARAC query, each on a fresh [`PathOracle`] over `net`, so
/// every call pays for its own tree builds.
pub fn cold_pass(net: &Network, flows: &[Flow], tracer: &mut Tracer, out: &mut Outcome) {
    let mut bucket_builds = 0u64;
    let mut builds = 0u64;
    for (i, flow) in flows.iter().enumerate() {
        let q = i as u64;
        let budget = flow.delay_budget_us.unwrap_or(COLD_LARAC_BUDGET_US);
        let oracle = PathOracle::new(net);
        tracer.span("net", "tree", q, |_| oracle.tree(flow.src, flow.rate));
        let oracle = PathOracle::new(net);
        tracer.span("net", "delay_tree", q, |_| {
            oracle.weighted_tree(flow.src, flow.rate, ArcWeight::Delay)
        });
        let oracle = PathOracle::new(net);
        tracer.span("net", "larac", q, |_| {
            oracle.min_cost_path_bounded(flow.src, flow.dst, flow.rate, budget)
        });
        for axis in [ArcWeight::Price, ArcWeight::Delay] {
            builds += 1;
            if bucket_kernel_available(net, axis) {
                bucket_builds += 1;
            }
        }
    }
    out.set(
        "net.tree_build_us_p50",
        median(&tracer.durations_us("tree")),
    );
    out.set(
        "net.delay_tree_us_p50",
        median(&tracer.durations_us("delay_tree")),
    );
    out.set("net.larac_us_p50", median(&tracer.durations_us("larac")));
    out.set("net.bucket_axis_share", ratio(bucket_builds, builds));
}

/// Runs a re-drive untraced, traced (into `tracer` and `out`) and
/// untraced again; returns the traced wall time over the mean of the
/// untraced ones, so warm-up and drift do not read as tracing overhead.
pub fn traced_redrive(
    tracer: &mut Tracer,
    out: &mut Outcome,
    mut redrive: impl FnMut(&mut Tracer, &mut Outcome) -> Result<f64, String>,
) -> Result<f64, String> {
    let before = redrive(&mut Tracer::new(false), &mut Outcome::default())?;
    let traced = redrive(tracer, out)?;
    let after = redrive(&mut Tracer::new(false), &mut Outcome::default())?;
    Ok(traced / ((before + after) / 2.0))
}

/// Sets `<layer>.self_ms` for every traced layer and
/// `bench.unattributed_ms` for the benchmark loop's own share.
pub fn set_self_times(tracer: &Tracer, out: &mut Outcome) {
    for (layer, ns) in self_ns_by_layer(tracer.spans()) {
        let name = match layer {
            "serve" => "serve.self_ms",
            "shard" => "shard.self_ms",
            "core" => "core.self_ms",
            "net" => "net.self_ms",
            "audit" => "audit.self_ms",
            "sim" => "sim.self_ms",
            _ => "bench.unattributed_ms",
        };
        let prev = out.values.get(name).copied().unwrap_or(0.0);
        out.set(name, prev + ns as f64 / 1e6);
    }
}
