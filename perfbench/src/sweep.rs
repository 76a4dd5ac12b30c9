//! The sweep workloads: `sweep_fig6` (Fig. 6(a), SFC size 1..9, all
//! four paper solvers, BBE up to `BBE_SFC_SIZE_LIMIT`) and
//! `sweep_delay` (delay budgets from tight to loose, link delays on,
//! MBBE/MINV/RANV), both at Table 2 scale through
//! `sim::sweep::sweep_with_threads` with one worker per core.
//!
//! One operation is one whole sweep pass; a run repeats passes of its
//! seed variants in rotation for `--seconds`, each pass after a run of
//! the reference kernel of [`crate::calib`], and reports the passes'
//! times at the nominal host speed.

use crate::calib::{at_nominal, Reference, NOMINAL_MS};
use crate::child::Child;
use crate::layers::{cold_pass, ratio, set_self_times, traced_redrive, SolveAcc};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{median, peak_rss_mb, summarize};
use crate::Args;
use dagsfc_core::solvers::SolveCtx;
use dagsfc_core::Flow;
use dagsfc_sim::config::DEFAULT_LINK_DELAY_US;
use dagsfc_sim::report::csv;
use dagsfc_sim::runner::{instance_network, instance_request, run_instance};
use dagsfc_sim::sweep::delay_budget::DELAY_BUDGETS;
use dagsfc_sim::sweep::sfc_size::SFC_SIZES;
use dagsfc_sim::sweep::{
    paper_algos, paper_algos_no_bbe, sweep_serial, sweep_with_threads, BBE_SFC_SIZE_LIMIT,
};
use dagsfc_sim::{Algo, InstanceResult, SimConfig, SweepResult};
use std::time::{Duration, Instant};

/// SFC draws per sweep point.
const RUNS: usize = 25;
/// Seed variants a run sweeps in rotation: four sweeps of 25 SFCs per
/// point, 100 per point in all (the paper's count).
const VARIANTS: usize = 4;
/// Runs per point the traced run also solves one by one beside
/// `run_instance`, for the solver's per-solve numbers.
const CORE_RUNS: usize = 4;
/// Seed variants whose one-pass peak RSS a run takes the median of.
const RSS_VARIANTS: usize = 16;
/// Full set-ups made per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// One sweep: its grid, knob and solver choice, as `sim::sweep` runs it.
pub struct Spec {
    id: &'static str,
    label: &'static str,
    xs: &'static [f64],
    set: fn(&mut SimConfig, f64),
    algos: fn(f64) -> Vec<Algo>,
}

/// Fig. 6(a): impact of the SFC size.
pub const FIG6: Spec = Spec {
    id: "fig6a",
    label: "SFC size",
    xs: &SFC_SIZES,
    set: |cfg, x| cfg.sfc_size = x as usize,
    algos: |x| {
        if x as usize <= BBE_SFC_SIZE_LIMIT {
            paper_algos()
        } else {
            paper_algos_no_bbe()
        }
    },
};

/// The delay-budget sweep.
pub const DELAY: Spec = Spec {
    id: "delay_budget",
    label: "end-to-end delay budget (us)",
    xs: &DELAY_BUDGETS,
    set: |cfg, x| {
        cfg.link_delay_us = Some(cfg.link_delay_us.unwrap_or(DEFAULT_LINK_DELAY_US));
        cfg.delay_budget_us = Some(x);
    },
    algos: |_| paper_algos_no_bbe(),
};

impl Spec {
    fn pass(&self, base: &SimConfig, threads: usize) -> SweepResult {
        sweep_with_threads(
            self.id,
            self.label,
            base,
            self.xs,
            self.set,
            self.algos,
            Some(threads),
        )
    }

    fn serial(&self, base: &SimConfig) -> SweepResult {
        sweep_serial(self.id, self.label, base, self.xs, self.set, self.algos)
    }

    /// The per-point configurations, seeded as `sim::sweep` seeds them.
    fn points(&self, base: &SimConfig) -> Vec<(SimConfig, Vec<Algo>)> {
        self.xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let mut cfg = base.clone();
                cfg.seed = base.seed.wrapping_add(1 + i as u64);
                (self.set)(&mut cfg, x);
                (cfg, (self.algos)(x))
            })
            .collect()
    }
}

/// The first `n` seed variants of a run.
fn variants(seed: u64, n: usize) -> Vec<SimConfig> {
    (0..n)
        .map(|k| SimConfig {
            runs: RUNS,
            seed: crate::mix(seed ^ (k as u64) << 32),
            ..SimConfig::default()
        })
        .collect()
}

/// `--child sweep_* --variant k`: one pass of variant `k`, then its
/// peak RSS in MiB on standard output. The pass runs on one worker: with
/// more, the allocator's per-thread arenas make the peak differ from
/// one process to the next by up to a fifth on the same inputs.
pub fn rss_main(spec: &Spec, seed: u64, variant: usize) -> Result<(), String> {
    let cfg = variants(seed, variant + 1)
        .into_iter()
        .nth(variant)
        .ok_or_else(|| format!("no variant {variant}"))?;
    std::hint::black_box(spec.pass(&cfg, 1));
    println!("{}", peak_rss_mb().ok_or("no peak RSS")?);
    Ok(())
}

fn solves(r: &SweepResult) -> usize {
    r.points
        .iter()
        .flat_map(|p| &p.algos)
        .map(|a| a.successes + a.failures)
        .sum()
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs a sweep workload.
pub fn run(args: &Args, spec: &Spec) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let workers = threads();
    let variants = variants(args.seed, VARIANTS);
    let base = &variants[0];
    out.note(format!(
        "{}: in-process sweep over {} points x {RUNS} SFCs at {} nodes, {VARIANTS} seed variants in rotation, {workers} workers (one per core)",
        spec.id,
        spec.xs.len(),
        base.network_size
    ));

    // Every time is taken at the nominal host speed (see `calib`).
    let mut reference = Reference::new();

    // Set-up: every point's substrate, then a one-SFC warm-up pass, for
    // every variant.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let ((), secs, ref_ms) = reference.bracket(workers, || {
            for v in &variants {
                for (cfg, _) in spec.points(v) {
                    std::hint::black_box(instance_network(&cfg));
                }
                let warm = SimConfig {
                    runs: 1,
                    ..v.clone()
                };
                std::hint::black_box(spec.pass(&warm, workers));
            }
        });
        setups.push(at_nominal(secs, ref_ms));
    }
    out.set("setup_s", median(&setups));

    // Timed passes: whole rotations over the variants until the time is
    // up, each pass after a reference kernel run; every later pass of a
    // variant must equal its first.
    let mut pass_s = [0.0; VARIANTS];
    let mut ref_ms = [0.0; VARIANTS];
    let mut passes = 0usize;
    let mut firsts: Vec<(SweepResult, String)> = Vec::with_capacity(VARIANTS);
    let started = Instant::now();
    while passes < VARIANTS
        || !passes.is_multiple_of(VARIANTS)
        || started.elapsed().as_secs_f64() < args.seconds
    {
        let k = passes % VARIANTS;
        ref_ms[k] += reference.measure(workers);
        let t0 = Instant::now();
        let result = spec.pass(&variants[k], workers);
        pass_s[k] += t0.elapsed().as_secs_f64();
        passes += 1;
        match firsts.get(k) {
            None => {
                let text = csv(&result);
                firsts.push((result, text));
            }
            Some((_, text)) => {
                if csv(&result) != *text {
                    return Err("check failed: two passes of one sweep differ".into());
                }
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let rounds = (passes / VARIANTS) as f64;
    // Each variant's mean pass at the nominal speed: its passes' total
    // over the total of the kernel runs beside them, which cancels the
    // host's drift over the run.
    let nominal_ms: Vec<f64> = (0..VARIANTS)
        .map(|k| at_nominal(pass_s[k] * 1e3, ref_ms[k]))
        .collect();

    // Peak RSS, untimed: one single-worker pass per seed variant of the
    // Table 2 default seed, each in a fresh child process, one child per
    // core at a time; the median over variants. (In one process the peak
    // would be the largest.) The variants do not come from the workload
    // seed: one variant's peak ranges from 20 to 90 MiB with its draw,
    // which moved the median of 16 by a quarter from seed to seed.
    let rss_seed = SimConfig::default().seed;
    let mut rss = Vec::with_capacity(RSS_VARIANTS);
    for batch in (0..RSS_VARIANTS).collect::<Vec<_>>().chunks(workers) {
        let children = batch
            .iter()
            .map(|k| {
                Child::spawn(&[
                    "--child".into(),
                    args.workload.clone(),
                    "--seed".into(),
                    rss_seed.to_string(),
                    "--variant".into(),
                    k.to_string(),
                ])
            })
            .collect::<Result<Vec<_>, _>>()?;
        for mut child in children {
            let line = child.read_line()?;
            child.finish(Duration::from_secs(60))?;
            rss.push(
                line.parse::<f64>()
                    .map_err(|e| format!("child peak RSS '{line}': {e}"))?,
            );
        }
    }
    out.set("peak_rss_mb", median(&rss));

    // Per variant, its mean pass at the nominal speed: the median and
    // the slowest of them, and the solves of one rotation over their sum.
    let per_rotation: usize = firsts.iter().map(|(r, _)| solves(r)).sum();
    let lat = summarize(&nominal_ms);
    out.set("p50_ms", lat.p50);
    out.set("p99_ms", lat.tail);
    out.set(
        "ops_per_s",
        per_rotation as f64 / (nominal_ms.iter().sum::<f64>() / 1e3),
    );
    out.attempted = passes as u64;
    out.failed = 0;
    out.set("served_ratio", 1.0);
    out.note(format!(
        "  {passes} passes in {wall:.2} s, {per_rotation} solves per rotation; mean pass per variant {:?} ms as measured, {:?} ms at the nominal host speed (reference kernel median {:.2} ms, nominal {NOMINAL_MS} ms)",
        (0..VARIANTS)
            .map(|k| (pass_s[k] * 1e3 / rounds).round())
            .collect::<Vec<_>>(),
        nominal_ms.iter().map(|ms| ms.round()).collect::<Vec<_>>(),
        median(&reference.samples_ms)
    ));
    out.set("bench.host_ref_ms", median(&reference.samples_ms));

    let cells: Vec<_> = firsts
        .iter()
        .flat_map(|(r, _)| &r.points)
        .flat_map(|p| &p.algos)
        .collect();
    let ok: usize = cells.iter().map(|a| a.successes).sum();
    let tried: usize = cells.iter().map(|a| a.successes + a.failures).sum();
    out.set("accept_ratio", ratio(ok as u64, tried as u64));
    let means: Vec<f64> = cells
        .iter()
        .filter(|a| a.successes > 0)
        .map(|a| a.cost.mean)
        .collect();
    out.set(
        "mean_cost",
        means.iter().sum::<f64>() / means.len().max(1) as f64,
    );
    let points = || firsts.iter().flat_map(|(r, _)| &r.points);
    let hits: u64 = points().map(|p| p.oracle.hits).sum();
    let misses: u64 = points().map(|p| p.oracle.misses).sum();
    out.set_oracle(hits, misses, per_rotation);
    let (result, text) = firsts.swap_remove(0);

    // Correctness, untimed: the parallel executor against the serial
    // reference, byte for byte.
    let t0 = Instant::now();
    let serial = spec.serial(base);
    let serial_s = t0.elapsed().as_secs_f64();
    if csv(&serial) != text {
        return Err("check failed: the parallel sweep CSV differs from sweep_serial".into());
    }
    out.set("sim.serial_s", serial_s);
    out.set(
        "sim.parallel_efficiency",
        serial_s / (workers as f64 * pass_s[0] / rounds),
    );
    out.note("  checks: parallel CSV equals sweep_serial CSV byte for byte; every pass equal");

    if args.trace {
        let mut tracer = Tracer::new(true);
        let mut instances = Vec::new();
        let overhead = traced_redrive(&mut tracer, &mut out, |t, o| {
            let (wall, points) = redrive(spec, base, t, o)?;
            instances = points;
            Ok(wall)
        })?;
        for (i, (inst, point)) in instances.iter().zip(&result.points).enumerate() {
            let same = inst.algos.len() == point.algos.len()
                && inst.algos.iter().zip(&point.algos).all(|(a, b)| {
                    a.successes == b.successes && a.cost.mean.to_bits() == b.cost.mean.to_bits()
                });
            if !same {
                return Err(format!(
                    "check failed: run_instance of point {i} differs from the sweep's point"
                ));
            }
        }
        out.set("bench.trace_overhead_ratio", overhead);
        set_self_times(&tracer, &mut out);
        args.write_spans(&tracer)?;
        let (cfg, _) = spec.points(base).swap_remove(0);
        let net = instance_network(&cfg);
        let flows: Vec<Flow> = (0..64).map(|r| instance_request(&cfg, &net, r).1).collect();
        cold_pass(&net, &flows, &mut Tracer::new(true), &mut out);
    }
    Ok(out)
}

/// Re-drives the sweep point by point: a span around `run_instance`
/// per point and, beside it, the first [`CORE_RUNS`] runs solved one by
/// one through a shared `SolveCtx`, as the runner does. Returns the
/// wall time in seconds and each point's instance result.
fn redrive(
    spec: &Spec,
    base: &SimConfig,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<(f64, Vec<InstanceResult>), String> {
    let mut acc = SolveAcc::default();
    let mut instances = Vec::new();
    let started = Instant::now();
    for (i, (cfg, algos)) in spec.points(base).into_iter().enumerate() {
        let point = i as u64;
        t.span("bench", "point", point, |t| {
            instances.push(t.span("sim", "run_instance", point, |_| run_instance(&cfg, &algos)));
            let net = t.span("sim", "instance_network", point, |_| instance_network(&cfg));
            let ctx = SolveCtx::new(&net);
            for run in 0..CORE_RUNS.min(cfg.runs) {
                let (sfc, flow) = instance_request(&cfg, &net, run);
                for &algo in &algos {
                    let solver = algo.build(cfg.seed ^ run as u64);
                    let t0 = Instant::now();
                    let solved = t.span("core", "solve", point, |_| {
                        solver.solve_in(&ctx, &sfc, &flow)
                    });
                    acc.record(t0.elapsed().as_secs_f64() * 1e6, &solved);
                }
            }
        });
    }
    let wall = started.elapsed().as_secs_f64();
    acc.finish(out);
    let point_ms: Vec<f64> = t
        .durations_us("run_instance")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    out.set(
        "sim.point_ms_max",
        point_ms.iter().copied().fold(0.0, f64::max),
    );
    Ok((wall, instances))
}
