//! The daemon workload `serve_churn`.
//!
//! It runs the default batched daemon (1 shard, MBBE) in a child
//! process and drives it over one loopback TCP connection with the
//! generator of [`crate::loadgen`]: once open loop at a fixed offered
//! rate (the tail, latency from due time), then in lock step, one
//! request in flight, taking turns with two more daemons (the median
//! round trip and the throughput, at the nominal host speed of
//! [`crate::calib`]).

use crate::calib::{at_nominal, Reference, NOMINAL_MS};
use crate::child::Child;
use crate::layers::{cold_pass, set_self_times, traced_redrive, SolveAcc};
use crate::loadgen::{self, backlog_growth, classify, Class, Conn, Phase};
use crate::report::Outcome;
use crate::schedule;
use crate::spans::Tracer;
use crate::stats::{median, summarize, summarize_blocks};
use crate::Args;
use dagsfc_audit::ConstraintAuditor;
use dagsfc_core::solvers::SolveCtx;
use dagsfc_core::{DagSfc, Flow};
use dagsfc_net::Network;
use dagsfc_serve::{algo_wire_name, run_batched, BatchConfig, StatsReport, WireRequest};
use dagsfc_shard::{RoutePolicy, ShardPlan, ShardRouter, ShardedEngine, StitchId};
use dagsfc_sim::lifecycle::{export_trace, run_trace, to_fixed, LifecycleConfig};
use dagsfc_sim::runner::{instance_network, instance_request};
use dagsfc_sim::{arrival_seed, Algo, ArrivalOutcome, DepartureQueue, ReplayTrace, SimConfig};
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::ops::Range;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency samples a run collects at least.
const MIN_TIMED_SAMPLES: usize = 200;
/// Full set-ups made per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// The `serve_churn` operating point: a Table 2 substrate (500 nodes)
/// with capacity 2 on every VNF instance and link, mean holding 80
/// arrival intervals.
mod churn_cfg {
    pub const NODES: usize = 500;
    pub const CAPACITY: f64 = 2.0;
    pub const MEAN_HOLDING: f64 = 80.0;
    /// Offered rate of the open-loop arrivals (requests/s).
    pub const RATE: f64 = 20.0;
    /// Share of `--seconds` the open-loop arrivals last; lock-step
    /// replays fill the rest.
    pub const OPEN_SHARE: f64 = 0.5;
    /// Lock-step replays of the whole trace a run makes at least.
    pub const MIN_LOCKSTEP_REPLAYS: usize = 3;
    /// Daemons the lock-step replays take turns on.
    pub const LOCKSTEP_DAEMONS: usize = 3;
    /// Untimed arrivals that bring the substrate to its steady state
    /// before the timed ones.
    pub const FILL: usize = 160;
    /// Arrivals the traced run re-drives in process.
    pub const TRACED: usize = 200;
}

/// The daemon a workload drives — a child process serving the
/// workload's substrate — and the benchmark's one connection to it.
struct Daemon {
    child: Child,
    conn: Conn,
}

impl Daemon {
    fn start(seed: u64) -> Result<Daemon, String> {
        let mut child = Child::spawn(&[
            "--child".into(),
            "serve_churn".into(),
            "--seed".into(),
            seed.to_string(),
        ])?;
        let addr: SocketAddr = child
            .read_line()?
            .parse()
            .map_err(|e| format!("daemon address: {e}"))?;
        let conn = Conn::open(addr)?;
        Ok(Daemon { child, conn })
    }

    /// Peak RSS of the daemon process so far, in MiB.
    fn peak_rss_mb(&self) -> f64 {
        self.child.peak_rss_mb().unwrap_or(0.0)
    }

    /// Sends `shutdown`, waits for the daemon to drain and exit, and
    /// returns its last counters.
    fn stop(mut self) -> Result<StatsReport, String> {
        let stats = self.conn.stats()?;
        let bye = self.conn.request(&WireRequest {
            cmd: "shutdown".into(),
            ..WireRequest::default()
        })?;
        self.conn.close();
        let status = self.child.finish(Duration::from_secs(10))?;
        if bye.status != "bye" || !status.success() {
            return Err(format!("daemon did not shut down cleanly: {status}"));
        }
        Ok(stats)
    }
}

/// `--child serve_churn`: serves the workload's substrate with the
/// default batched daemon (1 shard, MBBE), printing the bound address
/// first, until a client sends `shutdown`.
pub fn daemon_main(seed: u64) -> Result<(), String> {
    let net = substrate(&churn_base(seed));
    let plan = ShardPlan::partition(&net, 1).map_err(|e| e.to_string())?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "{addr}")
        .and_then(|()| stdout.flush())
        .map_err(|e| format!("announce address: {e}"))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    run_batched(&net, plan, &BatchConfig::default(), listener, shutdown);
    Ok(())
}

fn embed_line(sfc: &DagSfc, flow: &Flow, seed: u64) -> Result<Vec<u8>, String> {
    loadgen::line(&WireRequest {
        cmd: "embed".into(),
        sfc: Some(sfc.clone()),
        flow: Some(*flow),
        seed: Some(seed),
        algo: Some(algo_wire_name(Algo::Mbbe).into()),
        ..WireRequest::default()
    })
}

fn lines_for(base: &SimConfig, requests: &[(DagSfc, Flow)]) -> Result<Vec<Vec<u8>>, String> {
    requests
        .iter()
        .enumerate()
        .map(|(i, (sfc, flow))| embed_line(sfc, flow, arrival_seed(base.seed, i)))
        .collect()
}

/// One replay of a churn trace through the daemon: each arrival's
/// outcome and the leases still held.
struct Replay {
    outcomes: Vec<Option<Class>>,
    leases: Vec<Option<u64>>,
}

impl Replay {
    fn new(arrivals: usize) -> Replay {
        Replay {
            outcomes: vec![None; arrivals],
            leases: vec![None; arrivals],
        }
    }

    /// Sends arrivals `range` at `rate` requests/s, or lock-step and
    /// untimed when `rate` is 0.
    fn window(
        &mut self,
        conn: &mut Conn,
        depart_at: &[u64],
        range: Range<usize>,
        rate: f64,
        lines: &[Vec<u8>],
    ) -> Result<Phase, String> {
        let lockstep = rate <= 0.0;
        let interval = if lockstep { 0.0 } else { 1e9 / rate };
        let events = schedule::churn(depart_at, range, interval, !lockstep);
        let phase = loadgen::run(conn, &events, lines, &mut self.leases, lockstep)?;
        for (op, class) in phase.ops.iter().zip(&phase.classes) {
            if let schedule::Op::Embed(i) = op.op {
                self.outcomes[i] = Some(class.clone());
            }
        }
        Ok(phase)
    }

    /// Releases every lease the first `end` arrivals still hold, one at
    /// a time in departure order (the order of `run_trace`'s final
    /// drain), and checks the daemon holds nothing afterwards.
    fn drain(&mut self, conn: &mut Conn, depart_at: &[u64], end: usize) -> Result<(), String> {
        let mut order: Vec<usize> = (0..end).collect();
        order.sort_by_key(|&i| (depart_at[i], i));
        for i in order {
            if let Some(lease) = self.leases[i].take() {
                let resp = conn.request(&WireRequest {
                    cmd: "release".into(),
                    lease: Some(lease),
                    ..WireRequest::default()
                })?;
                if classify(Some(&resp)) != Class::Ok {
                    return Err(format!("check failed: drain release refused: {resp:?}"));
                }
            }
        }
        let stats = conn.stats()?;
        if stats.active_leases != 0 || stats.outstanding_load.abs() > 1e-9 {
            return Err(format!(
                "check failed: after the drain {} leases and {} load remain",
                stats.active_leases, stats.outstanding_load
            ));
        }
        Ok(())
    }

    /// Compares the outcomes with `run_trace`'s, bit for bit, up to the
    /// first failed request (after a refusal the daemon's state
    /// legitimately departs from the reference). Returns how many
    /// arrivals were compared.
    fn check(&self, reference: &[ArrivalOutcome], what: &str) -> Result<usize, String> {
        for (i, class) in self.outcomes.iter().enumerate() {
            let r = reference
                .get(i)
                .ok_or_else(|| format!("no reference outcome for arrival {i}"))?;
            match class {
                // A refused or abandoned request: from here the daemon's
                // state legitimately departs from the reference.
                Some(Class::Failed(_)) | None => return Ok(i),
                Some(Class::Accepted { cost_bits, .. })
                    if r.accepted && r.cost.to_bits() == *cost_bits => {}
                Some(Class::Rejected(_)) if !r.accepted => {}
                other => {
                    return Err(format!(
                        "check failed: {what}: arrival {i} got {other:?}, run_trace accepted={} cost={}",
                        r.accepted, r.cost
                    ))
                }
            }
        }
        Ok(self.outcomes.len())
    }
}

/// Metrics `serve_churn` takes from its open-loop phase; `before` and
/// `after` are the daemon's counters around it.
///
/// The tail is taken as measured: at this rate it is the wait for the
/// client's delayed ACK behind the daemon's Nagle stalls (see the
/// README), a fixed wall-clock timer. The open-loop median is printed
/// but not reported: it moves with the host's wake-up latency between
/// sparse requests far more than with the daemon's work.
fn open_loop_metrics(out: &mut Outcome, phase: &Phase, before: &StatsReport, after: &StatsReport) {
    let lat = summarize_blocks(&phase.embed_latency_us);
    out.set("p99_ms", lat.tail / 1e3);
    let ops = phase.attempted();
    let failed = phase.failed();
    out.attempted = ops as u64;
    out.failed = failed as u64;
    out.set("served_ratio", 1.0 - failed as f64 / ops.max(1) as f64);
    out.set("loadgen.failed_ratio", failed as f64 / ops.max(1) as f64);
    let late = summarize(&phase.late_us());
    out.set("loadgen.late_us_p99", late.tail);
    out.set("loadgen.release_slips", phase.release_slips as f64);
    out.set("loadgen.backlog_growth", backlog_growth(&phase.backlog));
    let depth = phase.polls.iter().map(|s| s.queue_depth).max().unwrap_or(0);
    out.set("serve.queue_depth_max", depth as f64);
    out.set("serve.rejected_queue_full", phase.queue_full() as f64);
    out.set(
        "serve.wire_bytes_per_op",
        phase.wire_bytes as f64 / ops.max(1) as f64,
    );
    let solver_rejects =
        |s: &StatsReport| s.rejected_deadline + s.rejected_rule + s.rejected_capacity;
    let refused = (after.rejected - before.rejected)
        .saturating_sub(solver_rejects(after) - solver_rejects(before))
        .saturating_sub(phase.queue_full() as u64);
    out.set("serve.admission_refused", refused as f64);
    out.note(format!(
        "  open loop, as measured: p50 {:.3} ms, p{:.1} {:.3} ms over {} samples; {ops} ops, {failed} failed; generator p{:.1} lateness {:.1} us, {} release slips",
        lat.p50 / 1e3,
        lat.tail_p,
        lat.tail / 1e3,
        lat.n,
        late.tail_p,
        late.tail,
        phase.release_slips
    ));
}

/// Acceptance and mean accepted cost over `outcomes`.
fn accept_and_cost(outcomes: &[Option<Class>]) -> (f64, f64) {
    let mut accepted = 0usize;
    let mut total = 0.0;
    for c in outcomes.iter().flatten() {
        if let Class::Accepted { cost_bits, .. } = c {
            accepted += 1;
            total += f64::from_bits(*cost_bits);
        }
    }
    (
        accepted as f64 / outcomes.len().max(1) as f64,
        total / accepted.max(1) as f64,
    )
}

/// The substrate a daemon workload serves: `base`'s network parameters
/// at the Table 2 default seed. The workload seed draws the traffic
/// (requests and holding times), not the substrate, as for a daemon
/// that serves one network.
fn substrate(base: &SimConfig) -> Network {
    instance_network(&SimConfig {
        seed: SimConfig::default().seed,
        ..base.clone()
    })
}

fn churn_base(seed: u64) -> SimConfig {
    SimConfig {
        network_size: churn_cfg::NODES,
        vnf_capacity: churn_cfg::CAPACITY,
        link_capacity: churn_cfg::CAPACITY,
        seed: crate::mix(seed),
        ..SimConfig::default()
    }
}

struct ChurnSetup {
    net: Network,
    base: SimConfig,
    trace: ReplayTrace,
    requests: Vec<(DagSfc, Flow)>,
    lines: Vec<Vec<u8>>,
}

impl ChurnSetup {
    /// Fills an empty substrate with the trace's first `FILL` arrivals
    /// in lock step, ready for a window of `window` timed arrivals.
    fn fill(&self, conn: &mut Conn, window: usize) -> Result<Replay, String> {
        let mut replay = Replay::new(churn_cfg::FILL + window);
        replay.window(
            conn,
            &self.trace.depart_at,
            0..churn_cfg::FILL,
            0.0,
            &self.lines,
        )?;
        Ok(replay)
    }
}

/// Set-up: substrate, daemon, frozen trace and requests, and the fill
/// that brings the daemon to its steady state.
fn churn_setup(
    seed: u64,
    arrivals: usize,
    window: usize,
) -> Result<(ChurnSetup, Daemon, Replay), String> {
    let mut daemon = Daemon::start(seed)?;
    let base = churn_base(seed);
    let net = substrate(&base);
    let trace = export_trace(&LifecycleConfig {
        base: base.clone(),
        arrivals,
        mean_holding: churn_cfg::MEAN_HOLDING,
        algo: Algo::Mbbe,
    });
    let requests: Vec<(DagSfc, Flow)> = (0..arrivals)
        .map(|i| instance_request(&base, &net, i))
        .collect();
    let lines = lines_for(&base, &requests)?;
    let s = ChurnSetup {
        net,
        base,
        trace,
        requests,
        lines,
    };
    let replay = s.fill(&mut daemon.conn, window)?;
    Ok((s, daemon, replay))
}

/// `serve_churn`: open-loop lifecycle churn against the default daemon.
pub fn churn(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let timed =
        ((churn_cfg::RATE * args.seconds * churn_cfg::OPEN_SHARE) as usize).max(MIN_TIMED_SAMPLES);
    let n_max = churn_cfg::FILL + timed;
    // Lock-step times are taken at the nominal host speed (see `calib`).
    let mut reference = Reference::new();

    // Set-up, repeated; the last `LOCKSTEP_DAEMONS` daemons are kept.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Vec<(ChurnSetup, Daemon, Replay)> = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let (made, secs, ref_ms) = reference.bracket(1, || churn_setup(args.seed, n_max, timed));
        setups.push(at_nominal(secs, ref_ms));
        kept.push(made?);
        if kept.len() > churn_cfg::LOCKSTEP_DAEMONS {
            kept.remove(0).1.stop()?;
        }
    }
    let (s, mut daemon, mut replay) = kept.pop().ok_or("no set-up ran")?;
    let mut spares = Vec::with_capacity(kept.len());
    for (_, mut spare, mut filled) in kept {
        filled.drain(&mut spare.conn, &s.trace.depart_at, n_max)?;
        spares.push(spare);
    }
    out.set("setup_s", median(&setups));
    out.note(format!(
        "serve_churn: daemons (1 shard, MBBE) in child processes, one loopback TCP connection each (not a real link); {} nodes, capacity {}, mean holding {}; {} arrivals in lock step fill the substrate, then {timed} arrivals come open loop at {} req/s; then lock-step replays of all {n_max} arrivals on {} daemons in turn",
        churn_cfg::NODES, churn_cfg::CAPACITY, churn_cfg::MEAN_HOLDING, churn_cfg::FILL, churn_cfg::RATE, spares.len() + 1
    ));

    // Open loop: the timed arrivals at the fixed offered rate.
    let depart_at = &s.trace.depart_at;
    let before = daemon.conn.stats()?;
    let open = replay.window(
        &mut daemon.conn,
        depart_at,
        churn_cfg::FILL..n_max,
        churn_cfg::RATE,
        &s.lines,
    )?;
    replay.drain(&mut daemon.conn, depart_at, n_max)?;
    let after = daemon.conn.stats()?;
    open_loop_metrics(&mut out, &open, &before, &after);
    let (accept, cost) = accept_and_cost(&replay.outcomes[churn_cfg::FILL..]);
    out.set("accept_ratio", accept);
    out.set("mean_cost", cost);
    let reference_outcomes = run_trace(&s.net, &s.trace).per_arrival;
    let mut compared = replay.check(&reference_outcomes, "open loop")?;

    // Lock step: the whole trace again from a drained, empty substrate,
    // one request in flight, each replay between two reference kernel
    // runs, the daemons taking turns. Every replay offers identical
    // inputs and gets identical outcomes, and host interference only
    // ever adds time: the run reports its fastest replay, at the nominal
    // host speed.
    let mut p50s_ms = Vec::new();
    let mut rates = Vec::new();
    let mut replays = Vec::new();
    let lockstep_started = Instant::now();
    let lockstep_s = args.seconds * (1.0 - churn_cfg::OPEN_SHARE);
    while rates.len() < churn_cfg::MIN_LOCKSTEP_REPLAYS
        || lockstep_started.elapsed().as_secs_f64() < lockstep_s
    {
        let k = rates.len() % (spares.len() + 1);
        let conn = match k {
            0 => &mut daemon.conn,
            _ => &mut spares[k - 1].conn,
        };
        let mut again = Replay::new(n_max);
        let (phase, secs, ref_ms) =
            reference.bracket(1, || again.window(conn, depart_at, 0..n_max, 0.0, &s.lines));
        let phase = phase?;
        again.drain(conn, depart_at, n_max)?;
        compared += again.check(&reference_outcomes, "lock step")?;
        let p50_ms = median(&phase.embed_round_trip_us()) / 1e3;
        let rate = phase.attempted() as f64 / secs;
        p50s_ms.push(at_nominal(p50_ms, ref_ms));
        // A rate scales inversely to a time.
        rates.push(rate / at_nominal(1.0, ref_ms));
        replays.push(format!("d{k}:{rate:.0}/{ref_ms:.1}/{p50_ms:.3}"));
    }
    let p50_ms = p50s_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let ops_per_s = rates.iter().copied().fold(0.0, f64::max);
    out.set("p50_ms", p50_ms);
    out.set("ops_per_s", ops_per_s);
    out.note(format!(
        "  lock step, {} replays as measured (ops/s / reference kernel ms / embed round trip p50 ms): {}",
        replays.len(),
        replays.join(" ")
    ));
    out.note(format!(
        "  lock step, fastest replay at the nominal host speed: embed round trip p50 {p50_ms:.3} ms over {} embeds; {ops_per_s:.2} ops/s",
        n_max
    ));
    out.set("peak_rss_mb", daemon.peak_rss_mb());
    out.set("bench.host_ref_ms", median(&reference.samples_ms));
    out.note(format!(
        "  reference kernel median {:.2} ms over {} runs (nominal {NOMINAL_MS} ms)",
        median(&reference.samples_ms),
        reference.samples_ms.len()
    ));

    // Correctness, untimed (the outcome checks ran after each phase).
    for spare in spares {
        let stats = spare.stop()?;
        if stats.audits_failed != 0 || stats.active_leases != 0 {
            return Err("check failed: a daemon ended with failed audits or open leases".into());
        }
    }
    let last = daemon.conn.stats()?;
    if last.audits_failed != 0 {
        return Err(format!(
            "check failed: {} audits failed",
            last.audits_failed
        ));
    }
    out.note(format!(
        "  checks: {compared} of {} outcomes (fill included) equal run_trace bit for bit; audits_failed 0; no lease or load left after any drain",
        n_max * (1 + rates.len())
    ));
    let s_stats = daemon.stop()?;
    if s_stats.audits_failed != 0 || s_stats.active_leases != 0 {
        return Err("check failed: daemon ended with failed audits or open leases".into());
    }

    if args.trace {
        let n = churn_cfg::TRACED.min(n_max);
        let mut tracer = Tracer::new(true);
        let overhead = traced_redrive(&mut tracer, &mut out, |t, o| {
            churn_redrive(&s, &reference_outcomes, n, t, o)
        })?;
        out.set("bench.trace_overhead_ratio", overhead);
        set_self_times(&tracer, &mut out);
        args.write_spans(&tracer)?;
        let flows: Vec<Flow> = s.requests.iter().take(64).map(|(_, f)| *f).collect();
        cold_pass(&s.net, &flows, &mut Tracer::new(true), &mut out);
    }
    Ok(out)
}

/// Re-drives the first `n` churn arrivals in process, in ticket order:
/// the shard span (`ShardedEngine::embed`/`release`) and, beside it on
/// the same state and inputs, the wire parse, the residual view, a cold
/// `Solver::solve_in` and the audit. Returns the wall time in seconds.
fn churn_redrive(
    s: &ChurnSetup,
    reference: &[ArrivalOutcome],
    n: usize,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<f64, String> {
    let plan = ShardPlan::partition(&s.net, 1).map_err(|e| e.to_string())?;
    let mut engine =
        ShardedEngine::new(&s.net, plan, ShardRouter::new(RoutePolicy::SourceAffinity));
    let auditor = ConstraintAuditor::new();
    let mut departures = DepartureQueue::new();
    let mut leases: Vec<Option<StitchId>> = vec![None; n];
    let mut acc = SolveAcc::default();
    let started = Instant::now();
    for arrival in 0..n {
        let now = to_fixed(arrival as f64);
        while let Some(id) = departures.pop_due(now) {
            if let Some(lease) = leases[id].take() {
                t.span("shard", "release", id as u64, |_| engine.release(lease))
                    .map_err(|e| e.to_string())?;
            }
        }
        let req = arrival as u64;
        let seed = arrival_seed(s.base.seed, arrival);
        let (accepted, cost_bits) = t.span("bench", "request", req, |t| {
            let wire: WireRequest = t
                .span("serve", "parse", req, |_| {
                    serde_json::from_str(String::from_utf8_lossy(&s.lines[arrival]).trim())
                })
                .map_err(|e| format!("parse frozen request: {e}"))?;
            let (Some(sfc), Some(flow)) = (wire.sfc, wire.flow) else {
                return Err("frozen request without sfc or flow".to_string());
            };
            let residual = t.span("net", "residual", req, |_| engine.unpartitioned_residual());
            let ctx = SolveCtx::new(&residual);
            let t0 = Instant::now();
            let solved = t.span("core", "solve", req, |_| {
                Algo::Mbbe.build(seed).solve_in(&ctx, &sfc, &flow)
            });
            acc.record(t0.elapsed().as_secs_f64() * 1e6, &solved);
            acc.add_oracle(ctx.oracle.stats());
            if let Ok(o) = &solved {
                let report = t.span("audit", "audit_outcome", req, |_| {
                    auditor.audit_outcome(&residual, &sfc, &flow, o)
                });
                if !report.is_clean() {
                    return Err(format!("check failed: audit of arrival {arrival}"));
                }
            }
            let embedded = t.span("shard", "embed", req, |_| {
                engine.embed(&sfc, &flow, Algo::Mbbe, seed)
            });
            let beside = solved.as_ref().map(|o| o.cost.total().to_bits()).ok();
            let engine_cost = embedded.as_ref().map(|a| a.cost.total().to_bits()).ok();
            if beside != engine_cost {
                return Err(format!(
                    "check failed: arrival {arrival}: the solve beside the shard span disagrees with it"
                ));
            }
            Ok((embedded.ok(), engine_cost))
        })?;
        let r = &reference[arrival];
        if r.accepted != accepted.is_some() || (r.accepted && cost_bits != Some(r.cost.to_bits())) {
            return Err(format!(
                "check failed: in-process re-drive of arrival {arrival} differs from run_trace"
            ));
        }
        if let Some(a) = accepted {
            leases[arrival] = Some(a.lease);
            departures.schedule(s.trace.depart_at[arrival], arrival);
        }
    }
    while let Some((_, id)) = departures.pop() {
        if let Some(lease) = leases[id].take() {
            t.span("shard", "release", id as u64, |_| engine.release(lease))
                .map_err(|e| e.to_string())?;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let es = engine.stats();
    if es.audits_failed != 0 || es.outstanding_load.abs() > 1e-9 {
        return Err("check failed: re-drive left failed audits or load".into());
    }
    let embed = summarize(&t.durations_us("embed"));
    out.set("shard.embed_us_p50", embed.p50);
    out.set("shard.embed_us_p99", embed.tail);
    out.set("shard.release_us_p50", median(&t.durations_us("release")));
    out.set("shard.commit_retries", es.commit_retries as f64);
    out.set("shard.audits_failed", es.audits_failed as f64);
    out.set("net.residual_us_p50", median(&t.durations_us("residual")));
    out.set(
        "audit.audit_us_p50",
        median(&t.durations_us("audit_outcome")),
    );
    out.set("serve.parse_us_p50", median(&t.durations_us("parse")));
    acc.finish(out);
    Ok(wall)
}
