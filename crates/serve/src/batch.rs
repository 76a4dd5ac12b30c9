//! The daemon: one front-end poll thread, request batching, and
//! per-shard worker pools over a [`ShardedEngine`].
//!
//! ## Threading model
//!
//! * a single **front-end thread** polls every connection with
//!   non-blocking reads, tolerating partial lines (bytes accumulate in
//!   a per-connection buffer until a `\n` completes a request; a line
//!   longer than [`MAX_LINE_BYTES`] gets a typed error and its
//!   connection is closed);
//! * all requests that arrived in one poll pass form a **batch**:
//!   admission prechecks for the whole batch run under *one* engine
//!   lock acquisition, and the residual-view refresh is warmed once and
//!   amortized across the batch instead of once per request;
//! * admitted embeds are **ticketed** by the front end (a plain counter
//!   — no atomics needed, one thread) and dispatched to their home
//!   shard's bounded queue, where that shard's **worker pool** serves
//!   them;
//! * replies flow back through per-connection ordered queues, so a
//!   client that pipelines N requests gets N replies in request order.
//!
//! Shutdown (flag or `shutdown` command) stops admission, drains every
//! queued job to its reply, keeps all committed leases on the books,
//! and returns the final [`StatsReport`].
//!
//! ## Determinism
//!
//! The global [`TicketGate`] is shared by *all* shard pools: solve +
//! commit still happens in exactly admission order, one at a time, no
//! matter how many shards or workers exist. Admission prechecks run
//! against the **base** network (never the residual), so their outcome
//! cannot depend on how requests happened to be grouped into batches.
//! Together these make a replayed trace bit-for-bit independent of the
//! worker count, the shard-pool layout, and the batch boundaries — the
//! property the differential tests pin.
//!
//! Deadlock-freedom of the shared gate: the front end hands out tickets
//! in increasing order and each shard queue is FIFO, so the globally
//! next ticket is always at the head of some shard's queue, and the
//! worker that pops it never waits.

use crate::protocol::{
    fault_event_from_wire, parse_algo, ShardLane, StatsReport, WireRequest, WireResponse,
    MAX_LINE_BYTES, PROTOCOL_VERSION,
};
use dagsfc_core::solvers::precheck;
use dagsfc_core::{DagSfc, Flow, VnfCatalog};
use dagsfc_net::{FaultEvent, Network, PathOracle};
use dagsfc_nfp::transform::TransformOptions;
use dagsfc_shard::{RoutePolicy, ShardPlan, ShardRouter, ShardedEngine, StitchId};
use dagsfc_sim::Algo;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks `m`, recovering the data if a previous holder panicked — one
/// crashed worker must not wedge the whole daemon.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Worker threads per shard pool (≥ 1; results are identical for
    /// any value by construction).
    pub workers_per_shard: usize,
    /// Bounded capacity of each shard's queue; admission rejects with
    /// `queue full` beyond it (backpressure).
    pub queue_capacity: usize,
    /// Default algorithm when a request names none.
    pub algo: Algo,
    /// When a connection drops (EOF), automatically enqueue a reclaim
    /// of every lease that connection still owns. Off by default: the
    /// one-shot CLI client opens a fresh connection per operation,
    /// which would make every normal workflow self-destruct.
    pub reclaim_on_disconnect: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            workers_per_shard: 2,
            queue_capacity: 64,
            algo: Algo::Mbbe,
            reclaim_on_disconnect: false,
        }
    }
}

/// Serializes job completion in ticket order across every shard pool:
/// a worker may hold job *n+1* solved-ready, but commits only after *n*
/// has been served.
struct TicketGate {
    next: Mutex<u64>,
    turn: Condvar,
}

impl TicketGate {
    fn new() -> Self {
        TicketGate {
            next: Mutex::new(0),
            turn: Condvar::new(),
        }
    }

    fn wait_for(&self, ticket: u64) {
        let mut next = lock_recover(&self.next);
        while *next != ticket {
            next = self.turn.wait(next).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn advance(&self) {
        *lock_recover(&self.next) += 1;
        self.turn.notify_all();
    }
}

/// A running daemon with an owned network, for tests and the CLI.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<StatsReport>,
}

impl ServerHandle {
    /// The bound address (use with `Client::connect`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raises the shutdown flag without waiting.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Raises the shutdown flag and waits for the drain, returning the
    /// final stats report.
    pub fn join(self) -> StatsReport {
        self.shutdown.store(true, Ordering::SeqCst);
        // lint:allow(expect) — the daemon thread panicked; there is no report to return
        self.thread.join().expect("server thread")
    }
}

/// One queued job for a shard's worker pool.
enum BatchJob {
    Embed {
        sfc: DagSfc,
        flow: Flow,
        algo: Algo,
        seed: u64,
        owner: u64,
    },
    Fault(FaultEvent),
    Reclaim {
        owner: u64,
    },
}

struct Ticketed {
    ticket: u64,
    job: BatchJob,
    reply: mpsc::Sender<WireResponse>,
}

/// One shard's bounded FIFO queue. Tickets are assigned by the
/// (single-threaded) front end, not at enqueue — the queue only carries
/// them.
struct ShardQueue {
    inner: Mutex<(VecDeque<Ticketed>, bool)>,
    ready: Condvar,
}

impl ShardQueue {
    fn new() -> Self {
        ShardQueue {
            inner: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: Ticketed) {
        lock_recover(&self.inner).0.push_back(job);
        self.ready.notify_one();
    }

    /// Next job, blocking; `None` once closed **and** empty — the drain
    /// guarantee.
    fn pop(&self) -> Option<Ticketed> {
        let mut inner = lock_recover(&self.inner);
        loop {
            if let Some(job) = inner.0.pop_front() {
                return Some(job);
            }
            if inner.1 {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(inner, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
    }

    fn close(&self) {
        lock_recover(&self.inner).1 = true;
        self.ready.notify_all();
    }

    fn depth(&self) -> usize {
        lock_recover(&self.inner).0.len()
    }
}

/// A reply owed to a connection, in request order.
// Ready responses stay inline: boxing would put an allocation on the
// admission hot path, and a connection holds at most a handful of
// pending replies at once.
#[allow(clippy::large_enum_variant)]
enum Pending {
    /// Computed at admission time (immediate commands, rejections).
    Ready(WireResponse),
    /// Owed by a shard worker.
    Wait(mpsc::Receiver<WireResponse>),
}

/// One client connection's front-end state.
struct Conn {
    stream: TcpStream,
    owner: u64,
    /// Bytes read but not yet terminated by `\n` (partial-line
    /// tolerance — slow or chunking clients).
    buf: Vec<u8>,
    /// Replies owed, in request order (pipelining support).
    pending: VecDeque<Pending>,
    /// Read side finished (EOF, IO error, an over-long line, or a
    /// served `shutdown`/`bye`); the connection is dropped once
    /// `pending` drains.
    closed: bool,
}

/// Everything the front end and the shard workers share.
struct SharedBatch<'n> {
    engine: Mutex<ShardedEngine<'n>>,
    oracle: PathOracle<'n>,
    queues: Vec<ShardQueue>,
    gate: TicketGate,
    shutdown: Arc<AtomicBool>,
    default_algo: Algo,
    queue_capacity: usize,
}

/// Runs the batched daemon over `net`, partitioned by `plan`, until
/// `shutdown` is raised; drains and returns the final stats. Blocking —
/// see [`spawn_batched`] for the owned-thread variant.
pub fn run_batched(
    net: &Network,
    plan: ShardPlan,
    cfg: &BatchConfig,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
) -> StatsReport {
    listener
        .set_nonblocking(true)
        // lint:allow(expect) — fatal at startup, before any request is admitted
        .expect("nonblocking listener");
    let shards = plan.shards();
    let shared = SharedBatch {
        engine: Mutex::new(ShardedEngine::new(
            net,
            plan,
            ShardRouter::new(RoutePolicy::SourceAffinity),
        )),
        oracle: PathOracle::new(net),
        queues: (0..shards).map(|_| ShardQueue::new()).collect(),
        gate: TicketGate::new(),
        shutdown: Arc::clone(&shutdown),
        default_algo: cfg.algo,
        queue_capacity: cfg.queue_capacity,
    };
    crossbeam::thread::scope(|s| {
        for queue in &shared.queues {
            for _ in 0..cfg.workers_per_shard.max(1) {
                s.spawn(|| shard_worker_loop(queue, &shared));
            }
        }
        poll_loop(&listener, cfg, &shared);
        // Stop admission; workers drain what is already queued, then
        // exit — every `Pending::Wait` receiver resolves.
        for queue in &shared.queues {
            queue.close();
        }
    });
    let engine = shared
        .engine
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    stats_report(&engine, &shared.queues, cfg.queue_capacity, &shared.oracle)
}

/// Binds `bind` and runs the batched daemon on a background thread that
/// owns `net`. Fails with `InvalidInput` when `shards` cannot partition
/// the network.
pub fn spawn_batched(
    net: Network,
    shards: usize,
    cfg: BatchConfig,
    bind: &str,
) -> std::io::Result<ServerHandle> {
    let plan = ShardPlan::partition(&net, shards)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e.to_string()))?;
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let thread = std::thread::spawn(move || run_batched(&net, plan, &cfg, listener, flag));
    Ok(ServerHandle {
        addr,
        shutdown,
        thread,
    })
}

/// The front-end event loop: accept, read, batch-admit, flush replies.
fn poll_loop(listener: &TcpListener, cfg: &BatchConfig, shared: &SharedBatch<'_>) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_owner: u64 = 1;
    let mut next_ticket: u64 = 0;
    let mut scratch = [0u8; 4096];
    // Consecutive pass count without progress, for the idle backoff.
    let mut idle_passes: u32 = 0;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut progressed = false;

        // Accept everything waiting.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    conns.push(Conn {
                        stream,
                        owner: next_owner,
                        buf: Vec::new(),
                        pending: VecDeque::new(),
                        closed: false,
                    });
                    next_owner += 1;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        // Read every connection; collect the complete lines that
        // arrived this pass — they are the batch.
        let mut batch: Vec<(usize, String)> = Vec::new();
        let mut oversized: Vec<usize> = Vec::new();
        for (idx, conn) in conns.iter_mut().enumerate() {
            if conn.closed {
                continue;
            }
            // Once the buffer holds more than a maximal line, the rest
            // waits in the socket for the next pass: the buffer stays
            // bounded whatever the client sends.
            while conn.buf.len() <= MAX_LINE_BYTES {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.closed = true;
                        if cfg.reclaim_on_disconnect && !shared.shutdown.load(Ordering::SeqCst) {
                            // Fire-and-forget: the reply channel is
                            // dropped unread.
                            let (tx, _rx) = mpsc::channel();
                            let owner = conn.owner;
                            enqueue_reclaim(owner, &mut next_ticket, tx, shared);
                        }
                        break;
                    }
                    Ok(n) => {
                        conn.buf.extend_from_slice(&scratch[..n]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        conn.closed = true;
                        break;
                    }
                }
            }
            // Cut the complete lines with a cursor and drain the consumed
            // prefix once; draining per line would shift the buffered
            // bytes once per line, quadratic in what a client pipelines.
            let mut start = 0;
            while let Some(len) = conn.buf[start..].iter().position(|&b| b == b'\n') {
                let line = &conn.buf[start..start + len];
                batch.push((idx, String::from_utf8_lossy(line).into_owned()));
                start += len + 1;
            }
            conn.buf.drain(..start);
            if conn.buf.len() > MAX_LINE_BYTES {
                conn.buf = Vec::new();
                conn.closed = true;
                oversized.push(idx);
            }
        }

        // Batched admission: one engine lock acquisition serves every
        // request that arrived this pass, and the residual-view warm-up
        // is amortized across the batch's embeds.
        if !batch.is_empty() {
            progressed = true;
            let mut engine = lock_recover(&shared.engine);
            if batch.iter().any(|(_, l)| l.contains("\"embed")) {
                engine.unpartitioned_residual();
            }
            for (idx, line) in batch {
                let owner = conns[idx].owner;
                let pending = admit(&line, owner, &mut engine, &mut next_ticket, shared);
                conns[idx].pending.push_back(pending);
            }
        }
        // After the connection's complete lines, so replies keep request
        // order.
        for idx in oversized {
            progressed = true;
            conns[idx]
                .pending
                .push_back(Pending::Ready(WireResponse::error(format!(
                    "request line exceeds {MAX_LINE_BYTES} bytes"
                ))));
        }

        // Flush replies in request order; drop drained dead connections.
        for conn in &mut conns {
            if flush_pending(conn) {
                progressed = true;
            }
        }
        conns.retain(|c| !(c.closed && c.pending.is_empty()));

        // Idle backoff: lock-step clients reply within microseconds of
        // a flush, so spin-yield through short gaps (sleeping even 1ms
        // here would put a millisecond floor under every request's
        // round trip) and only sleep once the lull is real.
        if progressed {
            idle_passes = 0;
        } else {
            idle_passes += 1;
            if idle_passes < 256 {
                std::thread::yield_now();
            } else if idle_passes < 512 {
                std::thread::sleep(Duration::from_micros(50));
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    // Drain: workers finish every queued job, so every owed reply
    // resolves; deliver them before closing the sockets.
    for conn in &mut conns {
        while let Some(p) = conn.pending.pop_front() {
            let resp = match p {
                Pending::Ready(r) => r,
                Pending::Wait(rx) => rx
                    .recv()
                    .unwrap_or_else(|_| WireResponse::error("server shutting down")),
            };
            if write_response(&mut conn.stream, &resp).is_err() {
                break;
            }
        }
    }
}

/// Writes owed replies whose results are in, stopping at the first
/// still-pending one (order preserved). Returns whether anything was
/// written; marks the connection closed after a `bye`.
fn flush_pending(conn: &mut Conn) -> bool {
    let mut wrote = false;
    while let Some(front) = conn.pending.front_mut() {
        let resp = match front {
            Pending::Ready(_) => {
                // lint:allow(expect) — invariant: front() just returned Some
                let Pending::Ready(r) = conn.pending.pop_front().expect("front exists") else {
                    unreachable!()
                };
                r
            }
            Pending::Wait(rx) => match rx.try_recv() {
                Ok(r) => {
                    conn.pending.pop_front();
                    r
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    conn.pending.pop_front();
                    WireResponse::error("server shutting down")
                }
            },
        };
        let bye = resp.status == "bye";
        if write_response(&mut conn.stream, &resp).is_err() || bye {
            conn.closed = true;
        }
        wrote = true;
        if conn.closed {
            break;
        }
    }
    wrote
}

/// Serializes and writes one reply line, retrying on `WouldBlock` (the
/// socket is non-blocking; replies are small, so a full send buffer is
/// transient).
fn write_response(stream: &mut TcpStream, resp: &WireResponse) -> std::io::Result<()> {
    let mut payload =
        serde_json::to_string(resp).unwrap_or_else(|_| "{\"status\":\"error\"}".into());
    payload.push('\n');
    let mut bytes = payload.as_bytes();
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Admits one request under the batch's engine lock: immediate commands
/// answer now; embeds/faults/reclaims are ticketed into a shard queue.
fn admit(
    line: &str,
    owner: u64,
    engine: &mut ShardedEngine<'_>,
    next_ticket: &mut u64,
    shared: &SharedBatch<'_>,
) -> Pending {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Pending::Ready(WireResponse::error("empty request line"));
    }
    let mut req: WireRequest = match serde_json::from_str(trimmed) {
        Ok(r) => r,
        Err(e) => return Pending::Ready(WireResponse::error(format!("bad request: {e}"))),
    };
    match req.cmd.as_str() {
        "ping" => Pending::Ready(WireResponse {
            status: "ok".into(),
            owner: Some(owner),
            ..WireResponse::default()
        }),
        "hello" => Pending::Ready(hello_response(req.proto, owner)),
        "stats" => Pending::Ready(WireResponse {
            status: "ok".into(),
            stats: Some(stats_report(
                engine,
                &shared.queues,
                shared.queue_capacity,
                &shared.oracle,
            )),
            ..WireResponse::default()
        }),
        "release" => {
            let Some(lease) = req.lease else {
                return Pending::Ready(WireResponse::error("release requires 'lease'"));
            };
            Pending::Ready(match engine.release(StitchId(lease)) {
                Ok(()) => WireResponse::ok(),
                Err(e) => WireResponse::error(e.to_string()),
            })
        }
        "shutdown" => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Pending::Ready(WireResponse {
                status: "bye".into(),
                ..WireResponse::default()
            })
        }
        "fault" => {
            let event = match fault_event_from_wire(&req) {
                Ok(e) => e,
                Err(e) => return Pending::Ready(WireResponse::error(e)),
            };
            // Faults are region-local: ticket the event into the owner
            // shard's queue, so it lands between the embeds admitted
            // before and after it — deterministically, via the global
            // gate — while loading only that shard's pool.
            let shard = match event {
                FaultEvent::LinkDown { link }
                | FaultEvent::LinkUp { link }
                | FaultEvent::LinkCapacity { link, .. } => {
                    if engine.network().try_link(link).is_err() {
                        return Pending::Ready(WireResponse::error(format!("unknown link {link}")));
                    }
                    engine.plan().owner_of(link)
                }
                FaultEvent::NodeDown { node }
                | FaultEvent::NodeUp { node }
                | FaultEvent::VnfCapacity { node, .. } => {
                    if engine.network().try_node(node).is_err() {
                        return Pending::Ready(WireResponse::error(format!("unknown node {node}")));
                    }
                    engine.plan().shard_of(node)
                }
            };
            enqueue(shard, BatchJob::Fault(event), engine, next_ticket, shared)
        }
        "reclaim" => {
            let target = req.owner.unwrap_or(owner);
            let (tx, rx) = mpsc::channel();
            if enqueue_reclaim(target, next_ticket, tx, shared) {
                Pending::Wait(rx)
            } else {
                engine.count_admission_rejection();
                Pending::Ready(WireResponse::rejected("queue full"))
            }
        }
        "embed" => {
            let Some(sfc) = req.sfc.take() else {
                return Pending::Ready(WireResponse::error("embed requires 'sfc'"));
            };
            let Some(flow) = req.flow else {
                return Pending::Ready(WireResponse::error("embed requires 'flow'"));
            };
            admit_embed(
                sfc,
                flow,
                req.algo.take(),
                req.seed,
                owner,
                engine,
                next_ticket,
                shared,
            )
        }
        "embed_preset" => {
            let Some(name) = req.preset.as_deref() else {
                return Pending::Ready(WireResponse::error("embed_preset requires 'preset'"));
            };
            let Some(flow) = req.flow else {
                return Pending::Ready(WireResponse::error("embed_preset requires 'flow'"));
            };
            let sfc = match preset_chain(name, req.max_width) {
                Ok(s) => s,
                Err(e) => return Pending::Ready(WireResponse::error(e)),
            };
            admit_embed(
                sfc,
                flow,
                req.algo.take(),
                req.seed,
                owner,
                engine,
                next_ticket,
                shared,
            )
        }
        other => Pending::Ready(WireResponse::error(format!("unknown command '{other}'"))),
    }
}

/// The embed admission path — `precheck` against the **base** network,
/// oracle reachability, bounded-queue backpressure — then a ticket into
/// the home shard's queue. Prechecking against the base network (never
/// the residual) is what keeps admission outcomes independent of batch
/// composition.
#[allow(clippy::too_many_arguments)]
fn admit_embed(
    sfc: DagSfc,
    flow: Flow,
    algo: Option<String>,
    seed: Option<u64>,
    owner: u64,
    engine: &mut ShardedEngine<'_>,
    next_ticket: &mut u64,
    shared: &SharedBatch<'_>,
) -> Pending {
    let algo = match algo.as_deref() {
        None => shared.default_algo,
        Some(name) => match parse_algo(name) {
            Some(a) => a,
            None => {
                return Pending::Ready(WireResponse::error(format!("unknown algorithm '{name}'")))
            }
        },
    };
    let seed = seed.unwrap_or(0);
    if let Err(e) = precheck(engine.network(), &sfc, &flow) {
        engine.count_admission_rejection();
        return Pending::Ready(WireResponse::rejected(format!("infeasible: {e}")));
    }
    if flow.src != flow.dst
        && shared
            .oracle
            .dist(flow.src, flow.dst, flow.rate)
            .0
            .is_none()
    {
        engine.count_admission_rejection();
        return Pending::Ready(WireResponse::rejected(format!(
            "infeasible: no path {} -> {} at rate {}",
            flow.src, flow.dst, flow.rate
        )));
    }
    let shard = engine.home_shard(&flow);
    enqueue(
        shard,
        BatchJob::Embed {
            sfc,
            flow,
            algo,
            seed,
            owner,
        },
        engine,
        next_ticket,
        shared,
    )
}

/// Tickets `job` into `shard`'s queue, honoring its bounded capacity.
fn enqueue(
    shard: usize,
    job: BatchJob,
    engine: &mut ShardedEngine<'_>,
    next_ticket: &mut u64,
    shared: &SharedBatch<'_>,
) -> Pending {
    if shared.queues[shard].depth() >= shared.queue_capacity {
        engine.count_admission_rejection();
        return Pending::Ready(WireResponse::rejected("queue full"));
    }
    let (tx, rx) = mpsc::channel();
    let ticket = *next_ticket;
    *next_ticket += 1;
    shared.queues[shard].push(Ticketed {
        ticket,
        job,
        reply: tx,
    });
    Pending::Wait(rx)
}

/// Tickets a reclaim. Reclaims span every shard's ledger, so they are
/// routed through shard 0's queue by convention — the global ticket
/// gate serializes them against everything else regardless. Returns
/// `false` on backpressure.
fn enqueue_reclaim(
    owner: u64,
    next_ticket: &mut u64,
    reply: mpsc::Sender<WireResponse>,
    shared: &SharedBatch<'_>,
) -> bool {
    if shared.queues[0].depth() >= shared.queue_capacity {
        return false;
    }
    let ticket = *next_ticket;
    *next_ticket += 1;
    shared.queues[0].push(Ticketed {
        ticket,
        job: BatchJob::Reclaim { owner },
        reply,
    });
    true
}

/// One shard worker: pop FIFO from the shard's queue, wait for the
/// global turn, serve, advance.
fn shard_worker_loop(queue: &ShardQueue, shared: &SharedBatch<'_>) {
    while let Some(job) = queue.pop() {
        shared.gate.wait_for(job.ticket);
        let resp = match job.job {
            BatchJob::Embed {
                sfc,
                flow,
                algo,
                seed,
                owner,
            } => {
                let outcome = {
                    let mut engine = lock_recover(&shared.engine);
                    engine.set_request_owner(Some(owner));
                    let outcome = engine.embed(&sfc, &flow, algo, seed);
                    engine.set_request_owner(None);
                    outcome
                };
                match outcome {
                    Ok(a) => WireResponse {
                        status: "accepted".into(),
                        lease: Some(a.lease.0),
                        cost: Some(a.cost),
                        ..WireResponse::default()
                    },
                    Err(e @ dagsfc_sim::EmbedRejection::Audit(_)) => {
                        WireResponse::error(e.to_string())
                    }
                    Err(e) => WireResponse::rejected(e.to_string()),
                }
            }
            BatchJob::Fault(event) => {
                let applied = {
                    let mut engine = lock_recover(&shared.engine);
                    engine.apply_fault(&event)
                };
                match applied {
                    Ok(changed) => {
                        shared.oracle.apply_fault(&event);
                        WireResponse {
                            status: "ok".into(),
                            changed: Some(changed),
                            ..WireResponse::default()
                        }
                    }
                    Err(e) => WireResponse::error(e.to_string()),
                }
            }
            BatchJob::Reclaim { owner } => {
                let reclaimed = {
                    let mut engine = lock_recover(&shared.engine);
                    engine.reclaim_owner(owner)
                };
                WireResponse {
                    status: "ok".into(),
                    reclaimed: Some(reclaimed.len() as u64),
                    ..WireResponse::default()
                }
            }
        };
        shared.gate.advance();
        let _ = job.reply.send(resp);
    }
}

/// Maps the sharded engine's counters into the wire-level report.
fn stats_report(
    engine: &ShardedEngine<'_>,
    queues: &[ShardQueue],
    queue_capacity: usize,
    oracle: &PathOracle<'_>,
) -> StatsReport {
    let s = engine.stats();
    let o = oracle.stats();
    let offered = s.accepted + s.rejected;
    StatsReport {
        accepted: s.accepted,
        rejected: s.rejected,
        rejected_deadline: s.rejected_deadline,
        rejected_rule: s.rejected_rule,
        rejected_capacity: s.rejected_capacity,
        acceptance_ratio: if offered == 0 {
            0.0
        } else {
            s.accepted as f64 / offered as f64
        },
        total_cost: s.total_cost,
        active_leases: s.active_leases,
        released: s.released,
        queue_depth: queues.iter().map(|q| q.depth() as u64).sum(),
        queue_capacity: queue_capacity as u64,
        epoch: s.epoch,
        outstanding_load: s.outstanding_load,
        oracle: crate::protocol::OracleCounters {
            hits: o.hits,
            misses: o.misses,
            evictions: o.evictions,
            invalidations: o.invalidations,
            hit_rate: o.hit_rate(),
        },
        solver_cache_hits: s.solver_cache_hits,
        solver_cache_misses: s.solver_cache_misses,
        audits_run: s.audits_run,
        audits_failed: s.audits_failed,
        faults_applied: s.faults_applied,
        orphans_reclaimed: s.orphans_reclaimed,
        solve_timeouts: 0,
        commit_retries: s.commit_retries,
        shards: engine.plan().shards() as u64,
        cross_shard_offered: s.cross_shard_offered,
        cross_shard_accepted: s.cross_shard_accepted,
        per_shard: s
            .per_shard
            .iter()
            .map(|l| ShardLane {
                shard: l.shard,
                queue_depth: queues[l.shard as usize].depth() as u64,
                active_leases: l.active_leases,
                released: l.released,
                epoch: l.epoch,
                outstanding_load: l.outstanding_load,
                faults_applied: l.faults_applied,
                gateways: l.gateways,
            })
            .collect(),
        per_algo: s
            .per_algo
            .iter()
            .map(|(name, solves, total)| crate::protocol::AlgoLatency {
                algo: name.to_string(),
                solves: *solves,
                total_micros: total.as_micros() as u64,
                mean_micros: if *solves == 0 {
                    0.0
                } else {
                    total.as_micros() as f64 / *solves as f64
                },
            })
            .collect(),
    }
}

/// Builds the chain for a named `nfp` preset. A bad preset name or a
/// sparse catalog is a protocol-level error, never a panic
/// (`nfp::PresetError` is ordinary).
fn preset_chain(name: &str, max_width: Option<usize>) -> Result<DagSfc, String> {
    let hybrid = dagsfc_nfp::hybrid_preset(name, TransformOptions { max_width })
        .map_err(|e| e.to_string())?;
    let catalog = VnfCatalog::new(dagsfc_nfp::enterprise_catalog().len() as u16);
    DagSfc::from_hybrid(&hybrid, catalog).map_err(|e| format!("preset chain invalid: {e}"))
}

/// Answers a `hello` handshake: `ok` (echoing the daemon's version and
/// the connection's owner id) on a version match, a `"protocol
/// mismatch"` error naming both versions otherwise — the fail-fast path
/// versioned clients rely on.
fn hello_response(client_proto: Option<u32>, owner: u64) -> WireResponse {
    match client_proto {
        Some(v) if v == PROTOCOL_VERSION => WireResponse {
            status: "ok".into(),
            owner: Some(owner),
            proto: Some(PROTOCOL_VERSION),
            ..WireResponse::default()
        },
        Some(v) => WireResponse {
            proto: Some(PROTOCOL_VERSION),
            ..WireResponse::error(format!(
                "protocol mismatch: client speaks v{v}, daemon speaks v{PROTOCOL_VERSION}"
            ))
        },
        None => WireResponse {
            proto: Some(PROTOCOL_VERSION),
            ..WireResponse::error(format!(
                "protocol mismatch: hello carried no version (daemon speaks v{PROTOCOL_VERSION})"
            ))
        },
    }
}
