//! The open-loop generator: one connection, one sending thread (the
//! caller's) and one reading thread.
//!
//! Events go on the wire strictly in schedule order. Each is sent at its
//! due time or, when the generator runs behind, as soon as it can; its
//! lateness and every embed's latency count from the due time, so a
//! stall is charged to every request behind it.
//!
//! The daemon applies a `release` at admission, ahead of embeds still
//! queued for a worker. To keep outcomes independent of timing, a
//! release therefore waits until every earlier request has been
//! answered (its own embed included: the lease id comes from that
//! reply). A release that had to wait is a *release slip*; the events
//! behind it keep their due times.

use crate::schedule::{Event, Op};
use dagsfc_serve::{StatsReport, WireRequest, WireResponse, PROTOCOL_VERSION};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the generator waits for an owed reply before counting it
/// as missing.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One reply line as the reading thread saw it. Lines are parsed on
/// demand, off the reading thread's timed path.
#[derive(Debug, Clone)]
pub struct Reply {
    /// When the complete line had been read.
    pub at: Instant,
    /// The raw line.
    pub line: String,
}

impl Reply {
    /// The parsed reply; `None` when the line does not parse.
    pub fn resp(&self) -> Option<WireResponse> {
        serde_json::from_str(self.line.trim()).ok()
    }
}

/// Replies received: `replies[i]` is reply number `base + i` on the
/// connection; [`Conn::trim`] drops the ones already accounted for.
#[derive(Default)]
struct Book {
    base: usize,
    replies: Vec<Reply>,
    bytes: u64,
    closed: bool,
}

impl Book {
    fn count(&self) -> usize {
        self.base + self.replies.len()
    }
}

type Shared = Arc<(Mutex<Book>, Condvar)>;

fn lock(shared: &Shared) -> MutexGuard<'_, Book> {
    // The reader only appends whole replies, so a poisoned book is
    // still consistent.
    shared.0.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One client connection with a dedicated reading thread.
pub struct Conn {
    writer: TcpStream,
    shared: Shared,
    reader: Option<JoinHandle<()>>,
    sent: usize,
    bytes_sent: u64,
}

/// Serialises one request as a newline-terminated wire line.
pub fn line(req: &WireRequest) -> Result<Vec<u8>, String> {
    let mut text = serde_json::to_string(req).map_err(|e| format!("serialise request: {e}"))?;
    text.push('\n');
    Ok(text.into_bytes())
}

/// The wire line of a `stats` poll.
pub fn stats_line() -> Result<Vec<u8>, String> {
    line(&WireRequest {
        cmd: "stats".into(),
        ..WireRequest::default()
    })
}

/// The wire line releasing `lease`.
pub fn release_line(lease: u64) -> Result<Vec<u8>, String> {
    line(&WireRequest {
        cmd: "release".into(),
        lease: Some(lease),
        ..WireRequest::default()
    })
}

impl Conn {
    /// Connects, starts the reading thread and performs the `hello`
    /// handshake.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let read_half = writer
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        let shared: Shared = Arc::new((Mutex::new(Book::default()), Condvar::new()));
        let book = Arc::clone(&shared);
        let reader = std::thread::spawn(move || read_loop(read_half, book));
        let mut conn = Conn {
            writer,
            shared,
            reader: Some(reader),
            sent: 0,
            bytes_sent: 0,
        };
        let hello = conn.request(&WireRequest {
            cmd: "hello".into(),
            proto: Some(PROTOCOL_VERSION),
            ..WireRequest::default()
        })?;
        if hello.status != "ok" || hello.proto != Some(PROTOCOL_VERSION) {
            return Err(format!("hello refused: {hello:?}"));
        }
        Ok(conn)
    }

    /// Writes `bytes` holding `lines` complete requests; returns when
    /// the write finished.
    pub fn send(&mut self, bytes: &[u8], lines: usize) -> Result<Instant, String> {
        self.writer
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))?;
        self.sent += lines;
        self.bytes_sent += bytes.len() as u64;
        Ok(Instant::now())
    }

    /// Requests sent so far on this connection.
    pub fn sent(&self) -> usize {
        self.sent
    }

    /// Replies received so far.
    pub fn replied(&self) -> usize {
        lock(&self.shared).count()
    }

    /// Forgets every reply received so far (their count stays), so a
    /// long run holds only the current phase's replies.
    pub fn trim(&self) {
        let mut book = lock(&self.shared);
        book.base += book.replies.len();
        book.replies.clear();
    }

    /// Bytes written plus bytes read so far.
    pub fn wire_bytes(&self) -> u64 {
        self.bytes_sent + lock(&self.shared).bytes
    }

    /// Blocks until at least `n` replies arrived; `false` on timeout or
    /// when the connection closed first.
    pub fn wait_replies(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut book = lock(&self.shared);
        while book.count() < n {
            if book.closed {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            book = self
                .shared
                .1
                .wait_timeout(book, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }

    /// A copy of reply `idx`, if it arrived and was not trimmed.
    pub fn reply(&self, idx: usize) -> Option<Reply> {
        let book = lock(&self.shared);
        book.replies.get(idx.checked_sub(book.base)?).cloned()
    }

    /// Sends one request and waits for its reply.
    pub fn request(&mut self, req: &WireRequest) -> Result<WireResponse, String> {
        let idx = self.sent;
        self.send(&line(req)?, 1)?;
        if !self.wait_replies(idx + 1, REPLY_TIMEOUT) {
            return Err(format!("no reply to '{}'", req.cmd));
        }
        self.reply(idx)
            .and_then(|r| r.resp())
            .ok_or_else(|| format!("unparseable reply to '{}'", req.cmd))
    }

    /// Fetches the daemon's counters.
    pub fn stats(&mut self) -> Result<StatsReport, String> {
        let resp = self.request(&WireRequest {
            cmd: "stats".into(),
            ..WireRequest::default()
        })?;
        resp.stats.ok_or_else(|| "stats reply without stats".into())
    }

    /// Closes the write side and joins the reading thread.
    pub fn close(mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

fn read_loop(stream: TcpStream, shared: Shared) {
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    loop {
        buf.clear();
        match reader.read_line(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                let at = Instant::now();
                let line = std::mem::take(&mut buf);
                let mut book = lock(&shared);
                book.bytes += n as u64;
                book.replies.push(Reply { at, line });
                drop(book);
                shared.1.notify_all();
            }
        }
    }
    lock(&shared).closed = true;
    shared.1.notify_all();
}

/// How one operation ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Class {
    /// An embed that was accepted.
    Accepted {
        /// Lease handle.
        lease: u64,
        /// Bits of the embedding's total objective.
        cost_bits: u64,
    },
    /// A typed rejection from admission or the solver: an outcome.
    Rejected(String),
    /// A command answered `ok`.
    Ok,
    /// No reply, an unparseable reply, an `error`, or a `queue full`
    /// refusal: a failure.
    Failed(String),
}

/// The `failed_ratio` rule: which replies are failures and which are
/// outcomes.
pub fn classify(resp: Option<&WireResponse>) -> Class {
    let Some(resp) = resp else {
        return Class::Failed("no reply".into());
    };
    match resp.status.as_str() {
        "accepted" => match (resp.lease, resp.cost) {
            (Some(lease), Some(cost)) => Class::Accepted {
                lease,
                cost_bits: cost.total().to_bits(),
            },
            _ => Class::Failed("accepted without lease or cost".into()),
        },
        "rejected" => {
            let reason = resp.reason.clone().unwrap_or_default();
            if reason == "queue full" {
                Class::Failed(reason)
            } else {
                Class::Rejected(reason)
            }
        }
        "ok" => Class::Ok,
        other => Class::Failed(resp.reason.clone().unwrap_or_else(|| other.to_string())),
    }
}

/// Median backlog over the last third of a phase's samples minus the
/// median over its first third: near 0 when the daemon keeps up,
/// growing with the phase length when it does not. Medians, so one
/// short stall does not read as growth.
pub fn backlog_growth(samples: &[u64]) -> f64 {
    let third = samples.len() / 3;
    if third == 0 {
        return 0.0;
    }
    let median = |s: &[u64]| {
        let mut v = s.to_vec();
        v.sort_unstable();
        v[(v.len() - 1) / 2] as f64
    };
    median(&samples[samples.len() - third..]) - median(&samples[..third])
}

/// Outstanding work at one instant: requests sent and not yet answered
/// plus events already due and not yet sent.
pub fn backlog(sent: usize, replied: usize, due: usize, handled: usize) -> u64 {
    (sent.saturating_sub(replied) + due.saturating_sub(handled)) as u64
}

/// Nanoseconds from `due` to `at`, 0 when `at` was early.
pub fn late_ns(due: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(due).as_nanos() as u64
}

/// One sent operation of a phase.
#[derive(Debug, Clone)]
pub struct SentOp {
    /// The scheduled operation.
    pub op: Op,
    /// Due time, ns after the phase start.
    pub due_ns: u64,
    /// Send time, ns after the phase start.
    pub sent_ns: u64,
    /// Index of its reply on the connection.
    pub reply: usize,
}

/// Everything one phase observed.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Every operation put on the wire, in order.
    pub ops: Vec<SentOp>,
    /// Per operation: its classification.
    pub classes: Vec<Class>,
    /// Per embed: latency from due time in µs (infinite when failed).
    pub embed_latency_us: Vec<f64>,
    /// Releases that had to wait for earlier replies.
    pub release_slips: u64,
    /// Scheduled events never sent because the backlog passed
    /// [`MAX_BACKLOG`]; each counts as a failed operation.
    pub unsent: usize,
    /// Backlog sampled at every write.
    pub backlog: Vec<u64>,
    /// `stats` poll replies, in order.
    pub polls: Vec<StatsReport>,
    /// Bytes written and read during the phase.
    pub wire_bytes: u64,
}

impl Phase {
    /// Operations attempted: sent or scheduled and abandoned.
    pub fn attempted(&self) -> usize {
        self.ops.len() + self.unsent
    }

    /// Operations that failed, abandoned ones included.
    pub fn failed(&self) -> usize {
        self.unsent
            + self
                .classes
                .iter()
                .filter(|c| matches!(c, Class::Failed(_)))
                .count()
    }

    /// Failures that were `queue full` refusals.
    pub fn queue_full(&self) -> usize {
        self.classes
            .iter()
            .filter(|c| matches!(c, Class::Failed(r) if r == "queue full"))
            .count()
    }

    /// Per-operation lateness of the generator in µs.
    pub fn late_us(&self) -> Vec<f64> {
        self.ops
            .iter()
            .map(|o| o.sent_ns.saturating_sub(o.due_ns) as f64 / 1e3)
            .collect()
    }

    /// Per embed, in order: its round trip in µs, from when it was sent
    /// (not when it was due) to its reply; infinite when it failed.
    pub fn embed_round_trip_us(&self) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| matches!(o.op, Op::Embed(_)))
            .zip(&self.embed_latency_us)
            .map(|(o, &from_due)| from_due - o.sent_ns.saturating_sub(o.due_ns) as f64 / 1e3)
            .collect()
    }
}

/// Sleeps until `at`, spinning only through the last 100 µs so the
/// generator leaves the cores to the daemon while it waits.
fn wait_until(at: Instant) {
    let spin = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        let left = at - now;
        if left > spin {
            std::thread::sleep(left - spin);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Largest write the generator coalesces due events into.
const MAX_WRITE: usize = 64 * 1024;

/// Unanswered requests at which a phase gives up sending.
pub const MAX_BACKLOG: usize = 2000;

/// Runs one phase: sends `events` on schedule over `conn`, waits for
/// every reply and classifies them. `embed_lines[i]` is the frozen wire
/// line of `Op::Embed(i)`. `leases[i]` holds arrival `i`'s lease when
/// an earlier phase embedded it; the phase releases and records leases
/// there. `lockstep` sends one event at a time and waits for its reply
/// (for untimed phases).
///
/// When more than [`MAX_BACKLOG`] requests are unanswered the phase
/// stops sending: the daemon has fallen hopelessly behind, and every
/// event not sent counts as failed.
pub fn run(
    conn: &mut Conn,
    events: &[Event],
    embed_lines: &[Vec<u8>],
    leases: &mut [Option<u64>],
    lockstep: bool,
) -> Result<Phase, String> {
    let stats = stats_line()?;
    let bytes_before = conn.wire_bytes();
    let mut phase = Phase::default();
    // Reply index of each arrival's latest embed.
    let mut embed_reply: Vec<Option<usize>> = vec![None; embed_lines.len()];
    // Arrivals whose lease this phase released.
    let mut released: Vec<usize> = Vec::new();
    let mut buf: Vec<u8> = Vec::with_capacity(MAX_WRITE);
    let mut buffered: Vec<SentOp> = Vec::new();
    let start = Instant::now() + Duration::from_millis(1);
    let due_at = |e: &Event| start + Duration::from_nanos(e.due_ns);

    let mut i = 0;
    while i < events.len() {
        let ev = events[i];
        wait_until(due_at(&ev));
        match ev.op {
            Op::Release(arrival) => {
                flush(conn, &mut buf, &mut buffered, &mut phase, start, events, i)?;
                let mut slipped = false;
                let lease = match embed_reply.get(arrival).copied().flatten() {
                    Some(idx) => {
                        if conn.replied() <= idx {
                            slipped = true;
                            if !conn.wait_replies(idx + 1, REPLY_TIMEOUT) {
                                return Err(format!("no reply to the embed of arrival {arrival}"));
                            }
                        }
                        match conn.reply(idx).and_then(|r| r.resp()) {
                            Some(r) if r.status == "accepted" => r.lease,
                            _ => None,
                        }
                    }
                    None => leases.get_mut(arrival).and_then(Option::take),
                };
                if let Some(lease) = lease {
                    released.push(arrival);
                    if conn.replied() < conn.sent() {
                        slipped = true;
                        if !conn.wait_replies(conn.sent(), REPLY_TIMEOUT) {
                            return Err("replies stopped before a release".into());
                        }
                    }
                    buf.extend_from_slice(&release_line(lease)?);
                    buffered.push(SentOp {
                        op: ev.op,
                        due_ns: ev.due_ns,
                        sent_ns: 0,
                        reply: conn.sent() + buffered.len(),
                    });
                }
                if slipped {
                    phase.release_slips += 1;
                }
            }
            Op::Embed(arrival) => {
                let line = embed_lines
                    .get(arrival)
                    .ok_or_else(|| format!("no frozen request {arrival}"))?;
                embed_reply[arrival] = Some(conn.sent() + buffered.len());
                buf.extend_from_slice(line);
                buffered.push(SentOp {
                    op: ev.op,
                    due_ns: ev.due_ns,
                    sent_ns: 0,
                    reply: conn.sent() + buffered.len(),
                });
            }
            Op::Stats => {
                buf.extend_from_slice(&stats);
                buffered.push(SentOp {
                    op: ev.op,
                    due_ns: ev.due_ns,
                    sent_ns: 0,
                    reply: conn.sent() + buffered.len(),
                });
            }
        }
        i += 1;
        let next_due = events.get(i).map(|e| due_at(e) > Instant::now());
        if lockstep || next_due.unwrap_or(true) || buf.len() >= MAX_WRITE {
            flush(conn, &mut buf, &mut buffered, &mut phase, start, events, i)?;
            if conn.sent() - conn.replied() > MAX_BACKLOG {
                break;
            }
        }
        if lockstep && !conn.wait_replies(conn.sent(), REPLY_TIMEOUT) {
            return Err("no reply in a lock-step phase".into());
        }
    }
    flush(conn, &mut buf, &mut buffered, &mut phase, start, events, i)?;
    for ev in &events[i..] {
        phase.unsent += 1;
        if let Op::Embed(_) = ev.op {
            phase.embed_latency_us.push(f64::INFINITY);
        }
    }
    conn.wait_replies(conn.sent(), REPLY_TIMEOUT);
    for op in &phase.ops {
        let reply = conn.reply(op.reply);
        let resp = reply.as_ref().and_then(Reply::resp);
        let class = classify(resp.as_ref());
        if let (Op::Stats, Some(stats)) = (op.op, resp.and_then(|x| x.stats)) {
            phase.polls.push(stats);
        }
        if let Op::Embed(_) = op.op {
            let latency = match (&class, &reply) {
                (Class::Failed(_), _) | (_, None) => f64::INFINITY,
                (_, Some(r)) => late_ns(start + Duration::from_nanos(op.due_ns), r.at) as f64 / 1e3,
            };
            phase.embed_latency_us.push(latency);
        }
        phase.classes.push(class);
    }
    for (op, class) in phase.ops.iter().zip(&phase.classes) {
        if let (Op::Embed(a), Class::Accepted { lease, .. }) = (op.op, class) {
            if let Some(slot) = leases.get_mut(a) {
                *slot = Some(*lease);
            }
        }
    }
    for a in released {
        if let Some(slot) = leases.get_mut(a) {
            *slot = None;
        }
    }
    phase.wire_bytes = conn.wire_bytes() - bytes_before;
    conn.trim();
    Ok(phase)
}

/// Writes the coalesced buffer and stamps its operations.
fn flush(
    conn: &mut Conn,
    buf: &mut Vec<u8>,
    buffered: &mut Vec<SentOp>,
    phase: &mut Phase,
    start: Instant,
    events: &[Event],
    handled: usize,
) -> Result<(), String> {
    if buffered.is_empty() {
        return Ok(());
    }
    let at = conn.send(buf, buffered.len())?;
    let sent_ns = late_ns(start, at);
    let due = events.partition_point(|e| e.due_ns <= sent_ns);
    phase
        .backlog
        .push(backlog(conn.sent(), conn.replied(), due, handled));
    for mut op in buffered.drain(..) {
        op.sent_ns = sent_ns;
        phase.ops.push(op);
    }
    buf.clear();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsfc_core::CostBreakdown;

    fn reply(status: &str, reason: Option<&str>) -> WireResponse {
        WireResponse {
            status: status.into(),
            reason: reason.map(String::from),
            ..WireResponse::default()
        }
    }

    #[test]
    fn typed_rejections_are_outcomes_not_failures() {
        assert_eq!(
            classify(Some(&reply("rejected", Some("infeasible: no path 1 -> 2")))),
            Class::Rejected("infeasible: no path 1 -> 2".into())
        );
        assert_eq!(classify(Some(&reply("ok", None))), Class::Ok);
    }

    #[test]
    fn missing_errors_and_queue_full_are_failures() {
        assert!(matches!(classify(None), Class::Failed(_)));
        assert!(matches!(
            classify(Some(&reply("error", Some("bad request")))),
            Class::Failed(_)
        ));
        assert_eq!(
            classify(Some(&reply("rejected", Some("queue full")))),
            Class::Failed("queue full".into())
        );
        // An accept that lost its lease is a protocol error.
        assert!(matches!(
            classify(Some(&reply("accepted", None))),
            Class::Failed(_)
        ));
    }

    #[test]
    fn accepts_carry_lease_and_cost_bits() {
        let mut r = reply("accepted", None);
        r.lease = Some(9);
        r.cost = Some(CostBreakdown {
            vnf: 1.5,
            link: 0.25,
        });
        assert_eq!(
            classify(Some(&r)),
            Class::Accepted {
                lease: 9,
                cost_bits: 1.75f64.to_bits()
            }
        );
    }

    #[test]
    fn lateness_counts_from_due_time() {
        let due = Instant::now();
        assert_eq!(late_ns(due, due + Duration::from_micros(250)), 250_000);
        assert_eq!(late_ns(due + Duration::from_micros(5), due), 0);
    }

    #[test]
    fn round_trip_counts_from_send_time() {
        let op = |op, due_ns, sent_ns| SentOp {
            op,
            due_ns,
            sent_ns,
            reply: 0,
        };
        let phase = Phase {
            ops: vec![
                op(Op::Embed(0), 0, 0),
                op(Op::Stats, 0, 0),
                op(Op::Release(0), 1_000, 40_000),
                op(Op::Embed(1), 2_000, 40_000),
                op(Op::Embed(2), 3_000, 41_000),
            ],
            embed_latency_us: vec![3.0, 45.0, f64::INFINITY],
            ..Phase::default()
        };
        // Sent 38 µs after it was due and answered 45 µs after it was
        // due: a 7 µs round trip. A failed embed stays infinite.
        assert_eq!(phase.embed_round_trip_us(), vec![3.0, 7.0, f64::INFINITY]);
    }

    #[test]
    fn backlog_adds_unanswered_and_unsent() {
        assert_eq!(backlog(10, 7, 12, 10), 5);
        assert_eq!(backlog(10, 10, 10, 10), 0);
    }

    #[test]
    fn backlog_growth_separates_steady_from_growing() {
        let steady = [0, 1, 0, 1, 0, 1, 1, 0, 1];
        assert!(backlog_growth(&steady).abs() <= 1.0);
        let stall = [0, 1, 0, 1, 0, 1, 1, 0, 1, 900, 1, 0];
        assert!(backlog_growth(&stall).abs() <= 1.0);
        let growing: Vec<u64> = (0..90).collect();
        assert!(backlog_growth(&growing) > 50.0);
        assert_eq!(backlog_growth(&[5, 5]), 0.0);
    }
}
