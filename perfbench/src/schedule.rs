//! Frozen open-loop schedules: every wire event with the time it is due.
//!
//! A schedule is a pure function of its inputs (the frozen trace and
//! the offered rate), so the same seed always offers the daemon the
//! same events in the same order.

use dagsfc_sim::lifecycle::to_fixed;
use dagsfc_sim::DepartureQueue;
use std::ops::Range;

/// What one scheduled event puts on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Embed arrival `i` of the frozen request list.
    Embed(usize),
    /// Release the lease of arrival `i` (skipped when it was rejected).
    Release(usize),
    /// A `stats` poll.
    Stats,
}

/// One event and its due time in nanoseconds from the phase start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Due time, ns after the phase starts.
    pub due_ns: u64,
    /// The operation.
    pub op: Op,
}

/// The churn schedule of arrivals `range` of a lifecycle trace, one
/// arrival every `interval_ns`, due times counted from `range.start`.
///
/// Departures are placed exactly where `sim::lifecycle::run_trace`
/// fires them: before arrival `i`, every departure with trace time
/// `<= i`, ties by arrival index. Departures that fire before
/// `range.start` belong to the earlier range and are left out. Every
/// arrival gets its release event because acceptance is only known at
/// run time; a rejected arrival's release is skipped on the wire.
/// Departures still pending after the last arrival are not scheduled:
/// the caller drains them untimed.
///
/// With `polls`, a `stats` poll rides with every arrival, as a client
/// that watches the queue with each request would send it. The daemon's
/// Nagle stalls (see the README) then hit requests uniformly instead of
/// at the chance meetings of releases and embeds, which made the tail
/// flip between two values from run to run.
pub fn churn(depart_at: &[u64], range: Range<usize>, interval_ns: f64, polls: bool) -> Vec<Event> {
    let mut departures = DepartureQueue::new();
    let mut events = Vec::with_capacity(range.len() * 3);
    let origin = range.start as f64;
    let at = |fixed: u64| ((fixed as f64 / 1e6 - origin).max(0.0) * interval_ns) as u64;
    for arrival in 0..range.end {
        let now = to_fixed(arrival as f64);
        while let Some(id) = departures.pop_due(now) {
            if arrival >= range.start {
                events.push(Event {
                    due_ns: at(depart_at[id]),
                    op: Op::Release(id),
                });
            }
        }
        if arrival >= range.start {
            events.push(Event {
                due_ns: at(now),
                op: Op::Embed(arrival),
            });
            if polls {
                events.push(Event {
                    due_ns: at(now),
                    op: Op::Stats,
                });
            }
        }
        departures.schedule(depart_at[arrival], arrival);
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsfc_sim::lifecycle::{export_trace, LifecycleConfig};
    use dagsfc_sim::{Algo, SimConfig};

    /// Arrival indices still holding a lease after the first `arrivals`
    /// arrivals, in the order `run_trace`'s final drain releases them.
    fn drain_order(depart_at: &[u64], arrivals: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..arrivals).collect();
        order.sort_by_key(|&i| (depart_at[i], i));
        let last = to_fixed(arrivals.saturating_sub(1) as f64);
        order.retain(|&i| depart_at[i] > last);
        order
    }

    fn trace(seed: u64) -> Vec<u64> {
        export_trace(&LifecycleConfig {
            base: SimConfig {
                network_size: 20,
                seed,
                ..SimConfig::default()
            },
            arrivals: 200,
            mean_holding: 12.0,
            algo: Algo::Mbbe,
        })
        .depart_at
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = churn(&trace(7), 0..200, 1e6, true);
        let b = churn(&trace(7), 0..200, 1e6, true);
        assert_eq!(a, b);
        let c = churn(&trace(8), 0..200, 1e6, true);
        assert_ne!(a, c, "another seed draws other holding times");
    }

    #[test]
    fn events_are_due_in_order_and_complete() {
        let depart = trace(3);
        let events = churn(&depart, 0..200, 2e6, true);
        assert!(events.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let embeds: Vec<usize> = events
            .iter()
            .filter_map(|e| match e.op {
                Op::Embed(i) => Some(i),
                _ => None,
            })
            .collect();
        assert_eq!(embeds, (0..200).collect::<Vec<_>>());
        // Every release follows its own embed, and every arrival is
        // either released in the schedule or drained after it.
        let mut released: Vec<usize> = Vec::new();
        for (pos, e) in events.iter().enumerate() {
            if let Op::Release(i) = e.op {
                let embed_pos = events.iter().position(|x| x.op == Op::Embed(i));
                assert!(embed_pos.is_some_and(|p| p < pos));
                released.push(i);
            }
        }
        released.extend(drain_order(&depart, 200));
        released.sort_unstable();
        assert_eq!(released, (0..200).collect::<Vec<_>>());
        let polls = events.iter().filter(|e| e.op == Op::Stats).count();
        assert_eq!(polls, 200, "one poll rides with every arrival");
    }

    #[test]
    fn ranges_split_one_schedule() {
        let depart = trace(5);
        let whole = churn(&depart, 0..200, 1e6, false);
        let mut parts = churn(&depart, 0..120, 1e6, false);
        parts.extend(churn(&depart, 120..200, 1e6, false));
        let ops = |v: &[Event]| v.iter().map(|e| e.op).collect::<Vec<_>>();
        assert_eq!(ops(&whole), ops(&parts));
        let tail = churn(&depart, 120..200, 1e6, false);
        let first_embed = tail.iter().find(|e| e.op == Op::Embed(120));
        assert_eq!(first_embed.map(|e| e.due_ns), Some(0));
    }
}
