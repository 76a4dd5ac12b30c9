//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by ±15% or more
//! over minutes: the same sweep pass on the same inputs, back to back,
//! reads that far apart, in CPU time as much as in wall time. A fixed
//! reference kernel, timed between the measured parts of a run, drifts
//! with it. Every end-to-end time is therefore reported at a nominal
//! host speed: the measured time scaled by [`NOMINAL_MS`] over the
//! reference kernel's time around it. The kernel is this file's own
//! code, so no change to the repository's crates can move it; a program
//! that gets 20% slower reads 20% slower.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Nodes of the reference graph.
const NODES: usize = 20_000;
/// Out-arcs per node.
const DEGREE: usize = 6;
/// Shortest-path trees one kernel run builds.
const SOURCES: usize = 10;
/// The reference kernel's time (ms) at the nominal host speed: its
/// typical time on the 2-vCPU VM the benchmark was defined on.
pub const NOMINAL_MS: f64 = 50.0;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The reference kernel and the times it took in this run.
pub struct Reference {
    graph: Vec<Vec<(u32, u32)>>,
    /// Every measured kernel time (ms), in order.
    pub samples_ms: Vec<f64>,
}

impl Reference {
    /// Builds the fixed reference graph and runs the kernel once, untimed,
    /// to warm it.
    pub fn new() -> Reference {
        let mut seed = 0x2545_F491_4F6C_DD1D;
        let graph = (0..NODES)
            .map(|_| {
                (0..DEGREE)
                    .map(|_| {
                        let to = (xorshift(&mut seed) % NODES as u64) as u32;
                        let w = (xorshift(&mut seed) % 1000) as u32;
                        (to, w)
                    })
                    .collect()
            })
            .collect();
        let r = Reference {
            graph,
            samples_ms: Vec::new(),
        };
        std::hint::black_box(r.kernel());
        r
    }

    /// Dijkstra from [`SOURCES`] fixed sources; the sum of all finite
    /// distances.
    fn kernel(&self) -> u64 {
        let mut dist = vec![u64::MAX; NODES];
        let mut heap = BinaryHeap::new();
        let mut total = 0u64;
        for src in 0..SOURCES {
            dist.fill(u64::MAX);
            dist[src] = 0;
            heap.push(Reverse((0u64, src as u32)));
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > dist[u as usize] {
                    continue;
                }
                for &(v, w) in &self.graph[u as usize] {
                    let nd = d + u64::from(w);
                    if nd < dist[v as usize] {
                        dist[v as usize] = nd;
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
            total = dist
                .iter()
                .filter(|&&d| d != u64::MAX)
                .fold(total, |t, &d| t.wrapping_add(d));
        }
        total
    }

    /// Runs the kernel on `threads` threads at once (as many as the
    /// measured part uses); records and returns the wall time in ms.
    pub fn measure(&mut self, threads: usize) -> f64 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 1..threads.max(1) {
                s.spawn(|| std::hint::black_box(self.kernel()));
            }
            std::hint::black_box(self.kernel());
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        ms
    }

    /// Times `work` between two kernel runs on `threads` threads; returns
    /// its result, its raw wall time in seconds and the mean of the two
    /// kernel times.
    pub fn bracket<T>(&mut self, threads: usize, work: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.measure(threads);
        let t0 = Instant::now();
        let out = work();
        let secs = t0.elapsed().as_secs_f64();
        let after = self.measure(threads);
        (out, secs, (before + after) / 2.0)
    }
}

/// A time measured while the kernel took `ref_ms`, at the nominal host
/// speed.
pub fn at_nominal(time: f64, ref_ms: f64) -> f64 {
    time * NOMINAL_MS / ref_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_fixed_work() {
        let r = Reference::new();
        assert_eq!(r.kernel(), r.kernel());
        assert_eq!(Reference::new().kernel(), r.kernel());
        assert_ne!(r.kernel(), 0);
    }

    #[test]
    fn times_scale_to_the_nominal_speed() {
        // A host running the kernel twice as slowly halves its times.
        assert_eq!(at_nominal(10.0, 2.0 * NOMINAL_MS), 5.0);
        assert_eq!(at_nominal(10.0, NOMINAL_MS), 10.0);
        // Scaling a time and a rate of the same work cancels out.
        let (t, r) = (4.0, 73.0);
        assert!((at_nominal(t, r) * (1.0 / t) * r / NOMINAL_MS - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measure_records_every_sample() {
        let mut r = Reference::new();
        let a = r.measure(1);
        let (v, secs, mean) = r.bracket(2, || 7);
        assert_eq!(v, 7);
        assert!(a > 0.0 && secs >= 0.0 && mean > 0.0);
        assert_eq!(r.samples_ms.len(), 3);
    }
}
