//! Order statistics for timing samples.
//!
//! Every timing is reported as a median plus the *tail*: the highest
//! percentile (capped at p99) that still has at least [`MIN_TAIL`]
//! samples beyond it. Where no percentile above the median has that
//! many (fewer than 21 samples), the tail is the maximum.

/// Samples a reported tail percentile must leave beyond it.
pub const MIN_TAIL: usize = 10;

/// The percentile the tail is reported at when samples allow it.
pub const TAIL_CAP_PERCENT: usize = 99;

/// The nearest rank (1-based) of the tail among `n` ascending samples:
/// the p99 rank, or the highest rank leaving [`MIN_TAIL`] samples
/// beyond it when that is lower; `None` when no rank above the median
/// leaves that many (fewer than 21 samples). Integer arithmetic, so
/// exactly `MIN_TAIL` samples are never miscounted.
pub fn tail_rank(n: usize) -> Option<usize> {
    if n <= 2 * MIN_TAIL {
        return None;
    }
    let p99 = (n * TAIL_CAP_PERCENT).div_ceil(100);
    Some(p99.min(n - MIN_TAIL))
}

/// Nearest-rank percentile `p` (in percent) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and tail of one sample, with the percentile the tail sits at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Percentile the tail was taken at (100 = the maximum).
    pub tail_p: f64,
    /// The tail value.
    pub tail: f64,
}

/// Summarises `samples` (any order; infinities sort last).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = tail_rank(n).unwrap_or(n);
    Summary {
        n,
        p50: percentile(&sorted, 50.0),
        tail_p: 100.0 * rank as f64 / n.max(1) as f64,
        tail: sorted.get(rank.wrapping_sub(1)).copied().unwrap_or(0.0),
    }
}

/// Samples per block of [`summarize_blocks`].
pub const BLOCK: usize = 1000;

/// Like [`summarize`], but with at least two blocks of [`BLOCK`]
/// consecutive samples the tail is the median over blocks of each
/// block's tail: a typical p99 that one host stall, which lands in one
/// block, cannot decide. `samples` must be in time order.
pub fn summarize_blocks(samples: &[f64]) -> Summary {
    let whole = summarize(samples);
    if samples.len() < 2 * BLOCK {
        return whole;
    }
    let tails: Vec<f64> = samples
        .chunks_exact(BLOCK)
        .map(|block| summarize(block).tail)
        .collect();
    Summary {
        tail: median(&tails),
        tail_p: summarize(&samples[..BLOCK]).tail_p,
        ..whole
    }
}

/// Nearest-rank median of `samples` (0 for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    peak_rss_mb_of("/proc/self/status")
}

/// `VmHWM` in MiB from a `/proc/<pid>/status` file.
pub fn peak_rss_mb_of(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_rank(10), None);
        assert_eq!(tail_rank(20), None);
        assert_eq!(tail_rank(21), Some(11));
        assert_eq!(tail_rank(100), Some(90));
        assert_eq!(tail_rank(1000), Some(990));
        assert_eq!(tail_rank(5000), Some(4950));
        for n in 21..5000 {
            let rank = tail_rank(n).unwrap_or(0);
            assert!(n - rank >= MIN_TAIL, "n={n} leaves {}", n - rank);
            let p99 = (99 * n).div_ceil(100);
            assert!(
                rank == p99 || n - rank == MIN_TAIL,
                "n={n}: rank {rank} is not the highest"
            );
        }
    }

    #[test]
    fn summary_uses_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_p, 99.0);
        assert_eq!(s.tail, 990.0);
    }

    #[test]
    fn block_tail_ignores_one_stalled_block() {
        let mut xs: Vec<f64> = (0..5000).map(|i| f64::from(i % 100)).collect();
        let steady = summarize_blocks(&xs);
        assert_eq!(steady.tail, 98.0);
        assert_eq!(steady.tail_p, 99.0);
        // A stall that slows 3% of the run, all inside one block.
        for x in &mut xs[1000..1150] {
            *x = 1e6;
        }
        assert_eq!(summarize(&xs).tail, 1e6);
        assert_eq!(summarize_blocks(&xs).tail, 98.0);
        // Too few samples for two blocks: the plain tail.
        assert_eq!(summarize_blocks(&xs[..1500]), summarize(&xs[..1500]));
    }

    #[test]
    fn small_samples_report_the_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(s.tail_p, 100.0);
        assert_eq!(s.tail, 3.0);
        assert_eq!(s.p50, 2.0);
    }

    #[test]
    fn failures_count_as_missing_the_tail() {
        let mut xs: Vec<f64> = vec![1.0; 990];
        xs.extend(std::iter::repeat_n(f64::INFINITY, 10));
        assert_eq!(summarize(&xs).tail, 1.0);
        xs.push(f64::INFINITY);
        assert!(summarize(&xs).tail.is_infinite());
    }
}
