//! Sample summaries: the median, the highest percentile the sample
//! supports, and the sample count.

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest tail percentile ever reported, even for huge samples.
pub const TAIL_CAP: u32 = 99;

/// A timing (or any sample set) as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The tail percentile reported in `tail`.
    pub tail_pct: u32,
    /// Value at `tail_pct` (nearest rank).
    pub tail: f64,
}

/// The highest whole percentile, capped at [`TAIL_CAP`], that leaves at
/// least [`TAIL_BEYOND`] of `n` samples strictly above its nearest-rank
/// position: 500 samples give p98, 1,000 give p99. Below 20 samples not
/// even the median qualifies, so the median is reported.
pub fn tail_percentile(n: usize) -> u32 {
    (50..=TAIL_CAP).rev().find(|&q| n > 0 && n - rank(n, q) > TAIL_BEYOND).unwrap_or(50)
}

/// Zero-based nearest-rank index of percentile `q` in `n` sorted samples.
fn rank(n: usize, q: u32) -> usize {
    let r = (q as usize * n).div_ceil(100);
    r.clamp(1, n) - 1
}

/// Summarise `samples` (any order). `None` for an empty set.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_pct = tail_percentile(n);
    Some(Summary { n, p50: sorted[rank(n, 50)], tail_pct, tail: sorted[rank(n, tail_pct)] })
}

/// Latency over several windows of samples (one capture pass, one
/// block of scrapes): each window is summarised on its own and the
/// run reports the median of the windows' medians and of their tails,
/// so one disturbed window moves neither figure. `n` counts every
/// sample; `tail_pct` is the smallest tail percentile any window used.
pub fn summarize_windows(windows: &[Vec<f64>]) -> Option<Summary> {
    let per: Vec<Summary> = windows.iter().filter_map(|w| summarize(w)).collect();
    if per.is_empty() {
        return None;
    }
    let p50s: Vec<f64> = per.iter().map(|s| s.p50).collect();
    let tails: Vec<f64> = per.iter().map(|s| s.tail).collect();
    Some(Summary {
        n: per.iter().map(|s| s.n).sum(),
        p50: median(&p50s),
        tail_pct: per.iter().map(|s| s.tail_pct).min().unwrap_or(50),
        tail: median(&tails),
    })
}

/// `samples` cut into whole windows of `size`, in order; the remainder
/// is dropped. Fewer than `size` samples make one window of them all.
pub fn windows(samples: &[f64], size: usize) -> Vec<Vec<f64>> {
    if samples.len() < size {
        vec![samples.to_vec()]
    } else {
        samples.chunks_exact(size).map(<[f64]>::to_vec).collect()
    }
}

/// Median of `samples`, or 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(n: usize, q: u32) -> usize {
        n - rank(n, q) - 1
    }

    #[test]
    fn five_hundred_samples_give_p98_not_p99() {
        assert_eq!(tail_percentile(500), 98);
        assert_eq!(beyond(500, 98), 10);
        assert!(beyond(500, 99) < TAIL_BEYOND);
    }

    #[test]
    fn a_thousand_samples_give_p99_and_the_cap_holds() {
        assert_eq!(tail_percentile(1_000), 99);
        assert_eq!(tail_percentile(1_000_000), TAIL_CAP);
    }

    #[test]
    fn every_reported_tail_leaves_ten_samples_beyond() {
        for n in 20..3_000 {
            let q = tail_percentile(n);
            assert!(beyond(n, q) >= TAIL_BEYOND, "n={n} q={q}");
            if q < TAIL_CAP {
                assert!(beyond(n, q + 1) < TAIL_BEYOND, "n={n}: p{} also qualifies", q + 1);
            }
        }
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        assert_eq!(tail_percentile(1), 50);
        assert_eq!(tail_percentile(19), 50);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(33), 69);
    }

    #[test]
    fn summary_reads_nearest_ranks() {
        let samples: Vec<f64> = (1..=500).rev().map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (500, 250.0, 98, 490.0));
        assert_eq!(summarize(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn one_disturbed_window_moves_neither_figure() {
        let calm: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let stormy: Vec<f64> = calm.iter().map(|v| v * 10.0).collect();
        let s = summarize_windows(&[calm.clone(), stormy, calm.clone()]).unwrap();
        let one = summarize(&calm).unwrap();
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (3_000, one.p50, 99, one.tail));
        assert_eq!(summarize_windows(&[Vec::new()]), None);
    }

    #[test]
    fn windows_are_whole_or_one() {
        let s: Vec<f64> = (0..5).map(f64::from).collect();
        assert_eq!(windows(&s, 2), vec![vec![0.0, 1.0], vec![2.0, 3.0]]);
        assert_eq!(windows(&s, 9), vec![s.clone()]);
    }
}
