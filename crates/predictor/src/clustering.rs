//! Misprediction clustering analysis.
//!
//! The paper's future-work section asks: *"Are the clustered branch
//! mispredictions found in recent work on dynamic prediction caused by
//! changes in working set?"* This module supplies the misprediction side
//! of that question: per-record misprediction flags and burstiness
//! statistics (run lengths and the Fano factor of misses per window).
//! `bwsa-core`'s phase timeline supplies the working-set side; the
//! `future_work` bench binary correlates the two.

use crate::BranchPredictor;
use bwsa_trace::Trace;

/// Simulates a predictor and returns one flag per dynamic branch:
/// `true` where the prediction was wrong.
pub fn misprediction_flags<P: BranchPredictor + ?Sized>(
    predictor: &mut P,
    trace: &Trace,
) -> Vec<bool> {
    trace
        .indexed_records()
        .map(|(id, rec)| {
            let wrong = predictor.predict(rec.pc, id) != rec.direction;
            predictor.update(rec.pc, id, rec.direction);
            wrong
        })
        .collect()
}

/// Burstiness statistics of a misprediction flag stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteringStats {
    /// Dynamic branches observed.
    pub total: usize,
    /// Mispredicted branches.
    pub mispredictions: usize,
    /// Number of maximal runs of consecutive mispredictions.
    pub runs: usize,
    /// Mean misprediction-run length.
    pub mean_run_length: f64,
    /// Longest misprediction run.
    pub max_run_length: usize,
    /// Window size used for the Fano factor.
    pub window: usize,
    /// Fano factor (variance / mean) of misprediction counts per window:
    /// ≈1 for a memoryless miss process, >1 when misses cluster.
    pub fano_factor: f64,
}

/// Computes [`ClusteringStats`] over fixed windows of `window` dynamic
/// branches (the trailing partial window is dropped).
///
/// # Panics
///
/// Panics if `window` is zero.
///
/// # Example
///
/// ```
/// use bwsa_predictor::clustering::clustering_stats;
///
/// // Misses arrive in one dense burst: strongly clustered.
/// let mut flags = vec![false; 1000];
/// for f in &mut flags[400..440] {
///     *f = true;
/// }
/// let s = clustering_stats(&flags, 100);
/// assert!(s.fano_factor > 1.0);
/// assert_eq!(s.max_run_length, 40);
/// ```
pub fn clustering_stats(flags: &[bool], window: usize) -> ClusteringStats {
    assert!(window > 0, "window must be positive");
    let total = flags.len();
    let mispredictions = flags.iter().filter(|&&f| f).count();

    // Run-length statistics.
    let mut runs = 0usize;
    let mut max_run = 0usize;
    let mut current = 0usize;
    for &f in flags {
        if f {
            current += 1;
            max_run = max_run.max(current);
        } else {
            if current > 0 {
                runs += 1;
            }
            current = 0;
        }
    }
    if current > 0 {
        runs += 1;
    }
    let mean_run_length = if runs == 0 {
        0.0
    } else {
        mispredictions as f64 / runs as f64
    };

    // Fano factor over complete windows.
    let counts: Vec<f64> = flags
        .chunks_exact(window)
        .map(|w| w.iter().filter(|&&f| f).count() as f64)
        .collect();
    let fano_factor = if counts.is_empty() {
        0.0
    } else {
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            let var =
                counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / counts.len() as f64;
            var / mean
        }
    };

    ClusteringStats {
        total,
        mispredictions,
        runs,
        mean_run_length,
        max_run_length: max_run,
        window,
        fano_factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StaticPredictor;
    use bwsa_trace::TraceBuilder;

    #[test]
    fn flags_match_simulation_counts() {
        let mut b = TraceBuilder::new("f");
        for i in 0..50u64 {
            b.record(0x40, i % 5 == 0, i + 1);
        }
        let trace = b.finish();
        let flags = misprediction_flags(&mut StaticPredictor::always_taken(), &trace);
        let expected = crate::simulate(&mut StaticPredictor::always_taken(), &trace);
        assert_eq!(
            flags.iter().filter(|&&f| f).count() as u64,
            expected.mispredictions
        );
        assert_eq!(flags.len() as u64, expected.total);
    }

    #[test]
    fn run_statistics() {
        // T F T T F F T (misses marked T)
        let flags = [true, false, true, true, false, false, true];
        let s = clustering_stats(&flags, 7);
        assert_eq!(s.mispredictions, 4);
        assert_eq!(s.runs, 3);
        assert_eq!(s.max_run_length, 2);
        assert!((s.mean_run_length - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_misses_have_low_fano() {
        // Exactly one miss per window: zero variance.
        let flags: Vec<bool> = (0..1000).map(|i| i % 100 == 0).collect();
        let s = clustering_stats(&flags, 100);
        assert_eq!(s.fano_factor, 0.0);
    }

    #[test]
    fn bursty_misses_have_high_fano() {
        let mut flags = vec![false; 1000];
        for f in &mut flags[0..50] {
            *f = true;
        }
        let s = clustering_stats(&flags, 100);
        assert!(s.fano_factor > 5.0, "fano {}", s.fano_factor);
    }

    #[test]
    fn no_misses_is_all_zero() {
        let s = clustering_stats(&[false; 64], 8);
        assert_eq!(s.mispredictions, 0);
        assert_eq!(s.runs, 0);
        assert_eq!(s.mean_run_length, 0.0);
        assert_eq!(s.fano_factor, 0.0);
    }

    #[test]
    fn trailing_run_is_counted() {
        let s = clustering_stats(&[false, true, true], 3);
        assert_eq!(s.runs, 1);
        assert_eq!(s.max_run_length, 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        clustering_stats(&[true], 0);
    }
}
