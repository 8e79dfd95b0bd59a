//! Working sets over time: a windowed phase timeline.
//!
//! The main analysis (§4) aggregates interleaving over the whole run. This
//! module resolves the same notion *in time*: the trace is cut into
//! fixed-size windows of dynamic branches, each window's instantaneous
//! working set is the set of distinct static branches it executes, and a
//! **phase transition** is a window whose set departs sharply from its
//! predecessor's (low Jaccard similarity).
//!
//! This implements the measurement apparatus for the paper's closing
//! question — *"Are the clustered branch mispredictions ... caused by
//! changes in working set?"* — which the `future_work` bench binary
//! answers by correlating these transitions with
//! [`bwsa_predictor::clustering`] burst statistics.

use bwsa_trace::Trace;
use std::collections::HashSet;

/// Statistics of one timeline window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Index of the window's first dynamic branch in the trace.
    pub start_index: usize,
    /// Instruction-count timestamp of the window's first branch.
    pub start_time: u64,
    /// Distinct static branches executed in the window — the
    /// instantaneous working-set size.
    pub distinct_branches: usize,
    /// Branches in this window absent from the previous window.
    pub entered: usize,
    /// Jaccard similarity with the previous window's branch set (1.0 for
    /// the first window).
    pub jaccard_with_prev: f64,
}

/// A windowed working-set timeline of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTimeline {
    /// Per-window statistics, in time order.
    pub windows: Vec<WindowStats>,
    /// Dynamic branches per window.
    pub window: usize,
}

impl PhaseTimeline {
    /// Cuts `trace` into windows of `window` dynamic branches (the
    /// trailing partial window is dropped) and computes each window's
    /// working-set statistics.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    ///
    /// # Example
    ///
    /// ```
    /// use bwsa_core::phases::PhaseTimeline;
    /// use bwsa_trace::TraceBuilder;
    ///
    /// // 100 executions of branch set {A,B}, then 100 of {C,D}.
    /// let mut b = TraceBuilder::new("p");
    /// for i in 0..100u64 {
    ///     b.record(0x100 + (i % 2) * 4, true, i + 1);
    /// }
    /// for i in 100..200u64 {
    ///     b.record(0x200 + (i % 2) * 4, true, i + 1);
    /// }
    /// let timeline = PhaseTimeline::of_trace(&b.finish(), 50);
    /// assert_eq!(timeline.transitions(0.5), vec![2], "sets swap at window 2");
    /// ```
    pub fn of_trace(trace: &Trace, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        let ids = trace.record_ids();
        let records = trace.records();
        let mut windows = Vec::with_capacity(ids.len() / window);
        let mut prev: HashSet<u32> = HashSet::new();
        let mut start = 0usize;
        while start + window <= ids.len() {
            let set: HashSet<u32> = ids[start..start + window]
                .iter()
                .map(|id| id.as_u32())
                .collect();
            let inter = set.intersection(&prev).count();
            let union = set.len() + prev.len() - inter;
            let jaccard = if start == 0 || union == 0 {
                1.0
            } else {
                inter as f64 / union as f64
            };
            windows.push(WindowStats {
                start_index: start,
                start_time: records[start].time.get(),
                distinct_branches: set.len(),
                entered: set.len() - inter,
                jaccard_with_prev: jaccard,
            });
            prev = set;
            start += window;
        }
        PhaseTimeline { windows, window }
    }

    /// Indices of windows whose Jaccard similarity with their predecessor
    /// falls below `threshold` — the phase transitions.
    pub fn transitions(&self, threshold: f64) -> Vec<usize> {
        self.windows
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, w)| w.jaccard_with_prev < threshold)
            .map(|(i, _)| i)
            .collect()
    }

    /// Mean instantaneous working-set size across windows.
    pub fn mean_working_set_size(&self) -> f64 {
        if self.windows.is_empty() {
            0.0
        } else {
            self.windows
                .iter()
                .map(|w| w.distinct_branches as f64)
                .sum::<f64>()
                / self.windows.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwsa_trace::TraceBuilder;

    /// `phases` blocks of `len` executions; block `p` uses branch set
    /// `{base_p + 0..k}`.
    fn phased(phases: usize, len: u64, k: u64) -> Trace {
        let mut b = TraceBuilder::new("p");
        let mut t = 0;
        for p in 0..phases as u64 {
            for i in 0..len {
                t += 1;
                b.record(0x1000 * (p + 1) + (i % k) * 4, true, t);
            }
        }
        b.finish()
    }

    #[test]
    fn stable_phase_has_high_similarity() {
        let trace = phased(1, 400, 4);
        let tl = PhaseTimeline::of_trace(&trace, 100);
        assert_eq!(tl.windows.len(), 4);
        for w in &tl.windows {
            assert_eq!(w.distinct_branches, 4);
            assert_eq!(w.jaccard_with_prev, 1.0);
        }
        assert!(tl.transitions(0.5).is_empty());
        assert_eq!(tl.mean_working_set_size(), 4.0);
    }

    #[test]
    fn phase_changes_are_detected_at_boundaries() {
        let trace = phased(3, 200, 4);
        let tl = PhaseTimeline::of_trace(&trace, 100);
        assert_eq!(tl.transitions(0.5), vec![2, 4]);
    }

    #[test]
    fn entered_counts_new_branches() {
        let trace = phased(2, 100, 4);
        let tl = PhaseTimeline::of_trace(&trace, 100);
        assert_eq!(tl.windows[0].entered, 4, "first window enters everything");
        assert_eq!(tl.windows[1].entered, 4, "full swap");
        assert_eq!(tl.windows[1].jaccard_with_prev, 0.0);
    }

    #[test]
    fn partial_trailing_window_is_dropped() {
        let trace = phased(1, 250, 2);
        let tl = PhaseTimeline::of_trace(&trace, 100);
        assert_eq!(tl.windows.len(), 2);
    }

    #[test]
    fn start_metadata_is_correct() {
        let trace = phased(1, 200, 2);
        let tl = PhaseTimeline::of_trace(&trace, 100);
        assert_eq!(tl.windows[0].start_index, 0);
        assert_eq!(tl.windows[1].start_index, 100);
        assert_eq!(tl.windows[1].start_time, 101);
    }

    #[test]
    fn empty_trace_yields_no_windows() {
        let tl = PhaseTimeline::of_trace(&Trace::new("e"), 10);
        assert!(tl.windows.is_empty());
        assert_eq!(tl.mean_working_set_size(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        PhaseTimeline::of_trace(&Trace::new("e"), 0);
    }
}
