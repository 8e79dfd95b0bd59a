//! Aggregate trace statistics beyond the per-branch profile.
//!
//! These quantify the properties the workload generator must reproduce
//! for the analysis to be meaningful: how densely branches occur in the
//! instruction stream, how re-executions of a branch are spaced (the
//! temporal locality the working-set analysis feeds on), and how taken
//! rates distribute across branches (what classification can harvest).

use crate::{BranchId, Trace};

/// Distribution summary of a set of `u64` samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistSummary {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (lower median for even counts).
    pub median: u64,
}

impl DistSummary {
    /// Summarises samples; returns `None` for an empty slice.
    ///
    /// The input order does not matter (the slice is copied and sorted).
    pub fn of(samples: &[u64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let count = sorted.len() as u64;
        let sum: u128 = sorted.iter().map(|&s| u128::from(s)).sum();
        Some(DistSummary {
            count,
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            mean: sum as f64 / count as f64,
            median: sorted[(sorted.len() - 1) / 2],
        })
    }
}

/// Whole-trace statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Dynamic conditional branches per instruction (0 when the total
    /// instruction count is unknown).
    pub branch_density: f64,
    /// Distribution of instruction-count gaps between consecutive dynamic
    /// executions of the *same* static branch.
    pub reexecution_distance: Option<DistSummary>,
    /// Fraction of dynamic branches resolved taken.
    pub dynamic_taken_rate: f64,
    /// Static branches per taken-rate decile (`histogram[d]` counts
    /// branches with taken rate in `[d/10, (d+1)/10)`; rate 1.0 lands in
    /// the last bucket).
    pub taken_rate_deciles: [usize; 10],
}

/// Computes [`TraceStats`] in two passes over the trace.
///
/// # Example
///
/// ```
/// use bwsa_trace::{stats::trace_stats, TraceBuilder};
///
/// let mut b = TraceBuilder::new("s");
/// for i in 0..100u64 {
///     b.record(0x40, i % 2 == 0, (i + 1) * 5);
/// }
/// let s = trace_stats(&b.finish());
/// assert_eq!(s.dynamic_taken_rate, 0.5);
/// assert_eq!(s.reexecution_distance.unwrap().median, 5);
/// ```
pub fn trace_stats(trace: &Trace) -> TraceStats {
    let total_instr = trace.meta().total_instructions;
    let branch_density = if total_instr == 0 {
        0.0
    } else {
        trace.len() as f64 / total_instr as f64
    };

    let mut last: Vec<Option<u64>> = vec![None; trace.static_branch_count()];
    let mut gaps = Vec::new();
    let mut taken = 0u64;
    for (id, rec) in trace.indexed_records() {
        let t = rec.time.get();
        if let Some(prev) = last[id.index()] {
            gaps.push(t - prev);
        }
        last[id.index()] = Some(t);
        taken += rec.is_taken() as u64;
    }

    let profile = crate::profile::BranchProfile::from_trace(trace);
    let mut deciles = [0usize; 10];
    for i in 0..trace.static_branch_count() {
        let rate = profile.stats(BranchId::new(i as u32)).taken_rate();
        let bucket = ((rate * 10.0) as usize).min(9);
        deciles[bucket] += 1;
    }

    TraceStats {
        branch_density,
        reexecution_distance: DistSummary::of(&gaps),
        dynamic_taken_rate: if trace.is_empty() {
            0.0
        } else {
            taken as f64 / trace.len() as f64
        },
        taken_rate_deciles: deciles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuilder;

    #[test]
    fn dist_summary_basics() {
        let s = DistSummary::of(&[5, 1, 3]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 5);
        assert_eq!(s.median, 3);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!(DistSummary::of(&[]).is_none());
    }

    #[test]
    fn dist_summary_even_count_uses_lower_median() {
        let s = DistSummary::of(&[1, 2, 3, 4]).unwrap();
        assert_eq!(s.median, 2);
    }

    #[test]
    fn density_uses_total_instructions() {
        let mut b = TraceBuilder::new("d");
        b.record(0x40, true, 10).record(0x44, true, 20);
        b.total_instructions(100);
        let s = trace_stats(&b.finish());
        assert!((s.branch_density - 0.02).abs() < 1e-12);
    }

    #[test]
    fn reexecution_gaps_are_per_branch() {
        let mut b = TraceBuilder::new("g");
        // Branch A at 10, 30; branch B at 20, 60.
        b.record(0x40, true, 10)
            .record(0x44, true, 20)
            .record(0x40, true, 30)
            .record(0x44, true, 60);
        let s = trace_stats(&b.finish());
        let d = s.reexecution_distance.unwrap();
        assert_eq!(d.count, 2);
        assert_eq!(d.min, 20);
        assert_eq!(d.max, 40);
    }

    #[test]
    fn taken_rate_deciles_cover_all_branches() {
        let mut b = TraceBuilder::new("h");
        let mut t = 0;
        for i in 0..10u64 {
            for (pc, taken) in [(0x40, true), (0x44, false), (0x48, i < 5)] {
                t += 1;
                b.record(pc, taken, t);
            }
        }
        let s = trace_stats(&b.finish());
        assert_eq!(s.taken_rate_deciles.iter().sum::<usize>(), 3);
        assert_eq!(s.taken_rate_deciles[9], 1, "always-taken in the top decile");
        assert_eq!(
            s.taken_rate_deciles[0], 1,
            "never-taken in the bottom decile"
        );
        assert_eq!(s.taken_rate_deciles[5], 1, "50% in the middle");
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let s = trace_stats(&crate::Trace::new("e"));
        assert_eq!(s.branch_density, 0.0);
        assert_eq!(s.dynamic_taken_rate, 0.0);
        assert!(s.reexecution_distance.is_none());
    }
}
