//! Property tests pinning the flat hot-path engine to its independent
//! oracle: for arbitrary monotone-timestamp traces — including runs of
//! equal stamps and stamps pressed against `u64::MAX` — the ring-indexed
//! [`bwsa_core::interleave_counts`], a record-by-record [`bwsa_core::Fold`]
//! behind on-the-fly pc interning, and the linear-scan
//! [`bwsa_core::interleave_counts_naive`] must produce identical edge
//! sets.
//!
//! The naive oracle shares nothing with the fast engine but the paper's
//! strictly-greater rule itself, so agreement here is evidence about the
//! rule, not about a shared bug.

use bwsa_core::{interleave_counts, interleave_counts_naive, Fold};
use bwsa_trace::{BranchTable, Trace, TraceBuilder};
use proptest::prelude::*;

/// Sorted `(a, b, weight)` edges of a builder — the comparison key.
fn sorted_edges(builder: &bwsa_graph::GraphBuilder) -> Vec<(u32, u32, u64)> {
    let mut edges: Vec<_> = builder.edges().collect();
    edges.sort_unstable();
    edges
}

/// Traces over up to 12 static branches with nondecreasing stamps.
/// `dt = 0` produces ties (which must NOT interleave); `base` optionally
/// pushes the whole trace to the top of the timestamp range, where the
/// old `prev + 1` range scan overflowed.
fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        prop::collection::vec((0u8..12, any::<bool>(), 0u64..4), 1..300),
        any::<bool>(),
    )
        .prop_map(|(steps, near_max)| {
            let total_dt: u64 = steps.iter().map(|&(_, _, dt)| dt).sum();
            let mut t = if near_max {
                // End exactly at u64::MAX so the final stamps sit on the
                // boundary the legacy engine could not represent.
                u64::MAX - total_dt
            } else {
                1
            };
            let mut b = TraceBuilder::new("hotpath-prop");
            for (slot, taken, dt) in steps {
                t += dt;
                b.record(0x4000 + u64::from(slot) * 4, taken, t);
            }
            b.finish()
        })
}

proptest! {
    #[test]
    fn fast_streaming_and_naive_engines_agree(trace in arb_trace()) {
        let fast = interleave_counts(&trace);
        let naive = interleave_counts_naive(&trace);
        prop_assert_eq!(sorted_edges(&fast), sorted_edges(&naive));

        let mut table = BranchTable::new();
        let mut streaming = Fold::new(0);
        for rec in trace.records() {
            streaming.push(table.intern(rec.pc).as_u32(), rec.time.get(), rec.is_taken());
        }
        prop_assert_eq!(table.len(), trace.static_branch_count());
        prop_assert_eq!(streaming.into_delta().into_graph(), naive.build());
    }

    #[test]
    fn built_graphs_are_identical_too(trace in arb_trace()) {
        // `build()` sorts adjacency, so CSR equality is the end-to-end
        // bit-identity claim.
        prop_assert_eq!(
            interleave_counts(&trace).build(),
            interleave_counts_naive(&trace).build()
        );
    }
}
