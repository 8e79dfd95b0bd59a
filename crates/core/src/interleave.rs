//! Step 1 of the analysis: detecting branch execution interleaving from
//! instruction-count timestamps (§4.1).
//!
//! Each static branch remembers the timestamp of its previous dynamic
//! instance. When it executes again, every branch whose *latest* execution
//! timestamp exceeds that previous timestamp has interleaved with it since
//! then, and each such pair's interleave counter is incremented once — the
//! paper's Figure 1 procedure, verbatim.
//!
//! [`Fold`] is the one implementation of that procedure. It maintains a
//! recency index of `(latest timestamp, branch)` pairs so each detection
//! is a binary search plus a short scan over exactly the branches
//! involved, costing `O(k + log n)` per dynamic branch where `k` is the
//! instantaneous working-set size — the very quantity the paper shows
//! stays small. Because trace timestamps are nondecreasing, the index is
//! a flat append-only ring ([`crate::recency::RecencyRing`]) rather than a
//! search tree: inserts land at the tail, and dead entries are reclaimed
//! by amortised compaction. Every engine — in-memory, sharded, streamed,
//! checkpointed, windowed — drives a [`Fold`]; only the record source
//! differs. [`interleave_counts_naive`] is an independent linear-scan
//! oracle used by the tests.

use crate::merge::ShardDelta;
use crate::recency::RecencyRing;
use bwsa_graph::GraphBuilder;
use bwsa_trace::Trace;

/// Computes pairwise interleave counts for every branch pair in the trace.
///
/// The returned [`GraphBuilder`] has one node per static branch (node id =
/// [`bwsa_trace::BranchId`] index) and one weighted edge per interleaving
/// pair; feed it to [`bwsa_graph::GraphBuilder::build`] and threshold with
/// [`bwsa_graph::ConflictGraph::pruned`], or use
/// [`crate::conflict::ConflictAnalysis`] which does both.
///
/// Ties: two branches stamped with the *same* timestamp are treated as
/// simultaneous, not interleaved (the paper requires a strictly greater
/// stamp).
///
/// # Example
///
/// ```
/// use bwsa_core::interleave_counts;
/// use bwsa_trace::TraceBuilder;
///
/// // Figure 1: A(5) B(10) C(15) A(20) → A/B and A/C interleave once.
/// let mut t = TraceBuilder::new("fig1");
/// t.record(0xa, true, 5).record(0xb, true, 10).record(0xc, true, 15).record(0xa, true, 20);
/// let g = interleave_counts(&t.finish()).build();
/// assert_eq!(g.edge_weight(0, 1), Some(1)); // A–B
/// assert_eq!(g.edge_weight(0, 2), Some(1)); // A–C
/// assert_eq!(g.edge_weight(1, 2), None);    // B and C never re-executed
/// ```
pub fn interleave_counts(trace: &Trace) -> GraphBuilder {
    let mut fold = Fold::new(trace.static_branch_count());
    for (id, rec) in trace.indexed_records() {
        fold.push(id.as_u32(), rec.time.get(), rec.is_taken());
    }
    fold.into_delta().builder
}

/// Reference implementation of [`interleave_counts`], independent of the
/// fast engine's recency index.
///
/// Maintains the latest stamp per branch in a plain `HashMap` (updated
/// incrementally — no per-record rebuild, so property tests can drive it
/// over large traces) and, on each re-execution, scans *every* known
/// branch rather than an ordered window. Its only shared assumption with
/// the fast engine is the paper's strictly-greater rule itself.
pub fn interleave_counts_naive(trace: &Trace) -> GraphBuilder {
    let n = trace.static_branch_count();
    let mut builder = GraphBuilder::new(n as u32);
    let mut last_stamp: Vec<Option<u64>> = vec![None; n];
    // Latest stamp per branch over the records consumed so far.
    let mut seen: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for (id, rec) in trace.indexed_records() {
        let node = id.as_u32();
        let t = rec.time.get();
        if let Some(prev_t) = last_stamp[node as usize] {
            for (&b, &bt) in &seen {
                if b != node && bt > prev_t {
                    builder.add_edge(node, b, 1);
                }
            }
        }
        seen.insert(node, t);
        last_stamp[node as usize] = Some(t);
    }
    builder
}

/// The Figure 1 fold: the one owner of the detection loop and the
/// per-branch statistics update.
///
/// A fold holds the interleave edges and branch statistics accumulated so
/// far (a [`ShardDelta`]) plus the engine state the next record needs:
/// each branch's latest stamp, the recency index over those stamps, and
/// scratch for the branches one scan hits. Records arrive as pre-interned
/// `(node, time, taken)` triples in trace order; node ids beyond the
/// current node count grow every table on demand, so streamed sources
/// need not know the branch count up front.
///
/// The latest stamps are the whole resumable state — the recency index is
/// derivable from them — which is what makes [`Fold::seeded`] an exact
/// resume: sharded runs seed each shard with the stamps every earlier
/// shard leaves, and checkpoints store the stamps instead of the index.
///
/// # Example
///
/// ```
/// use bwsa_core::interleave::Fold;
///
/// // Figure 1: A(5) B(10) C(15) A(20) → A/B and A/C interleave once.
/// let mut fold = Fold::new(0);
/// for (node, time) in [(0, 5), (1, 10), (2, 15), (0, 20)] {
///     fold.push(node, time, true);
/// }
/// assert_eq!(fold.record_count(), 4);
/// let g = fold.into_delta().into_graph();
/// assert_eq!(g.edge_weight(0, 1), Some(1));
/// assert_eq!(g.edge_weight(0, 2), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct Fold {
    /// Edges and statistics accumulated so far.
    pub(crate) delta: ShardDelta,
    /// `last_stamp[b]` = timestamp of b's latest dynamic instance.
    pub(crate) last_stamp: Vec<Option<u64>>,
    /// One live (latest stamp, branch) entry per executed branch.
    recency: RecencyRing,
    /// Reusable scratch for the branches hit by each scan.
    hits: Vec<u32>,
}

impl Fold {
    /// An empty fold over `nodes` branches (more appear on demand).
    pub fn new(nodes: usize) -> Self {
        Self::seeded(nodes, Vec::new())
    }

    /// A fold resuming from the latest-stamp state `last_stamp` (indexed
    /// by node, `None` = never executed) with no edges or statistics yet:
    /// pushing a record range here detects exactly the edges an
    /// uninterrupted fold detects over that range.
    pub fn seeded(nodes: usize, mut last_stamp: Vec<Option<u64>>) -> Self {
        let nodes = nodes.max(last_stamp.len());
        last_stamp.resize(nodes, None);
        Self::from_parts(ShardDelta::empty(nodes), last_stamp)
    }

    /// Reassembles a fold from checkpointed parts; the recency index is
    /// rebuilt from `last_stamp`, whose entries are exactly
    /// `(last_stamp[b], b)` for every executed branch.
    pub(crate) fn from_parts(delta: ShardDelta, last_stamp: Vec<Option<u64>>) -> Self {
        Fold {
            recency: RecencyRing::from_stamps(&last_stamp),
            delta,
            last_stamp,
            hits: Vec::new(),
        }
    }

    /// Consumes one dynamic branch: credits an interleave to every branch
    /// executed since `node`'s previous instance, then accounts the
    /// execution in `node`'s statistics.
    #[inline]
    pub fn push(&mut self, node: u32, time: u64, taken: bool) {
        let b = node as usize;
        if b >= self.last_stamp.len() {
            self.grow(b + 1);
        }
        if let Some(prev) = self.last_stamp[b] {
            // Every branch whose latest stamp is strictly greater than
            // this branch's previous stamp interleaved with it.
            self.hits.clear();
            self.recency.collect_after(prev, node, &mut self.hits);
            for &other in &self.hits {
                self.delta.builder.add_edge(node, other, 1);
            }
        }
        self.recency.record(node, time);
        self.last_stamp[b] = Some(time);
        self.delta.stats[b].record(time.into(), taken);
        self.delta.records += 1;
    }

    #[cold]
    fn grow(&mut self, nodes: usize) {
        self.last_stamp.resize(nodes, None);
        self.delta.stats.resize(nodes, Default::default());
        self.delta.builder.ensure_nodes(nodes as u32);
    }

    /// Dynamic records consumed so far.
    pub fn record_count(&self) -> u64 {
        self.delta.records
    }

    /// Hands out the edges and statistics accumulated since the fold
    /// started (or since the last take), leaving the engine state in
    /// place: records pushed afterwards land in a fresh delta, seeded
    /// exactly as a [`Fold::seeded`] fold would be. This is the window
    /// flush hook.
    pub fn take_delta(&mut self) -> ShardDelta {
        std::mem::replace(&mut self.delta, ShardDelta::empty(self.last_stamp.len()))
    }

    /// The accumulated edges and statistics.
    pub fn into_delta(self) -> ShardDelta {
        self.delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwsa_trace::TraceBuilder;

    fn weights(b: &GraphBuilder) -> Vec<(u32, u32, u64)> {
        let g = b.build();
        let mut v: Vec<_> = g.iter_edges().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn figure_1_example() {
        // The paper's Figure 1, extended by one more round.
        let mut t = TraceBuilder::new("fig1");
        t.record(0xa, true, 5)
            .record(0xb, true, 10)
            .record(0xc, true, 15)
            .record(0xa, true, 20) // A sees B, C
            .record(0xb, true, 25) // B sees C(15)? no: C=15 > B's prev 10 → yes; and A(20)
            .record(0xc, true, 30); // C sees A(20), B(25)
        let g = interleave_counts(&t.finish()).build();
        assert_eq!(g.edge_weight(0, 1), Some(2)); // A–B both directions
        assert_eq!(g.edge_weight(0, 2), Some(2)); // A–C
        assert_eq!(g.edge_weight(1, 2), Some(2)); // B–C
    }

    #[test]
    fn tight_loop_of_one_branch_has_no_edges() {
        let mut t = TraceBuilder::new("solo");
        for i in 1..=100u64 {
            t.record(0x40, true, i * 5);
        }
        let b = interleave_counts(&t.finish());
        assert_eq!(b.edge_count(), 0);
    }

    #[test]
    fn two_alternating_branches_interleave_every_round() {
        let mut t = TraceBuilder::new("alt");
        for i in 0..10u64 {
            t.record(0x40 + (i % 2) * 4, true, i + 1);
        }
        let g = interleave_counts(&t.finish()).build();
        // A executes at 1,3,5,7,9; from the 2nd instance on it sees B: 4
        // detections. Same for B → weight 8.
        assert_eq!(g.edge_weight(0, 1), Some(8));
    }

    #[test]
    fn phases_do_not_interleave_without_revisit() {
        // A A A then B B B: B never executes between two A instances and
        // vice versa.
        let mut t = TraceBuilder::new("phase");
        for i in 1..=3u64 {
            t.record(0xa, true, i);
        }
        for i in 4..=6u64 {
            t.record(0xb, true, i);
        }
        let b = interleave_counts(&t.finish());
        assert_eq!(b.edge_count(), 0);
    }

    #[test]
    fn phase_revisit_creates_one_detection() {
        // A A, B B, A: the final A sees B once (one detection event),
        // regardless of how many times B ran in between.
        let mut t = TraceBuilder::new("revisit");
        t.record(0xa, true, 1)
            .record(0xa, true, 2)
            .record(0xb, true, 3)
            .record(0xb, true, 4)
            .record(0xa, true, 5);
        let g = interleave_counts(&t.finish()).build();
        assert_eq!(g.edge_weight(0, 1), Some(1));
    }

    #[test]
    fn equal_timestamps_do_not_interleave() {
        let mut t = TraceBuilder::new("ties");
        t.record(0xa, true, 5)
            .record(0xb, true, 5)
            .record(0xa, true, 5);
        let b = interleave_counts(&t.finish());
        assert_eq!(
            b.edge_count(),
            0,
            "stamps must be strictly greater to count"
        );
    }

    #[test]
    fn naive_and_fast_agree_on_small_cases() {
        let mut t = TraceBuilder::new("mix");
        let pcs = [0xa, 0xb, 0xc, 0xa, 0xc, 0xb, 0xa, 0xd, 0xb, 0xd, 0xa, 0xc];
        for (i, pc) in pcs.into_iter().enumerate() {
            t.record(pc, i % 3 == 0, (i as u64 + 1) * 7);
        }
        let trace = t.finish();
        assert_eq!(
            weights(&interleave_counts(&trace)),
            weights(&interleave_counts_naive(&trace))
        );
    }

    #[test]
    fn max_stamp_reexecution_does_not_overflow() {
        // Regression: the old recency index scanned `(prev + 1, 0)..`,
        // which overflowed (release-checked panic) when a branch stamped
        // u64::MAX re-executed. Ties at the maximum stamp must simply not
        // interleave.
        let mut t = TraceBuilder::new("max");
        t.record(0xa, true, u64::MAX - 1)
            .record(0xb, true, u64::MAX)
            .record(0xb, true, u64::MAX) // prev == u64::MAX re-executes
            .record(0xa, true, u64::MAX); // A sees B (MAX > MAX-1)
        let trace = t.finish();
        let g = interleave_counts(&trace).build();
        assert_eq!(g.edge_weight(0, 1), Some(1), "only A's revisit detects");
        assert_eq!(
            weights(&interleave_counts(&trace)),
            weights(&interleave_counts_naive(&trace))
        );
    }

    #[test]
    fn fold_push_handles_max_stamp_reexecution() {
        let mut fold = Fold::new(0);
        for (node, t) in [(0, u64::MAX), (1, u64::MAX), (0, u64::MAX)] {
            fold.push(node, t, true);
        }
        assert_eq!(
            fold.into_delta().builder.edge_count(),
            0,
            "equal stamps never interleave"
        );
    }

    #[test]
    fn empty_trace_yields_empty_builder() {
        let b = interleave_counts(&bwsa_trace::Trace::new("empty"));
        assert_eq!(b.node_count(), 0);
        assert_eq!(b.edge_count(), 0);
    }

    #[test]
    fn seeded_fold_resumes_a_straight_run_exactly() {
        let mut t = TraceBuilder::new("resume");
        let pcs = [0xa, 0xb, 0xa, 0xc, 0xb, 0xa, 0xd, 0xc, 0xa, 0xb, 0xc, 0xd];
        for (i, pc) in pcs.into_iter().enumerate() {
            t.record(pc, i % 2 == 0, (i as u64 + 1) * 3);
        }
        let trace = t.finish();
        let records: Vec<(u32, u64, bool)> = trace
            .indexed_records()
            .map(|(id, r)| (id.as_u32(), r.time.get(), r.is_taken()))
            .collect();
        for split in 0..records.len() {
            // Run the prefix, keep only its latest stamps, and fold the
            // rest from them; the two deltas merge into the whole.
            let mut first = Fold::new(0);
            for &(node, time, taken) in &records[..split] {
                first.push(node, time, taken);
            }
            let mut rest = Fold::seeded(0, first.last_stamp.clone());
            for &(node, time, taken) in &records[split..] {
                rest.push(node, time, taken);
            }
            let mut merged = first.into_delta();
            merged.merge(&rest.into_delta());
            assert_eq!(
                weights(&merged.builder),
                weights(&interleave_counts(&trace)),
                "split at {split}"
            );
            assert_eq!(merged.records, trace.len() as u64);
        }
    }
}
