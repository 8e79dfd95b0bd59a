//! Step 3: partitioning branches into working sets and the Table 2
//! statistics.

use bwsa_graph::{clique, ConflictGraph};
use bwsa_trace::{profile::BranchProfile, BranchId};

/// Which reading of "completely interconnected subgraph" to use.
///
/// The paper's prose says working sets *partition* the branches, but its
/// Table 2 counts (51,888 sets for gcc's ~16k static branches) are only
/// possible if a branch can belong to several sets — i.e. maximal-clique
/// enumeration. Both are provided; `ablation_working_set` contrasts them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkingSetDefinition {
    /// Disjoint cliques via greedy partitioning: every branch in exactly
    /// one set.
    #[default]
    Partition,
    /// All maximal cliques (Bron–Kerbosch), capped to bound work on dense
    /// graphs.
    MaximalCliques {
        /// Stop after this many cliques.
        cap: usize,
    },
}

/// The Table 2 row for one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkingSetReport {
    /// Total number of working sets.
    pub total_sets: usize,
    /// Mean set size over sets (Table 2's "average static working set
    /// size").
    pub avg_static_size: f64,
    /// Mean set size over *dynamic branch executions* (Table 2's "average
    /// dynamic working set size"): each execution of a branch contributes
    /// the (mean) size of the set(s) containing that branch.
    pub avg_dynamic_size: f64,
    /// Largest set.
    pub max_size: usize,
    /// `true` if maximal-clique enumeration hit its cap.
    pub truncated: bool,
}

/// Working sets plus their summary report.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkingSets {
    /// The sets, each sorted ascending by branch id.
    pub sets: Vec<Vec<BranchId>>,
    /// Summary statistics (Table 2).
    pub report: WorkingSetReport,
}

/// Extracts working sets from a thresholded conflict graph.
///
/// `profile` supplies execution counts for the dynamic (execution-
/// weighted) average.
///
/// # Panics
///
/// Panics if the profile and graph disagree on the number of branches.
///
/// # Example
///
/// ```
/// use bwsa_core::{working_sets, WorkingSetDefinition};
/// use bwsa_core::conflict::{ConflictAnalysis, ConflictConfig};
/// use bwsa_trace::{profile::BranchProfile, TraceBuilder};
///
/// let mut t = TraceBuilder::new("pair");
/// for i in 0..500u64 {
///     t.record(0x40 + (i % 2) * 4, true, i + 1);
/// }
/// let trace = t.finish();
/// let conflict = ConflictAnalysis::of_trace(&trace, ConflictConfig::default());
/// let profile = BranchProfile::from_trace(&trace);
/// let ws = working_sets(&conflict.graph, &profile, WorkingSetDefinition::Partition);
/// assert_eq!(ws.report.total_sets, 1);
/// assert_eq!(ws.report.avg_static_size, 2.0);
/// assert_eq!(ws.report.avg_dynamic_size, 2.0);
/// ```
pub fn working_sets(
    graph: &ConflictGraph,
    profile: &BranchProfile,
    definition: WorkingSetDefinition,
) -> WorkingSets {
    assert_eq!(
        graph.node_count(),
        profile.static_count(),
        "graph and profile must describe the same trace"
    );
    let (raw_sets, truncated) = match definition {
        WorkingSetDefinition::Partition => (clique::greedy_clique_partition(graph), false),
        WorkingSetDefinition::MaximalCliques { cap } => {
            let e = clique::maximal_cliques(graph, cap);
            (e.cliques, e.truncated)
        }
    };

    let total_sets = raw_sets.len();
    let size_sum: usize = raw_sets.iter().map(Vec::len).sum();
    let avg_static_size = if total_sets == 0 {
        0.0
    } else {
        size_sum as f64 / total_sets as f64
    };
    let max_size = raw_sets.iter().map(Vec::len).max().unwrap_or(0);

    // Execution-weighted size: mean (over sets containing b, ≥1 under
    // Partition) set size per branch, weighted by b's execution count.
    let n = graph.node_count();
    let mut size_acc = vec![0u64; n];
    let mut membership = vec![0u64; n];
    for set in &raw_sets {
        for &node in set {
            size_acc[node as usize] += set.len() as u64;
            membership[node as usize] += 1;
        }
    }
    let mut weighted = 0.0f64;
    let mut weight = 0u64;
    for (i, (&acc, &m)) in size_acc.iter().zip(&membership).enumerate() {
        if m == 0 {
            continue; // branch in no set (possible under a truncated enumeration)
        }
        let execs = profile.stats(BranchId::new(i as u32)).executions;
        weighted += execs as f64 * (acc as f64 / m as f64);
        weight += execs;
    }
    let avg_dynamic_size = if weight == 0 {
        0.0
    } else {
        weighted / weight as f64
    };

    let sets = raw_sets
        .into_iter()
        .map(|s| s.into_iter().map(BranchId::new).collect())
        .collect();
    WorkingSets {
        sets,
        report: WorkingSetReport {
            total_sets,
            avg_static_size,
            avg_dynamic_size,
            max_size,
            truncated,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwsa_graph::GraphBuilder;
    use bwsa_trace::TraceBuilder;

    /// Profile where branch i executes `execs[i]` times.
    fn profile_with(execs: &[u64]) -> BranchProfile {
        let mut t = TraceBuilder::new("p");
        let mut time = 0;
        for (i, &n) in execs.iter().enumerate() {
            for _ in 0..n.max(1) {
                time += 1;
                t.record(0x100 + (i as u64) * 4, true, time);
            }
        }
        BranchProfile::from_trace(&t.finish())
    }

    fn two_triangles() -> ConflictGraph {
        let mut b = GraphBuilder::new(6);
        for (x, y) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(x, y, 500);
        }
        b.build()
    }

    #[test]
    fn partition_statistics() {
        let g = two_triangles();
        let p = profile_with(&[1, 1, 1, 1, 1, 1]);
        let ws = working_sets(&g, &p, WorkingSetDefinition::Partition);
        assert_eq!(ws.report.total_sets, 2);
        assert_eq!(ws.report.avg_static_size, 3.0);
        assert_eq!(ws.report.avg_dynamic_size, 3.0);
        assert_eq!(ws.report.max_size, 3);
        assert!(!ws.report.truncated);
    }

    #[test]
    fn dynamic_average_weights_by_executions() {
        // Triangle {0,1,2} and isolated pair {3,4}: hot pair dominates.
        let mut b = GraphBuilder::new(5);
        for (x, y) in [(0, 1), (1, 2), (0, 2)] {
            b.add_edge(x, y, 500);
        }
        b.add_edge(3, 4, 500);
        let g = b.build();
        let p = profile_with(&[1, 1, 1, 1000, 1000]);
        let ws = working_sets(&g, &p, WorkingSetDefinition::Partition);
        assert_eq!(ws.report.total_sets, 2);
        assert_eq!(ws.report.avg_static_size, 2.5);
        assert!(
            ws.report.avg_dynamic_size < 2.1,
            "dominated by the hot pair: {}",
            ws.report.avg_dynamic_size
        );
    }

    #[test]
    fn maximal_cliques_can_exceed_partition_count() {
        // A 4-cycle: partition gives 2 sets; maximal cliques give 4.
        let mut b = GraphBuilder::new(4);
        for (x, y) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_edge(x, y, 500);
        }
        let g = b.build();
        let p = profile_with(&[1, 1, 1, 1]);
        let part = working_sets(&g, &p, WorkingSetDefinition::Partition);
        let cliq = working_sets(&g, &p, WorkingSetDefinition::MaximalCliques { cap: 100 });
        assert_eq!(part.report.total_sets, 2);
        assert_eq!(cliq.report.total_sets, 4);
        assert!(!cliq.report.truncated);
    }

    #[test]
    fn truncation_is_reported() {
        let g = two_triangles();
        let p = profile_with(&[1; 6]);
        let ws = working_sets(&g, &p, WorkingSetDefinition::MaximalCliques { cap: 1 });
        assert!(ws.report.truncated);
    }

    #[test]
    fn empty_graph_gives_zero_report() {
        let g = GraphBuilder::new(0).build();
        let p = BranchProfile::from_trace(&bwsa_trace::Trace::new("e"));
        let ws = working_sets(&g, &p, WorkingSetDefinition::Partition);
        assert_eq!(ws.report.total_sets, 0);
        assert_eq!(ws.report.avg_static_size, 0.0);
        assert_eq!(ws.report.avg_dynamic_size, 0.0);
    }

    #[test]
    #[should_panic(expected = "same trace")]
    fn mismatched_profile_is_rejected() {
        let g = two_triangles();
        let p = profile_with(&[1, 1]);
        working_sets(&g, &p, WorkingSetDefinition::Partition);
    }
}
