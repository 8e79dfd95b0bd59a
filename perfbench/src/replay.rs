//! The traced replay: each layer's public functions called from the
//! benchmark, in pipeline order, each call inside a span — ingest →
//! profile → detect (interleave) → graph build → prune → working sets →
//! classify → allocate → simulate.
//!
//! Also the one result checksum every workload compares: the `crc32`
//! digests `bwsa` writes into a RunReport, recomputed here from an
//! [`Analysis`] by the same rendering.

use crate::inputs::Format;
use crate::spans::Tracer;
use bwsa::core::allocation::RequiredSize;
use bwsa::core::classify::classify_with;
use bwsa::core::{
    interleave_counts, working_sets, Allocation, Analysis, AnalysisPipeline, Classified,
    ConflictAnalysis,
};
use bwsa::obs::json::Json;
use bwsa::predictor::{simulate, BhtIndexer, Pag};
use bwsa::trace::codec::crc32;
use bwsa::trace::profile::BranchProfile;
use bwsa::trace::Trace;

/// Named result digests, in RunReport order.
pub type Digests = Vec<(String, String)>;

fn digest_of(stable: &str) -> String {
    format!("crc32:{:08x}", crc32(stable.as_bytes()))
}

/// The `working_sets`, `classification` and `conflict_graph` digests of
/// an analysis.
pub fn analysis_digests(a: &Analysis) -> Digests {
    let r = &a.working_sets.report;
    let (t, n, m) = a.classification.counts();
    summary_digests(
        (r.total_sets as u64, r.max_size as u64),
        (r.avg_static_size, r.avg_dynamic_size),
        (t as u64, n as u64, m as u64),
        (
            a.conflict.graph.edge_count() as u64,
            a.conflict.raw_edge_count as u64,
        ),
    )
}

fn summary_digests(
    (sets, max): (u64, u64),
    (avg_static, avg_dynamic): (f64, f64),
    (t, n, m): (u64, u64, u64),
    (kept, raw): (u64, u64),
) -> Digests {
    vec![
        (
            "working_sets".to_owned(),
            digest_of(&format!("{sets} {max} {avg_static:.6} {avg_dynamic:.6}")),
        ),
        (
            "classification".to_owned(),
            digest_of(&format!("{t} {n} {m}")),
        ),
        (
            "conflict_graph".to_owned(),
            digest_of(&format!("{kept} {raw}")),
        ),
    ]
}

/// The same digests recomputed from a `summary_json` document (the
/// `final` object of an `--emit-windows` file).
pub fn summary_json_digests(doc: &Json) -> Option<Digests> {
    let u = |path: [&str; 2]| doc.get(path[0])?.get(path[1])?.as_u64();
    let f = |path: [&str; 2]| match doc.get(path[0])?.get(path[1])? {
        Json::Float(v) => Some(*v),
        Json::UInt(v) => Some(*v as f64),
        _ => None,
    };
    Some(summary_digests(
        (
            u(["working_sets", "total_sets"])?,
            u(["working_sets", "max_size"])?,
        ),
        (
            f(["working_sets", "avg_static_size"])?,
            f(["working_sets", "avg_dynamic_size"])?,
        ),
        (
            u(["classification", "biased_taken"])?,
            u(["classification", "biased_not_taken"])?,
            u(["classification", "mixed"])?,
        ),
        (
            u(["conflict_graph", "edges_kept"])?,
            u(["conflict_graph", "raw_edges"])?,
        ),
    ))
}

/// The `allocation` and `required_size` digests `bwsa allocate` adds.
pub fn allocation_digests(table: usize, a: &Allocation, r: &RequiredSize) -> Digests {
    vec![
        (
            "allocation".to_owned(),
            digest_of(&format!(
                "{table} {} {}",
                a.conflict_mass, a.conflicting_pairs
            )),
        ),
        (
            "required_size".to_owned(),
            digest_of(&format!("{} {} {}", r.size, r.target_mass, r.achieved_mass)),
        ),
    ]
}

/// The `digests` object of a RunReport.
pub fn report_digests(report: &Json) -> Option<Digests> {
    match report.get("digests")? {
        Json::Object(pairs) => pairs
            .iter()
            .map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_owned())))
            .collect(),
        _ => None,
    }
}

/// Sum of a RunReport's stage wall times, in seconds.
pub fn report_stage_s(report: &Json) -> f64 {
    match report.get("stages") {
        Some(Json::Array(stages)) => stages
            .iter()
            .filter_map(|s| s.get("wall_ns").and_then(Json::as_u64))
            .map(|ns| ns as f64 * 1e-9)
            .sum(),
        _ => 0.0,
    }
}

/// Decodes `bytes` as `format` inside a `trace.decode.<fmt>` span and
/// counts the bytes.
pub fn decode(tr: &mut Tracer, format: Format, bytes: &[u8]) -> Result<Trace, String> {
    tr.add(
        &format!("trace.bytes.{}", format.label()),
        bytes.len() as f64,
    );
    tr.span(format!("trace.decode.{}", format.label()), |_| {
        format.decode(bytes)
    })
}

/// Spans of the whole-trace pipeline, the layers [`pipeline`] records.
pub const PIPELINE_SPANS: &[&str] = &[
    "profile",
    "interleave",
    "graph.build",
    "conflict.prune",
    "working_set",
    "classify",
];

/// Steps 1–3 plus classification, one span per layer — the same calls
/// `AnalysisPipeline::run_observed` makes, so the result is the
/// program's own.
pub fn pipeline(tr: &mut Tracer, trace: &Trace, config: &AnalysisPipeline) -> Analysis {
    let profile = tr.span("profile", |_| BranchProfile::from_trace(trace));
    let builder = tr.span("interleave", |_| interleave_counts(trace));
    let raw = tr.span("graph.build", |_| builder.build());
    tr.add("interleave.increments", raw.total_weight() as f64);
    tr.add("interleave.edges", raw.edge_count() as f64);
    let conflict = tr.span("conflict.prune", |_| {
        ConflictAnalysis::of_raw_graph(raw, config.conflict)
    });
    tr.add("conflict.kept", conflict.graph.edge_count() as f64);
    let sets = tr.span("working_set", |_| {
        working_sets(&conflict.graph, &profile, config.definition)
    });
    tr.add("working_set.sets", sets.report.total_sets as f64);
    let classification = tr.span("classify", |_| {
        classify_with(&profile, config.taken_threshold, config.not_taken_threshold)
    });
    Analysis {
        profile,
        conflict,
        working_sets: sets,
        classification,
    }
}

/// What `bwsa allocate --classify` computes after the pipeline:
/// allocation, the required-size search and the three PAg simulations.
pub fn allocate(
    tr: &mut Tracer,
    analysis: &Analysis,
    trace: &Trace,
    config: &AnalysisPipeline,
    table: usize,
) -> (Allocation, RequiredSize) {
    let classified = Classified(true);
    let allocation = tr.span("allocation.allocate", |_| {
        analysis
            .allocation(classified, table, &config.allocation)
            .expect("a 1024-entry classified allocation is valid")
    });
    let required = tr.span("allocation.required_size", |_| {
        analysis
            .required_size(classified, trace, 1024, &config.allocation)
            .expect("a 1024-entry baseline is valid")
    });
    let index = allocation.index.clone();
    tr.span("predictor.simulate.allocated", |_| {
        simulate(
            &mut Pag::paper_with_indexer(BhtIndexer::Allocated(index)),
            trace,
        )
    });
    tr.span("predictor.simulate.pag", |_| {
        simulate(&mut Pag::paper_baseline(), trace)
    });
    tr.span("predictor.simulate.free", |_| {
        simulate(&mut Pag::interference_free(), trace)
    });
    (allocation, required)
}
