//! The per-layer metrics of a traced run, read off its spans and counts.
//!
//! Every workload reports the same list; a layer the workload does not
//! run reports 0, which is itself the measurement (for example
//! `window.s` is 0 on `analyze`: that workload never windows).

use crate::replay::PIPELINE_SPANS;
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats;

/// The workload's operation in a traced run: its untraced wall time,
/// the time the program's own RunReport attributes to stages (0 where
/// it writes none; stages can nest, so their sum can exceed the wall
/// time), and the self time the replay of the same work spent in the
/// benchmark's layer spans.
#[derive(Debug, Clone, Copy)]
pub struct Attribution {
    pub wall_s: f64,
    pub stage_s: f64,
    pub replay_s: f64,
}

/// Self time of every span recorded so far: the replay's layer time.
pub fn replay_s(tr: &Tracer) -> f64 {
    tr.self_table().iter().map(|(_, _, s)| s).sum()
}

/// Self time of the whole-trace pipeline spans.
pub fn pipeline_s(tr: &Tracer) -> f64 {
    PIPELINE_SPANS.iter().map(|s| tr.self_s(s)).sum()
}

/// Self time of the windowed engine's spans.
pub fn window_s(tr: &Tracer) -> f64 {
    tr.self_s("window") + tr.self_s("window.flush") + tr.self_s("window.finish")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Prints one CLI invocation's `obs.attributed_frac.<invocation>` and
/// `traced.unattributed_frac.<invocation>`; the workload's own pair,
/// over all its invocations, is in the result line.
pub fn note_invocation(report: &mut Report, invocation: &str, a: &Attribution) {
    report.note(
        format!("obs.attributed_frac.{invocation}"),
        "ratio",
        ratio(a.stage_s, a.wall_s),
        1,
    );
    report.note(
        format!("traced.unattributed_frac.{invocation}"),
        "ratio",
        1.0 - ratio(a.replay_s, a.wall_s),
        1,
    );
}

/// Sets every per-layer metric on `report`.
pub fn report(report: &mut Report, tr: &Tracer, attribution: &Attribution) {
    let spans = |name: &str| tr.durations_s(name).len();
    let seconds = |report: &mut Report, metric: &str, span: &str| {
        report.set(metric, "s", tr.self_s(span), spans(span));
    };
    for fmt in ["bws3", "bwss", "bwst"] {
        let span = format!("trace.decode.{fmt}");
        seconds(report, &format!("trace.decode_s.{fmt}"), &span);
        report.set(
            format!("trace.bytes.{fmt}"),
            "bytes",
            tr.count(&format!("trace.bytes.{fmt}")),
            spans(&span),
        );
    }
    seconds(report, "profile.s", "profile");
    seconds(report, "interleave.s", "interleave");
    let detections = spans("interleave");
    let increments = tr.count("interleave.increments");
    let edges = tr.count("interleave.edges");
    report.set("interleave.increments", "count", increments, detections);
    report.set("interleave.edges", "count", edges, detections);
    report.set(
        "interleave.ns_per_increment",
        "ns",
        ratio(tr.self_s("interleave") * 1e9, increments),
        detections,
    );
    seconds(report, "graph.build_s", "graph.build");
    seconds(report, "conflict.prune_s", "conflict.prune");
    report.set(
        "conflict.kept_frac",
        "ratio",
        ratio(tr.count("conflict.kept"), edges),
        spans("conflict.prune"),
    );
    seconds(report, "working_set.s", "working_set");
    report.set(
        "working_set.sets",
        "count",
        tr.count("working_set.sets"),
        spans("working_set"),
    );
    seconds(report, "classify.s", "classify");
    seconds(report, "allocation.allocate_s", "allocation.allocate");
    seconds(
        report,
        "allocation.required_size_s",
        "allocation.required_size",
    );
    for p in ["pag", "allocated", "free"] {
        seconds(
            report,
            &format!("predictor.simulate_s.{p}"),
            &format!("predictor.simulate.{p}"),
        );
    }

    let window = window_s(tr);
    let flushes = tr.durations_s("window.flush");
    report.set("window.s", "s", window, spans("window"));
    report.set(
        "window.flushes",
        "count",
        tr.count("window.flushes"),
        spans("window"),
    );
    report.set(
        "window.recolors",
        "count",
        tr.count("window.recolors"),
        spans("window"),
    );
    report.set(
        "window.flush_s_mean",
        "s",
        stats::mean(&flushes),
        flushes.len(),
    );
    report.set(
        "window.ratio_to_whole",
        "ratio",
        if window > 0.0 {
            ratio(window, pipeline_s(tr))
        } else {
            0.0
        },
        spans("window"),
    );
    for jobs in [1, 2] {
        let span = format!("parallel.analyze.jobs{jobs}");
        report.set(
            format!("parallel.analyze_s.jobs{jobs}"),
            "s",
            tr.total_s(&span),
            spans(&span),
        );
    }

    seconds(report, "corpus.manifest_s", "corpus.manifest");
    let entries = tr.durations_s("corpus.entry");
    report.set(
        "corpus.entry_s_mean",
        "s",
        stats::mean(&entries),
        entries.len(),
    );
    seconds(report, "corpus.fold_s", "corpus.fold");
    let runs = spans("corpus.run");
    for (metric, unit) in [
        ("corpus.cache_write_s", "s"),
        ("corpus.cache_hit_frac", "ratio"),
        ("corpus.interleave_increments.cold", "count"),
        ("corpus.interleave_increments.warm", "count"),
    ] {
        report.set(metric, unit, tr.count(metric), runs);
    }

    let requests = tr.count("server.requests") as usize;
    let frames = tr.durations_s("server.frame");
    let analyses = tr.durations_s("server.analysis");
    report.set("server.frame_s", "s", stats::mean(&frames), frames.len());
    report.set(
        "server.analysis_s",
        "s",
        stats::mean(&analyses),
        analyses.len(),
    );
    for (metric, unit) in [
        ("server.overhead_ms", "ms"),
        ("server.late_ms", "ms"),
        ("server.shed_frac", "ratio"),
    ] {
        report.set(metric, unit, tr.count(metric), requests);
    }

    report.set(
        "obs.attributed_frac",
        "ratio",
        ratio(attribution.stage_s, attribution.wall_s),
        1,
    );
    report.set(
        "traced.unattributed_frac",
        "ratio",
        1.0 - ratio(attribution.replay_s, attribution.wall_s),
        1,
    );
}
