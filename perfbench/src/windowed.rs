//! The `windowed` workload.
//!
//! **Why:** online windowed analysis rebuilds, re-prunes and re-colors
//! the cumulative graph at every window flush; that work dominates
//! `bwsa analyze --window` (about 6.1 s of 8.5 s on `li@1`) and no other
//! workload does any of it. It is the mechanism ROADMAP item 2 targets;
//! the `analyze` workload bypasses it.
//!
//! **Loads:** `core::window` (flush, merge, re-prune, recolor), plus the
//! whole-trace pipeline the command also runs and BWSS3 ingest.
//! **Bypasses:** the streaming analyze paths, allocation search, predictor
//! simulation, the corpus runner, the daemon.
//!
//! One invocation: `bwsa analyze li.bws3 --window 16384 --emit-windows
//! F --jobs 1` on the `analyze` workload's li trace. Its median wall time is
//! printed as `windowed_s` and `wall_s`; the gated `wall_rel` is the
//! median of each time divided by the host's reference time measured
//! right after it (see [`crate::speed`]).

use crate::analyze::{self, check_report, Inputs};
use crate::exec::Exit;
use crate::inputs::Format;
use crate::layers::{self, Attribution};
use crate::replay;
use crate::report::{Op, Report};
use crate::spans::Tracer;
use crate::speed::HostSpeed;
use crate::{args, stats, Ctx};
use bwsa::core::{Session, WindowConfig, WindowedAnalysis};
use bwsa::obs::json::Json;
use std::path::Path;
use std::time::Instant;

fn windowed_args(inputs: &Inputs, window: u64, emit: &Path) -> Vec<String> {
    let mut a = args(&["analyze"]);
    a.push(inputs.file(Format::Bws3).display().to_string());
    a.extend(args(&["--jobs", "1", "--report", "json", "--window"]));
    a.push(window.to_string());
    a.push("--emit-windows".to_owned());
    a.push(emit.display().to_string());
    a.push("--threshold".to_owned());
    a.push(inputs.threshold.to_string());
    a
}

/// One windowed invocation, checked: the RunReport's whole-trace digests
/// equal the expected ones, and the windows fold into that same answer.
fn invoke(
    ctx: &Ctx,
    report: &mut Report,
    inputs: &Inputs,
    expected: &Json,
    digests: &replay::Digests,
) -> std::io::Result<(Exit, Option<Json>, Option<Json>)> {
    let emit = ctx.work.join("windows.json");
    let _ = std::fs::remove_file(&emit);
    let exit = ctx.bwsa(&windowed_args(inputs, ctx.sizes.window, &emit))?;
    let mut op = Op::new();
    let doc = check_report(report, &mut op, &exit, "windowed.digests", digests);
    let windows = std::fs::read_to_string(&emit)
        .ok()
        .and_then(|text| Json::parse(&text).ok());
    let folded = windows.as_ref().and_then(|w| w.get("final"));
    op.check("windowed.fold", folded == Some(expected), || {
        "the folded windows differ from the whole-trace analysis".to_owned()
    });
    let folded_digests = folded.and_then(replay::summary_json_digests);
    let reported = doc.as_ref().and_then(replay::report_digests);
    op.check(
        "windowed.fold_digest",
        folded_digests.is_some() && folded_digests == reported,
        || format!("folded {folded_digests:?}, whole trace {reported:?}"),
    );
    let records: u64 = match windows.as_ref().and_then(|w| w.get("windows")) {
        Some(Json::Array(ws)) => ws
            .iter()
            .filter_map(|w| w.get("records").and_then(Json::as_u64))
            .sum(),
        _ => 0,
    };
    op.check(
        "windowed.records",
        records == inputs.trace.len() as u64,
        || format!("windows hold {records} of {} records", inputs.trace.len()),
    );
    report.finish(op);
    Ok((exit, doc, windows))
}

/// The whole-trace summary and digests the windowed run must reproduce.
fn expected(inputs: &Inputs) -> (Json, replay::Digests) {
    let session = Session::new(&inputs.trace).with_pipeline(inputs.pipeline());
    let analysis = session.run().expect("valid pipeline");
    let summary =
        Json::parse(&analysis.summary_json().to_pretty_string()).expect("summary JSON round-trips");
    (summary, replay::analysis_digests(analysis))
}

/// The measured run: windowed invocations until `--seconds` is spent.
pub fn run(ctx: &Ctx, report: &mut Report) -> std::io::Result<()> {
    let mut timed = ctx.setup(|dir| analyze::setup(ctx, dir, &[Format::Bws3]));
    let inputs = timed.once()?;
    let (summary, digests) = expected(&inputs);
    let mut speed = HostSpeed::new();
    let deadline = ctx.deadline();
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    while walls.is_empty() || Instant::now() < deadline {
        let (exit, _, _) = invoke(ctx, report, &inputs, &summary, &digests)?;
        walls.push(exit.wall_s);
        rss.push(exit.rss_mb);
        speed.after(0, exit.wall_s);
        timed.when_due(deadline)?;
    }
    let setup = timed.finish()?;
    report.note("windowed_s", "s", stats::median(&walls), walls.len());
    report.set("setup_s", "s", stats::median(&setup), setup.len());
    report.set("peak_rss_mb", "MB", stats::median(&rss), walls.len());
    speed.report(report);
    Ok(())
}

/// The traced run: one untraced invocation, then the replay — BWSS3
/// decode, the whole-trace pipeline, and the windowed engine with a span
/// on every push that crosses an interval boundary.
pub fn traced(ctx: &Ctx, report: &mut Report, tr: &mut Tracer) -> std::io::Result<Attribution> {
    let dir = ctx.work.join("inputs");
    std::fs::create_dir_all(&dir)?;
    let inputs = analyze::setup(ctx, &dir, &[Format::Bws3])?;
    let (summary, digests) = expected(&inputs);
    let (exit, doc, windows) = invoke(ctx, report, &inputs, &summary, &digests)?;

    let config = inputs.pipeline();
    let bytes = std::fs::read(inputs.file(Format::Bws3))?;
    let trace = replay::decode(tr, Format::Bws3, &bytes).unwrap_or_else(|_| inputs.trace.clone());
    let whole = replay::pipeline(tr, &trace, &config);

    let interval = ctx.sizes.window;
    let window = WindowConfig::branches(interval).expect("interval >= 1");
    let mut engine = WindowedAnalysis::new(window, config);
    let result = tr.span("window", |tr| {
        for (i, (id, r)) in trace.indexed_records().enumerate() {
            let (id, time, taken) = (id.as_u32(), r.time.get(), r.is_taken());
            if (i as u64 + 1).is_multiple_of(interval) {
                tr.span("window.flush", |_| engine.push(id, time, taken));
            } else {
                engine.push(id, time, taken);
            }
        }
        tr.span("window.finish", |_| engine.finish())
    });
    tr.add("window.flushes", result.windows.len() as f64);
    tr.add("window.recolors", result.recolors as f64);

    let mut op = Op::new();
    op.check(
        "replay.digests",
        replay::analysis_digests(&result.analysis) == digests
            && replay::analysis_digests(&whole) == digests,
        || "the replayed windowed or whole-trace analysis differs from the program's".to_owned(),
    );
    let replayed = Json::parse(&result.to_json().to_pretty_string()).ok();
    op.check(
        "replay.windows",
        replayed.is_some() && replayed == windows,
        || "the replayed windows differ from --emit-windows".to_owned(),
    );
    report.finish(op);

    Ok(Attribution {
        wall_s: exit.wall_s,
        stage_s: doc.as_ref().map_or(0.0, replay::report_stage_s),
        replay_s: layers::replay_s(tr),
    })
}
