//! The `analyze` workload: one li-profile trace (a quarter of its 800k
//! budget: 200k records over about 870 static branches) through the four
//! batch invocations of the CLI, round-robin: `bwsa analyze --jobs 1` on
//! the trace as BWSS3, as BWSS2 and as BWST, and `bwsa allocate
//! --classify`.
//!
//! **Why:** detect (the Figure 1 interleave) is ~90% of `bwsa analyze`
//! wall time, and `analyze` has three drivers — the BWSS3 columnar
//! stream, the BWSS2 record stream and the in-memory `Session` that BWST
//! takes. Running all three (each one's median printed under its own
//! name) means a change to one engine cannot regress another unseen.
//! `allocate` adds coloring, the required-size search and PAg simulation.
//!
//! **Loads:** trace codecs, interleave, graph build/prune, working sets,
//! classify; `allocate` adds coloring, the required-size search and the
//! PAg simulations.
//! **Bypasses:** windowed analysis, the corpus runner and its cache, the
//! daemon.
//!
//! `wall_s` is the geometric mean over the four invocations of each
//! one's median wall time in the run; the gated `wall_rel` is the same
//! with each time divided by the host's reference time measured right
//! after it (see [`crate::speed`]).

use crate::exec::Exit;
use crate::inputs::{self, Format};
use crate::layers::{self, Attribution};
use crate::replay::{self, Digests};
use crate::report::{Op, Report};
use crate::spans::Tracer;
use crate::speed::HostSpeed;
use crate::{args, stats, Ctx};
use bwsa::core::{
    analyze_parallel, AnalysisPipeline, Classified, ConflictConfig, ParallelConfig, Session,
};
use bwsa::obs::json::Json;
use bwsa::trace::Trace;
use bwsa::workload::suite::Benchmark;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The BHT size `bwsa allocate` targets by default.
pub const TABLE: usize = 1024;

/// One of the `analyze` workload's invocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `bwsa analyze <trace> --jobs 1` on the trace in one format:
    /// BWSS3 streams blocks into the flat engines, BWSS2 streams records
    /// through `StreamingAnalysis`, BWST materialises the trace for a
    /// sharded `Session` (one shard at `--jobs 1`).
    Analyze(Format),
    /// `bwsa allocate <bws3> --classify`: the whole pipeline, then
    /// coloring into 1024 entries, the required-size search against the
    /// conventional 1024-entry table, and three PAg simulations
    /// (allocated, conventional, interference-free).
    Allocate,
}

impl Kind {
    /// The four invocations, in the order a round runs them.
    pub const ALL: [Kind; 4] = [
        Kind::Analyze(Format::Bws3),
        Kind::Analyze(Format::Bwss),
        Kind::Analyze(Format::Bwst),
        Kind::Allocate,
    ];

    fn format(self) -> Format {
        match self {
            Kind::Analyze(format) => format,
            Kind::Allocate => Format::Bws3,
        }
    }

    /// The name its median is printed under.
    fn metric(self) -> &'static str {
        match self {
            Kind::Analyze(Format::Bws3) => "analyze_bws3_s",
            Kind::Analyze(Format::Bwss) => "analyze_bwss_s",
            Kind::Analyze(Format::Bwst) => "analyze_bwst_s",
            Kind::Allocate => "allocate_s",
        }
    }

    fn check(self) -> &'static str {
        match self {
            Kind::Analyze(_) => "analyze.digests",
            Kind::Allocate => "allocate.digests",
        }
    }

    fn args(self, inputs: &Inputs) -> Vec<String> {
        let mut a = match self {
            Kind::Analyze(_) => args(&["analyze", "--jobs", "1"]),
            Kind::Allocate => args(&["allocate", "--classify"]),
        };
        a.push(inputs.file(self.format()).display().to_string());
        a.extend(args(&["--report", "json", "--threshold"]));
        a.push(inputs.threshold.to_string());
        a
    }
}

/// The generated li trace and its files.
#[derive(Debug)]
pub struct Inputs {
    pub trace: Trace,
    pub files: Vec<(Format, PathBuf)>,
    pub threshold: u64,
}

impl Inputs {
    /// The trace's file in `format`.
    ///
    /// # Panics
    ///
    /// When set-up did not write that format.
    pub fn file(&self, format: Format) -> &Path {
        self.files
            .iter()
            .find(|(f, _)| *f == format)
            .map(|(_, path)| path.as_path())
            .expect("set-up wrote the format")
    }

    pub fn pipeline(&self) -> AnalysisPipeline {
        AnalysisPipeline {
            conflict: ConflictConfig::with_threshold(self.threshold).expect("threshold >= 1"),
            ..AnalysisPipeline::new()
        }
    }
}

/// Generates the li trace for this seed and writes it in `formats`.
pub fn setup(ctx: &Ctx, dir: &Path, formats: &[Format]) -> std::io::Result<Inputs> {
    let scale = ctx.sizes.li_scale;
    let trace = inputs::relabeled(Benchmark::Li, scale, ctx.seed);
    let mut files = Vec::new();
    for &format in formats {
        let file = dir.join(format!("li.{}", format.label()));
        std::fs::write(&file, format.encode(&trace))?;
        files.push((format, file));
    }
    Ok(Inputs {
        trace,
        files,
        threshold: inputs::threshold_for(scale),
    })
}

/// The digests each invocation must report, from the library on the
/// generated trace: `analyze` the analysis's, `allocate` also the
/// allocation's.
#[derive(Debug)]
struct Expected {
    analyze: Digests,
    allocate: Digests,
}

impl Expected {
    fn new(inputs: &Inputs) -> Self {
        let session = Session::new(&inputs.trace).with_pipeline(inputs.pipeline());
        let analyze = replay::analysis_digests(session.run().expect("valid pipeline"));
        let allocation = session
            .allocate(Classified(true), TABLE)
            .expect("valid table");
        let required = session
            .required_bht_size(Classified(true), 1024)
            .expect("valid baseline");
        let mut allocate = analyze.clone();
        allocate.extend(replay::allocation_digests(TABLE, &allocation, &required));
        Expected { analyze, allocate }
    }

    fn of(&self, kind: Kind) -> &Digests {
        match kind {
            Kind::Analyze(_) => &self.analyze,
            Kind::Allocate => &self.allocate,
        }
    }
}

/// Checks a `--report json` invocation: exit 0, a parsable RunReport,
/// and digests equal to `expected`. Returns the report.
pub fn check_report(
    report: &mut Report,
    op: &mut Op,
    exit: &Exit,
    check: &'static str,
    expected: &Digests,
) -> Option<Json> {
    op.check("cli.exit_zero", exit.ok(), || {
        format!("exit {:?}: {}", exit.code, exit.stderr.trim())
    });
    let doc = Json::parse(&exit.stdout).ok();
    op.check("cli.run_report", doc.is_some(), || {
        "stdout is not a RunReport".to_owned()
    });
    let got = doc.as_ref().and_then(replay::report_digests);
    let want: Digests = expected
        .iter()
        .map(|(k, v)| (k.clone(), report.expected_digest(v)))
        .collect();
    op.check(check, got.as_ref() == Some(&want), || {
        format!("digests {got:?}, expected {want:?}")
    });
    doc
}

fn invoke(
    ctx: &Ctx,
    report: &mut Report,
    inputs: &Inputs,
    kind: Kind,
    expected: &Digests,
) -> std::io::Result<(Exit, Option<Json>)> {
    let exit = ctx.bwsa(&kind.args(inputs))?;
    let mut op = Op::new();
    let doc = check_report(report, &mut op, &exit, kind.check(), expected);
    report.finish(op);
    Ok((exit, doc))
}

/// The measured run: rounds of the four invocations until `--seconds`
/// is spent.
pub fn run(ctx: &Ctx, report: &mut Report) -> std::io::Result<()> {
    let mut timed = ctx.setup(|dir| setup(ctx, dir, &Format::ALL));
    let inputs = timed.once()?;
    let expected = Expected::new(&inputs);
    let mut speed = HostSpeed::new();
    let deadline = ctx.deadline();
    let mut walls = vec![Vec::new(); Kind::ALL.len()];
    let mut rss = walls.clone();
    while walls[0].is_empty() || Instant::now() < deadline {
        for (k, kind) in Kind::ALL.into_iter().enumerate() {
            let (exit, _) = invoke(ctx, report, &inputs, kind, expected.of(kind))?;
            walls[k].push(exit.wall_s);
            rss[k].push(exit.rss_mb);
            speed.after(k, exit.wall_s);
        }
        timed.when_due(deadline)?;
    }
    let setup = timed.finish()?;
    for (kind, w) in Kind::ALL.into_iter().zip(&walls) {
        report.note(kind.metric(), "s", stats::median(w), w.len());
    }
    let n = walls.iter().map(Vec::len).sum();
    report.set("setup_s", "s", stats::median(&setup), setup.len());
    report.set("peak_rss_mb", "MB", stats::peak_of_medians(&rss), n);
    speed.report(report);
    Ok(())
}

/// The traced run: one untraced invocation of each kind for its wall
/// time and RunReport, then the layer replay of the same work — the
/// invocation's format decoded, the pipeline, and for `allocate` the
/// allocation — checked against the invocation's digests. The sharded
/// engine the in-memory path uses is also timed, at one and two jobs.
pub fn traced(ctx: &Ctx, report: &mut Report, tr: &mut Tracer) -> std::io::Result<Attribution> {
    let dir = ctx.work.join("inputs");
    std::fs::create_dir_all(&dir)?;
    let inputs = setup(ctx, &dir, &Format::ALL)?;
    let expected = Expected::new(&inputs);
    let config = inputs.pipeline();
    let mut attribution = Attribution {
        wall_s: 0.0,
        stage_s: 0.0,
        replay_s: 0.0,
    };
    let mut analysis = None;
    for kind in Kind::ALL {
        let (exit, doc) = invoke(ctx, report, &inputs, kind, expected.of(kind))?;
        let stage_s = doc.as_ref().map_or(0.0, replay::report_stage_s);
        attribution.wall_s += exit.wall_s;
        attribution.stage_s += stage_s;
        let before_s = layers::replay_s(tr);

        let format = kind.format();
        let bytes = std::fs::read(inputs.file(format))?;
        let decoded = replay::decode(tr, format, &bytes);
        let mut op = Op::new();
        op.check(
            "replay.decode",
            decoded.as_ref() == Ok(&inputs.trace),
            || format!("{} decodes to a different trace", format.label()),
        );
        report.finish(op);
        let trace = decoded.unwrap_or_else(|_| inputs.trace.clone());
        let replayed = replay::pipeline(tr, &trace, &config);
        let mut digests = replay::analysis_digests(&replayed);
        if kind == Kind::Allocate {
            let (allocation, required) = replay::allocate(tr, &replayed, &trace, &config, TABLE);
            digests.extend(replay::allocation_digests(TABLE, &allocation, &required));
        }
        let mut op = Op::new();
        let got = doc.as_ref().and_then(replay::report_digests);
        op.check("replay.digests", got.as_ref() == Some(&digests), || {
            format!("reported {got:?}, replay {digests:?}")
        });
        report.finish(op);
        analysis = Some(replayed);
        layers::note_invocation(
            report,
            kind.metric().trim_end_matches("_s"),
            &Attribution {
                wall_s: exit.wall_s,
                stage_s,
                replay_s: layers::replay_s(tr) - before_s,
            },
        );
    }
    attribution.replay_s = layers::replay_s(tr);

    let serial = replay::analysis_digests(&analysis.expect("four invocations"));
    for jobs in [1, 2] {
        let parallel = tr.span(format!("parallel.analyze.jobs{jobs}"), |_| {
            analyze_parallel(&config, &inputs.trace, &ParallelConfig::with_jobs(jobs))
        });
        let mut op = Op::new();
        op.check(
            "replay.parallel",
            replay::analysis_digests(&parallel) == serial,
            || format!("--jobs {jobs} digests differ from the serial replay"),
        );
        report.finish(op);
    }
    Ok(attribution)
}
