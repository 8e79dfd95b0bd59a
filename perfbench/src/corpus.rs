//! The `corpus` workload: `bwsa corpus --jobs 2 --emit-fleet` over all
//! 13 suite profiles at reduced scale, in rotating formats.
//!
//! **Why:** the paper's point is that branch working sets differ widely
//! from program to program (Table 2: compress against gcc), so one
//! pinned trace cannot stand for them. The corpus spans compress (~300
//! static branches) to python (~3.8k), so a detect path chosen by graph
//! size is exercised on both sides. Each round runs the corpus layer in
//! its write mode and then its read mode:
//!
//! * cold: a fresh cache directory, so every entry is ingested and
//!   analysed, and its cache cell and journal entry are written and
//!   fsync'd. **Loads:** manifest, ingest, the whole pipeline per entry,
//!   the required-size search, cache and journal writes, the fleet fold.
//! * warm: immediate reruns over the cache the cold run filled, so they
//!   only read cells. **Loads:** manifest, content digests, cache reads,
//!   the fold. **Bypasses:** ingest and detect entirely — a detect
//!   speed-up must leave `corpus_warm_s` unchanged.
//!
//! Both bypass allocation simulation, windowed analysis and the daemon.
//! The CLI picks its own fan-out from `--jobs 2` and the entry sizes.
//! `wall_s` is the geometric mean of the median cold and the median warm
//! run, so a change to either moves it by the same share; the gated
//! `wall_rel` is the same with each run's time divided by the host's
//! reference time measured right after it (see [`crate::speed`]).

use crate::exec::Exit;
use crate::inputs::{self, Format};
use crate::layers::{self, Attribution};
use crate::replay;
use crate::report::{Op, Report};
use crate::spans::Tracer;
use crate::speed::HostSpeed;
use crate::{args, stats, Ctx};
use bwsa::core::{AnalysisPipeline, Classified, ConflictConfig};
use bwsa::corpus::{Corpus, EntryRecord, EntryStatus, FleetAccumulator, FleetSummary};
use bwsa::obs::{Metrics, Obs};
use bwsa::workload::suite::Benchmark;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A working-set size class per profile, the manifest's `class` tag.
fn class_of(bench: Benchmark) -> &'static str {
    match bench {
        Benchmark::Compress | Benchmark::Ijpeg | Benchmark::Pgp | Benchmark::Perl => "small",
        Benchmark::Li | Benchmark::M88ksim | Benchmark::Plot | Benchmark::Tex | Benchmark::Gs => {
            "medium"
        }
        Benchmark::Gcc | Benchmark::Chess | Benchmark::Python | Benchmark::Ss => "large",
    }
}

/// Writes every profile's trace (format rotating with the profile's
/// position) and a TOML manifest naming them; returns the manifest.
fn setup(ctx: &Ctx, dir: &Path) -> std::io::Result<PathBuf> {
    let scale = ctx.sizes.corpus_scale;
    let mut toml = format!(
        "name = \"suite\"\n\n[defaults]\nthreshold = {}\n",
        inputs::threshold_for(scale)
    );
    for (i, bench) in Benchmark::ALL.into_iter().enumerate() {
        let format = Format::ALL[i % Format::ALL.len()];
        let file = format!("{}.{}", bench.name(), format.label());
        let trace = inputs::relabeled(bench, scale, ctx.seed);
        std::fs::write(dir.join(&file), format.encode(&trace))?;
        toml.push_str(&format!(
            "\n[[trace]]\npath = \"{file}\"\nclass = \"{}\"\n",
            class_of(bench)
        ));
    }
    let manifest = dir.join("corpus.toml");
    std::fs::write(&manifest, toml)?;
    Ok(manifest)
}

fn corpus_args(manifest: &Path, cache: &Path, fleet: &Path) -> Vec<String> {
    let mut a = args(&["corpus"]);
    a.push(manifest.display().to_string());
    a.extend(args(&["--jobs", "2", "--cache-dir"]));
    a.push(cache.display().to_string());
    a.push("--emit-fleet".to_owned());
    a.push(fleet.display().to_string());
    a
}

/// `(hits, misses)` from the `cache: H hits, M misses, …` stderr line.
fn cache_line(stderr: &str) -> Option<(u64, u64)> {
    let line = stderr.lines().find_map(|l| l.strip_prefix("cache: "))?;
    let mut nums = line.split(", ").map(|part| {
        part.split_whitespace()
            .next()
            .and_then(|n| n.parse::<u64>().ok())
    });
    Some((nums.next()??, nums.next()??))
}

/// Which mode of the corpus layer a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// A fresh cache directory: every entry analysed and cached.
    Cold,
    /// A filled cache: every entry read back from its cell.
    Warm,
}

const ENTRIES: u64 = Benchmark::ALL.len() as u64;

/// One `bwsa corpus` run into `cache`, checked: exit 0, every entry ok,
/// the expected cache hits and misses, and (when given) a fleet summary
/// byte-identical to `fleet`. Returns the exit and the summary text.
fn invoke(
    ctx: &Ctx,
    report: &mut Report,
    manifest: &Path,
    cache: &Path,
    mode: Mode,
    fleet: Option<&str>,
) -> std::io::Result<(Exit, String)> {
    let out = ctx.work.join("fleet.json");
    let _ = std::fs::remove_file(&out);
    let exit = ctx.bwsa(&corpus_args(manifest, cache, &out))?;
    let text = std::fs::read_to_string(&out).unwrap_or_default();
    let mut op = Op::new();
    op.check("cli.exit_zero", exit.ok(), || exit.stderr.trim().to_owned());
    let ok = bwsa::obs::json::Json::parse(&text).ok().and_then(|doc| {
        let r = doc.get("resilience")?;
        Some((
            r.get("ok")?.as_u64()?,
            r.get("degraded")?.as_u64()?,
            r.get("failed")?.as_u64()?,
        ))
    });
    op.check("corpus.entries_ok", ok == Some((ENTRIES, 0, 0)), || {
        format!("(ok, degraded, failed) = {ok:?} of {ENTRIES} entries")
    });
    let cache_use = cache_line(&exit.stderr);
    let (check, want) = match mode {
        Mode::Cold => ("corpus.cold_misses", (0, ENTRIES)),
        Mode::Warm => ("corpus.warm_hits", (ENTRIES, 0)),
    };
    op.check(check, cache_use == Some(want), || {
        format!("(hits, misses) = {cache_use:?}, expected {want:?}")
    });
    if let Some(fleet) = fleet {
        op.check("corpus.fleet_identical", text == fleet, || {
            "the fleet summary differs from the first cold run's".to_owned()
        });
    }
    report.finish(op);
    Ok((exit, text))
}

/// Warm reruns per cold run. A warm run takes milliseconds, a cold one
/// about a second, so a round gives the warm run's median several
/// samples at little cost.
const WARM_RERUNS: usize = 3;

/// The measured run: rounds of a cold run into a fresh cache directory
/// and [`WARM_RERUNS`] warm reruns over it, until `--seconds` is spent. Every fleet
/// summary must match the first cold one.
pub fn run(ctx: &Ctx, report: &mut Report) -> std::io::Result<()> {
    let mut timed = ctx.setup(|dir| setup(ctx, dir));
    let manifest = timed.once()?;
    let mut speed = HostSpeed::new();
    let deadline = ctx.deadline();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let mut fleet: Option<String> = None;
    let mut rss = [Vec::new(), Vec::new()];
    while cold.is_empty() || Instant::now() < deadline {
        let cache = ctx.work.join(format!("cache{}", cold.len()));
        let (exit, text) = invoke(ctx, report, &manifest, &cache, Mode::Cold, fleet.as_deref())?;
        cold.push(exit.wall_s);
        rss[0].push(exit.rss_mb);
        speed.after(0, exit.wall_s);
        let fleet = fleet.get_or_insert(text);
        for _ in 0..WARM_RERUNS {
            let (exit, _) = invoke(ctx, report, &manifest, &cache, Mode::Warm, Some(fleet))?;
            warm.push(exit.wall_s);
            rss[1].push(exit.rss_mb);
            speed.after(1, exit.wall_s);
        }
        std::fs::remove_dir_all(&cache)?;
        timed.when_due(deadline)?;
    }
    let setup = timed.finish()?;
    report.note("corpus_cold_s", "s", stats::median(&cold), cold.len());
    report.note("corpus_warm_s", "s", stats::median(&warm), warm.len());
    report.set("setup_s", "s", stats::median(&setup), setup.len());
    report.set(
        "peak_rss_mb",
        "MB",
        stats::peak_of_medians(&rss),
        cold.len() + warm.len(),
    );
    speed.report(report);
    Ok(())
}

/// The format a corpus file is in, by its magic.
fn format_of(bytes: &[u8]) -> Format {
    match bytes.get(..4) {
        Some(b"BWS3") => Format::Bws3,
        Some(b"BWST") => Format::Bwst,
        _ => Format::Bwss,
    }
}

/// The corpus layer's own batch run over `corpus`, observed by the
/// program's counters, inside a span.
fn layer_run(
    tr: &mut Tracer,
    corpus: &Corpus,
    span: &str,
    cache: Option<&Path>,
) -> (FleetSummary, Metrics) {
    let obs = Obs::recording();
    let mut session = corpus.session().with_jobs(2).with_observer(obs.clone());
    if let Some(dir) = cache {
        session = session.with_cache(dir);
    }
    let summary = tr.span(span, |_| session.run_all());
    (summary, obs.snapshot().expect("recording observer"))
}

/// The traced run: one untraced cold and one warm invocation, then the
/// replay: the manifest, each entry through the layers and the fleet
/// fold; the corpus layer's own warm run over the CLI's cache, whose
/// detect counter (`core.interleave_weight`, the program's own) shows it
/// runs no detect; and the layer's cold run with and without a cache, for
/// the cost of writing it.
pub fn traced(ctx: &Ctx, report: &mut Report, tr: &mut Tracer) -> std::io::Result<Attribution> {
    let dir = ctx.work.join("inputs");
    std::fs::create_dir_all(&dir)?;
    let manifest = setup(ctx, &dir)?;
    let cache = ctx.work.join("cache-cli");
    let (cold, fleet) = invoke(ctx, report, &manifest, &cache, Mode::Cold, None)?;
    let (warm, _) = invoke(ctx, report, &manifest, &cache, Mode::Warm, Some(&fleet))?;

    let corpus = tr
        .span("corpus.manifest", |_| Corpus::open(&manifest))
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    replay_entries(tr, report, &corpus, &fleet)?;
    let cold_replay_s = layers::replay_s(tr);
    let (summary, metrics) = layer_run(tr, &corpus, "corpus.run.warm", Some(&cache));
    tr.add(
        "corpus.cache_hit_frac",
        summary.cache.hits as f64 / ENTRIES as f64,
    );
    tr.add(
        "corpus.interleave_increments.warm",
        metrics.counter("core.interleave_weight") as f64,
    );
    let replay_s = layers::replay_s(tr);
    for (invocation, exit, replay_s) in [
        ("corpus_cold", &cold, cold_replay_s),
        ("corpus_warm", &warm, replay_s - cold_replay_s),
    ] {
        // `bwsa corpus` writes no RunReport, so nothing is attributed.
        let a = Attribution {
            wall_s: exit.wall_s,
            stage_s: 0.0,
            replay_s,
        };
        layers::note_invocation(report, invocation, &a);
    }

    // Alternate the two modes and keep each one's fastest run, so that
    // neither pays for running first.
    let mut metrics = None;
    for k in 0..2 {
        layer_run(tr, &corpus, "corpus.run.nocache", None);
        let fresh = ctx.work.join(format!("cache-layer{k}"));
        metrics = Some(layer_run(tr, &corpus, "corpus.run", Some(&fresh)).1);
        std::fs::remove_dir_all(&fresh)?;
    }
    let fastest = |span: &str| {
        tr.durations_s(span)
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    };
    tr.add(
        "corpus.cache_write_s",
        fastest("corpus.run") - fastest("corpus.run.nocache"),
    );
    tr.add(
        "corpus.interleave_increments.cold",
        metrics
            .expect("two layer runs")
            .counter("core.interleave_weight") as f64,
    );
    Ok(Attribution {
        wall_s: cold.wall_s + warm.wall_s,
        stage_s: 0.0,
        replay_s,
    })
}

/// Replays every entry through the layers, folds the records into a
/// fleet summary and checks it against the CLI's.
fn replay_entries(
    tr: &mut Tracer,
    report: &mut Report,
    corpus: &Corpus,
    cli_fleet: &str,
) -> std::io::Result<()> {
    let mut records = Vec::new();
    for entry in &corpus.manifest().entries {
        let bytes = std::fs::read(&entry.path)?;
        let record = tr.span("corpus.entry", |tr| -> Result<EntryRecord, String> {
            let trace = replay::decode(tr, format_of(&bytes), &bytes)?;
            let config = AnalysisPipeline {
                conflict: ConflictConfig::with_threshold(entry.threshold)
                    .map_err(|e| e.to_string())?,
                ..AnalysisPipeline::new()
            };
            let analysis = replay::pipeline(tr, &trace, &config);
            let required = tr
                .span("allocation.required_size", |_| {
                    analysis.required_size(
                        Classified(false),
                        &trace,
                        entry.baseline as usize,
                        &config.allocation,
                    )
                })
                .map_err(|e| e.to_string())?;
            let ws = analysis.working_sets.report;
            Ok(EntryRecord {
                key: entry.key.clone(),
                class: entry.class.clone(),
                status: EntryStatus::Ok,
                error: None,
                records: trace.len() as u64,
                chunks_dropped: 0,
                retries: 0,
                downgrades: 0,
                total_sets: ws.total_sets as u64,
                max_set: ws.max_size as u64,
                avg_dynamic_size: ws.avg_dynamic_size,
                avg_static_size: ws.avg_static_size,
                required_size: required.size as u64,
                baseline: entry.baseline,
            })
        });
        match record {
            Ok(r) => records.push(r),
            Err(e) => {
                let mut op = Op::new();
                op.check("replay.entry", false, || format!("{}: {e}", entry.key));
                report.finish(op);
            }
        }
    }
    let name = corpus.manifest().name.clone();
    let summary = tr.span("corpus.fold", |_| {
        records
            .into_iter()
            .collect::<FleetAccumulator>()
            .finish(&name)
    });
    let mut op = Op::new();
    op.check(
        "replay.fleet",
        summary.to_json().to_pretty_string() == cli_fleet,
        || "the replayed fleet summary differs from the CLI's".to_owned(),
    );
    report.finish(op);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::cache_line;

    #[test]
    fn parses_the_cache_line() {
        let stderr = "note\ncache: 3 hits, 10 misses, 0 evicted, 0 corrupt\n";
        assert_eq!(cache_line(stderr), Some((3, 10)));
        assert_eq!(cache_line("nothing"), None);
    }
}
