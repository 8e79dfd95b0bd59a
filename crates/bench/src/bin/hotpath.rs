//! Hot-path wall-time benchmark: the flat engines (monotonic recency
//! ring, open-addressed edge table, fused predictor loop) against the
//! frozen legacy replicas they replaced, over pinned-seed synthetic
//! workloads at three trace sizes.
//!
//! ```text
//! cargo run --release -p bwsa-bench --bin hotpath -- \
//!     [--iters N] [--quick] [--engine flat|legacy|both] [--out FILE]
//! cargo run --release -p bwsa-bench --bin hotpath -- --validate FILE
//! ```
//!
//! Measures, per size (median of `--iters` runs, default 5):
//!
//! * `analysis_serial` — [`bwsa_core::interleave_counts`] + CSR build,
//!   for both engines; this pair is the headline speedup.
//! * `analysis_streaming` — record-by-record pc interning into a
//!   [`bwsa_core::Fold`] + build (flat only).
//! * `analysis_parallel` — the full sharded pipeline at 2 workers
//!   (flat only).
//! * `analysis_windowed` — the online [`bwsa_core::WindowedAnalysis`]
//!   engine at a 4096-branch reset interval (flat only); its checksum is
//!   the final folded conflict-graph weight, which `--validate` checks
//!   against `analysis_parallel` — same answer, different engine.
//! * `pag_simulate` — the paper-baseline PAg over the trace: the fused
//!   `observe` loop vs the legacy split predict/update loop.
//!
//! Each size also carries a `windowed` object (window count, re-colors,
//! mean stability, phase changes) from the timed windowed run.
//!
//! `--out` writes `BENCH_hotpath.json` (schema `bwsa-bench-hotpath/1`)
//! and refuses to run in a debug build — unoptimised timings must never
//! be checked in. `--validate` parses a previously written file and
//! checks every measurement has positive time and throughput (the CI
//! smoke step).

use bwsa_bench::legacy;
use bwsa_core::{
    analyze_parallel, AnalysisPipeline, Fold, ParallelConfig, WindowConfig, WindowedAnalysis,
};
use bwsa_obs::json::Json;
use bwsa_predictor::{simulate, BranchPredictor, Pag};
use bwsa_trace::{BranchTable, Trace};
use bwsa_workload::suite::{Benchmark, InputSet};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Flat,
    Legacy,
    Both,
}

impl Engine {
    fn runs_flat(self) -> bool {
        self != Engine::Legacy
    }
    fn runs_legacy(self) -> bool {
        self != Engine::Flat
    }
}

struct Args {
    iters: usize,
    quick: bool,
    engine: Engine,
    out: Option<String>,
    validate: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        iters: 5,
        quick: false,
        engine: Engine::Both,
        out: None,
        validate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--iters" => {
                let v = it.next().ok_or("--iters needs a value")?;
                args.iters = v.parse().map_err(|_| format!("bad --iters {v:?}"))?;
                if args.iters == 0 {
                    return Err("--iters must be positive".into());
                }
            }
            "--quick" => args.quick = true,
            "--engine" => {
                let v = it.next().ok_or("--engine needs a value")?;
                args.engine = match v.as_str() {
                    "flat" => Engine::Flat,
                    "legacy" => Engine::Legacy,
                    "both" => Engine::Both,
                    other => return Err(format!("unknown engine {other:?}")),
                };
            }
            "--out" => args.out = Some(it.next().ok_or("--out needs a path")?),
            "--validate" => args.validate = Some(it.next().ok_or("--validate needs a path")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One timed measurement: median wall time over `iters` runs of `f`,
/// which returns a checksum kept in the output so the work cannot be
/// optimised away.
fn measure(iters: usize, branches: u64, mut f: impl FnMut() -> u64) -> Json {
    let mut times: Vec<u128> = Vec::with_capacity(iters);
    let mut checksum = 0u64;
    for _ in 0..iters {
        let start = Instant::now();
        checksum = f();
        times.push(start.elapsed().as_nanos());
    }
    times.sort_unstable();
    let median_ns = times[times.len() / 2].max(1) as u64;
    let throughput = branches as f64 * 1e9 / median_ns as f64;
    Json::object([
        ("median_ns", Json::from(median_ns)),
        ("throughput_branches_per_sec", Json::from(throughput)),
        ("checksum", Json::from(checksum)),
    ])
}

fn median_ns(measurement: &Json) -> u64 {
    measurement
        .get("median_ns")
        .and_then(Json::as_u64)
        .expect("measurement has median_ns")
}

/// The legacy simulation loop: split predict-then-update calls, exactly
/// what `simulate` did before the fused `observe` path.
fn simulate_split(predictor: &mut Pag, trace: &Trace) -> u64 {
    let mut mispredictions = 0u64;
    for (id, rec) in trace.indexed_records() {
        if predictor.predict(rec.pc, id) != rec.direction {
            mispredictions += 1;
        }
        predictor.update(rec.pc, id, rec.direction);
    }
    mispredictions
}

fn bench_size(name: &str, bench: Benchmark, scale: f64, args: &Args) -> Json {
    let trace = bench.generate_scaled(InputSet::A, scale);
    let branches = trace.len() as u64;
    eprintln!(
        "[{name}] {}@{scale}: {branches} dynamic branches",
        bench.name()
    );
    let mut measurements: Vec<Json> = Vec::new();
    let mut push = |label: &str, engine: &str, m: Json| {
        measurements.push(Json::object([
            ("name", Json::from(label)),
            ("engine", Json::from(engine)),
            ("median_ns", m.get("median_ns").expect("median").clone()),
            (
                "throughput_branches_per_sec",
                m.get("throughput_branches_per_sec")
                    .expect("throughput")
                    .clone(),
            ),
            ("checksum", m.get("checksum").expect("checksum").clone()),
        ]));
    };

    if args.engine.runs_flat() {
        push(
            "analysis_serial",
            "flat",
            measure(args.iters, branches, || {
                let g = bwsa_core::interleave_counts(&trace).build();
                g.total_weight() ^ g.edge_count() as u64
            }),
        );
    }
    if args.engine.runs_legacy() {
        push(
            "analysis_serial",
            "legacy",
            measure(args.iters, branches, || {
                let g = legacy::interleave_counts(&trace).build();
                g.total_weight() ^ g.edge_count() as u64
            }),
        );
    }
    if args.engine.runs_flat() {
        push(
            "analysis_streaming",
            "flat",
            measure(args.iters, branches, || {
                let mut table = BranchTable::new();
                let mut engine = Fold::new(0);
                for rec in trace.records() {
                    engine.push(
                        table.intern(rec.pc).as_u32(),
                        rec.time.get(),
                        rec.is_taken(),
                    );
                }
                let g = engine.into_delta().into_graph();
                g.total_weight() ^ g.edge_count() as u64
            }),
        );
        push(
            "analysis_parallel",
            "flat",
            measure(args.iters, branches, || {
                let analysis = analyze_parallel(
                    &AnalysisPipeline::new(),
                    &trace,
                    &ParallelConfig::with_jobs(2),
                );
                analysis.conflict.graph.total_weight()
            }),
        );
        push(
            "pag_simulate",
            "flat",
            measure(args.iters, branches, || {
                simulate(&mut Pag::paper_baseline(), &trace).mispredictions
            }),
        );
    }
    // Online windowed engine at a 4096-branch reset interval (shrunk
    // under --quick so small smoke traces still flush several windows).
    // Checksum is the folded conflict-graph weight: identical work to
    // analysis_parallel, so --validate cross-checks the two engines.
    let mut windowed_stats: Option<Json> = None;
    if args.engine.runs_flat() {
        let interval = if args.quick { 256 } else { 4096 };
        let config = WindowConfig::branches(interval).expect("nonzero interval");
        push(
            "analysis_windowed",
            "flat",
            measure(args.iters, branches, || {
                let mut engine = WindowedAnalysis::new(config, AnalysisPipeline::new());
                for (id, rec) in trace.indexed_records() {
                    engine.push(id.as_u32(), rec.time.get(), rec.is_taken());
                }
                let result = engine.finish();
                windowed_stats = Some(Json::object([
                    ("interval", Json::from(interval)),
                    ("windows", Json::from(result.windows.len() as u64)),
                    ("recolors", Json::from(result.recolors)),
                    ("mean_stability", Json::from(result.mean_stability)),
                    ("phase_changes", Json::from(result.phase_changes)),
                ]));
                result.analysis.conflict.graph.total_weight()
            }),
        );
    }
    if args.engine.runs_legacy() {
        push(
            "pag_simulate",
            "legacy",
            measure(args.iters, branches, || {
                simulate_split(&mut Pag::paper_baseline(), &trace)
            }),
        );
    }

    let mut fields = vec![
        ("name".to_string(), Json::from(name)),
        (
            "workload".to_string(),
            Json::from(format!("{}@{scale}", bench.name())),
        ),
        ("branches".to_string(), Json::from(branches)),
        (
            "measurements".to_string(),
            Json::Array(measurements.clone()),
        ),
    ];
    if let Some(stats) = windowed_stats {
        fields.push(("windowed".to_string(), stats));
    }
    // With both engines present, report legacy/flat speedups.
    if args.engine == Engine::Both {
        for metric in ["analysis_serial", "pag_simulate"] {
            let of = |engine: &str| {
                measurements.iter().find(|m| {
                    m.get("name").and_then(Json::as_str) == Some(metric)
                        && m.get("engine").and_then(Json::as_str) == Some(engine)
                })
            };
            if let (Some(flat), Some(legacy)) = (of("flat"), of("legacy")) {
                let speedup = median_ns(legacy) as f64 / median_ns(flat) as f64;
                fields.push((format!("speedup_{metric}"), Json::from(speedup)));
            }
        }
    }
    Json::Object(fields)
}

/// Validates a previously written report: schema tag, and positive time
/// and throughput for every measurement.
fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema field")?;
    if schema != "bwsa-bench-hotpath/1" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let sizes = match doc.get("sizes") {
        Some(Json::Array(sizes)) if !sizes.is_empty() => sizes,
        _ => return Err("sizes must be a non-empty array".into()),
    };
    let mut checked = 0usize;
    for size in sizes {
        let sname = size
            .get("name")
            .and_then(Json::as_str)
            .ok_or("size missing name")?;
        let measurements = match size.get("measurements") {
            Some(Json::Array(ms)) if !ms.is_empty() => ms,
            _ => return Err(format!("{sname}: measurements must be non-empty")),
        };
        for m in measurements {
            let label = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let ns = m
                .get("median_ns")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{sname}/{label}: missing median_ns"))?;
            if ns == 0 {
                return Err(format!("{sname}/{label}: zero median_ns"));
            }
            let ok_throughput = matches!(
                m.get("throughput_branches_per_sec"),
                Some(Json::Float(t)) if *t > 0.0
            );
            if !ok_throughput {
                return Err(format!("{sname}/{label}: throughput must be positive"));
            }
            checked += 1;
        }
        // Cross-engine checksum discipline: the windowed fold and the
        // sharded parallel engine both end at the folded conflict-graph
        // weight, so their checksums must be identical.
        let checksum_of = |metric: &str| {
            measurements
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
                .and_then(|m| m.get("checksum"))
                .and_then(Json::as_u64)
        };
        if let (Some(windowed), Some(parallel)) = (
            checksum_of("analysis_windowed"),
            checksum_of("analysis_parallel"),
        ) {
            if windowed != parallel {
                return Err(format!(
                    "{sname}: windowed checksum {windowed} != parallel checksum {parallel}"
                ));
            }
            let stats = size
                .get("windowed")
                .ok_or_else(|| format!("{sname}: missing windowed stats object"))?;
            let windows = stats
                .get("windows")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{sname}: windowed.windows missing"))?;
            let recolors = stats
                .get("recolors")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{sname}: windowed.recolors missing"))?;
            if recolors > windows {
                return Err(format!(
                    "{sname}: {recolors} recolors exceed {windows} windows"
                ));
            }
            let ok_stability = matches!(
                stats.get("mean_stability"),
                Some(Json::Float(s)) if (0.0..=1.0).contains(s)
            );
            if !ok_stability {
                return Err(format!("{sname}: mean_stability must be within [0, 1]"));
            }
        }
    }
    println!("{path}: ok ({checked} measurements)");
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: hotpath [--iters N] [--quick] [--engine flat|legacy|both] \
                 [--out FILE] | --validate FILE"
            );
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.validate {
        if let Err(msg) = validate(path) {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
        return;
    }
    if args.out.is_some() && cfg!(debug_assertions) {
        eprintln!(
            "error: refusing to write a benchmark report from a debug build; \
             rerun with --release"
        );
        std::process::exit(2);
    }
    // Three pinned-seed workloads spanning ~100k to ~2.5M dynamic
    // branches; --quick shrinks them two orders of magnitude for smoke
    // runs.
    let shrink = if args.quick { 0.01 } else { 1.0 };
    let sizes = [
        ("small", Benchmark::Compress, 0.25 * shrink),
        ("medium", Benchmark::Li, 1.0 * shrink),
        ("large", Benchmark::Gcc, 1.0 * shrink),
    ];
    let reports: Vec<Json> = sizes
        .iter()
        .map(|&(name, bench, scale)| bench_size(name, bench, scale, &args))
        .collect();
    let doc = Json::object([
        ("schema", Json::from("bwsa-bench-hotpath/1")),
        ("iters", Json::from(args.iters as u64)),
        ("quick", Json::from(args.quick)),
        ("sizes", Json::Array(reports)),
    ]);
    let text = doc.to_pretty_string();
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("error: write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
}
