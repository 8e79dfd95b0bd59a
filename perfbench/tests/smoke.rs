//! The benchmark's own smoke test, at tiny scale (`--smoke`).
//!
//! Run from the repository with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`; a debug
//! build of the benchmark must refuse to report, and that is what this
//! test checks when built without `--release`.

use bwsa::obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Mutex;

/// Runs of one workload share its work directory, so the tests take
/// turns.
static WORK_DIR: Mutex<()> = Mutex::new(());

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_owned()
}

/// The held-out seed (`HELD_OUT_SEED` in the benchmark).
const HELD_OUT_SEED: &str = "20261017";

fn perfbench(workload: &str, trace: u8, extra: &[&str]) -> Output {
    perfbench_seed(workload, "7", trace, extra)
}

fn perfbench_seed(workload: &str, seed: &str, trace: u8, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", seed, "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .args(extra)
        .output()
        .expect("perfbench runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

/// The last line of standard output, parsed.
fn result(out: &Output) -> Json {
    let text = stdout(out);
    let last = text.lines().last().expect("a result line");
    Json::parse(last).expect("the result line is JSON")
}

/// `(name, unit)` of every metric in one list of BENCHMARK.json.
fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    let Some(Json::Array(items)) = doc.get(list) else {
        panic!("BENCHMARK.json has no {list} list")
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_owned(),
            )
        })
        .collect()
}

/// The checks each workload must run, untraced and traced.
fn expected_checks(workload: &str, trace: u8) -> Vec<&'static str> {
    let mut checks = match workload {
        "analyze" => vec![
            "cli.exit_zero",
            "cli.run_report",
            "analyze.digests",
            "allocate.digests",
        ],
        "windowed" => vec![
            "cli.exit_zero",
            "cli.run_report",
            "windowed.digests",
            "windowed.fold",
            "windowed.fold_digest",
            "windowed.records",
        ],
        "corpus" => vec![
            "cli.exit_zero",
            "corpus.entries_ok",
            "corpus.cold_misses",
            "corpus.warm_hits",
            "corpus.fleet_identical",
        ],
        "serve" => vec!["serve.summary", "serve.allocation", "serve.drain"],
        other => panic!("unknown workload {other}"),
    };
    if trace == 1 {
        checks.extend(match workload {
            "analyze" => &["replay.decode", "replay.digests", "replay.parallel"][..],
            "windowed" => &["replay.digests", "replay.windows"],
            "corpus" => &["replay.fleet"],
            _ => &["replay.summary"],
        });
    }
    checks
}

#[test]
fn every_declared_metric_and_check_is_reported() {
    let _turn = WORK_DIR.lock().unwrap_or_else(|e| e.into_inner());
    let root = repo_root();
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Array(workloads)) = doc.get("workloads") else {
        panic!("BENCHMARK.json has no workloads")
    };
    for w in workloads {
        let workload = w.get("name").and_then(Json::as_str).expect("workload name");
        for (trace, list) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let out = perfbench(workload, trace, &[]);
            let context = format!(
                "{workload} --trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            if cfg!(debug_assertions) {
                assert!(!out.status.success(), "{context}");
                assert!(stdout(&out).is_empty(), "{context}");
                assert!(String::from_utf8_lossy(&out.stderr).contains("refusing"));
                return;
            }
            assert!(out.status.success(), "{context}");
            let res = result(&out);
            assert_eq!(res.get("correct"), Some(&Json::Bool(true)), "{context}");
            assert_eq!(res.get("failed").and_then(Json::as_u64), Some(0));
            let Some(Json::Object(metrics)) = res.get("metrics") else {
                panic!("{context}: no metrics object")
            };
            let want = declared(&doc, list);
            let mut got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let mut names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            got.sort_unstable();
            names.sort_unstable();
            assert_eq!(got, names, "{context}");
            let lines = stdout(&out);
            for (name, unit) in &want {
                let m = res
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .expect("metric");
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                let prefix = format!("metric {name} = ");
                let line = lines
                    .lines()
                    .find(|l| l.starts_with(&prefix))
                    .unwrap_or_else(|| panic!("{context}: {name} not printed"));
                assert!(
                    line.contains(&format!(" {unit} (n=")),
                    "{context}: {line} lacks its unit or sample count"
                );
            }
            assert!(lines
                .lines()
                .any(|l| l.starts_with("metric error_rate = 0 ratio (n=")));
            for check in expected_checks(workload, trace) {
                let prefix = format!("check {check}: ");
                let line = lines
                    .lines()
                    .find(|l| l.starts_with(&prefix))
                    .unwrap_or_else(|| panic!("{context}: check {check} did not run"));
                let (passed, run) = line[prefix.len()..]
                    .trim_end_matches(" passed")
                    .split_once('/')
                    .expect("passed/run");
                assert_eq!(passed, run, "{context}: {line}");
            }
        }
    }
}

#[test]
fn a_wrong_digest_counts_as_a_failed_operation() {
    let _turn = WORK_DIR.lock().unwrap_or_else(|e| e.into_inner());
    let out = perfbench("analyze", 0, &["--tamper"]);
    if cfg!(debug_assertions) {
        assert!(!out.status.success());
        return;
    }
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let res = result(&out);
    assert_eq!(res.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(res.get("failed").and_then(Json::as_u64), Some(1));
    let attempted = res
        .get("attempted")
        .and_then(Json::as_u64)
        .expect("attempted");
    let rate = stdout(&out)
        .lines()
        .find_map(|l| l.strip_prefix("metric error_rate = "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("error_rate is printed");
    assert_eq!(rate, 1.0 / attempted as f64);
}

/// `workload`'s names in BENCHMARK.json.
fn workloads() -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Array(workloads)) = doc.get("workloads") else {
        panic!("BENCHMARK.json has no workloads")
    };
    workloads
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_owned()
        })
        .collect()
}

#[test]
fn the_held_out_seed_runs_clean() {
    let _turn = WORK_DIR.lock().unwrap_or_else(|e| e.into_inner());
    if cfg!(debug_assertions) {
        return;
    }
    for workload in workloads() {
        let out = perfbench_seed(&workload, HELD_OUT_SEED, 0, &[]);
        let context = format!("{workload}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(out.status.success(), "{context}");
        let res = result(&out);
        assert_eq!(res.get("correct"), Some(&Json::Bool(true)), "{context}");
        assert_eq!(
            res.get("failed").and_then(Json::as_u64),
            Some(0),
            "{context}"
        );
    }
}

/// `key`'s value in a launcher status file.
fn status_field(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ').map(str::to_owned))
}

/// The first `metric NAME = V` value printed for `name`.
fn printed(out: &Output, name: &str) -> f64 {
    let prefix = format!("metric {name} = ");
    stdout(out)
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{name} is not printed"))
}

#[test]
fn peak_rss_excludes_the_benchmarks_own_memory() {
    let _turn = WORK_DIR.lock().unwrap_or_else(|e| e.into_inner());
    let out = perfbench("analyze", 0, &["--ballast-mb", "256"]);
    if cfg!(debug_assertions) {
        return;
    }
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rss = printed(&out, "peak_rss_mb");
    assert!(
        rss > 0.0 && rss < 64.0,
        "bwsa on a tiny trace reports {rss} MB while perfbench holds 256 MiB"
    );
}

#[test]
fn launched_peak_rss_is_the_programs_own() {
    // This process is the spawner: touching 256 MiB raises its peak RSS
    // far above what a shell uses.
    let ballast = std::hint::black_box(vec![1u8; 256 << 20]);
    let status = Path::new(env!("CARGO_TARGET_TMPDIR")).join("launch.status");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--launch")
        .arg(&status)
        .args(["sh", "-c", "exit 3"])
        .output()
        .expect("the launcher runs");
    drop(ballast);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&status).expect("the launcher writes its status");
    assert_eq!(status_field(&text, "code").as_deref(), Some("3"), "{text}");
    let rss_kib: f64 = status_field(&text, "rss_kib")
        .and_then(|v| v.parse().ok())
        .expect("rss_kib");
    assert!(
        rss_kib > 0.0 && rss_kib < 32.0 * 1024.0,
        "a shell's peak RSS of {rss_kib} KiB carries the spawner's 256 MiB"
    );
    let wall_s: f64 = status_field(&text, "wall_s")
        .and_then(|v| v.parse().ok())
        .expect("wall_s");
    assert!(wall_s > 0.0, "{text}");
}
