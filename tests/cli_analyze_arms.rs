//! Every `bwsa analyze` arm gives one answer.
//!
//! `analyze` streams BWSS and BWSS3 traces and loads BWST traces (and any
//! trace under `--jobs` above 1 or `--window`) into a session. This table
//! runs one generated trace through every format × mode arm — plus a
//! checkpointed BWSS run resumed from its checkpoint — and requires the
//! same stdout and the same RunReport result digests from all of them. A
//! second table does the same under `--salvage` for damaged files — a
//! BWSS3 file whose first block is corrupt (footer intact), and BWSS and
//! BWSS3 files with their tail cut off: every arm must analyze exactly
//! the recovered records, and agree with a salvaged conversion. A BWSS3
//! footer that miscounts its blocks is refused alike by every strict arm.

use bwsa::obs::json::Json;
use bwsa::trace::codec::crc32;
use bwsa::trace::columnar::ColumnarFile;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bwsa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bwsa"))
        .args(args)
        .output()
        .expect("bwsa binary runs")
}

fn ok(args: &[&str]) -> Output {
    let out = bwsa(args);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
    out
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bwsa_cli_analyze_arms_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path_str(path: &Path) -> &str {
    path.to_str().unwrap()
}

/// What one arm printed: stdout without the windowed-only summary line,
/// the report's result digests, and whether it warned on stderr.
#[derive(Debug)]
struct Answer {
    stdout: String,
    digests: String,
    warned: bool,
}

/// Runs `analyze TRACE ARGS --metrics FILE` and collects its answer.
fn analyze(dir: &Path, label: &str, trace: &Path, args: &[&str]) -> Answer {
    let metrics = dir.join(format!("{label}.json"));
    let mut argv = vec!["analyze", path_str(trace)];
    argv.extend_from_slice(args);
    argv.extend_from_slice(&["--metrics", path_str(&metrics)]);
    let out = ok(&argv);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stdout: String = stdout
        .lines()
        .filter(|line| !line.starts_with("windows: "))
        .map(|line| format!("{line}\n"))
        .collect();
    let report = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let digests = report.get("digests").expect("report has digests");
    Answer {
        stdout,
        digests: digests.to_pretty_string(),
        warned: String::from_utf8(out.stderr).unwrap().contains("warning:"),
    }
}

/// Asserts every arm's answer equals the first one's.
fn assert_all_agree(arms: &[(String, Answer)]) {
    let (first_label, first) = &arms[0];
    assert!(first.stdout.contains("working sets:"), "{first:?}");
    for (label, answer) in &arms[1..] {
        assert_eq!(
            answer.stdout, first.stdout,
            "{label} printed differently from {first_label}"
        );
        assert_eq!(
            answer.digests, first.digests,
            "{label} digests differ from {first_label}"
        );
    }
}

#[test]
fn every_analyze_arm_gives_one_answer() {
    let dir = scratch_dir();
    let bwst = dir.join("t.bwst");
    let bwss = dir.join("t.bwss");
    let bws3 = dir.join("t.bws3");
    ok(&[
        "generate",
        "compress",
        "--scale",
        "0.05",
        "-o",
        path_str(&bwst),
    ]);
    ok(&["convert", path_str(&bwst), path_str(&bwss)]);
    ok(&["convert", path_str(&bwst), path_str(&bws3)]);

    let mut arms = Vec::new();
    for (format, trace) in [("bwst", &bwst), ("bwss", &bwss), ("bws3", &bws3)] {
        for jobs in ["1", "2"] {
            let label = format!("{format}-jobs{jobs}");
            let answer = analyze(&dir, &label, trace, &["--jobs", jobs]);
            arms.push((label, answer));
        }
        let label = format!("{format}-window");
        let answer = analyze(&dir, &label, trace, &["--window", "4096"]);
        arms.push((label, answer));
    }
    // Checkpoint every chunk, then resume from the last checkpoint.
    let checkpoint = dir.join("t.bwck");
    let answer = analyze(
        &dir,
        "bwss-checkpoint",
        &bwss,
        &[
            "--checkpoint",
            path_str(&checkpoint),
            "--checkpoint-every",
            "1",
        ],
    );
    arms.push(("bwss-checkpoint".to_owned(), answer));
    assert!(checkpoint.exists(), "no checkpoint was written");
    let answer = analyze(
        &dir,
        "bwss-resume",
        &bwss,
        &["--resume", path_str(&checkpoint)],
    );
    arms.push(("bwss-resume".to_owned(), answer));
    assert!(arms.iter().all(|(_, a)| !a.warned), "{arms:?}");
    assert_all_agree(&arms);

    // Damage block 0's payload: the block CRC fails while the footer's
    // directory and block index survive, so salvage skips that block.
    let mut damaged = std::fs::read(&bws3).unwrap();
    let name_len = ColumnarFile::parse(&damaged).unwrap().name().len();
    let block0_payload = 4 + 2 + 4 + name_len + 36;
    damaged[block0_payload + 8] ^= 0xFF;
    let bad = dir.join("bad.bws3");
    std::fs::write(&bad, &damaged).unwrap();
    assert_salvage_arms_agree(&dir, "bad", &bad, &arms[0].1);

    // Cut the tail off: the BWSS trailer and the BWSS3 footer are lost,
    // so every arm takes the instruction count from the last recovered
    // record, as a decoded trace does.
    for (label, trace) in [("torn-bwss", &bwss), ("torn-bws3", &bws3)] {
        let bytes = std::fs::read(trace).unwrap();
        let torn = dir.join(format!("{label}.trace"));
        std::fs::write(&torn, &bytes[..bytes.len() * 3 / 4]).unwrap();
        assert_salvage_arms_agree(&dir, label, &torn, &arms[0].1);
    }

    // Raise the footer's record count by one and re-seal its CRC: the
    // footer parses as intact but promises a record no block holds, so
    // every strict arm refuses the file with the same error.
    let mut bytes = std::fs::read(&bws3).unwrap();
    let len = bytes.len();
    let footer_len = u32::from_le_bytes(bytes[len - 12..len - 8].try_into().unwrap()) as usize;
    let footer = len - 12 - footer_len;
    let count_at = footer + 4; // after the footer magic
    let count = u64::from_le_bytes(bytes[count_at..count_at + 8].try_into().unwrap());
    bytes[count_at..count_at + 8].copy_from_slice(&(count + 1).to_le_bytes());
    let crc = crc32(&bytes[footer..len - 12]);
    bytes[len - 8..len - 4].copy_from_slice(&crc.to_le_bytes());
    let miscounted = dir.join("miscounted.bws3");
    std::fs::write(&miscounted, &bytes).unwrap();
    let refusal = format!("footer promises {} records, blocks held {count}", count + 1);
    for args in [
        &["--jobs", "1"][..],
        &["--jobs", "2"],
        &["--window", "4096"],
    ] {
        let mut argv = vec!["analyze", path_str(&miscounted)];
        argv.extend_from_slice(args);
        let out = bwsa(&argv);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(&refusal), "{args:?}: {stderr}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs a damaged trace through every arm under `--salvage`, and its
/// salvaged conversions to BWST and BWSS without it: all must agree, and
/// differ from the undamaged answer.
fn assert_salvage_arms_agree(dir: &Path, label: &str, damaged: &Path, clean: &Answer) {
    let mut salvaged = Vec::new();
    for (arm, args) in [
        ("jobs1", &["--jobs", "1"][..]),
        ("jobs2", &["--jobs", "2"][..]),
        ("window", &["--window", "4096"][..]),
    ] {
        let arm = format!("{label}-{arm}");
        let mut args = args.to_vec();
        args.push("--salvage");
        let answer = analyze(dir, &arm, damaged, &args);
        assert!(answer.warned, "{arm} recovered damage silently");
        salvaged.push((arm, answer));
    }
    for ext in ["bwst", "bwss"] {
        let converted = dir.join(format!("{label}-salvaged.{ext}"));
        ok(&[
            "convert",
            path_str(damaged),
            path_str(&converted),
            "--salvage",
        ]);
        let arm = format!("{label}-as-{ext}");
        let answer = analyze(dir, &arm, &converted, &[]);
        salvaged.push((arm, answer));
    }
    assert_ne!(
        salvaged[0].1.stdout, clean.stdout,
        "{label}: the lost records must be missing from the salvaged answer"
    );
    assert_all_agree(&salvaged);
}
