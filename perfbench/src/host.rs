//! Host and build facts reported with every result.

use std::process::Command;

/// `(name, value)` pairs: cores, CPU model, compiler, commit and build
/// profile.
pub fn facts() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = command_line("rustc", &["-V"]);
    // A source tree without git metadata reports `unknown`.
    let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", rustc),
        ("commit", commit),
        ("profile", build_profile().to_owned()),
    ]
}

/// This process's own peak RSS in MiB (`VmHWM`), for comparison with
/// the `peak_rss_mb` of the program under test, which must not include it.
pub fn own_peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kib / 1024.0)
}

/// The profile this benchmark and the `bwsa` binary it builds use.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}
