//! Running the `bwsa` binary: wall time, exit status and peak RSS of
//! each invocation, and the daemon's lifetime.
//!
//! Peak RSS comes from the kernel's accounting of the reaped process
//! (`wait4`'s `ru_maxrss`). On Linux that figure starts from the peak
//! RSS of the address space the process exec'd from: `posix_spawn` (what
//! `std::process::Command` uses) execs from the spawner's own address
//! space, and `fork` copies its current size. This process holds whole
//! traces and their analyses, so it never spawns `bwsa` itself. A
//! launcher does: `perfbench --launch STATUS PROGRAM ARGS…`, a fresh exec
//! of this binary that allocates nothing, so its few MiB are the floor of
//! every figure. The launcher spawns the program, reaps it with `wait4`
//! and writes its pid, exit code, peak RSS and wall time to `STATUS`.

use bwsa::server::{Client, Response};
use std::ffi::OsString;
use std::fs::File;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// The first argument that turns `perfbench` into the launcher.
pub const LAUNCH: &str = "--launch";

/// One finished invocation.
#[derive(Debug)]
pub struct Exit {
    pub wall_s: f64,
    pub rss_mb: f64,
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
}

impl Exit {
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const SIGKILL: i32 = 9;
/// `prctl` option: the signal this process gets when its parent dies.
const PR_SET_PDEATHSIG: i32 = 1;

/// Waits for `child` and returns its exit code and peak RSS in KiB.
fn reap(child: Child) -> std::io::Result<(Option<i32>, i64)> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel expects (`int` and `struct rusage` on 64-bit Linux);
        // `pid` is our own unreaped child, so no other process is waited.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // The child is reaped; dropping the handle neither waits nor kills.
    drop(child);
    let code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    Ok((code, usage.maxrss_kib))
}

/// The launcher's `main`: `args` are `STATUS PROGRAM ARGS…`. The program
/// inherits the launcher's standard streams and is killed if the
/// launcher dies first.
pub fn launcher(mut args: impl Iterator<Item = OsString>) -> ExitCode {
    let (Some(status), Some(program)) = (args.next(), args.next()) else {
        eprintln!("perfbench: {LAUNCH} STATUS PROGRAM [ARGS…]");
        return ExitCode::from(2);
    };
    let mut cmd = Command::new(program);
    cmd.args(args);
    // SAFETY: the hook only calls `prctl`, which is async-signal-safe
    // and touches no memory of the forked child.
    unsafe {
        cmd.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0) == 0 {
                Ok(())
            } else {
                Err(std::io::Error::last_os_error())
            }
        });
    }
    let mut run = || -> std::io::Result<()> {
        let start = Instant::now();
        let child = cmd.spawn()?;
        let pid = child.id();
        std::fs::write(&status, format!("pid {pid}\n"))?;
        let (code, rss_kib) = reap(child)?;
        let wall_s = start.elapsed().as_secs_f64();
        let code = code.map_or_else(|| "signal".to_owned(), |c| c.to_string());
        std::fs::write(
            &status,
            format!("pid {pid}\ncode {code}\nrss_kib {rss_kib}\nwall_s {wall_s}\n"),
        )
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: launcher: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What the launcher reported about a finished program.
#[derive(Debug)]
pub struct Outcome {
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    pub rss_mb: f64,
    pub wall_s: f64,
}

/// A program started through the launcher.
#[derive(Debug)]
struct Launched {
    launcher: Child,
    status: PathBuf,
}

impl Launched {
    /// Starts `program args…` through the launcher, its status written to
    /// `status` and its streams to `stdout` and `stderr`.
    fn spawn(
        program: &Path,
        args: &[String],
        status: PathBuf,
        stdout: File,
        stderr: File,
    ) -> std::io::Result<Self> {
        let _ = std::fs::remove_file(&status);
        let launcher = Command::new(std::env::current_exe()?)
            .arg(LAUNCH)
            .arg(&status)
            .arg(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(stderr)
            .spawn()?;
        Ok(Launched { launcher, status })
    }

    /// `key`'s value in the status file, if written yet.
    fn field(&self, key: &str) -> Option<String> {
        let text = std::fs::read_to_string(&self.status).ok()?;
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ').map(str::to_owned))
    }

    /// Whether the launcher has exited (and is reaped).
    fn exited(&mut self) -> bool {
        matches!(self.launcher.try_wait(), Ok(Some(_)))
    }

    /// Kills the program, or the launcher if it has not written the
    /// program's pid yet (the program then dies with it). Waits for both.
    fn kill(&mut self) {
        match self.field("pid").and_then(|p| p.parse::<i32>().ok()) {
            // SAFETY: `kill` only sends a signal; the pid is our
            // launcher's child, which the launcher has not reaped while
            // it is still running.
            Some(pid) if !self.exited() => unsafe {
                kill(pid, SIGKILL);
            },
            _ => {
                let _ = self.launcher.kill();
            }
        }
        let _ = self.launcher.wait();
        if let Some(pid) = self.field("pid") {
            wait_gone(&pid);
        }
    }

    /// Waits for the program; one still running at `deadline` is
    /// killed, and its exit code is `None`.
    fn wait(mut self, deadline: Option<Instant>) -> std::io::Result<Outcome> {
        match deadline {
            None => {
                self.launcher.wait()?;
            }
            Some(deadline) => {
                while !self.exited() {
                    if Instant::now() > deadline {
                        self.kill();
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        let number = |key: &str| {
            self.field(key)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| {
                    std::io::Error::other(format!(
                        "the launcher reported no {key} in {}",
                        self.status.display()
                    ))
                })
        };
        Ok(Outcome {
            code: self.field("code").and_then(|c| c.parse().ok()),
            rss_mb: number("rss_kib")? / 1024.0,
            wall_s: number("wall_s")?,
        })
    }
}

/// Waits up to 5 s until process `pid` has ended (gone or a zombie).
fn wait_gone(pid: &str) {
    let stat = PathBuf::from("/proc").join(pid).join("stat");
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        match std::fs::read_to_string(&stat) {
            Ok(s)
                if !s
                    .rsplit_once(')')
                    .is_some_and(|(_, r)| r.trim_start().starts_with('Z')) =>
            {
                std::thread::sleep(Duration::from_millis(5))
            }
            _ => return,
        }
    }
}

/// Runs `bin args…` to completion with stdout and stderr captured in
/// files under `log_dir`.
pub fn run(bin: &Path, args: &[String], log_dir: &Path) -> std::io::Result<Exit> {
    let out_path = log_dir.join("stdout.txt");
    let err_path = log_dir.join("stderr.txt");
    let launched = Launched::spawn(
        bin,
        args,
        log_dir.join("status.txt"),
        File::create(&out_path)?,
        File::create(&err_path)?,
    )?;
    let outcome = launched.wait(None)?;
    Ok(Exit {
        wall_s: outcome.wall_s,
        rss_mb: outcome.rss_mb,
        code: outcome.code,
        stdout: std::fs::read_to_string(&out_path)?,
        stderr: std::fs::read_to_string(&err_path)?,
    })
}

/// A running `bwsa serve`. Dropping it without [`Daemon::stop`] kills
/// and reaps the process, so no daemon outlives the benchmark.
#[derive(Debug)]
pub struct Daemon {
    process: Option<Launched>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `bwsa serve <socket> --workers <workers>` and returns once
    /// it answers a ping.
    pub fn start(bin: &Path, socket: &Path, workers: u32, log_dir: &Path) -> std::io::Result<Self> {
        let _ = std::fs::remove_file(socket);
        let mut args = vec!["serve".to_owned(), socket.display().to_string()];
        args.extend(["--workers".to_owned(), workers.to_string()]);
        let process = Launched::spawn(
            bin,
            &args,
            log_dir.join("daemon.status"),
            File::create(log_dir.join("daemon.out"))?,
            File::create(log_dir.join("daemon.err"))?,
        )?;
        let mut daemon = Daemon {
            process: Some(process),
            socket: socket.to_owned(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut c) = Client::connect(socket, "perfbench") {
                if let Ok(Response::Ok(_)) = c.ping() {
                    return Ok(daemon);
                }
            }
            if daemon.process.as_mut().is_some_and(Launched::exited) {
                return Err(std::io::Error::other(
                    "daemon exited before answering a ping",
                ));
            }
            if Instant::now() > deadline {
                return Err(std::io::Error::other(
                    "daemon did not answer a ping in 30 s",
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Asks the daemon to drain and waits for it; returns its exit code
    /// and peak RSS in MiB. A daemon still running 30 s later is killed.
    pub fn stop(mut self) -> std::io::Result<(Option<i32>, f64)> {
        let shutdown = Client::connect(&self.socket, "perfbench").and_then(|mut c| c.shutdown());
        let mut process = self.process.take().expect("a daemon is stopped once");
        if let Err(e) = shutdown {
            process.kill();
            return Err(std::io::Error::other(format!(
                "shutdown request failed: {e}"
            )));
        }
        let outcome = process.wait(Some(Instant::now() + Duration::from_secs(30)))?;
        Ok((outcome.code, outcome.rss_mb))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut process) = self.process.take() {
            process.kill();
        }
    }
}
