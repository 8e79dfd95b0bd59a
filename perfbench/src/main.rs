//! `perfbench` — the BWSA benchmark: seeded workloads through the real
//! `bwsa` binary and daemon, every output checked, and a separate traced
//! run that replays each layer's public functions to attribute the time.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload W --seed N --seconds S --trace 0|1 [--smoke] [--tamper]
//!     [--ballast-mb M]
//! ```
//!
//! `W` is one of `analyze`, `windowed`, `corpus` or `serve`: the CLI's
//! batch analyze and allocate invocations, windowed analysis, the corpus
//! runner and the daemon. Each operation's median is printed under its
//! own name (`analyze_bws3_s`, …, `corpus_warm_s`, `serve_p95_ms`).
//! `wall_s` is the geometric mean over the workload's operations of each
//! one's median time in the run: per invocation for the batch workloads,
//! per request type (payload, analyze or allocate) for `serve`, where the
//! time is a request's service time. The gated `wall_rel` is the same with
//! each operation's time divided by that of a fixed reference computation
//! run right after it, which cancels the shared host's drifting speed
//! (see [`speed`]). The run length is fixed, so a slower program
//! runs fewer operations.
//!
//! Run it from the repository root: it builds `bwsa` there with
//! `cargo build --release` (into `$CARGO_TARGET_DIR`, default `target`)
//! and works in `.perfbench-work/`. `--trace 0` prints the end-to-end
//! metrics, measured with tracing off; `--trace 1` prints the per-layer
//! metrics of the traced replay and writes its spans to
//! `.perfbench-work/<workload>/spans.json`. `--smoke` shrinks every
//! input to a tiny scale; `--tamper` corrupts one expected digest so a
//! test can see the mismatch counted; `--ballast-mb M` holds M MiB in
//! this process for the run, so a test can see that `peak_rss_mb` does
//! not include the benchmark's own memory. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! Seeds vary the inputs only in their address layout: a seed
//! relabels every branch address of each profile's input-A trace, so the
//! files, hash-table placement and digests change while the schedule —
//! interleave counts, conflict graphs, working sets, even pc-modulo BHT
//! aliasing — stays the same (see [`inputs::relabeled`]). Seed 1 is the
//! default. [`HELD_OUT_SEED`] is held out for confirming a later
//! performance claim: it draws every profile's input-B trace instead, a
//! different schedule the benchmark was not tuned on.
//!
//! `perfbench --launch STATUS PROGRAM ARGS…` is the launcher every `bwsa`
//! process is started through (see [`exec`]).

mod analyze;
mod corpus;
mod exec;
mod host;
mod inputs;
mod layers;
mod replay;
mod report;
mod serve;
mod spans;
mod speed;
mod stats;
mod windowed;

use bwsa::obs::json::Json;
use exec::Exit;
use report::Report;
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// The seed held out for confirming claims: it selects input set B.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// Input sizes: the measured scale, or the smoke test's tiny one.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Fraction of the li profile's 800k-record budget for the
    /// `analyze` and `windowed` workloads.
    pub li_scale: f64,
    /// `--window` interval of the `windowed` workload, in branches.
    pub window: u64,
    /// Fraction of every profile's budget in the `corpus` workload.
    pub corpus_scale: f64,
    /// Record-count range of one `serve` request's trace.
    pub serve_records: (u64, u64),
    /// How many times set-up runs; `setup_s` is the median.
    pub setup_repeats: usize,
}

impl Sizes {
    const MEASURED: Sizes = Sizes {
        li_scale: 0.25,
        window: 16_384,
        corpus_scale: 0.03,
        serve_records: (20_000, 40_000),
        setup_repeats: 15,
    };
    const SMOKE: Sizes = Sizes {
        li_scale: 0.01,
        window: 1_024,
        corpus_scale: 0.002,
        serve_records: (2_000, 4_000),
        setup_repeats: 2,
    };
}

/// What every workload needs: the binary under test, a scratch
/// directory, the seed, the time budget and the input sizes.
#[derive(Debug)]
pub struct Ctx {
    pub bwsa: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub sizes: Sizes,
}

impl Ctx {
    /// Runs `bwsa args…`, logging its output under the work directory.
    pub fn bwsa(&self, args: &[String]) -> std::io::Result<Exit> {
        exec::run(&self.bwsa, args, &self.work)
    }

    /// When a measuring loop started now must stop starting new work.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }

    /// `setup` as a timed set-up of this run.
    pub fn setup<T, F: FnMut(&Path) -> std::io::Result<T>>(&self, setup: F) -> Setup<'_, F> {
        Setup {
            ctx: self,
            run: setup,
            times: Vec::new(),
        }
    }
}

/// A workload's set-up, timed. Each call runs it into a fresh directory;
/// `setup_s` is the median of [`Sizes::setup_repeats`] runs. The first
/// run's result is the one measured; the repeats are spread evenly over
/// the measuring loop (and any still due run after it), so that `setup_s`
/// samples the host over the whole run rather than at one moment.
pub struct Setup<'a, F> {
    ctx: &'a Ctx,
    run: F,
    times: Vec<f64>,
}

impl<F> Setup<'_, F> {
    /// Runs set-up once and returns its result.
    pub fn once<T>(&mut self) -> std::io::Result<T>
    where
        F: FnMut(&Path) -> std::io::Result<T>,
    {
        let dir = self.ctx.work.join(format!("inputs{}", self.times.len()));
        std::fs::create_dir_all(&dir)?;
        let start = Instant::now();
        let value = (self.run)(&dir)?;
        self.times.push(start.elapsed().as_secs_f64());
        Ok(value)
    }

    /// Between two rounds of a measuring loop ending at `deadline`: runs
    /// the next repeat if it is due, and drops its result.
    pub fn when_due<T>(&mut self, deadline: Instant) -> std::io::Result<()>
    where
        F: FnMut(&Path) -> std::io::Result<T>,
    {
        let repeats = self.ctx.sizes.setup_repeats;
        let done = self.times.len();
        let due = deadline
            - Duration::from_secs_f64(self.ctx.seconds * (repeats - done) as f64 / repeats as f64);
        if done < repeats && Instant::now() >= due {
            drop(self.once()?);
        }
        Ok(())
    }

    /// Runs the repeats still due and returns every set-up's time.
    pub fn finish<T>(mut self) -> std::io::Result<Vec<f64>>
    where
        F: FnMut(&Path) -> std::io::Result<T>,
    {
        while self.times.len() < self.ctx.sizes.setup_repeats {
            drop(self.once()?);
        }
        Ok(self.times)
    }
}

/// `s` as an owned argument vector.
pub fn args(s: &[&str]) -> Vec<String> {
    s.iter().map(|a| (*a).to_owned()).collect()
}

/// The workloads: the batch analyze invocations, windowed analysis,
/// the corpus runner's write and read modes, and the daemon. Each module
/// documents why its workload exists, which layers it loads and which it
/// bypasses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Analyze,
    Windowed,
    Corpus,
    Serve,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Analyze,
        Workload::Windowed,
        Workload::Corpus,
        Workload::Serve,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Analyze => "analyze",
            Workload::Windowed => "windowed",
            Workload::Corpus => "corpus",
            Workload::Serve => "serve",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    tamper: bool,
    ballast_mb: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut tamper = false;
    let mut ballast_mb = 0;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer")?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--tamper" => tamper = true,
            "--ballast-mb" => {
                ballast_mb = value("--ballast-mb")?
                    .parse()
                    .map_err(|_| "--ballast-mb needs an unsigned integer")?
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("--workload is required ({})", names.join("|"))
        })?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        smoke,
        tamper,
        ballast_mb,
    })
}

/// Builds the `bwsa` binary from the source tree in the working
/// directory and returns its path.
fn build_bwsa() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "bwsa"])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of bwsa failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("bwsa");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} is missing after the build", bin.display()))
    }
}

fn run(args: &Args) -> Result<Report, String> {
    if host::build_profile() != "release" {
        return Err("refusing to report from a debug build; run with --release".to_owned());
    }
    let bwsa = build_bwsa()?;
    let work = PathBuf::from(".perfbench-work").join(args.workload.name());
    if work.exists() {
        std::fs::remove_dir_all(&work)
            .map_err(|e| format!("cannot clear {}: {e}", work.display()))?;
    }
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let ctx = Ctx {
        bwsa,
        work,
        seed: args.seed,
        seconds: args.seconds,
        sizes: if args.smoke {
            Sizes::SMOKE
        } else {
            Sizes::MEASURED
        },
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} scale={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { "smoke" } else { "measured" }
    );
    let facts = host::facts();
    for (k, v) in &facts {
        println!("# host {k}: {v}");
    }
    let ballast = std::hint::black_box(vec![1u8; args.ballast_mb << 20]);
    let mut report = Report::new(args.tamper);
    let io = |e: std::io::Error| e.to_string();
    if args.trace {
        let mut tr = Tracer::new();
        let attribution = match args.workload {
            Workload::Analyze => analyze::traced(&ctx, &mut report, &mut tr),
            Workload::Windowed => windowed::traced(&ctx, &mut report, &mut tr),
            Workload::Corpus => corpus::traced(&ctx, &mut report, &mut tr),
            Workload::Serve => serve::traced(&ctx, &mut report, &mut tr),
        }
        .map_err(io)?;
        layers::report(&mut report, &tr, &attribution);
        let spans_path = ctx.work.join("spans.json");
        let doc = Json::object([
            (
                "host",
                Json::object(facts.iter().map(|(k, v)| (*k, Json::from(v.clone())))),
            ),
            ("trace", tr.to_json()),
        ]);
        std::fs::write(&spans_path, doc.to_pretty_string())
            .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
        println!("# spans written to {}", spans_path.display());
        for (name, n, self_s) in tr.self_table() {
            println!("# span {name}: self {self_s:.6} s over {n} spans");
        }
    } else {
        match args.workload {
            Workload::Analyze => analyze::run(&ctx, &mut report),
            Workload::Windowed => windowed::run(&ctx, &mut report),
            Workload::Corpus => corpus::run(&ctx, &mut report),
            Workload::Serve => serve::run(&ctx, &mut report),
        }
        .map_err(io)?;
    }
    drop(ballast);
    if let Some(mb) = host::own_peak_rss_mb() {
        println!("# perfbench own peak RSS: {mb} MB");
    }
    Ok(report)
}

fn main() -> ExitCode {
    let mut argv = std::env::args_os().skip(1).peekable();
    if argv.next_if(|a| a == exec::LAUNCH).is_some() {
        return exec::launcher(argv);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
