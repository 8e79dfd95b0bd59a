//! The `serve` workload.
//!
//! **Why:** the daemon answers many small requests, where per-request
//! costs — frames, admission, quota, session set-up — weigh far more
//! than in one large batch trace. `bwsa serve --workers 2` is driven
//! open-loop from one process over two tenant connections: request `i`
//! is due at `i / rate` whatever the daemon is doing, and its latency
//! is timed from that due time, so a stall is charged to every request
//! queued behind it. The traffic is 20k–40k-record traces of eight
//! small and medium profiles, uploaded as BWSS2 and BWSS3; one request
//! in four is an `allocate`.
//!
//! **Loads:** frame encode/decode, quota, admission, dispatch, payload
//! ingest, the serial pipeline on small graphs, allocation.
//! **Bypasses:** the CLI's analyze paths, windowed analysis, the corpus
//! runner.
//!
//! Latency from the due time is reported at the nominal rate as
//! `serve_p50_ms` and `serve_p95_ms`; waiting behind earlier requests is
//! in those, and in `serve_max_rps`, the highest rate of [`LADDER`] whose
//! p95 meets [`LIMIT_MS`] with no growing backlog. `wall_s` is the
//! per-request cost instead: the batch workloads' estimator applied to
//! each request's service time (send to reply) at the nominal rate, per
//! request type — each payload's `analyze` and its `allocate` — and the
//! geometric mean of those 16 medians. Service time grows in proportion
//! to a slower host; queueing grows faster than that, so only the former
//! can be put in units of the host's speed. The gated `wall_rel` does so
//! like the batch workloads, between operations: once a second the
//! nominal schedule pauses, the requests in flight are answered, the
//! reference runs while the daemon is idle, and the schedule resumes
//! where it stopped (see [`crate::speed`]).

use crate::exec::Daemon;
use crate::inputs::{self, Format, Rng};
use crate::layers::Attribution;
use crate::replay;
use crate::report::{Op, Report};
use crate::spans::Tracer;
use crate::speed::HostSpeed;
use crate::{stats, Ctx};
use bwsa::core::{AnalysisPipeline, Classified, ConflictConfig};
use bwsa::obs::json::Json;
use bwsa::server::frame::{read_frame, write_frame};
use bwsa::server::{Client, ErrorCode, Request, Response};
use bwsa::trace::Trace;
use bwsa::workload::suite::Benchmark;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// The nominal request rate, per second: in 8 s a run has the 200
/// samples a p95 needs to leave ten beyond it.
pub const NOMINAL_RPS: f64 = 25.0;
/// The rates tried for `serve_max_rps`, in order; each runs for an
/// eighth of `--seconds`, after the nominal rate has run for all of it.
pub const LADDER: &[f64] = &[25.0, 40.0, 55.0, 70.0];
/// The p95 latency a ladder rate must meet.
pub const LIMIT_MS: f64 = 250.0;
/// The BHT size of the `allocate` requests.
const TABLE: u64 = 1024;
/// Requests still queued when a rate's schedule ends beyond which the
/// backlog counts as growing: one per connection is in flight anyway.
const MAX_BACKLOG: usize = 2;

const PROFILES: [Benchmark; 8] = [
    Benchmark::Compress,
    Benchmark::Ijpeg,
    Benchmark::Pgp,
    Benchmark::Perl,
    Benchmark::Li,
    Benchmark::M88ksim,
    Benchmark::Tex,
    Benchmark::Plot,
];

/// One request body with the answers the daemon must give for it.
#[derive(Debug)]
struct Payload {
    format: Format,
    bytes: Vec<u8>,
    threshold: u64,
    trace: Trace,
    summary: String,
    allocation: Json,
}

impl Payload {
    fn pipeline(&self) -> AnalysisPipeline {
        AnalysisPipeline {
            conflict: ConflictConfig::with_threshold(self.threshold).expect("threshold >= 1"),
            ..AnalysisPipeline::new()
        }
    }
}

/// The payloads of one seed: each profile once, the sizes spread evenly
/// over [`crate::Sizes::serve_records`].
fn payloads(ctx: &Ctx) -> Vec<Payload> {
    let (lo, hi) = ctx.sizes.serve_records;
    let last = PROFILES.len() as u64 - 1;
    PROFILES
        .iter()
        .enumerate()
        .map(|(i, &bench)| {
            let records = lo + (hi - lo) * i as u64 / last;
            let scale = records as f64 / bench.spec().target_dynamic_branches as f64;
            let trace = inputs::relabeled(bench, scale, ctx.seed);
            let format = if i % 2 == 0 {
                Format::Bwss
            } else {
                Format::Bws3
            };
            Payload {
                format,
                bytes: format.encode(&trace),
                threshold: inputs::threshold_for(scale),
                trace,
                summary: String::new(),
                allocation: Json::Null,
            }
        })
        .collect()
}

/// Fills in each payload's expected answers from the library.
fn expect_answers(payloads: &mut [Payload]) {
    for p in payloads {
        let config = p.pipeline();
        let analysis = config.run_observed(&p.trace, &bwsa::obs::Obs::noop());
        p.summary = analysis.summary_json().to_pretty_string();
        let a = analysis
            .allocation(Classified(true), TABLE as usize, &config.allocation)
            .expect("valid table");
        let occ = a.occupancy();
        p.allocation = Json::object([
            ("table_size", Json::UInt(a.table_size() as u64)),
            ("conflict_mass", Json::UInt(a.conflict_mass)),
            ("conflicting_pairs", Json::UInt(a.conflicting_pairs as u64)),
            ("used_entries", Json::UInt(occ.used_entries as u64)),
            ("max_per_entry", Json::UInt(occ.max_per_entry as u64)),
        ]);
    }
}

/// The allocation fields of an `allocate` reply, shaped like
/// [`Payload::allocation`].
fn allocation_fields(reply: &str) -> Option<Json> {
    let doc = Json::parse(reply).ok()?;
    let occ = doc.get("occupancy")?;
    Some(Json::object([
        ("table_size", Json::UInt(doc.get("table_size")?.as_u64()?)),
        (
            "conflict_mass",
            Json::UInt(doc.get("conflict_mass")?.as_u64()?),
        ),
        (
            "conflicting_pairs",
            Json::UInt(doc.get("conflicting_pairs")?.as_u64()?),
        ),
        (
            "used_entries",
            Json::UInt(occ.get("used_entries")?.as_u64()?),
        ),
        (
            "max_per_entry",
            Json::UInt(occ.get("max_per_entry")?.as_u64()?),
        ),
    ]))
}

/// One request of a schedule.
#[derive(Debug, Clone, Copy)]
struct Planned {
    payload: usize,
    allocate: bool,
}

/// `n` requests in a seeded order. The mix itself is fixed — every
/// payload equally often, one request in four an `allocate` — because a
/// median over a few distinct request costs jumps between them when
/// the mix shifts.
fn plan(seed: u64, stream: u64, n: usize, payloads: usize) -> Vec<Planned> {
    let mut plan: Vec<Planned> = (0..n)
        .map(|j| Planned {
            payload: j % payloads,
            allocate: (j / payloads).is_multiple_of(4),
        })
        .collect();
    let mut rng = Rng::new(seed, stream);
    for i in (1..plan.len()).rev() {
        plan.swap(i, rng.between(0, i as u64) as usize);
    }
    plan
}

/// One answered request.
#[derive(Debug)]
struct Sample {
    planned: Planned,
    /// Send time minus due time: how late the generator ran.
    late_s: f64,
    /// Reply time minus send time.
    service_s: f64,
    /// Reply time minus due time.
    latency_s: f64,
    shed: bool,
    op: Op,
}

/// Sends `plan` at `rate` per second over two connections and returns
/// every request's sample plus the backlog left when the schedule ended.
/// With `speed`, the schedule pauses once a second of it: when every
/// request sent so far is answered, the reference kernel runs, and the
/// remaining due times move later by the pause. Each request's service
/// time is then recorded against the reference measured right after its
/// second, by request type (payload, `allocate` or not).
fn drive(
    socket: &Path,
    payloads: &[Payload],
    plan: &[Planned],
    rate: f64,
    mut speed: Option<&mut HostSpeed>,
) -> (Vec<Sample>, usize) {
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    let rx = Mutex::new(rx);
    let picked = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut paused = Duration::ZERO;
    let pause_every = (rate.round() as usize).max(1);
    let mut reference = Vec::new();
    std::thread::scope(|s| {
        let workers: Vec<_> = ["tenant-a", "tenant-b"]
            .into_iter()
            .map(|tenant| {
                let (rx, picked, answered) = (&rx, &picked, &answered);
                s.spawn(move || {
                    let mut client = Client::connect(socket, tenant);
                    let mut samples = Vec::new();
                    loop {
                        let next = rx
                            .lock()
                            .expect("no worker panics holding the queue")
                            .recv();
                        let Ok((i, due)) = next else { break };
                        picked.fetch_add(1, Ordering::SeqCst);
                        samples.push((i, request(&mut client, payloads, plan[i], due)));
                        answered.fetch_add(1, Ordering::SeqCst);
                    }
                    samples
                })
            })
            .collect();
        for i in 0..plan.len() {
            let on_schedule = start + Duration::from_secs_f64(i as f64 / rate);
            if let Some(speed) = speed.as_mut().filter(|_| i > 0 && i % pause_every == 0) {
                while answered.load(Ordering::SeqCst) < i {
                    std::thread::sleep(Duration::from_millis(1));
                }
                reference.push(speed.sample());
                paused = paused.max(Instant::now().saturating_duration_since(on_schedule));
            }
            let due = on_schedule + paused;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            tx.send((i, due)).expect("workers outlive the schedule");
        }
        let backlog = plan.len() - picked.load(Ordering::SeqCst);
        drop(tx);
        let samples: Vec<(usize, Sample)> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("request workers do not panic"))
            .collect();
        if let Some(speed) = speed {
            reference.push(speed.sample());
            for (i, s) in &samples {
                let kind = 2 * s.planned.payload + usize::from(s.planned.allocate);
                speed.record(kind, s.service_s, reference[i / pause_every]);
            }
        }
        (samples.into_iter().map(|(_, s)| s).collect(), backlog)
    })
}

/// Sends one request and checks its reply.
fn request(
    client: &mut Result<Client, bwsa::server::client::ClientError>,
    payloads: &[Payload],
    planned: Planned,
    due: Instant,
) -> Sample {
    let p = &payloads[planned.payload];
    let sent = Instant::now();
    let reply = match client {
        Ok(c) if planned.allocate => c
            .allocate(p.bytes.clone(), Some(p.threshold), TABLE, true)
            .map_err(|e| e.to_string()),
        Ok(c) => c
            .analyze(p.bytes.clone(), Some(p.threshold))
            .map_err(|e| e.to_string()),
        Err(e) => Err(format!("cannot connect: {e}")),
    };
    let done = Instant::now();
    let mut op = Op::new();
    let mut shed = false;
    match &reply {
        Ok(Response::Ok(body)) => {
            if planned.allocate {
                op.check(
                    "serve.allocation",
                    allocation_fields(body).as_ref() == Some(&p.allocation),
                    || format!("allocation reply {body}"),
                );
            } else {
                op.check("serve.summary", *body == p.summary, || {
                    format!("summary reply {body}")
                });
            }
        }
        other => {
            shed = matches!(
                other,
                Ok(Response::Error {
                    code: ErrorCode::Overload,
                    ..
                })
            );
            op.check("serve.reply", false, || format!("reply {other:?}"));
        }
    }
    Sample {
        planned,
        late_s: sent.duration_since(due).as_secs_f64(),
        service_s: done.duration_since(sent).as_secs_f64(),
        latency_s: done.duration_since(due).as_secs_f64(),
        shed,
        op,
    }
}

fn socket_path(ctx: &Ctx) -> PathBuf {
    ctx.work.join("d.sock")
}

/// Writes nothing to disk: the payloads travel in memory. Set-up is
/// generating and encoding them plus starting the daemon until it
/// answers a ping.
fn setup(ctx: &Ctx, dir: &Path) -> std::io::Result<(Vec<Payload>, Daemon)> {
    let payloads = payloads(ctx);
    let daemon = Daemon::start(&ctx.bwsa, &socket_path(ctx), 2, dir)?;
    Ok((payloads, daemon))
}

fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.latency_s * 1e3).collect()
}

/// The measured run: the nominal rate for `--seconds`, then the ladder.
pub fn run(ctx: &Ctx, report: &mut Report) -> std::io::Result<()> {
    let mut timed = ctx.setup(|dir| setup(ctx, dir));
    let (mut payloads, daemon) = timed.once()?;
    expect_answers(&mut payloads);
    let socket = socket_path(ctx);
    let mut speed = HostSpeed::new();

    let nominal_n = ((ctx.seconds * NOMINAL_RPS).round() as usize).max(1);
    let (samples, _) = drive(
        &socket,
        &payloads,
        &plan(ctx.seed, 0, nominal_n, payloads.len()),
        NOMINAL_RPS,
        Some(&mut speed),
    );
    let nominal = latencies_ms(&samples);
    for s in samples {
        report.finish(s.op);
    }

    let mut max_rps = 0.0;
    let mut rungs = 0;
    for (k, &rate) in LADDER.iter().enumerate() {
        let n = ((ctx.seconds / 8.0 * rate).round() as usize).max(1);
        let (samples, backlog) = drive(
            &socket,
            &payloads,
            &plan(ctx.seed, 1 + k as u64, n, payloads.len()),
            rate,
            None,
        );
        rungs += 1;
        let p95 = stats::quantile(&latencies_ms(&samples), 0.95);
        let clean = samples.iter().all(|s| s.op.ok());
        println!(
            "# ladder {rate} rps: p95 {p95:.3} ms, backlog {backlog}, {} requests",
            samples.len()
        );
        for s in samples {
            report.finish(s.op);
        }
        if p95 > LIMIT_MS || backlog > MAX_BACKLOG || !clean {
            break;
        }
        max_rps = rate;
    }
    let (code, rss) = daemon.stop()?;
    let mut op = Op::new();
    op.check("serve.drain", code == Some(0), || {
        format!("daemon exit {code:?}")
    });
    report.finish(op);
    // The repeats start (and stop) daemons of their own, so they run
    // once the measured one has drained.
    let setup = timed.finish()?;

    report.note("serve_p50_ms", "ms", stats::median(&nominal), nominal.len());
    report.note(
        "serve_p95_ms",
        "ms",
        stats::quantile(&nominal, 0.95),
        nominal.len(),
    );
    report.note("serve_max_rps", "1/s", max_rps, rungs);
    report.set("setup_s", "s", stats::median(&setup), setup.len());
    report.set("peak_rss_mb", "MB", rss, 1);
    speed.report(report);
    Ok(())
}

/// The traced run: the nominal rate for half of `--seconds`, then, per
/// payload, the request frame's encode and decode and an in-process
/// analysis of the same payload, layer by layer. What a round trip
/// spends beyond those two is the daemon's overhead.
pub fn traced(ctx: &Ctx, report: &mut Report, tr: &mut Tracer) -> std::io::Result<Attribution> {
    let dir = ctx.work.join("inputs");
    std::fs::create_dir_all(&dir)?;
    let (mut payloads, daemon) = setup(ctx, &dir)?;
    expect_answers(&mut payloads);
    let n = ((ctx.seconds * 0.5 * NOMINAL_RPS).round() as usize).max(1);
    let (samples, _) = drive(
        &socket_path(ctx),
        &payloads,
        &plan(ctx.seed, 0, n, payloads.len()),
        NOMINAL_RPS,
        None,
    );
    let (code, _) = daemon.stop()?;
    let mut op = Op::new();
    op.check("serve.drain", code == Some(0), || {
        format!("daemon exit {code:?}")
    });
    report.finish(op);

    for p in &payloads {
        let decoded = tr.span("server.frame", |_| {
            let frame = Request::Analyze {
                threshold: Some(p.threshold),
                trace: p.bytes.clone(),
            }
            .into_frame(1, "tenant-a");
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame).expect("in-memory write");
            let back = read_frame(&mut wire.as_slice(), usize::MAX).expect("frame round-trips");
            Request::from_frame(&back).expect("request round-trips")
        });
        let Request::Analyze { trace: bytes, .. } = decoded else {
            unreachable!("an analyze frame decodes to an analyze request")
        };
        let config = p.pipeline();
        let analysis = tr.span("server.analysis", |tr| {
            let trace = replay::decode(tr, p.format, &bytes).expect("payload decodes");
            replay::pipeline(tr, &trace, &config)
        });
        tr.span("allocation.allocate", |_| {
            analysis.allocation(Classified(true), TABLE as usize, &config.allocation)
        })
        .expect("valid table");
        let mut op = Op::new();
        op.check(
            "replay.summary",
            analysis.summary_json().to_pretty_string() == p.summary,
            || "the replayed summary differs from the expected one".to_owned(),
        );
        report.finish(op);
    }

    // One span of each per payload, in payload order.
    let frame_s = tr.durations_s("server.frame");
    let analysis_s = tr.durations_s("server.analysis");
    let allocate_s = tr.durations_s("allocation.allocate");
    let replayed: Vec<f64> = samples
        .iter()
        .map(|s| {
            let i = s.planned.payload;
            let work = analysis_s[i]
                + if s.planned.allocate {
                    allocate_s[i]
                } else {
                    0.0
                };
            work + frame_s[i]
        })
        .collect();
    let service: Vec<f64> = samples.iter().map(|s| s.service_s).collect();
    let overhead: Vec<f64> = service
        .iter()
        .zip(&replayed)
        .map(|(s, r)| (s - r) * 1e3)
        .collect();
    let late: Vec<f64> = samples.iter().map(|s| s.late_s * 1e3).collect();
    let sheds = samples.iter().filter(|s| s.shed).count();
    tr.add("server.requests", samples.len() as f64);
    tr.add("server.overhead_ms", stats::median(&overhead));
    tr.add("server.late_ms", stats::median(&late));
    tr.add("server.shed_frac", sheds as f64 / samples.len() as f64);
    for s in samples {
        report.finish(s.op);
    }
    // The daemon writes no RunReport for analyze requests.
    Ok(Attribution {
        wall_s: stats::median(&service),
        stage_s: 0.0,
        replay_s: stats::median(&replayed),
    })
}
