//! End-to-end daemon tests over a real Unix-domain socket: served
//! results are bit-identical to direct [`Session`] runs, failures are
//! typed frames on their own request, quotas and overload shed are
//! deterministic, and drain leaves nothing behind.

use bwsa_core::Session;
use bwsa_obs::json::Json;
use bwsa_server::server::ServerConfig;
use bwsa_server::{AdmissionConfig, QuotaError};
use bwsa_server::{
    Client, ErrorCode, Frame, QuotaLedger, Response, Server, ServerHandle, TenantQuotas,
};
use bwsa_trace::stream::StreamWriter;
use bwsa_trace::{BranchRecord, Trace};
use std::path::PathBuf;
use std::time::Duration;

/// A fresh socket path unique to this test.
fn socket_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bwsa-it-{}-{tag}.sock", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Deterministic BWSS2 bytes, `n` records.
fn trace_bytes(name: &str, n: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut writer = StreamWriter::new(&mut buf, name).unwrap();
    let mut lcg: u64 = 5;
    for i in 0..n {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        writer
            .push(BranchRecord::from_raw(
                0x4000 + (lcg >> 44) % 11 * 4,
                (lcg >> 21) & 1 == 1,
                i + 1,
            ))
            .unwrap();
    }
    writer.finish(n).unwrap();
    buf
}

/// Materialises BWSS2 bytes exactly the way the server does.
fn trace_of(bytes: &[u8]) -> Trace {
    let mut reader = bwsa_trace::stream::StreamReader::new(bytes).unwrap();
    let mut trace = Trace::new(reader.name().to_owned());
    for item in reader.by_ref() {
        trace.push(item.unwrap()).unwrap();
    }
    if let Some(total) = reader.total_instructions() {
        trace.meta_mut().total_instructions = total;
    }
    trace
}

fn spawn_server(tag: &str, tweak: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig::new(socket_path(tag));
    tweak(&mut config);
    Server::bind(config).unwrap().spawn()
}

fn expect_ok(response: Response) -> String {
    match response {
        Response::Ok(json) => json,
        Response::Window(json) => panic!("expected a terminal Ok, got a window frame: {json}"),
        Response::Error { code, message, .. } => {
            panic!("expected Ok, got {code}: {message}")
        }
    }
}

#[test]
fn served_analysis_is_bit_identical_to_a_direct_session_run() {
    let handle = spawn_server("identical", |_| {});
    let bytes = trace_bytes("identical", 900);

    let mut client = Client::connect(handle.socket(), "acme").unwrap();
    let served = expect_ok(client.analyze(bytes.clone(), None).unwrap());

    let trace = trace_of(&bytes);
    let direct = Session::new(&trace)
        .run()
        .unwrap()
        .summary_json()
        .to_pretty_string();
    assert_eq!(
        served, direct,
        "served result must be byte-for-byte the direct run"
    );

    // Allocation responses carry the same allocation the Session computes.
    let alloc = expect_ok(client.allocate(bytes, None, 16, true).unwrap());
    let doc = Json::parse(&alloc).unwrap();
    assert_eq!(doc.get("table_size").and_then(Json::as_u64), Some(16));

    handle.begin_shutdown();
    handle.join().unwrap();
}

#[test]
fn every_trace_format_uploads_to_the_same_answer() {
    let handle = spawn_server("formats", |_| {});
    let bwss = trace_bytes("formats", 800);
    let trace = trace_of(&bwss);
    let mut bwst = Vec::new();
    bwsa_trace::io::write_binary(&trace, &mut bwst).unwrap();
    let mut bws3 = Vec::new();
    bwsa_trace::columnar::write_columnar(&trace, &mut bws3).unwrap();

    let mut client = Client::connect(handle.socket(), "acme").unwrap();
    let analyzed = expect_ok(client.analyze(bwss.clone(), None).unwrap());
    let allocated = expect_ok(client.allocate(bwss, None, 16, true).unwrap());
    for (label, upload) in [("BWST", bwst), ("BWS3", bws3)] {
        assert_eq!(
            expect_ok(client.analyze(upload.clone(), None).unwrap()),
            analyzed,
            "{label} analyze must answer what the BWSS2 upload answers"
        );
        assert_eq!(
            expect_ok(client.allocate(upload, None, 16, true).unwrap()),
            allocated,
            "{label} allocate must answer what the BWSS2 upload answers"
        );
    }

    // A payload with no trace magic is refused with one error naming
    // every format the daemon accepts.
    match client.analyze(b"JUNK-not-a-trace".to_vec(), None).unwrap() {
        Response::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::Malformed);
            for magic in ["BWST", "BWSS", "BWS3"] {
                assert!(message.contains(magic), "{message}");
            }
        }
        other => panic!("expected a typed error, got {other:?}"),
    }

    handle.begin_shutdown();
    handle.join().unwrap();
}

#[test]
fn served_report_is_a_versioned_run_report_with_resilience() {
    let handle = spawn_server("report", |_| {});
    let bytes = trace_bytes("report", 700);

    let mut client = Client::connect(handle.socket(), "acme").unwrap();
    let served = expect_ok(client.report(bytes, Some(95)).unwrap());
    let doc = Json::parse(&served).unwrap();
    assert!(
        doc.get("run_report_version")
            .and_then(Json::as_u64)
            .is_some(),
        "report must carry its schema version: {served}"
    );
    assert_eq!(doc.get("command").and_then(Json::as_str), Some("serve"));
    let resilience = doc
        .get("resilience")
        .expect("supervised server runs record a resilience summary");
    assert!(
        matches!(resilience.get("supervised"), Some(Json::Bool(true))),
        "served report must record supervision: {served}"
    );
    assert!(
        doc.get("stages").is_some(),
        "report must carry stage timings: {served}"
    );
    // Per-request recording observer: the report covers exactly this run,
    // so the trace shape matches the upload, not cumulative daemon state.
    assert_eq!(
        doc.get("trace")
            .and_then(|t| t.get("records"))
            .and_then(Json::as_u64),
        Some(700)
    );

    handle.begin_shutdown();
    handle.join().unwrap();
}

#[test]
fn ping_status_and_per_tenant_counters() {
    let handle = spawn_server("status", |_| {});
    let mut alice = Client::connect(handle.socket(), "alice").unwrap();
    assert!(matches!(alice.ping().unwrap(), Response::Ok(_)));

    let bytes = trace_bytes("status", 300);
    expect_ok(alice.analyze(bytes, None).unwrap());

    let status = expect_ok(alice.status().unwrap());
    let doc = Json::parse(&status).unwrap();
    let counters = doc.get("metrics").and_then(|m| m.get("counters")).unwrap();
    assert!(
        counters
            .get("server.tenant.alice.requests")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 2,
        "per-tenant request counter missing from {status}"
    );
    assert_eq!(
        counters
            .get("server.tenant.alice.ok")
            .and_then(Json::as_u64),
        Some(2),
        "ping + analyze should both have succeeded"
    );
    assert_eq!(
        doc.get("server").and_then(|s| s.get("draining")).cloned(),
        Some(Json::Bool(false))
    );

    handle.begin_shutdown();
    handle.join().unwrap();
}

#[test]
fn poisoned_payloads_fail_typed_and_the_connection_survives() {
    let handle = spawn_server("poison", |_| {});
    let mut client = Client::connect(handle.socket(), "t").unwrap();

    // Garbage trace bytes: typed Malformed, same request, same connection.
    match client
        .analyze(b"this is not a BWSS2 stream".to_vec(), None)
        .unwrap()
    {
        Response::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::Malformed);
            assert!(message.contains("bad trace payload"), "{message}");
        }
        other => panic!("expected a typed error, got {other:?}"),
    }

    // An unknown request kind is typed too.
    match client
        .request_raw(Frame {
            request_id: 77,
            kind: 0x6f,
            tenant: "t".into(),
            body: Vec::new(),
        })
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected a typed error, got {other:?}"),
    }

    // The daemon and this very connection still work.
    let healthy = expect_ok(client.analyze(trace_bytes("poison", 200), None).unwrap());
    assert!(healthy.contains("working_sets"));

    handle.begin_shutdown();
    handle.join().unwrap();
}

#[test]
fn quota_exhaustion_is_a_typed_refusal_that_charges_nothing() {
    let handle = spawn_server("quota", |c| {
        c.quotas = TenantQuotas {
            max_concurrent: 4,
            max_in_flight_bytes: 64,
        };
    });
    let mut client = Client::connect(handle.socket(), "greedy").unwrap();
    let big = trace_bytes("quota", 400);
    assert!(big.len() > 64);
    match client.analyze(big, None).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Quota),
        other => panic!("expected quota refusal, got {other:?}"),
    }
    assert_eq!(
        handle.quota().in_flight(),
        (0, 0),
        "refusal must charge nothing"
    );

    handle.begin_shutdown();
    handle.join().unwrap();
}

#[test]
fn overload_sheds_with_a_retry_after_hint() {
    let handle = spawn_server("overload", |c| {
        c.admission = AdmissionConfig {
            workers: 1,
            shed_watermark: 0,
            jitter_seed: 3,
        };
    });
    // Occupy the daemon's only worker slot from outside: deterministic
    // overload with no timing games.
    let slot = handle.admission().enter().unwrap();

    let mut client = Client::connect(handle.socket(), "burst").unwrap();
    match client.analyze(trace_bytes("overload", 150), None).unwrap() {
        Response::Error {
            code,
            retry_after_ms,
            ..
        } => {
            assert_eq!(code, ErrorCode::Overload);
            let hint = retry_after_ms.expect("shed responses carry a retry-after hint");
            assert!(hint >= 1, "hint should be a real wait: {hint}ms");
        }
        other => panic!("expected overload shed, got {other:?}"),
    }
    assert_eq!(handle.admission().shed_total(), 1);

    // Quota charges from the shed request were rolled back.
    assert_eq!(handle.quota().in_flight(), (0, 0));

    // Once the slot frees, the same client is served normally.
    drop(slot);
    expect_ok(client.analyze(trace_bytes("overload", 150), None).unwrap());

    handle.begin_shutdown();
    handle.join().unwrap();
}

#[test]
fn shutdown_request_drains_cleanly_and_removes_the_socket() {
    let handle = spawn_server("drain", |_| {});
    let socket = handle.socket().to_path_buf();
    let mut client = Client::connect(&socket, "op").unwrap();
    let ack = expect_ok(client.shutdown().unwrap());
    assert!(ack.contains("draining"));

    handle.join().unwrap();
    assert!(!socket.exists(), "drain must remove the socket file");
    assert!(
        Client::connect(&socket, "late").is_err(),
        "late connections must be refused after drain"
    );
}

#[test]
fn concurrent_tenants_are_isolated() {
    let handle = spawn_server("concurrent", |_| {});
    let socket = handle.socket().to_path_buf();
    let bytes = trace_bytes("concurrent", 700);
    let expected = {
        let trace = trace_of(&bytes);
        Session::new(&trace)
            .run()
            .unwrap()
            .summary_json()
            .to_pretty_string()
    };

    let workers: Vec<_> = (0..4)
        .map(|i| {
            let socket = socket.clone();
            let bytes = bytes.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket, &format!("tenant-{i}")).unwrap();
                for _ in 0..3 {
                    let served = match client.analyze(bytes.clone(), None).unwrap() {
                        Response::Ok(json) => json,
                        Response::Window(json) => {
                            panic!("tenant-{i} got a window frame from analyze: {json}")
                        }
                        Response::Error { code, message, .. } => {
                            panic!("tenant-{i} failed: {code}: {message}")
                        }
                    };
                    assert_eq!(served, expected);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    assert_eq!(handle.quota().in_flight(), (0, 0));
    assert_eq!(handle.admission().occupancy(), (0, 0));

    handle.begin_shutdown();
    handle.join().unwrap();
}

#[test]
fn windowed_subscription_streams_summaries_then_the_exact_whole_trace_answer() {
    let handle = spawn_server("subscribe", |_| {});
    let socket = handle.socket().to_path_buf();
    let bytes = trace_bytes("subscribe", 900);
    let expected = {
        let trace = trace_of(&bytes);
        Session::new(&trace)
            .run()
            .unwrap()
            .summary_json()
            .to_pretty_string()
    };

    // A second tenant hammers whole-trace analyzes while the first
    // streams a windowed subscription: the exchanges must not interfere.
    let batch = {
        let socket = socket.clone();
        let bytes = bytes.clone();
        let expected = expected.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&socket, "batch").unwrap();
            for _ in 0..3 {
                assert_eq!(
                    expect_ok(client.analyze(bytes.clone(), None).unwrap()),
                    expected
                );
            }
        })
    };

    let mut client = Client::connect(&socket, "streamer").unwrap();
    let mut windows: Vec<String> = Vec::new();
    let terminal = client
        .subscribe(bytes.clone(), None, 128, false, |json| {
            windows.push(json.to_owned())
        })
        .unwrap();
    batch.join().unwrap();

    // Every window summary arrived before the terminal frame (the
    // callback only fires on pre-terminal frames) and the terminal
    // answer is byte-for-byte what `analyze` says for the same trace:
    // the windows fold into the exact whole-trace result.
    assert_eq!(expect_ok(terminal), expected);
    assert_eq!(windows.len(), 8, "900 records at 128/window: 7 full + tail");
    let mut folded_records = 0;
    for (i, json) in windows.iter().enumerate() {
        let doc = Json::parse(json).unwrap();
        assert_eq!(doc.get("index").and_then(Json::as_u64), Some(i as u64));
        folded_records += doc.get("records").and_then(Json::as_u64).unwrap();
    }
    assert_eq!(folded_records, 900);

    // The streamed frames are byte-identical to a local windowed run.
    let trace = trace_of(&bytes);
    let session =
        Session::new(&trace).with_windowing(bwsa_core::WindowConfig::branches(128).unwrap());
    let local = session.windowed().unwrap();
    assert_eq!(windows.len(), local.windows.len());
    for (json, summary) in windows.iter().zip(&local.windows) {
        assert_eq!(Json::parse(json).unwrap(), summary.to_json());
    }

    handle.begin_shutdown();
    handle.join().unwrap();
}

#[test]
fn corpus_request_answers_the_exact_local_fleet_summary() {
    // Lay out a 2-trace corpus on the server's filesystem.
    let dir = std::env::temp_dir().join(format!("bwsa-it-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("a.bwss"), trace_bytes("a", 600)).unwrap();
    std::fs::write(dir.join("b.bwss"), trace_bytes("b", 900)).unwrap();
    let manifest = dir.join("corpus.toml");
    std::fs::write(
        &manifest,
        "name = \"served\"\n\n[defaults]\nclass = \"synthetic\"\n\n\
         [[trace]]\npath = \"a.bwss\"\n\n[[trace]]\npath = \"b.bwss\"\n",
    )
    .unwrap();

    let handle = spawn_server("corpus", |_| {});
    let mut client = Client::connect(handle.socket(), "fleet").unwrap();
    let served = expect_ok(client.corpus(manifest.to_str().unwrap(), None, 2).unwrap());

    // Byte-for-byte the summary a local Corpus run produces — the
    // fleet fold is schedule-independent, so server jobs=2 matches a
    // local serial run.
    let local = bwsa_corpus::Corpus::open(&manifest)
        .unwrap()
        .session()
        .run_all()
        .to_json()
        .to_pretty_string();
    assert_eq!(served, local);
    let doc = Json::parse(&served).unwrap();
    assert_eq!(
        doc.get("corpus")
            .and_then(|c| c.get("entries"))
            .and_then(Json::as_u64),
        Some(2)
    );

    // A malformed manifest is a typed, free refusal.
    let bad = dir.join("bad.toml");
    std::fs::write(&bad, "[[trace]]\npath = \"ghost.bwss\"\n").unwrap();
    match client.corpus(bad.to_str().unwrap(), None, 0).unwrap() {
        Response::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::Malformed);
            assert!(message.contains("ghost.bwss"), "{message}");
        }
        other => panic!("expected a typed error, got {other:?}"),
    }

    // Every quota charge (summed trace file sizes) was released.
    assert_eq!(handle.quota().in_flight(), (0, 0));

    handle.begin_shutdown();
    handle.join().unwrap();
}

#[test]
fn corpus_quota_is_charged_by_summed_trace_sizes() {
    let dir = std::env::temp_dir().join(format!("bwsa-it-corpus-quota-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bytes = trace_bytes("q", 500);
    std::fs::write(dir.join("q.bwss"), &bytes).unwrap();
    let manifest = dir.join("corpus.toml");
    std::fs::write(&manifest, "[[trace]]\npath = \"q.bwss\"\n").unwrap();

    // Byte quota below the trace's on-disk size: typed quota refusal.
    let handle = spawn_server("corpus-quota", |c| {
        c.quotas = TenantQuotas {
            max_concurrent: 4,
            max_in_flight_bytes: bytes.len() as u64 - 1,
        };
    });
    let mut client = Client::connect(handle.socket(), "fleet").unwrap();
    match client.corpus(manifest.to_str().unwrap(), None, 0).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Quota),
        other => panic!("expected quota refusal, got {other:?}"),
    }
    assert_eq!(handle.quota().in_flight(), (0, 0));

    handle.begin_shutdown();
    handle.join().unwrap();
}

#[test]
fn cached_corpus_entries_are_not_charged_against_the_byte_quota() {
    let dir = std::env::temp_dir().join(format!("bwsa-it-corpus-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bytes = trace_bytes("c", 500);
    std::fs::write(dir.join("c.bwss"), &bytes).unwrap();
    let manifest = dir.join("corpus.toml");
    std::fs::write(&manifest, "[[trace]]\npath = \"c.bwss\"\n").unwrap();
    let cache = dir.join("cache");

    // Warm the server-local result cache under a generous quota.
    let warm_cache = cache.clone();
    let handle = spawn_server("corpus-cache-warm", move |c| {
        c.corpus_cache = Some(warm_cache);
    });
    let mut client = Client::connect(handle.socket(), "fleet").unwrap();
    let cold = expect_ok(client.corpus(manifest.to_str().unwrap(), None, 0).unwrap());
    handle.begin_shutdown();
    handle.join().unwrap();

    // A one-byte quota refuses any fresh analysis of this trace (see
    // the quota test above) — but with the entry cached, the request
    // charges zero in-flight bytes and is served byte-identically.
    let warmed_cache = cache.clone();
    let handle = spawn_server("corpus-cache-warmed", move |c| {
        c.corpus_cache = Some(warmed_cache);
        c.quotas = TenantQuotas {
            max_concurrent: 4,
            max_in_flight_bytes: 1,
        };
    });
    let mut client = Client::connect(handle.socket(), "fleet").unwrap();
    let warm = expect_ok(client.corpus(manifest.to_str().unwrap(), None, 0).unwrap());
    assert_eq!(warm, cold, "a cache replay must answer the same bytes");
    assert_eq!(handle.quota().in_flight(), (0, 0));

    handle.begin_shutdown();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn expired_request_deadlines_are_typed_per_request() {
    let handle = spawn_server("deadline", |c| {
        c.request_deadline = Some(Duration::from_nanos(1));
    });
    let mut client = Client::connect(handle.socket(), "slow").unwrap();
    match client.analyze(trace_bytes("deadline", 400), None).unwrap() {
        Response::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::Analysis);
            assert!(
                message.contains("deadline"),
                "deadline expiry should be named: {message}"
            );
        }
        other => panic!("expected a deadline failure, got {other:?}"),
    }
    // The daemon survives; the deadline was this request's alone.
    assert!(matches!(client.ping().unwrap(), Response::Ok(_)));

    handle.begin_shutdown();
    handle.join().unwrap();
}

#[test]
fn oversize_quota_error_names_the_limit() {
    let ledger = QuotaLedger::new(TenantQuotas {
        max_concurrent: 1,
        max_in_flight_bytes: 8,
    });
    match ledger.try_admit("t", 9) {
        Err(QuotaError::Oversize { requested, limit }) => {
            assert_eq!((requested, limit), (9, 8));
        }
        other => panic!("expected oversize, got {other:?}"),
    }
}
