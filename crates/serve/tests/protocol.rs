//! Loopback protocol tests: golden request/response behavior for every
//! endpoint, the CLI byte-identity contract, queue-full backpressure, and
//! the acceptance scenario — concurrent clients over one shared cache
//! with gc running underneath.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

use warpstl_core::jobs::{compact_job, JobOptions};
use warpstl_programs::generators::{generate_imm, ImmConfig};
use warpstl_programs::serialize::{ptp_from_text, ptp_to_text, stl_to_text};
use warpstl_programs::Stl;
use warpstl_serve::json::{escape, parse};
use warpstl_serve::{serve, ServeConfig};
use warpstl_store::Store;

/// One full HTTP exchange (the protocol is one request per connection).
/// Returns `(status, head, body)`.
fn exchange(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String, String) {
    let mut conn = TcpStream::connect(addr).unwrap();
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: warpstl\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    let (head, payload) = raw.split_once("\r\n\r\n").expect("complete response");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    (status, head.to_string(), payload.to_string())
}

fn imm_ptp_text(sb_count: usize) -> String {
    ptp_to_text(&generate_imm(&ImmConfig {
        sb_count,
        ..ImmConfig::default()
    }))
}

fn compact_body(ptp_text: &str) -> String {
    format!("{{\"ptp\": \"{}\"}}", escape(ptp_text))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("warpstl-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn health_metrics_and_unknown_endpoints() {
    let handle = serve(&ServeConfig::default()).unwrap();
    let addr = handle.addr();

    let (status, _, body) = exchange(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "{\"status\": \"ok\"}"));

    let (status, _, body) = exchange(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let metrics = parse(&body).expect("metrics must be valid JSON");
    assert_eq!(metrics.get("cache"), Some(&warpstl_serve::json::Json::Null));
    let queue = metrics.get("queue").expect("queue section");
    assert_eq!(queue.get("depth").unwrap().as_count(), Some(0));
    let jobs = metrics.get("jobs").expect("jobs section");
    assert_eq!(jobs.get("rejected").unwrap().as_count(), Some(0));

    let (status, _, _) = exchange(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _, _) = exchange(addr, "DELETE", "/compact", "");
    assert_eq!(status, 404);

    handle.shutdown();
}

#[test]
fn malformed_bodies_answer_400_with_an_explanation() {
    let handle = serve(&ServeConfig::default()).unwrap();
    let addr = handle.addr();

    for (target, body) in [
        ("/compact", "this is not json"),
        ("/compact", "{\"not_ptp\": 1}"),
        ("/compact", "{\"ptp\": 42}"),
        (
            "/compact",
            "{\"ptp\": \"x\", \"options\": {\"threads\": -1}}",
        ),
        ("/compact-stl", "{}"),
        ("/analyze", "{\"module\": 3}"),
        ("/lint", "[]"),
    ] {
        let (status, _, reply) = exchange(addr, "POST", target, body);
        assert_eq!(status, 400, "expected 400 for {target} body {body:?}");
        assert!(
            parse(&reply).unwrap().get("error").is_some(),
            "400 body must carry an error message: {reply}"
        );
    }

    // A parseable request naming an unknown module fails in the worker,
    // still as a 400 (the caller's mistake, not the server's).
    let (status, _, reply) = exchange(addr, "POST", "/analyze", "{\"module\": \"warp_scheduler\"}");
    assert_eq!(status, 400);
    assert!(reply.contains("unknown module"));

    // Well-formed JSON wrapping an unparseable PTP is also the caller's
    // mistake.
    let (status, _, _) = exchange(addr, "POST", "/compact", "{\"ptp\": \"not a ptp\"}");
    assert_eq!(status, 400);

    handle.shutdown();
}

#[test]
fn malformed_ptp_headers_answer_400_and_the_worker_serves_on() {
    // One worker: a job that killed it would leave the next job unanswered.
    let handle = serve(&ServeConfig {
        workers: Some(1),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let good = imm_ptp_text(2);
    let bad = good.replacen("; kernel 1 32", "; kernel 0 32", 1);
    assert_ne!(bad, good, "the generated PTP has a 1x32 launch");

    let (status, _, reply) = exchange(addr, "POST", "/compact", &compact_body(&bad));
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("kernel blocks"), "{reply}");
    let stl = format!("; STL lib\n{bad}");
    let body = format!("{{\"stl\": \"{}\"}}", escape(&stl));
    let (status, _, reply) = exchange(addr, "POST", "/compact-stl", &body);
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("kernel blocks"), "{reply}");

    let (status, _, _) = exchange(addr, "POST", "/compact", &compact_body(&good));
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn compact_report_bytes_match_the_cli_and_envelope_embeds_them() {
    let ptp_text = imm_ptp_text(4);
    // The CLI's `--json FILE` writes exactly `report.to_json()`, which is
    // exactly what `compact_job` returns — the oracle for the wire bytes.
    let oracle = compact_job(&ptp_text, &JobOptions::default(), None, None).unwrap();

    let handle = serve(&ServeConfig::default()).unwrap();
    let addr = handle.addr();

    let (status, _, raw) = exchange(
        addr,
        "POST",
        "/compact?format=report",
        &compact_body(&ptp_text),
    );
    assert_eq!(status, 200);
    assert_eq!(
        raw, oracle.report_json,
        "serve report bytes != CLI --json bytes"
    );

    // `options.backend` names a retired choice: like any key the server
    // does not read, it is ignored, whatever its value.
    let body = format!(
        "{{\"ptp\": \"{}\", \"options\": {{\"backend\": \"quantum\"}}}}",
        escape(&ptp_text)
    );
    let (status, _, raw) = exchange(addr, "POST", "/compact?format=report", &body);
    assert_eq!(status, 200, "{raw}");
    assert_eq!(raw, oracle.report_json, "an ignored key changed the report");

    let (status, _, envelope) = exchange(addr, "POST", "/compact", &compact_body(&ptp_text));
    assert_eq!(status, 200);
    let value = parse(&envelope).expect("envelope must be valid JSON");
    let compacted = value.get("compacted").unwrap().as_str().unwrap();
    assert_eq!(compacted, oracle.compacted);
    ptp_from_text(compacted).expect("compacted PTP must round-trip");
    assert!(value.get("report").unwrap().get("fc_after").is_some());

    handle.shutdown();
}

#[test]
fn stl_analyze_and_lint_jobs_answer_their_cli_shapes() {
    let mut stl = Stl::new("lib");
    stl.push(generate_imm(&ImmConfig {
        sb_count: 4,
        ..ImmConfig::default()
    }));
    let stl_text = stl_to_text(&stl);

    let handle = serve(&ServeConfig::default()).unwrap();
    let addr = handle.addr();

    let body = format!("{{\"stl\": \"{}\"}}", escape(&stl_text));
    let (status, _, raw) = exchange(addr, "POST", "/compact-stl?format=report", &body);
    assert_eq!(status, 200);
    // The CLI's compact-stl --json spelling: a pretty-printed array.
    assert!(
        raw.starts_with("[\n{") && raw.ends_with("}\n]\n"),
        "{raw:?}"
    );

    let (status, _, reply) = exchange(addr, "POST", "/analyze", "{\"module\": \"decoder_unit\"}");
    assert_eq!(status, 200);
    let value = parse(&reply).unwrap();
    assert_eq!(value.get("clean").unwrap().as_bool(), Some(true));
    assert!(value.get("report").is_some());

    // A dirty module is still a completed job; the report is the answer.
    let (status, _, reply) = exchange(addr, "POST", "/analyze", "{\"module\": \"comb-loop\"}");
    assert_eq!(status, 200);
    assert_eq!(
        parse(&reply).unwrap().get("clean").unwrap().as_bool(),
        Some(false)
    );

    let body = format!("{{\"ptp\": \"{}\"}}", escape(&imm_ptp_text(4)));
    let (status, _, reply) = exchange(addr, "POST", "/lint", &body);
    assert_eq!(status, 200);
    assert_eq!(
        parse(&reply).unwrap().get("clean").unwrap().as_bool(),
        Some(true)
    );

    handle.shutdown();
}

#[test]
fn full_queue_answers_429_with_retry_after_then_drains_with_503() {
    // Zero workers: accepted jobs sit in the queue forever, which makes
    // the capacity boundary deterministic.
    let config = ServeConfig {
        workers: Some(0),
        queue_cap: 2,
        ..ServeConfig::default()
    };
    let handle = serve(&config).unwrap();
    let addr = handle.addr();
    let body = compact_body(&imm_ptp_text(2));

    // Two jobs fill the queue. Keep their connections open — each client
    // is still waiting for an answer.
    let mut queued = Vec::new();
    for _ in 0..2 {
        let mut conn = TcpStream::connect(addr).unwrap();
        let request = format!(
            "POST /compact HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        conn.write_all(request.as_bytes()).unwrap();
        queued.push(conn);
    }
    // The acceptor handles connections strictly in order, so a completed
    // metrics exchange proves both jobs are enqueued.
    let (status, _, metrics) = exchange(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let depth = parse(&metrics)
        .unwrap()
        .get("queue")
        .unwrap()
        .get("depth")
        .unwrap()
        .as_count();
    assert_eq!(depth, Some(2));

    // The third job bounces with explicit backpressure.
    let (status, head, reply) = exchange(addr, "POST", "/compact", &body);
    assert_eq!(status, 429);
    assert!(
        head.contains("Retry-After: 1"),
        "missing Retry-After: {head}"
    );
    assert!(reply.contains("queue is full"));

    let (_, _, metrics) = exchange(addr, "GET", "/metrics", "");
    let value = parse(&metrics).unwrap();
    let jobs = value.get("jobs").unwrap();
    assert_eq!(jobs.get("rejected").unwrap().as_count(), Some(1));
    assert_eq!(jobs.get("accepted").unwrap().as_count(), Some(2));

    // Shutdown with no workers: the queued clients are told the truth.
    handle.shutdown();
    for mut conn in queued {
        let mut raw = String::new();
        conn.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 503 "), "queued job got: {raw}");
    }
}

#[test]
fn shutdown_drains_accepted_jobs_before_exiting() {
    let config = ServeConfig {
        workers: Some(1),
        ..ServeConfig::default()
    };
    let handle = serve(&config).unwrap();
    let addr = handle.addr();
    let body = compact_body(&imm_ptp_text(2));

    // Submit, then immediately request shutdown: the accepted job must
    // still complete (graceful drain), not get dropped.
    let mut conn = TcpStream::connect(addr).unwrap();
    let request = format!(
        "POST /compact?format=report HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(request.as_bytes()).unwrap();
    let (status, _, _) = exchange(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.shutdown();

    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200 "), "drained job got: {raw}");
}

/// The acceptance scenario: two concurrent clients submit the same module
/// against one shared cache directory while gc runs concurrently in
/// another process-shaped actor (a separate `Store` handle on the same
/// directory). Every response must be 200 with report bytes identical to
/// a solo CLI run.
#[test]
fn concurrent_clients_share_a_cache_and_match_the_solo_cli_run() {
    let ptp_text = imm_ptp_text(4);
    let oracle = compact_job(&ptp_text, &JobOptions::default(), None, None).unwrap();

    let cache_dir = temp_dir("shared-cache");
    let config = ServeConfig {
        workers: Some(2),
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    };
    let handle = serve(&config).unwrap();
    let addr = handle.addr();
    let body = Arc::new(compact_body(&ptp_text));

    let gc_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let gc_thread = {
        let (dir, stop) = (cache_dir.clone(), Arc::clone(&gc_stop));
        std::thread::spawn(move || {
            let store = Store::open(&dir).unwrap();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                store.gc().unwrap();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };

    let clients: Vec<_> = (0..2)
        .map(|_| {
            let body = Arc::clone(&body);
            std::thread::spawn(move || exchange(addr, "POST", "/compact?format=report", &body))
        })
        .collect();
    for client in clients {
        let (status, _, raw) = client.join().unwrap();
        assert_eq!(status, 200, "concurrent client failed: {raw}");
        assert_eq!(
            raw, oracle.report_json,
            "shared-cache run diverged from solo CLI"
        );
    }

    // A warm rerun replays from the store the concurrent run populated.
    let (status, _, raw) = exchange(addr, "POST", "/compact?format=report", &body);
    assert_eq!(status, 200);
    assert_eq!(raw, oracle.report_json);
    let (_, _, metrics) = exchange(addr, "GET", "/metrics", "");
    let value = parse(&metrics).unwrap();
    let cache = value.get("cache").expect("cache section");
    assert!(cache.get("hits").unwrap().as_count().unwrap() >= 1);
    assert_eq!(cache.get("corrupt").unwrap().as_count(), Some(0));

    gc_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    gc_thread.join().unwrap();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}
