//! Real-socket integration tests: the spawned `campaignd` binary serving
//! HTTP over an ephemeral port — health, stats, submission, report
//! identity against an in-process run, backpressure, and graceful drain —
//! plus an in-process `Server` that must drain on `/shutdown` alone.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

use campaignd::checkpoint::Manifest;
use campaignd::server::{DaemonConfig, Server};
use campaignd::spec::MAX_JOB_CELLS;
use common::{http, job_id, read_response, stream_to_end, temp_state, wait_for_status, Daemon};
use platform::experiment::RunnerConfig;
use platform::resilience::{run_resilience_campaign_with, ResilienceConfig};

#[test]
fn health_errors_and_pipelining() {
    let state = temp_state("health");
    let mut daemon = Daemon::launch(&state, &[]);

    let (status, body) = http(&daemon.addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\": true"), "{body}");

    let (status, body) = http(&daemon.addr, "GET", "/stats", None);
    assert_eq!(status, 200);
    for key in ["queue_depth", "queue_cap", "shed", "cells_done", "jobs"] {
        assert!(body.contains(key), "missing {key} in {body}");
    }

    assert_eq!(http(&daemon.addr, "GET", "/nope", None).0, 404);
    assert_eq!(http(&daemon.addr, "GET", "/jobs/job-9999-ffffffff", None).0, 404);
    assert_eq!(http(&daemon.addr, "DELETE", "/healthz", None).0, 405);
    let (status, body) = http(&daemon.addr, "POST", "/jobs", Some("{\"kind\": \"nope\"}"));
    assert_eq!(status, 400);
    assert!(body.contains("error"), "{body}");
    // Malformed framing is rejected with a typed error, not a hang.
    let (status, _) = http(&daemon.addr, "G@T", "/healthz", None);
    assert_eq!(status, 400);

    // Two pipelined requests on one connection get two responses.
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\n")
        .unwrap();
    let mut carry = Vec::new();
    let (first, _) = read_response(&mut stream, &mut carry);
    let (second, body) = read_response(&mut stream, &mut carry);
    assert_eq!((first, second), (200, 200));
    assert!(body.contains("queue_depth"), "{body}");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn submitted_job_reproduces_the_in_process_report() {
    let state = temp_state("report");
    let mut daemon = Daemon::launch(&state, &[]);

    let (status, body) = http(
        &daemon.addr,
        "POST",
        "/jobs",
        Some("{\"kind\": \"resilience\", \"base_seed\": 7, \"reps\": 1}"),
    );
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"cells_total\": 216"), "{body}");
    let id = job_id(&body);

    // Before completion the report endpoint says "not yet", typed.
    let (status, _) = http(&daemon.addr, "GET", &format!("/jobs/{id}/report"), None);
    assert_eq!(status, 409);

    // The NDJSON stream emits parseable event lines while the job runs.
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(format!("GET /jobs/{id}/stream HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    let mut lines = BufReader::new(stream).lines();
    let mut head = String::new();
    for line in lines.by_ref() {
        let line = line.unwrap();
        if line.is_empty() {
            break; // end of the response head
        }
        head.push_str(&line);
    }
    assert!(head.contains("application/x-ndjson"), "{head}");
    let first_event = lines.next().unwrap().unwrap();
    assert!(
        first_event.starts_with("{\"event\": \"job\""),
        "{first_event}"
    );
    drop(lines); // a vanishing stream client must not disturb the job

    wait_for_status(&daemon.addr, &id, "completed", Duration::from_secs(180));
    let (status, report) = http(&daemon.addr, "GET", &format!("/jobs/{id}/report"), None);
    assert_eq!(status, 200);

    // The canonical campaign identity (seed 7, Degrade defense) shared
    // with the `resilience` bench target, pinned to one rep for test
    // speed — exactly what the submitted job asked for.
    let cfg = ResilienceConfig {
        reps: 1,
        ..bench::canonical_resilience_config()
    };
    let expected = run_resilience_campaign_with(RunnerConfig::default(), &cfg).to_json();
    assert_eq!(
        report, expected,
        "daemon report must be byte-identical to the in-process campaign"
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

/// The daemon settles a job (status, report) before it ends the job's
/// stream, so the first report request after the stream closes must get
/// the final answer — 200, or 410 for a failed job — never a 409.
#[test]
fn report_is_settled_when_the_stream_ends() {
    let state = temp_state("settled");
    let mut daemon = Daemon::launch(&state, &[]);
    // (attack, base seed, chaos knobs, first report status, last event)
    let jobs = [
        ("steering_right", 1, "", 200, "completed"),
        ("acceleration", 2, "", 200, "completed"),
        (
            "deceleration",
            3,
            r#", "panic_cells": [[0, 1000]]"#,
            410,
            "failed",
        ),
        ("steering_left", 4, "", 200, "completed"),
    ];
    for (attack, seed, chaos, want, terminal) in jobs {
        let body = format!(
            "{{\"kind\": \"attack\", \"strategy\": \"context_aware\", \
\"attack\": \"{attack}\", \"base_seed\": {seed}, \"reps\": 1{chaos}}}"
        );
        let (status, reply) = http(&daemon.addr, "POST", "/jobs", Some(&body));
        assert_eq!(status, 202, "{reply}");
        let id = job_id(&reply);
        let events = stream_to_end(&daemon.addr, &id, Duration::from_secs(180));
        let last = events.last().expect("stream carried events");
        assert!(
            last.contains(&format!("\"status\": \"{terminal}\"")),
            "{last}"
        );
        let (status, report) = http(&daemon.addr, "GET", &format!("/jobs/{id}/report"), None);
        assert_eq!(
            status, want,
            "first report GET after the stream ended: {report}"
        );
    }

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

/// A job that `--resume` restores as completed or failed is already
/// terminal, so its stream must replay the terminal event and end rather
/// than wait for progress that will never come.
#[test]
fn resumed_terminal_jobs_end_their_streams() {
    let state = temp_state("resumed-terminal");
    let mut daemon = Daemon::launch(&state, &[]);
    // (chaos knobs, terminal status)
    let jobs = [
        ("", "completed"),
        (r#", "panic_cells": [[0, 1000]]"#, "failed"),
    ];
    let mut ids = Vec::new();
    for (seed, (chaos, terminal)) in jobs.into_iter().enumerate() {
        let body = format!(
            "{{\"kind\": \"attack\", \"strategy\": \"context_aware\", \
\"attack\": \"steering_right\", \"base_seed\": {seed}, \"reps\": 1{chaos}}}"
        );
        let (status, reply) = http(&daemon.addr, "POST", "/jobs", Some(&body));
        assert_eq!(status, 202, "{reply}");
        let id = job_id(&reply);
        stream_to_end(&daemon.addr, &id, Duration::from_secs(180));
        ids.push((id, terminal));
    }
    daemon.shutdown();

    let mut daemon = Daemon::launch(&state, &["--resume"]);
    for (id, terminal) in &ids {
        let events = stream_to_end(&daemon.addr, id, Duration::from_secs(10));
        let last = events.last().expect("stream carried the terminal event");
        assert!(
            last.contains("\"event\": \"job\"")
                && last.contains(&format!("\"status\": \"{terminal}\"")),
            "{id}: {last}"
        );
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

/// A job bigger than `MAX_JOB_CELLS` is refused with 400 before it reaches
/// the queue or the manifest, so it can neither make the daemon build its
/// plan nor come back on `--resume`. A manifest that already holds one
/// (written before the cap existed) resumes without it.
#[test]
fn oversized_jobs_are_rejected_and_the_daemon_stays_up() {
    let state = temp_state("oversized");
    let mut daemon = Daemon::launch(&state, &[]);
    let huge = [
        r#"{"kind": "resilience", "base_seed": 7, "reps": 4294967295}"#,
        r#"{"kind": "attack", "strategy": "context_aware", "attack": "acceleration", "reps": 4294967295}"#,
    ];
    for body in huge {
        let (status, reply) = http(&daemon.addr, "POST", "/jobs", Some(body));
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains(&MAX_JOB_CELLS.to_string()), "{reply}");
    }
    let (status, body) = http(&daemon.addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");
    let (_, stats) = http(&daemon.addr, "GET", "/stats", None);
    assert!(
        stats.contains("\"queue_depth\": 0,") && stats.contains("\"accepted\": 0,"),
        "{stats}"
    );
    daemon.shutdown();
    let manifest = std::fs::read_to_string(Manifest::path_in(&state)).unwrap();
    assert!(!manifest.contains("4294967295"), "{manifest}");

    Manifest::open(&state)
        .and_then(|mut m| m.record_job("job-0000-0badcafe", huge[0]))
        .unwrap();
    let mut daemon = Daemon::launch(&state, &["--resume"]);
    assert_eq!(http(&daemon.addr, "GET", "/healthz", None).0, 200);
    let (status, _) = http(&daemon.addr, "GET", "/jobs/job-0000-0badcafe", None);
    assert_eq!(status, 404);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn overload_sheds_with_429_and_drain_is_graceful() {
    let state = temp_state("overload");
    let mut daemon = Daemon::launch(&state, &["--queue-cap", "1", "--workers", "1"]);

    // Job A: cell 0 sleeps long enough to pin the single worker.
    let slow = "{\"kind\": \"resilience\", \"base_seed\": 7, \"reps\": 1, \
\"delay_cells\": [[0, 1500], [1, 1500]]}";
    let (status, body) = http(&daemon.addr, "POST", "/jobs", Some(slow));
    assert_eq!(status, 202, "{body}");
    let id_a = job_id(&body);
    wait_for_status(&daemon.addr, &id_a, "running", Duration::from_secs(10));

    // Job B fills the queue (cap 1); job C is shed with backpressure.
    let (status, body) = http(&daemon.addr, "POST", "/jobs", Some(slow));
    assert_eq!(status, 202, "{body}");
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let payload = slow;
    stream
        .write_all(
            format!(
                "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{payload}",
                payload.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        use std::io::Read;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&chunk[..n]);
                if raw.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 429"), "{text}");
    assert!(text.contains("Retry-After: 1"), "{text}");

    let (_, stats) = http(&daemon.addr, "GET", "/stats", None);
    assert!(stats.contains("\"shed\": 1"), "{stats}");
    assert!(stats.contains("\"queue_depth\": 1"), "{stats}");

    // Drain: the running job is interrupted at a chunk boundary (its WAL
    // keeps the finished cells), the queued job is left for resume, and
    // the process exits cleanly.
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn shutdown_alone_wakes_the_accept_loop() {
    // An in-process server with no client but the one that asks it to
    // drain: the accept loop blocks in `accept`, so only the drain's own
    // wake-up connection can end it.
    let state = temp_state("wake");
    let cfg = DaemonConfig {
        state_dir: state.clone(),
        ..DaemonConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (done, returned) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let outcome = server.run();
        let _ = done.send(());
        outcome
    });

    let (status, body) = http(&addr, "POST", "/shutdown", None);
    assert_eq!(status, 202, "{body}");
    returned
        .recv_timeout(Duration::from_secs(2))
        .expect("Server::run returns within its 2 s drain window");
    runner.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&state);
}
