//! The supervised long-lived farm end-to-end: crash/halt recovery with
//! bounded restarts from mid-run checkpoints, the dynamic tenant lifecycle
//! API (`POST /tenants`, `DELETE /tenants/<id>`), and a status endpoint
//! that answers hostile input with 4xx instead of wedging.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::core::{Checkpoint, CompiledModel};
use sg_cyber_range::farm::{
    http_get, http_request, run_farm, run_farm_with_status, FarmConfig, StatusServer,
};
use sg_cyber_range::models::epic_bundle;
use sg_cyber_range::net::SimDuration;
use sg_cyber_range::obs::json::{self, Value};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A scratch directory under the target dir that is removed on drop, so
/// repeated test runs never see stale tenant sinks.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(name: &str) -> ScratchDir {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir creates");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Polls `path` on the endpoint until it answers or the deadline passes.
fn get_with_retry(addr: &str, path: &str, deadline: Duration) -> Option<String> {
    let start = Instant::now();
    loop {
        match http_get(addr, path) {
            Ok(body) => return Some(body),
            Err(_) if start.elapsed() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return None,
        }
    }
}

/// A tenant that halts every attempt is restarted from its checkpoint with
/// backoff until the circuit breaker gives it up — and every lifecycle
/// transition lands in the farm journal and the report.
#[test]
fn supervisor_restarts_halted_tenant_then_gives_up() {
    let scratch = ScratchDir::new("farm_supervisor_giveup");
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    let config = FarmConfig {
        tenants: 1,
        threads: 1,
        sim_seconds: 2,
        // An impossible budget: every step overruns, so every attempt halts
        // after exactly `max_overruns` steps.
        step_budget_ms: Some(0),
        max_overruns: 2,
        restart_max: 2,
        restart_backoff_ms: 1,
        out_dir: Some(scratch.0.clone()),
        ..FarmConfig::default()
    };

    let report = run_farm(model, &config);

    assert_eq!(report.tenants_failed, 0, "{:?}", report.per_tenant);
    assert_eq!(report.restarts_total, 2, "restart budget fully spent");
    assert_eq!(report.tenants_given_up, 1);
    let tenant = &report.per_tenant[0];
    assert!(tenant.given_up, "circuit breaker abandoned the tenant");
    assert!(tenant.halted, "the final attempt still halted");
    assert_eq!(tenant.restarts, 2);
    assert!(
        tenant.steps >= 4,
        "restarts resume from the checkpoint and make forward progress \
         (2 steps per attempt over 3 attempts), got {} steps",
        tenant.steps
    );

    // The given-up tenant's record is its final attempt's sinks.
    let journal = scratch.0.join("tenant-0000.journal.jsonl");
    assert!(scratch.0.join("tenant-0000.metrics.json").exists());
    assert_eq!(
        tenant.journal_path.as_deref(),
        Some(journal.to_string_lossy().as_ref())
    );
    let journal = std::fs::read_to_string(&journal).expect("tenant journal");
    assert!(
        journal.contains("\"type\":\"StepOverrun\""),
        "the final attempt journals the overruns that halted it"
    );

    // Checkpoint capture latency flows into the farm-level report.
    assert!(report.checkpoint_p50_seconds > 0.0);
    assert!(report.checkpoint_p99_seconds >= report.checkpoint_p50_seconds);

    // The supervision story is replayable from the farm journal.
    let farm_journal =
        std::fs::read_to_string(scratch.0.join("farm.journal.jsonl")).expect("farm journal");
    assert!(farm_journal.contains("\"type\":\"TenantCheckpointed\""));
    assert!(farm_journal.contains("\"type\":\"TenantRestarted\""));
    assert!(farm_journal.contains("\"restarts\":1"));
    assert!(farm_journal.contains("\"restarts\":2"));
    assert!(farm_journal.contains("\"type\":\"TenantGivenUp\""));
}

/// `POST /tenants` admits a tenant mid-run (and sheds load with 429 at the
/// cap), `DELETE /tenants/<id>` drains gracefully: a final checkpoint file
/// and flushed sinks on disk, `drained` state in the report.
#[test]
fn lifecycle_api_admits_and_drains_tenants_mid_run() {
    let scratch = ScratchDir::new("farm_lifecycle");
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    let server = StatusServer::bind("127.0.0.1:0").expect("ephemeral port binds");
    let addr = server.local_addr().to_string();
    let config = FarmConfig {
        tenants: 1,
        threads: 2,
        // Far longer than the test will let it run: the drain ends it.
        sim_seconds: 600,
        interval: Some(SimDuration::from_millis(1)),
        admit_max: 1,
        out_dir: Some(scratch.0.clone()),
        ..FarmConfig::default()
    };
    let farm = std::thread::spawn({
        let model = model.clone();
        move || run_farm_with_status(model, &config, Some(server))
    });
    assert_eq!(
        get_with_retry(&addr, "/healthz", Duration::from_secs(30)).as_deref(),
        Some("ok\n")
    );

    // Admit one extra tenant; the next admission is over the cap.
    let (code, body) = http_request(&addr, "POST", "/tenants").expect("admit answers");
    assert_eq!(code, 201, "{body}");
    assert!(body.contains("\"tenant\":1"), "{body}");
    let (code, _) = http_request(&addr, "POST", "/tenants").expect("second admit answers");
    assert_eq!(code, 429, "admission over the cap sheds load");

    // Both tenants become visible and running; wait so each has an attempt
    // (and therefore a checkpoint anchor) before draining.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status =
            json::parse(&http_get(&addr, "/status").expect("/status answers")).expect("valid JSON");
        assert_eq!(status.get("tenants").and_then(Value::as_u64), Some(2));
        let per_tenant = status.get("per_tenant").and_then(Value::as_array).unwrap();
        assert_eq!(per_tenant.len(), 2);
        let all_running = per_tenant.iter().all(|t| {
            t.get("state").and_then(Value::as_str) == Some("running")
                && t.get("steps").and_then(Value::as_u64).unwrap_or(0) > 0
        });
        if all_running {
            break;
        }
        assert!(Instant::now() < deadline, "tenants must start: {status:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The supervision instruments are registered (and scrapeable) even
    // before any restart happens.
    let metrics = http_get(&addr, "/metrics").expect("/metrics answers");
    assert!(metrics.contains("# TYPE sgcr_farm_restarts_total counter"));
    assert!(metrics.contains("# TYPE sgcr_farm_checkpoint_seconds histogram"));

    // Bad lifecycle requests answer 4xx.
    let (code, _) = http_request(&addr, "DELETE", "/tenants/99").expect("answers");
    assert_eq!(code, 404, "unknown tenant");
    let (code, _) = http_request(&addr, "DELETE", "/tenants/zero").expect("answers");
    assert_eq!(code, 400, "non-numeric tenant id");

    // Drain both tenants; the farm winds down on its own.
    for tenant in [0usize, 1] {
        let (code, body) =
            http_request(&addr, "DELETE", &format!("/tenants/{tenant}")).expect("drain answers");
        assert_eq!(code, 202, "{body}");
        assert!(body.contains("\"draining\":true"), "{body}");
    }

    let report = farm.join().expect("farm thread joins");
    assert_eq!(report.tenants_failed, 0, "{:?}", report.per_tenant);
    assert_eq!(report.tenants_drained, 2);
    assert_eq!(report.per_tenant.len(), 2, "admitted tenant is reported");
    for t in &report.per_tenant {
        assert!(t.drained, "tenant {} drained", t.tenant);
        assert!(!t.given_up);

        // Graceful drain leaves a final checkpoint beside flushed sinks.
        let checkpoint_path = scratch
            .0
            .join(format!("tenant-{:04}.checkpoint.json", t.tenant));
        let text = std::fs::read_to_string(&checkpoint_path).expect("checkpoint file written");
        let checkpoint = Checkpoint::from_json(&text).expect("checkpoint file decodes");
        assert_eq!(
            checkpoint.steps(),
            t.steps,
            "checkpoint is the drain boundary"
        );
        let journal = scratch
            .0
            .join(format!("tenant-{:04}.journal.jsonl", t.tenant));
        assert!(journal.is_file(), "drained tenant's journal is flushed");
    }
}

/// Sends `payload` raw, optionally half-closing the write side, and returns
/// the HTTP status line the endpoint answers with (empty if it just closed).
fn raw_request(addr: &str, payload: &[u8], half_close: bool) -> String {
    let mut stream = TcpStream::connect(addr).expect("endpoint connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(payload).expect("payload sends");
    stream.flush().unwrap();
    if half_close {
        stream.shutdown(std::net::Shutdown::Write).unwrap();
    }
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    String::from_utf8_lossy(&response)
        .lines()
        .next()
        .unwrap_or("")
        .to_string()
}

/// Hostile input gets a best-effort 4xx and never wedges the accept loop:
/// oversized request heads, truncated requests, malformed request lines,
/// unknown methods, and unknown paths are all answered, and `/healthz`
/// still works afterwards.
#[test]
fn status_endpoint_survives_hostile_input() {
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    let server = StatusServer::bind("127.0.0.1:0").expect("ephemeral port binds");
    let addr = server.local_addr().to_string();
    let config = FarmConfig {
        tenants: 1,
        threads: 1,
        // A day: longer than the test runs, drip included, in any build;
        // the drain ends it.
        sim_seconds: 86_400,
        interval: Some(SimDuration::from_millis(1)),
        ..FarmConfig::default()
    };
    let farm = std::thread::spawn({
        let model = model.clone();
        move || run_farm_with_status(model, &config, Some(server))
    });
    assert_eq!(
        get_with_retry(&addr, "/healthz", Duration::from_secs(30)).as_deref(),
        Some("ok\n")
    );

    // An oversized request line (no terminator within the 8 KiB head cap).
    let oversized = vec![b'A'; 16 * 1024];
    assert!(
        raw_request(&addr, &oversized, false).contains(" 431 "),
        "oversized head must be rejected"
    );

    // A truncated request: the client hangs up before the blank line.
    assert!(
        raw_request(&addr, b"GET /status HTTP/1.1\r\n", true).contains(" 400 "),
        "truncated head must be rejected"
    );

    // A request line without a path.
    assert!(
        raw_request(&addr, b"GARBAGE\r\n\r\n", true).contains(" 400 "),
        "malformed request line must be rejected"
    );

    // A client that drips its head a byte every 300 ms, sooner than any one
    // read times out: the head's one deadline cuts it off, so `/healthz`,
    // which connects after it, answers while the drip still runs.
    let mut stream = TcpStream::connect(&addr).expect("endpoint connects");
    stream.write_all(b"A").expect("first byte sends");
    let drip = std::thread::spawn(move || {
        for _ in 0..40 {
            std::thread::sleep(Duration::from_millis(300));
            if stream.write_all(b"A").is_err() {
                break;
            }
        }
    });
    let start = Instant::now();
    assert_eq!(http_get(&addr, "/healthz").unwrap(), "ok\n");
    let waited = start.elapsed();
    assert!(
        waited < Duration::from_millis(1500),
        "/healthz waited {waited:?} behind a dripping client"
    );
    drip.join().expect("drip thread joins");

    // Unknown method and unknown path.
    assert_eq!(http_request(&addr, "BREW", "/status").unwrap().0, 405);
    assert_eq!(http_request(&addr, "GET", "/no-such-path").unwrap().0, 404);
    assert_eq!(http_request(&addr, "POST", "/status").unwrap().0, 404);

    // The endpoint is unfazed: health and admin both still answer.
    assert_eq!(http_get(&addr, "/healthz").unwrap(), "ok\n");
    let (code, _) = http_request(&addr, "DELETE", "/tenants/0").expect("drain answers");
    assert_eq!(code, 202);

    let report = farm.join().expect("farm thread joins");
    assert_eq!(report.tenants_drained, 1);
    assert_eq!(report.tenants_failed, 0, "{:?}", report.per_tenant);
}
