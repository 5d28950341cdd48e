//! The farm's live observability plane end-to-end: a 4-tenant farm serves
//! `/metrics` (Prometheus text exposition), `/status` (deterministic
//! per-tenant JSON), and `/healthz` while it runs; the exposition format
//! itself is pinned by a golden fixture.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::core::CompiledModel;
use sg_cyber_range::farm::{http_get, run_farm_with_status, FarmConfig, StatusServer};
use sg_cyber_range::models::epic_bundle;
use sg_cyber_range::net::SimDuration;
use sg_cyber_range::obs::json::Value;
use sg_cyber_range::obs::{json, prom, HistogramSnapshot, MetricsSnapshot};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// The Prometheus text exposition of a known snapshot is byte-pinned by a
/// committed golden file, so exporter drift is a reviewed diff, not an
/// accident a scrape config discovers in production.
#[test]
fn prometheus_exposition_matches_golden_fixture() {
    let snapshot = MetricsSnapshot {
        counters: vec![
            ("farm.ranges_total".to_string(), 4),
            ("range.solve_errors_total".to_string(), 1),
        ],
        gauges: vec![
            ("farm.tenants_running".to_string(), 2.0),
            ("range.step_overrun_ratio".to_string(), 0.25),
        ],
        histograms: vec![(
            "range.step_seconds".to_string(),
            HistogramSnapshot {
                count: 5,
                sum: 0.0105,
                buckets: vec![(0.001, 3), (0.01, 1), (f64::INFINITY, 1)],
            },
        )],
        journal_dropped: 2,
        spans_dropped: 0,
    };
    let rendered = prom::render(&snapshot);
    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/obs/metrics.prom"),
    )
    .expect("golden fixture readable");
    assert_eq!(
        rendered, golden,
        "Prometheus exposition drifted from tests/fixtures/obs/metrics.prom"
    );
}

/// The names in the farm-only table of docs/observability.md: the first
/// backticked cell of each row of the table after its introducing line.
fn farm_only_catalogue() -> BTreeSet<String> {
    let doc = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/observability.md"),
    )
    .expect("docs/observability.md readable");
    let (_, table) = doc
        .split_once("Farm-only instruments exported alongside the merged tenant metrics:")
        .expect("the farm-only table is introduced");
    let names: BTreeSet<String> = table
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .filter_map(|row| row.split('`').nth(1))
        .map(str::to_string)
        .collect();
    assert!(!names.is_empty(), "the farm-only table has rows");
    names
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

#[test]
fn live_farm_serves_status_and_metrics_over_http() {
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");

    // Calibrate the workload so the farm stays alive for a few wall-clock
    // seconds on this machine: time a small single-tenant run first.
    let probe = FarmConfig {
        tenants: 1,
        sim_seconds: 2,
        interval: Some(SimDuration::from_millis(1)),
        ..FarmConfig::default()
    };
    let probe_start = Instant::now();
    let probe_report = run_farm_with_status(model.clone(), &probe, None);
    assert_eq!(probe_report.tenants_failed, 0);
    let wall_per_sim_second = (probe_start.elapsed().as_secs_f64() / 2.0).max(1e-4);
    let sim_seconds = ((4.0 / wall_per_sim_second) as u64).clamp(4, 100_000);

    let server = StatusServer::bind("127.0.0.1:0").expect("ephemeral port binds");
    let addr = server.local_addr().to_string();
    let config = FarmConfig {
        tenants: 4,
        threads: 2,
        sim_seconds,
        interval: Some(SimDuration::from_millis(1)),
        ..FarmConfig::default()
    };
    let farm = std::thread::spawn({
        let model = model.clone();
        move || run_farm_with_status(model, &config, Some(server))
    });

    // The endpoint must come up with the farm.
    let health = get_with_retry(&addr, "/healthz", Duration::from_secs(30))
        .expect("/healthz answers while the farm runs");
    assert_eq!(health, "ok\n");

    // `/status` round-trips through the JSON parser with the documented
    // shape: farm dimensions, live counts, and one entry per tenant.
    let status_body =
        get_with_retry(&addr, "/status", Duration::from_secs(10)).expect("/status answers");
    let status = json::parse(&status_body).expect("/status body is valid JSON");
    assert_eq!(status.get("tenants").and_then(Value::as_u64), Some(4));
    assert_eq!(status.get("threads").and_then(Value::as_u64), Some(2));
    assert_eq!(
        status.get("sim_seconds").and_then(Value::as_u64),
        Some(sim_seconds)
    );
    assert_eq!(status.get("scenario").and_then(Value::as_bool), Some(false));
    let per_tenant = status
        .get("per_tenant")
        .and_then(Value::as_array)
        .expect("per_tenant array present");
    assert_eq!(per_tenant.len(), 4);
    let states = ["pending", "running", "completed", "halted", "failed"];
    for (i, t) in per_tenant.iter().enumerate() {
        assert_eq!(t.get("tenant").and_then(Value::as_u64), Some(i as u64));
        let state = t.get("state").and_then(Value::as_str).expect("state");
        assert!(states.contains(&state), "unknown state {state}");
        assert!(t.get("steps").and_then(Value::as_u64).is_some());
        assert!(t.get("budget_overruns").and_then(Value::as_u64).is_some());
        assert!(t.get("solve_errors").and_then(Value::as_u64).is_some());
    }

    // `/metrics` is valid Prometheus text exposition with farm-aggregated
    // step-latency and per-plane histograms.
    let metrics =
        get_with_retry(&addr, "/metrics", Duration::from_secs(10)).expect("/metrics answers");
    assert!(metrics.contains("# TYPE sgcr_farm_ranges_total counter"));
    assert!(metrics.contains("# TYPE sgcr_range_step_seconds histogram"));
    assert!(metrics.contains("sgcr_range_step_seconds_bucket{le=\"+Inf\"}"));
    assert!(metrics.contains("# TYPE sgcr_step_plane_plc_seconds histogram"));
    assert!(metrics.contains("sgcr_step_plane_power_seconds_sum"));
    assert!(metrics.contains("sgcr_farm_tenants_running"));
    assert!(metrics.contains("sgcr_journal_dropped_total"));
    for line in metrics.lines() {
        assert!(
            line.starts_with('#') || line.split_whitespace().count() == 2,
            "malformed exposition line: {line}"
        );
    }
    // Every farm-only instrument the scrape carries is in the catalogue's
    // farm-only table, and every name there is scraped. A `# HELP` line
    // ends with the registry name.
    let scraped: BTreeSet<&str> = metrics
        .lines()
        .filter(|line| line.starts_with("# HELP "))
        .filter_map(|line| line.split_whitespace().last())
        .filter(|name| name.starts_with("farm."))
        .collect();
    let catalogue = farm_only_catalogue();
    for name in &scraped {
        assert!(
            catalogue.contains(*name),
            "{name} is scraped but missing from the farm-only table in docs/observability.md"
        );
    }
    for name in &catalogue {
        assert!(
            scraped.contains(name.as_str()),
            "{name} is in the farm-only table of docs/observability.md but not scraped"
        );
    }

    // The merged registry stays bucket-bound while tenants step: a second
    // scrape moments later has exactly the same number of series lines.
    let metrics_again =
        get_with_retry(&addr, "/metrics", Duration::from_secs(10)).expect("/metrics answers");
    assert_eq!(
        metrics.lines().count(),
        metrics_again.lines().count(),
        "scrape size must not grow with executed steps"
    );

    let report = farm.join().expect("farm thread joins");
    assert_eq!(report.tenants_failed, 0, "{:?}", report.per_tenant);
    assert!(report.steps_total > 0);
    assert!(report.p99_step_seconds >= report.p50_step_seconds);
    assert!(report.max_step_seconds >= report.p99_step_seconds);
    #[cfg(target_os = "linux")]
    assert!(report.rss_peak_bytes > 0, "RSS sampled from procfs");

    // Once the farm finishes, the endpoint shuts down with it.
    let gone_by = Instant::now() + Duration::from_secs(5);
    while http_get(&addr, "/healthz").is_ok() {
        assert!(
            Instant::now() < gone_by,
            "endpoint must close after the farm"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn status_addr_bind_failure_fails_the_farm_up_front() {
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    let config = FarmConfig {
        tenants: 2,
        sim_seconds: 1,
        status_addr: Some("definitely-not-an-address".to_string()),
        ..FarmConfig::default()
    };
    let report = sg_cyber_range::farm::run_farm(model, &config);
    assert_eq!(report.tenants_failed, 2);
    assert!(report.per_tenant.iter().all(|t| t
        .error
        .as_deref()
        .is_some_and(|e| e.contains("status endpoint"))));
}
