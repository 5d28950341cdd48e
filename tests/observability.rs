//! End-to-end observability: the telemetry subsystem threaded through the
//! generated EPIC range — metrics cover net/powerflow/range, the journal
//! carries typed packet/solve/trip events, and a disabled-telemetry run is
//! byte-identical to an instrumented one.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::core::{CompiledModel, CyberRange, RangeBuilder};
use sg_cyber_range::models::epic_bundle;
use sg_cyber_range::net::SimDuration;
use sg_cyber_range::obs::{Event, Telemetry};

fn instrumented_epic_range() -> (CyberRange, Telemetry) {
    let bundle = epic_bundle();
    let telemetry = Telemetry::new();
    let range = RangeBuilder::from_model(CompiledModel::shared(&bundle).expect("bundle compiles"))
        .telemetry(telemetry.clone())
        .build()
        .expect("EPIC bundle must compile");
    (range, telemetry)
}

#[test]
fn metrics_cover_net_powerflow_and_range() {
    let (mut range, telemetry) = instrumented_epic_range();
    range.run_for(SimDuration::from_secs(3));
    let snapshot = telemetry.snapshot();

    // Network plane: frames move, and they land.
    let sent = snapshot.counter("net.frames_sent").unwrap_or(0);
    let delivered = snapshot.counter("net.frames_delivered").unwrap_or(0);
    assert!(sent > 0, "hosts must transmit frames");
    assert!(delivered > 0, "frames must be delivered");
    assert!(delivered >= sent / 2, "most unicast traffic is delivered");
    let latency = snapshot
        .histogram("net.link_latency_seconds")
        .expect("link latency histogram registered");
    assert!(latency.count > 0);
    assert!(latency.sum > 0.0, "links have nonzero delay");
    // Per-host meters resolved for planned hosts.
    assert!(
        snapshot
            .counters
            .iter()
            .any(|(name, value)| name.starts_with("net.host.") && *value > 0),
        "per-host counters populated: {:?}",
        snapshot.counters
    );

    // Physical plane: periodic power-flow solves with wall-time and
    // NR-iteration histograms.
    let solves = snapshot.counter("powerflow.solves").unwrap_or(0);
    assert!(solves > 0, "periodic solves recorded");
    let solve_seconds = snapshot
        .histogram("powerflow.solve_seconds")
        .expect("solve wall-time histogram registered");
    assert_eq!(solve_seconds.count, solves);
    assert!(solve_seconds.sum > 0.0, "solves take nonzero wall time");
    let iterations = snapshot
        .histogram("powerflow.nr_iterations")
        .expect("NR iteration histogram registered");
    assert!(iterations.count > 0);
    // Registered lazily on first failure; a healthy run has none.
    assert_eq!(
        snapshot
            .counter("powerflow.convergence_failures")
            .unwrap_or(0),
        0
    );

    // Range runtime: step bookkeeping folded into the registry.
    assert_eq!(snapshot.counter("range.steps"), Some(range.steps_total()));
    let step_seconds = snapshot
        .histogram("range.step_seconds")
        .expect("step wall-time histogram registered");
    assert_eq!(step_seconds.count, range.steps_total());
}

#[test]
fn metrics_json_is_well_formed_and_carries_golden_keys() {
    let (mut range, telemetry) = instrumented_epic_range();
    range.run_for(SimDuration::from_secs(2));
    let json = telemetry.snapshot().to_json();

    // Golden keys the CLI contract (`run --metrics`) promises.
    assert!(json.contains("\"net.frames_delivered\""));
    assert!(json.contains("\"powerflow.solve_seconds\""));
    assert!(json.contains("\"counters\""));
    assert!(json.contains("\"journal_dropped\""));
    assert!(json.contains("\"+Inf\""), "histograms carry an +Inf bucket");
    // Nonzero counts actually serialized (not an empty shell).
    let solve_count = telemetry
        .snapshot()
        .histogram("powerflow.solve_seconds")
        .map(|h| h.count)
        .unwrap_or(0);
    assert!(solve_count > 0);
    assert!(json.contains(&format!("\"count\": {solve_count}")));
    // Balanced braces is a cheap well-formedness proxy for the hand-rolled
    // serializer (strings in metric names never contain braces).
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes, "unbalanced JSON:\n{json}");
}

#[test]
fn journal_carries_packet_solve_and_trip_events() {
    let (mut range, telemetry) = instrumented_epic_range();
    range.run_for(SimDuration::from_secs(1));

    // Overload the smart-home feeder so TIED2's PTOC trips (same scenario
    // as the epic_range protection test).
    let load1 = range.power.load_by_name("EPIC/Load1").unwrap();
    range.power.load[load1.index()].p_mw = 0.2;
    range.run_for(SimDuration::from_secs(3));
    assert!(range.ieds["TIED2"].trip_count() >= 1, "scenario must trip");

    let events = telemetry.events();
    let has = |pred: &dyn Fn(&Event) -> bool| events.iter().any(|r| pred(&r.event));
    assert!(
        has(&|e| matches!(e, Event::PacketSent { .. })),
        "journal has PacketSent"
    );
    assert!(
        has(&|e| matches!(e, Event::PacketDelivered { .. })),
        "journal has PacketDelivered"
    );
    assert!(
        has(&|e| matches!(e, Event::SolveCompleted { .. })),
        "journal has SolveCompleted"
    );
    assert!(
        has(&|e| matches!(e, Event::ProtectionTrip { ied, .. } if ied == "TIED2")),
        "journal has the TIED2 ProtectionTrip"
    );

    // Sequence numbers are monotonic and timestamps never go backwards.
    for pair in events.windows(2) {
        assert!(pair[1].seq > pair[0].seq);
    }

    // The JSONL rendering is one typed object per line.
    let jsonl = telemetry.journal_jsonl();
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "line: {line}");
        assert!(line.contains("\"type\":"), "line: {line}");
        assert!(line.contains("\"seq\":"), "line: {line}");
    }
    assert!(jsonl.lines().count() > 0);
}

#[test]
fn disabled_telemetry_is_behaviorally_invisible() {
    // The zero-overhead-when-off contract: instrumentation must never
    // perturb simulation results. Run the same scenario with telemetry
    // disabled and enabled; every SCADA tag must be byte-identical.
    let run = |telemetry: Telemetry| {
        let bundle = epic_bundle();
        let mut range =
            RangeBuilder::from_model(CompiledModel::shared(&bundle).expect("bundle compiles"))
                .telemetry(telemetry)
                .build()
                .expect("EPIC bundle must compile");
        range.run_for(SimDuration::from_secs(3));
        let scada = range.scada.as_ref().unwrap();
        let mut tags: Vec<(String, String)> = scada
            .tag_names()
            .into_iter()
            .map(|name| {
                let value = scada.tag_value(&name);
                (name, format!("{value:?}"))
            })
            .collect();
        tags.sort();
        (tags, range.steps_total(), range.store.snapshot().len())
    };
    let dark = run(Telemetry::disabled());
    let lit = run(Telemetry::new());
    assert_eq!(dark, lit, "telemetry must not perturb the simulation");
}

#[test]
fn per_plane_step_profile_partitions_step_wall_time() {
    // Every step's wall time is attributed across the co-simulation planes
    // (power solve and publish, network dispatch, PLC scans, IED
    // processing, SCADA housekeeping, other apps) as disjoint sub-intervals
    // of the step; the rest of the step is published as the unattributed
    // remainder, so the seven add up to the total step wall time.
    let (mut range, telemetry) = instrumented_epic_range();
    for _ in 0..30 {
        range.step();
    }
    let snapshot = telemetry.snapshot();
    let total = snapshot
        .histogram("range.step_seconds")
        .expect("step wall-time histogram registered");
    assert_eq!(total.count, range.steps_total());

    let planes = [
        "power",
        "net",
        "ied",
        "plc",
        "scada",
        "other",
        "unattributed",
    ];
    let mut plane_sum = 0.0;
    for plane in planes {
        let name = format!("step.plane.{plane}_seconds");
        let h = snapshot
            .histogram(&name)
            .unwrap_or_else(|| panic!("{name} histogram registered"));
        assert_eq!(h.count, range.steps_total(), "{name} observes every step");
        plane_sum += h.sum;
    }
    assert!(plane_sum > 0.0, "plane attribution must be nonzero");
    assert!(
        (plane_sum - total.sum).abs() <= 1e-9 * total.sum,
        "summed plane time {plane_sum} differs from total step time {}",
        total.sum
    );
    // The EPIC range has real IEDs, a PLC, and SCADA attached, so at least
    // one application plane must have accumulated wall time.
    let app_planes: f64 = ["ied", "plc", "scada"]
        .iter()
        .map(|p| {
            snapshot
                .histogram(&format!("step.plane.{p}_seconds"))
                .map(|h| h.sum)
                .unwrap_or(0.0)
        })
        .sum();
    assert!(app_planes > 0.0, "application planes accumulate wall time");
}

/// The metric names in the catalogue table of `docs/observability.md`. A
/// `<…>` segment (`net.host.<name>.tx_frames`) is a template.
fn documented_metrics() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/observability.md");
    let doc = std::fs::read_to_string(path).expect("docs/observability.md readable");
    let (_, section) = doc
        .split_once("## Metric catalogue")
        .expect("catalogue section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter_map(|line| {
            let (name, _) = line.strip_prefix("| `")?.split_once('`')?;
            Some(name.to_string())
        })
        .collect()
}

fn is_documented(catalogue: &[String], name: &str) -> bool {
    catalogue.iter().any(|row| match row.split_once('<') {
        None => row == name,
        Some((prefix, rest)) => {
            let suffix = rest.split_once('>').map_or("", |(_, suffix)| suffix);
            name.len() > prefix.len() + suffix.len()
                && name.starts_with(prefix)
                && name.ends_with(suffix)
        }
    })
}

#[test]
fn every_registered_metric_is_in_the_catalogue() {
    // Metric names are string literals spread across crates; this keeps the
    // documented catalogue and the registry of an instrumented EPIC run in
    // step, in both directions for the step profile.
    let (mut range, telemetry) = instrumented_epic_range();
    range.run_for(SimDuration::from_secs(3));
    let snapshot = telemetry.snapshot();
    let registered: Vec<&str> = snapshot
        .counters
        .iter()
        .map(|(name, _)| name.as_str())
        .chain(snapshot.gauges.iter().map(|(name, _)| name.as_str()))
        .chain(snapshot.histograms.iter().map(|(name, _)| name.as_str()))
        .collect();
    assert!(registered.len() > 50, "{registered:?}");

    let catalogue = documented_metrics();
    let undocumented: Vec<&&str> = registered
        .iter()
        .filter(|name| !is_documented(&catalogue, name))
        .collect();
    assert!(
        undocumented.is_empty(),
        "registered but missing from docs/observability.md: {undocumented:?}"
    );
    let planes: Vec<&String> = catalogue
        .iter()
        .filter(|row| row.starts_with("step.plane."))
        .collect();
    assert_eq!(planes.len(), 7, "{planes:?}");
    for row in planes {
        assert!(
            registered.contains(&row.as_str()),
            "{row} is documented but not registered"
        );
    }
}

#[test]
fn disabled_telemetry_registers_no_plane_profile() {
    // The profiling path must stay zero-overhead when telemetry is off:
    // the disabled snapshot carries no instruments at all.
    let bundle = epic_bundle();
    let mut range =
        RangeBuilder::from_model(CompiledModel::shared(&bundle).expect("bundle compiles"))
            .telemetry(Telemetry::disabled())
            .build()
            .expect("EPIC bundle must compile");
    for _ in 0..5 {
        range.step();
    }
    let snapshot = Telemetry::disabled().snapshot();
    assert!(snapshot.histograms.is_empty());
}
