//! `sim_digest`: fingerprints of the solver-independent simulated outcome.
//!
//! A digest covers what the simulated grid and network *did* — steps, frames
//! by outcome, trip/GOOSE/control/alarm counters, final breaker states,
//! journal event counts by type, exercise scores — and nothing a speed-only
//! change may move: no wall-clock field, no Newton–Raphson iteration count
//! (a legitimate warm start changes it), no floating-point measurement (a
//! different but equally valid solver changes the last bits).

use sgcr_core::{fnv1a_64, CyberRange};
use sgcr_obs::{json, Telemetry};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counters and journal types that depend on host time: overruns are
/// counted against the wall clock.
fn wall_clock_dependent(name: &str) -> bool {
    name.contains("overrun") || name == "StepOverrun"
}

/// Digest of a tenant's range state, read through the range API only, so it
/// is the same whether telemetry is on or off: step count, sim clock, solve
/// errors, breaker states, per-IED event counts by kind, PLC scan/control
/// counts, SCADA polls, events and active alarms.
pub fn state_digest(range: &CyberRange) -> u64 {
    let mut text = format!(
        "steps={};t_ns={};solve_errors={};held={};",
        range.steps_total(),
        range.now().as_nanos(),
        range.solve_errors_total(),
        range.measurements_held()
    );
    for sw in &range.power.switch {
        let _ = write!(text, "sw:{}={};", sw.name, sw.closed);
    }
    let ieds: BTreeMap<_, _> = range.ieds.iter().collect();
    for (name, ied) in ieds {
        let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
        for event in ied.events() {
            *kinds.entry(format!("{:?}", event.kind)).or_default() += 1;
        }
        let _ = write!(text, "ied:{name}:trips={}:{kinds:?};", ied.trip_count());
    }
    let plcs: BTreeMap<_, _> = range.plcs.iter().collect();
    for (name, plc) in plcs {
        let status = plc.lock();
        let _ = write!(
            text,
            "plc:{name}:scans={}:reads={}:controls={}:fault={:?};",
            status.scans, status.reads_ok, status.controls_sent, status.fault
        );
    }
    if let Some(scada) = &range.scada {
        let mut alarms = scada.active_alarms();
        alarms.sort();
        let _ = write!(
            text,
            "scada:polls={}:events={}:alarms={alarms:?};",
            scada.polls_completed(),
            scada.events().len()
        );
    }
    fnv1a_64(text.as_bytes())
}

/// The telemetry-visible outcome of one tenant: its step count, exercise
/// score, counters (frames by outcome, trips, GOOSE, controls, alarms, …)
/// and journal event counts by type. Built either from a live [`Telemetry`]
/// or from the sink files a farm wrote, with identical results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantOutcome {
    pub steps: u64,
    pub score: Option<(u32, u32)>,
    pub counters: BTreeMap<String, u64>,
    pub journal: BTreeMap<String, u64>,
    pub journal_dropped: u64,
}

impl TenantOutcome {
    /// From a live telemetry handle.
    pub fn from_telemetry(steps: u64, score: Option<(u32, u32)>, telemetry: &Telemetry) -> Self {
        let snapshot = telemetry.snapshot();
        let mut journal = BTreeMap::new();
        for record in telemetry.events() {
            *journal.entry(record.event.kind().to_string()).or_default() += 1;
        }
        TenantOutcome {
            steps,
            score,
            counters: snapshot.counters.into_iter().collect(),
            journal,
            journal_dropped: snapshot.journal_dropped,
        }
    }

    /// From a farm tenant's `tenant-NNNN.metrics.json` and
    /// `tenant-NNNN.journal.jsonl` contents.
    pub fn from_sinks(
        steps: u64,
        score: Option<(u32, u32)>,
        metrics_json: &str,
        journal_jsonl: &str,
    ) -> Result<Self, String> {
        let metrics = json::parse(metrics_json)?;
        let counters = match metrics.get("counters") {
            Some(json::Value::Object(fields)) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), v.as_u64().ok_or(format!("counter {k}"))?)))
                .collect::<Result<BTreeMap<_, _>, String>>()?,
            _ => return Err("metrics sink has no counters".to_string()),
        };
        let mut journal = BTreeMap::new();
        for line in journal_jsonl.lines() {
            let kind = journal_type(line).ok_or_else(|| format!("journal line {line:?}"))?;
            *journal.entry(kind.to_string()).or_default() += 1;
        }
        Ok(TenantOutcome {
            steps,
            score,
            counters,
            journal,
            journal_dropped: metrics
                .get("journal_dropped")
                .and_then(json::Value::as_u64)
                .unwrap_or(0),
        })
    }

    pub fn digest(&self) -> u64 {
        let mut text = format!(
            "steps={};score={:?};dropped={};",
            self.steps, self.score, self.journal_dropped
        );
        for (name, value) in self.counters.iter().chain(self.journal.iter()) {
            if !wall_clock_dependent(name) {
                let _ = write!(text, "{name}={value};");
            }
        }
        fnv1a_64(text.as_bytes())
    }
}

/// The `type` field of one journal line, without a full JSON parse.
fn journal_type(line: &str) -> Option<&str> {
    let rest = &line[line.find("\"type\":\"")? + 8..];
    Some(&rest[..rest.find('"')?])
}

/// Renders a digest the way results and `digests.json` carry it.
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Combines named digests into one.
pub fn combine(parts: &[(&str, u64)]) -> u64 {
    let mut text = String::new();
    for (name, digest) in parts {
        let _ = write!(text, "{name}={digest:016x};");
    }
    fnv1a_64(text.as_bytes())
}

/// The digest of a run over campaign classes, given each class's digest in
/// class order: the class's own digest for one class, else their
/// combination.
pub fn over_campaigns(per_class: &[u64]) -> u64 {
    match per_class {
        [one] => *one,
        many => combine(&many.iter().map(|&d| ("campaign", d)).collect::<Vec<_>>()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgcr_obs::Event;

    #[test]
    fn sink_and_live_outcomes_agree() {
        let telemetry = Telemetry::new();
        telemetry.counter("net.frames_sent").add(3);
        telemetry.counter("range.step_overruns").add(1);
        telemetry.record(0u64, || Event::GooseSent { ied: "A".into() });
        telemetry.record(1u64, || Event::StepOverrun {
            step: 1,
            ratio: 2.0,
        });
        let live = TenantOutcome::from_telemetry(5, Some((1, 2)), &telemetry);
        let sinks = TenantOutcome::from_sinks(
            5,
            Some((1, 2)),
            &telemetry.snapshot().to_json(),
            &telemetry.journal_jsonl(),
        )
        .expect("sinks parse");
        assert_eq!(live, sinks);
        // Wall-clock-dependent overruns do not reach the digest.
        let mut quiet = live.clone();
        quiet.counters.insert("range.step_overruns".into(), 0);
        quiet.journal.remove("StepOverrun");
        assert_eq!(quiet.digest(), live.digest());
        // Everything else does.
        quiet.counters.insert("net.frames_sent".into(), 4);
        assert_ne!(quiet.digest(), live.digest());
    }

    #[test]
    fn journal_type_is_read_from_the_line() {
        assert_eq!(
            journal_type("{\"seq\":1,\"t_ns\":0,\"type\":\"GooseSent\",\"ied\":\"x\"}"),
            Some("GooseSent")
        );
        assert_eq!(journal_type("{}"), None);
    }
}
