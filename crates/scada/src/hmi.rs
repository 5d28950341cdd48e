//! The SCADA HMI application: polls data sources, maintains the tag
//! database, evaluates alarms, and executes operator commands.

use crate::config::{AlarmKind, ModbusPointKind, PointAddress, ScadaConfig, SourceProtocol};
use parking_lot::Mutex;
use sgcr_faults::DegradationSignal;
use sgcr_iec61850::{DataValue, MmsClient, MmsPdu, MmsRequest, MmsResponse};
use sgcr_modbus::{ModbusClient, Request as ModbusRequest, Response as ModbusResponse};
use sgcr_net::{AppPlane, ConnId, HostCtx, Ipv4Addr, SimDuration, SocketApp};
use sgcr_obs::{Counter, Event as ObsEvent, Plane, Telemetry, TimeNs, TraceCtx, Tracer};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Quality of a tag value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quality {
    /// Fresh data from the source.
    Good,
    /// No data received yet.
    Uninitialized,
    /// No update within the configured stale window (IEC 61850 `q.old`).
    Old,
    /// The source marked its data untrustworthy (power plane is holding a
    /// stale solution after solver non-convergence).
    Invalid,
}

/// One tag's current value.
#[derive(Debug, Clone, PartialEq)]
pub struct TagValue {
    /// Engineering-unit value (scaled).
    pub value: f64,
    /// Last update time (sim ms).
    pub updated_ms: u64,
    /// Data quality.
    pub quality: Quality,
}

/// An entry in the HMI event log.
#[derive(Debug, Clone, PartialEq)]
pub struct HmiEvent {
    /// Simulation time (ms).
    pub time_ms: u64,
    /// Event text.
    pub message: String,
}

/// An operator command.
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorCommand {
    /// Write a writable tag (coil/holding/MMS control) with a value.
    WriteTag {
        /// Tag name.
        tag: String,
        /// Value (booleans as 0.0/1.0).
        value: f64,
    },
}

#[derive(Debug, Default)]
struct HmiShared {
    tags: HashMap<String, TagValue>,
    events: Vec<HmiEvent>,
    active_alarms: HashMap<String, String>,
    commands: VecDeque<OperatorCommand>,
    polls_completed: u64,
    /// Stale-tag detection window (ms); `None` disables the sweep.
    stale_window_ms: Option<u64>,
}

/// Key under which a tag's staleness alarm lives in `active_alarms`,
/// namespaced so it cannot collide with a configured alarm rule on the
/// same point.
pub(crate) fn stale_key(tag: &str) -> String {
    format!("stale:{tag}")
}

/// The operator's handle to a running HMI: read tags, watch alarms, issue
/// commands. Shared with the experiment harness.
#[derive(Clone)]
pub struct ScadaHandle {
    shared: Arc<Mutex<HmiShared>>,
    degradation: DegradationSignal,
}

impl ScadaHandle {
    /// Reads a tag.
    pub fn tag(&self, name: &str) -> Option<TagValue> {
        self.shared.lock().tags.get(name).cloned()
    }

    /// Reads a tag's numeric value if it has good quality.
    pub fn tag_value(&self, name: &str) -> Option<f64> {
        self.shared
            .lock()
            .tags
            .get(name)
            .filter(|t| t.quality == Quality::Good)
            .map(|t| t.value)
    }

    /// All tag names, sorted.
    pub fn tag_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shared.lock().tags.keys().cloned().collect();
        names.sort();
        names
    }

    /// Currently active alarms `(point, message)`.
    pub fn active_alarms(&self) -> Vec<(String, String)> {
        let mut alarms: Vec<(String, String)> = self
            .shared
            .lock()
            .active_alarms
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        alarms.sort();
        alarms
    }

    /// The event log.
    pub fn events(&self) -> Vec<HmiEvent> {
        self.shared.lock().events.clone()
    }

    /// Number of completed poll rounds.
    pub fn polls_completed(&self) -> u64 {
        self.shared.lock().polls_completed
    }

    /// Queues an operator command (executed on the next HMI cycle).
    pub fn send_command(&self, command: OperatorCommand) {
        self.shared.lock().commands.push_back(command);
    }

    /// Convenience: operator breaker command through a writable tag.
    pub fn operate(&self, tag: &str, close: bool) {
        self.send_command(OperatorCommand::WriteTag {
            tag: tag.to_string(),
            value: f64::from(u8::from(close)),
        });
    }

    /// Configures (or disables, with `None`) the stale-tag window: a tag
    /// with good quality that receives no update for longer than `window`
    /// milliseconds flips to [`Quality::Old`] and raises a staleness alarm.
    pub fn set_stale_window_ms(&self, window: Option<u64>) {
        self.shared.lock().stale_window_ms = window;
    }

    /// The degradation signal this HMI consults: while raised, freshly
    /// polled tag values are stored with [`Quality::Invalid`] instead of
    /// [`Quality::Good`]. The range raises it when the power solver stops
    /// converging; in a range it is the one signal every IED shares too.
    /// Cloning shares the underlying flag.
    pub fn degradation(&self) -> DegradationSignal {
        self.degradation.clone()
    }
}

/// The one-value read that polls a Modbus point.
fn modbus_read(kind: ModbusPointKind, address: u16) -> ModbusRequest {
    match kind {
        ModbusPointKind::Coil => ModbusRequest::ReadCoils { address, count: 1 },
        ModbusPointKind::Discrete => ModbusRequest::ReadDiscreteInputs { address, count: 1 },
        ModbusPointKind::Holding => ModbusRequest::ReadHoldingRegisters { address, count: 1 },
        ModbusPointKind::Input => ModbusRequest::ReadInputRegisters { address, count: 1 },
    }
}

/// One data source's connection. Each client pairs every reply with the
/// request it answers, and a request names the point it polls.
enum SourceLink {
    Modbus {
        client: ModbusClient,
        conn: Option<ConnId>,
        unit: u8,
    },
    Mms {
        client: MmsClient,
        conn: Option<ConnId>,
    },
}

const TOKEN_COMMANDS: u64 = 1_000_000;

/// The SCADA HMI application (one per operator workstation host).
pub struct ScadaApp {
    config: ScadaConfig,
    links: Vec<SourceLink>,
    conn_to_source: HashMap<ConnId, usize>,
    shared: ScadaHandle,
    telemetry: Telemetry,
    alarms_counter: Counter,
    commands_counter: Counter,
}

impl ScadaApp {
    /// Builds the app from a parsed configuration, with its own degradation
    /// signal and telemetry disabled.
    pub fn new(config: ScadaConfig) -> (ScadaApp, ScadaHandle) {
        ScadaApp::with_telemetry(config, DegradationSignal::new(), Telemetry::disabled())
    }

    /// Builds the app over the degradation signal it consults (a range
    /// passes its one signal) with a telemetry handle. Alarm raises feed the
    /// `scada.alarms` counter and journal
    /// [`ScadaAlarm`](sgcr_obs::Event::ScadaAlarm) /
    /// [`ScadaAlarmCleared`](sgcr_obs::Event::ScadaAlarmCleared) events;
    /// executed operator commands feed `scada.commands` and journal
    /// [`ScadaCommand`](sgcr_obs::Event::ScadaCommand).
    pub fn with_telemetry(
        config: ScadaConfig,
        degradation: DegradationSignal,
        telemetry: Telemetry,
    ) -> (ScadaApp, ScadaHandle) {
        let handle = ScadaHandle {
            shared: Arc::default(),
            degradation,
        };
        {
            // Pre-register all tags as uninitialized.
            let mut shared = handle.shared.lock();
            for source in &config.sources {
                for point in &source.points {
                    shared.tags.insert(
                        point.name.clone(),
                        TagValue {
                            value: 0.0,
                            updated_ms: 0,
                            quality: Quality::Uninitialized,
                        },
                    );
                }
            }
        }
        let links = config
            .sources
            .iter()
            .map(|s| match s.protocol {
                SourceProtocol::Modbus { unit } => SourceLink::Modbus {
                    client: ModbusClient::new(),
                    conn: None,
                    unit,
                },
                SourceProtocol::Mms => SourceLink::Mms {
                    client: MmsClient::new(),
                    conn: None,
                },
            })
            .collect();
        (
            ScadaApp {
                config,
                links,
                conn_to_source: HashMap::new(),
                shared: handle.clone(),
                alarms_counter: telemetry.counter("scada.alarms"),
                commands_counter: telemetry.counter("scada.commands"),
                telemetry,
            },
            handle,
        )
    }

    fn log(&self, now_ms: u64, message: String) {
        self.shared.shared.lock().events.push(HmiEvent {
            time_ms: now_ms,
            message,
        });
    }

    fn poll_source(&mut self, ctx: &mut HostCtx<'_>, index: usize) {
        let source = &self.config.sources[index];
        match &mut self.links[index] {
            SourceLink::Modbus { client, conn, unit } => {
                if let Some(conn) = *conn {
                    for point in &source.points {
                        let PointAddress::Modbus { kind, address } = &point.address else {
                            continue;
                        };
                        let wire = client.request(*unit, modbus_read(*kind, *address));
                        ctx.tcp_send(conn, &wire);
                    }
                }
            }
            SourceLink::Mms { client, conn } => {
                if let Some(conn) = *conn {
                    let items: Vec<String> = source
                        .points
                        .iter()
                        .filter_map(|p| match &p.address {
                            PointAddress::Mms { item } => Some(item.clone()),
                            PointAddress::Modbus { .. } => None,
                        })
                        .collect();
                    if !items.is_empty() {
                        if let Some((_, wire)) = client.request(MmsRequest::Read { items }) {
                            ctx.tcp_send(conn, &wire);
                        }
                    }
                }
            }
        }
        self.shared.shared.lock().polls_completed += 1;
        ctx.set_timer(SimDuration::from_millis(source.poll_ms), index as u64);
    }

    fn update_tag(
        &mut self,
        now_ms: u64,
        tag: &str,
        raw: f64,
        tracer: &Tracer,
        parent: Option<TraceCtx>,
    ) {
        let Some((_, point)) = self.config.find_point(tag) else {
            return;
        };
        let now = TimeNs::from_millis(now_ms);
        let mut span = tracer.open("scada.update_tag", Plane::Scada, parent, now);
        if span.is_recording() {
            span.attr("tag", tag);
            span.attr("raw", raw.to_string());
        }
        let update_ctx = span.ctx();
        let scaled = raw * point.scale;
        let deadband = point.deadband;
        let quality = if self.shared.degradation.is_degraded() {
            Quality::Invalid
        } else {
            Quality::Good
        };
        let was_stale;
        {
            let mut shared = self.shared.shared.lock();
            let entry = shared.tags.entry(tag.to_string()).or_insert(TagValue {
                value: 0.0,
                updated_ms: 0,
                quality: Quality::Uninitialized,
            });
            let significant =
                entry.quality == Quality::Uninitialized || (scaled - entry.value).abs() > deadband;
            was_stale = entry.quality == Quality::Old;
            entry.updated_ms = now_ms;
            entry.quality = quality;
            if significant {
                entry.value = scaled;
            }
        }
        if was_stale {
            let removed = self
                .shared
                .shared
                .lock()
                .active_alarms
                .remove(&stale_key(tag));
            if let Some(message) = removed {
                self.log(now_ms, format!("CLEARED {tag}: {message}"));
                self.telemetry.record(TimeNs::from_millis(now_ms), || {
                    ObsEvent::ScadaAlarmCleared {
                        point: tag.to_string(),
                        message: message.clone(),
                    }
                });
            }
        }
        self.evaluate_alarms(now_ms, tag, tracer, update_ctx);
        span.end(now);
    }

    fn evaluate_alarms(
        &mut self,
        now_ms: u64,
        tag: &str,
        tracer: &Tracer,
        parent: Option<TraceCtx>,
    ) {
        let value = match self.shared.tag_value(tag) {
            Some(v) => v,
            None => return,
        };
        let rules: Vec<_> = self
            .config
            .alarms
            .iter()
            .filter(|r| r.point == tag)
            .cloned()
            .collect();
        for rule in rules {
            let in_alarm = match rule.kind {
                AlarmKind::High(limit) => value > limit,
                AlarmKind::Low(limit) => value < limit,
                AlarmKind::StateTrue => value != 0.0,
                AlarmKind::StateFalse => value == 0.0,
            };
            let was_active = self
                .shared
                .shared
                .lock()
                .active_alarms
                .contains_key(&rule.point);
            if in_alarm && !was_active {
                self.shared
                    .shared
                    .lock()
                    .active_alarms
                    .insert(rule.point.clone(), rule.message.clone());
                self.log(now_ms, format!("ALARM {}: {}", rule.point, rule.message));
                self.alarms_counter.inc();
                self.telemetry
                    .record(TimeNs::from_millis(now_ms), || ObsEvent::ScadaAlarm {
                        point: rule.point.clone(),
                        message: rule.message.clone(),
                    });
                let now = TimeNs::from_millis(now_ms);
                let mut span = tracer.open("scada.alarm", Plane::Scada, parent, now);
                if span.is_recording() {
                    span.attr("point", rule.point.as_str());
                    span.attr("state", "raised");
                }
                span.end(now);
            } else if !in_alarm && was_active {
                self.shared.shared.lock().active_alarms.remove(&rule.point);
                self.log(now_ms, format!("CLEARED {}: {}", rule.point, rule.message));
                self.telemetry.record(TimeNs::from_millis(now_ms), || {
                    ObsEvent::ScadaAlarmCleared {
                        point: rule.point.clone(),
                        message: rule.message.clone(),
                    }
                });
                let now = TimeNs::from_millis(now_ms);
                let mut span = tracer.open("scada.alarm", Plane::Scada, parent, now);
                if span.is_recording() {
                    span.attr("point", rule.point.as_str());
                    span.attr("state", "cleared");
                }
                span.end(now);
            }
        }
    }

    /// Flips tags that have not refreshed within the stale window to
    /// [`Quality::Old`] and raises a staleness alarm per tag. Runs on the
    /// same 50 ms housekeeping timer as command processing; a `None` window
    /// makes this a no-op.
    fn sweep_stale(&mut self, now_ms: u64) {
        let Some(window) = self.shared.shared.lock().stale_window_ms else {
            return;
        };
        let mut newly_stale: Vec<(String, u64)> = Vec::new();
        {
            let mut shared = self.shared.shared.lock();
            for (name, tag) in &mut shared.tags {
                if tag.quality == Quality::Good && now_ms.saturating_sub(tag.updated_ms) > window {
                    tag.quality = Quality::Old;
                    newly_stale.push((name.clone(), now_ms - tag.updated_ms));
                }
            }
        }
        newly_stale.sort();
        for (tag, age_ms) in newly_stale {
            let message = format!("stale: no update for {age_ms} ms (window {window} ms)");
            self.shared
                .shared
                .lock()
                .active_alarms
                .insert(stale_key(&tag), message.clone());
            self.log(now_ms, format!("ALARM {tag}: {message}"));
            self.alarms_counter.inc();
            self.telemetry
                .record(TimeNs::from_millis(now_ms), || ObsEvent::TagStale {
                    tag: tag.clone(),
                    age_ms,
                });
            self.telemetry
                .record(TimeNs::from_millis(now_ms), || ObsEvent::ScadaAlarm {
                    point: tag.clone(),
                    message: message.clone(),
                });
        }
    }

    #[allow(clippy::collapsible_match)] // the Option lives inside a matched variant
    fn process_commands(&mut self, ctx: &mut HostCtx<'_>) {
        loop {
            let command = self.shared.shared.lock().commands.pop_front();
            let Some(OperatorCommand::WriteTag { tag, value }) = command else {
                break;
            };
            let now_ms = ctx.now().as_millis();
            let Some((source_index, point)) = self
                .config
                .sources
                .iter()
                .enumerate()
                .find_map(|(i, s)| s.points.iter().find(|p| p.name == tag).map(|p| (i, p)))
            else {
                self.log(now_ms, format!("REJECTED command to unknown tag {tag:?}"));
                continue;
            };
            if !point.writable {
                self.log(now_ms, format!("REJECTED command to read-only tag {tag:?}"));
                continue;
            }
            let address = point.address.clone();
            match (&mut self.links[source_index], address) {
                (
                    SourceLink::Modbus {
                        client, conn, unit, ..
                    },
                    PointAddress::Modbus { kind, address },
                ) => {
                    if let Some(conn) = *conn {
                        let request = match kind {
                            ModbusPointKind::Coil => ModbusRequest::WriteSingleCoil {
                                address,
                                value: value != 0.0,
                            },
                            ModbusPointKind::Holding => ModbusRequest::WriteSingleRegister {
                                address,
                                value: value as u16,
                            },
                            _ => {
                                self.log(
                                    now_ms,
                                    format!("REJECTED write to input-only point {tag:?}"),
                                );
                                continue;
                            }
                        };
                        let wire = client.request(*unit, request);
                        ctx.tcp_send(conn, &wire);
                        self.log(now_ms, format!("COMMAND {tag} := {value}"));
                        self.commands_counter.inc();
                        self.telemetry.record(TimeNs::from_millis(now_ms), || {
                            ObsEvent::ScadaCommand {
                                tag: tag.clone(),
                                value,
                            }
                        });
                    }
                }
                (SourceLink::Mms { client, conn, .. }, PointAddress::Mms { item }) => {
                    if let Some(conn) = *conn {
                        let Some((_, wire)) = client.request(MmsRequest::Write {
                            items: vec![item],
                            values: vec![DataValue::Bool(value != 0.0)],
                        }) else {
                            self.log(now_ms, format!("REJECTED write to {tag:?}: too long"));
                            continue;
                        };
                        ctx.tcp_send(conn, &wire);
                        self.log(now_ms, format!("COMMAND {tag} := {value}"));
                        self.commands_counter.inc();
                        self.telemetry.record(TimeNs::from_millis(now_ms), || {
                            ObsEvent::ScadaCommand {
                                tag: tag.clone(),
                                value,
                            }
                        });
                    }
                }
                _ => {}
            }
        }
        ctx.set_timer(SimDuration::from_millis(50), TOKEN_COMMANDS);
    }
}

impl SocketApp for ScadaApp {
    fn plane(&self) -> AppPlane {
        AppPlane::Scada
    }

    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        for (i, source) in self.config.sources.clone().iter().enumerate() {
            let ip: Ipv4Addr = match source.ip.parse() {
                Ok(ip) => ip,
                Err(_) => continue,
            };
            let conn = ctx.tcp_connect(ip, source.port);
            self.conn_to_source.insert(conn, i);
            ctx.set_timer(SimDuration::from_millis(source.poll_ms), i as u64);
        }
        ctx.set_timer(SimDuration::from_millis(50), TOKEN_COMMANDS);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        if token == TOKEN_COMMANDS {
            self.sweep_stale(ctx.now().as_millis());
            self.process_commands(ctx);
        } else if (token as usize) < self.links.len() {
            self.poll_source(ctx, token as usize);
        }
    }

    fn on_tcp_connected(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId) {
        let Some(&index) = self.conn_to_source.get(&conn) else {
            return;
        };
        match &mut self.links[index] {
            SourceLink::Modbus { conn: slot, .. } => *slot = Some(conn),
            SourceLink::Mms {
                conn: slot, client, ..
            } => {
                *slot = Some(conn);
                let init = client.initiate();
                ctx.tcp_send(conn, &init);
            }
        }
    }

    fn on_tcp_data(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId, data: &[u8]) {
        let Some(&index) = self.conn_to_source.get(&conn) else {
            return;
        };
        let now_ms = ctx.now().as_millis();
        // The inbound data's causal context: for Modbus poll responses this
        // is the PLC scan that last changed the image; for MMS reports the
        // IED action that emitted them.
        let tracer = ctx.tracer();
        let parent = ctx.trace_parent();
        let mut updates: Vec<(String, f64)> = Vec::new();
        match &mut self.links[index] {
            SourceLink::Modbus { client, .. } => {
                for (request, response) in client.feed(data) {
                    let raw = match response {
                        ModbusResponse::Bits(bits) => bits.first().map(|b| f64::from(u8::from(*b))),
                        ModbusResponse::Registers(regs) => regs.first().map(|r| f64::from(*r)),
                        _ => None,
                    };
                    // Map the read back to the point it polls; a write
                    // polls none.
                    let tag = self.config.sources[index]
                        .points
                        .iter()
                        .find(|p| {
                            matches!(p.address, PointAddress::Modbus { kind, address }
                                if modbus_read(kind, address) == request)
                        })
                        .map(|p| p.name.clone());
                    if let (Some(tag), Some(raw)) = (tag, raw) {
                        updates.push((tag, raw));
                    }
                }
            }
            SourceLink::Mms { client, .. } => {
                for (request, pdu) in client.feed(data) {
                    if let MmsPdu::InformationReport {
                        report_name,
                        entries,
                    } = &pdu
                    {
                        // Spontaneous report (e.g. a protection trip): log it
                        // and refresh any tag bound to a reported item.
                        self.shared.shared.lock().events.push(HmiEvent {
                            time_ms: now_ms,
                            message: format!(
                                "REPORT {report_name}: {}",
                                entries
                                    .iter()
                                    .map(|(item, value)| format!("{item}={value:?}"))
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            ),
                        });
                        for (item, value) in entries {
                            let raw = match value {
                                DataValue::Bool(b) => Some(f64::from(u8::from(*b))),
                                DataValue::Float(f) => Some(f64::from(*f)),
                                other => other.as_dbpos().map(|b| f64::from(u8::from(b))),
                            };
                            let tag = self.config.sources[index]
                                .points
                                .iter()
                                .find(|p| {
                                    matches!(&p.address, PointAddress::Mms { item: i } if i == item)
                                })
                                .map(|p| p.name.clone());
                            if let (Some(tag), Some(raw)) = (tag, raw) {
                                updates.push((tag, raw));
                            }
                        }
                        continue;
                    }
                    if let (
                        Some(MmsRequest::Read { items }),
                        MmsPdu::ConfirmedResponse {
                            response: MmsResponse::Read { results },
                            ..
                        },
                    ) = (request, pdu)
                    {
                        for (item, result) in items.iter().zip(results) {
                            let Ok(value) = result else { continue };
                            let raw = match &value {
                                DataValue::Float(f) => Some(f64::from(*f)),
                                DataValue::Bool(b) => Some(f64::from(u8::from(*b))),
                                DataValue::Int(i) => Some(*i as f64),
                                other => other.as_dbpos().map(|b| f64::from(u8::from(b))),
                            };
                            if let Some(raw) = raw {
                                // Map back item → tag name.
                                let tag = self.config.sources[index]
                                    .points
                                    .iter()
                                    .find(|p| {
                                        matches!(&p.address, PointAddress::Mms { item: i } if i == item)
                                    })
                                    .map(|p| p.name.clone());
                                if let Some(tag) = tag {
                                    updates.push((tag, raw));
                                }
                            }
                        }
                    }
                }
            }
        }
        for (tag, raw) in updates {
            self.update_tag(now_ms, &tag, raw, &tracer, parent);
        }
    }
}
