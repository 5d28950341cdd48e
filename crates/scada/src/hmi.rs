//! The SCADA HMI application: polls data sources, maintains the tag
//! database, evaluates alarms, and executes operator commands.

use crate::config::{
    AlarmKind, DataPoint, ModbusPointKind, PointAddress, ScadaConfig, SourceProtocol,
};
use parking_lot::Mutex;
use sgcr_faults::DegradationSignal;
use sgcr_iec61850::{DataValue, MmsClient, MmsPdu, MmsRequest, MmsResponse};
use sgcr_modbus::{ModbusClient, Request as ModbusRequest, Response as ModbusResponse};
use sgcr_net::{AppPlane, ConnId, HostCtx, SimDuration, SocketApp};
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
    /// Every point's tag, by point index (sources in config order, each
    /// source's points in order).
    tags: Vec<TagValue>,
    events: Vec<HmiEvent>,
    active_alarms: HashMap<String, String>,
    commands: VecDeque<OperatorCommand>,
    polls_completed: u64,
    /// Stale-tag detection window (ms); `None` disables the sweep.
    stale_window_ms: Option<u64>,
}

impl HmiShared {
    fn log(&mut self, time_ms: u64, message: String) {
        self.events.push(HmiEvent { time_ms, message });
    }
}

/// Key under which a tag's staleness alarm lives in `active_alarms`,
/// namespaced so it cannot collide with a configured alarm rule on the
/// same point.
pub(crate) fn stale_key(tag: &str) -> String {
    format!("stale:{tag}")
}

/// Every point of `config`, in tag-table order.
fn points(config: &ScadaConfig) -> impl Iterator<Item = &DataPoint> {
    config.sources.iter().flat_map(|source| &source.points)
}

/// The operator's handle to a running HMI: read tags, watch alarms, issue
/// commands. Shared with the experiment harness.
#[derive(Clone)]
pub struct ScadaHandle {
    config: Arc<ScadaConfig>,
    shared: Arc<Mutex<HmiShared>>,
    degradation: DegradationSignal,
}

impl ScadaHandle {
    /// Reads a tag (the first point of that name).
    pub fn tag(&self, name: &str) -> Option<TagValue> {
        let index = points(&self.config).position(|p| p.name == name)?;
        Some(self.shared.lock().tags[index].clone())
    }

    /// Reads a tag's numeric value if it has good quality.
    pub fn tag_value(&self, name: &str) -> Option<f64> {
        self.tag(name)
            .filter(|t| t.quality == Quality::Good)
            .map(|t| t.value)
    }

    /// All tag names, sorted.
    pub fn tag_names(&self) -> Vec<String> {
        let mut names: Vec<String> = points(&self.config).map(|p| p.name.clone()).collect();
        names.sort();
        names.dedup();
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

/// A read or reported value as a tag's raw number: numbers as they are,
/// booleans and double points as 0 or 1.
fn raw_value(value: &DataValue) -> Option<f64> {
    value.as_f64().or_else(|| {
        let state = value.as_bool().or_else(|| value.as_dbpos())?;
        Some(f64::from(u8::from(state)))
    })
}

/// One data source's session, resolved when the app is built. A point is
/// named by its index in the source; its tag is `first` plus that index.
struct SourceLink {
    /// The connection, from the connect on start.
    conn: Option<ConnId>,
    /// Whether `conn` is established.
    connected: bool,
    /// The tag index of the source's first point.
    first: usize,
    protocol: LinkProtocol,
}

enum LinkProtocol {
    Modbus {
        client: ModbusClient,
        unit: u8,
        /// Each Modbus-addressed point and the read that polls it. A poll
        /// sends each distinct read once; its response feeds every point
        /// that reads it.
        reads: Vec<(usize, ModbusRequest)>,
    },
    Mms {
        client: MmsClient,
        /// The read a poll sends: the MMS-addressed points' items, in order.
        read: MmsRequest,
        /// The point each item feeds: a read's results map to them by
        /// position, a report's entries by item.
        points: Vec<usize>,
    },
}

const TOKEN_COMMANDS: u64 = 1_000_000;

/// The SCADA HMI application (one per operator workstation host). Its
/// configuration is shared with every other tenant of the compiled model;
/// the sessions and the tag table are its own.
pub struct ScadaApp {
    config: Arc<ScadaConfig>,
    links: Vec<SourceLink>,
    /// The alarm rules (indices into the config's) that watch each tag, by
    /// tag index.
    tag_alarms: Vec<Vec<usize>>,
    shared: ScadaHandle,
    telemetry: Telemetry,
    alarms_counter: Counter,
    commands_counter: Counter,
}

impl ScadaApp {
    /// Builds the app from a parsed configuration, with its own degradation
    /// signal and telemetry disabled.
    pub fn new(config: ScadaConfig) -> (ScadaApp, ScadaHandle) {
        ScadaApp::with_telemetry(
            Arc::new(config),
            DegradationSignal::new(),
            Telemetry::disabled(),
        )
    }

    /// Builds the app over the degradation signal it consults (a range
    /// passes its one signal) with a telemetry handle. Alarm raises feed the
    /// `scada.alarms` counter and journal
    /// [`ScadaAlarm`](sgcr_obs::Event::ScadaAlarm) /
    /// [`ScadaAlarmCleared`](sgcr_obs::Event::ScadaAlarmCleared) events;
    /// executed operator commands feed `scada.commands` and journal
    /// [`ScadaCommand`](sgcr_obs::Event::ScadaCommand).
    pub fn with_telemetry(
        config: Arc<ScadaConfig>,
        degradation: DegradationSignal,
        telemetry: Telemetry,
    ) -> (ScadaApp, ScadaHandle) {
        let mut first = 0;
        let links = config
            .sources
            .iter()
            .map(|source| {
                let protocol = match source.protocol {
                    SourceProtocol::Modbus { unit } => LinkProtocol::Modbus {
                        client: ModbusClient::new(),
                        unit,
                        reads: (source.points.iter().enumerate())
                            .filter_map(|(k, point)| match point.address {
                                PointAddress::Modbus { kind, address } => {
                                    Some((k, modbus_read(kind, address)))
                                }
                                PointAddress::Mms { .. } => None,
                            })
                            .collect(),
                    },
                    SourceProtocol::Mms => {
                        let (points, items) = (source.points.iter().enumerate())
                            .filter_map(|(k, point)| match &point.address {
                                PointAddress::Mms { item } => Some((k, item.clone())),
                                PointAddress::Modbus { .. } => None,
                            })
                            .unzip();
                        LinkProtocol::Mms {
                            client: MmsClient::new(),
                            read: MmsRequest::Read { items },
                            points,
                        }
                    }
                };
                let link = SourceLink {
                    conn: None,
                    connected: false,
                    first,
                    protocol,
                };
                first += source.points.len();
                link
            })
            .collect();
        let tag_alarms = points(&config)
            .map(|point| {
                (0..config.alarms.len())
                    .filter(|&r| config.alarms[r].point == point.name)
                    .collect()
            })
            .collect();
        let shared = HmiShared {
            tags: vec![
                TagValue {
                    value: 0.0,
                    updated_ms: 0,
                    quality: Quality::Uninitialized,
                };
                first
            ],
            ..HmiShared::default()
        };
        let handle = ScadaHandle {
            config: Arc::clone(&config),
            shared: Arc::new(Mutex::new(shared)),
            degradation,
        };
        (
            ScadaApp {
                config,
                links,
                tag_alarms,
                shared: handle.clone(),
                alarms_counter: telemetry.counter("scada.alarms"),
                commands_counter: telemetry.counter("scada.commands"),
                telemetry,
            },
            handle,
        )
    }

    fn log(&self, now_ms: u64, message: String) {
        self.shared.shared.lock().log(now_ms, message);
    }

    fn poll_source(&mut self, ctx: &mut HostCtx<'_>, index: usize) {
        let link = &mut self.links[index];
        if let Some(conn) = link.conn.filter(|_| link.connected) {
            match &mut link.protocol {
                LinkProtocol::Modbus {
                    client,
                    unit,
                    reads,
                } => {
                    for (i, (_, read)) in reads.iter().enumerate() {
                        if reads[..i].iter().all(|(_, earlier)| earlier != read) {
                            let wire = client.request(*unit, read.clone());
                            ctx.tcp_send(conn, &wire);
                        }
                    }
                }
                LinkProtocol::Mms {
                    client,
                    read,
                    points,
                } => {
                    if !points.is_empty() {
                        if let Some((_, wire)) = client.request(read) {
                            ctx.tcp_send(conn, &wire);
                        }
                    }
                }
            }
        }
        self.shared.shared.lock().polls_completed += 1;
        let poll = SimDuration::from_millis(self.config.sources[index].poll_ms);
        ctx.set_timer(poll, index as u64);
    }

    /// Stores a new raw value of point `k` of source `source`, then settles
    /// the tag's staleness and its alarm rules, under one lock.
    fn update_tag(
        &mut self,
        now_ms: u64,
        (source, k): (usize, usize),
        raw: f64,
        tracer: &Tracer,
        parent: Option<TraceCtx>,
    ) {
        let point = &self.config.sources[source].points[k];
        let tag = self.links[source].first + k;
        let name = point.name.as_str();
        let now = TimeNs::from_millis(now_ms);
        let mut span = tracer.open("scada.update_tag", Plane::Scada, parent, now);
        if span.is_recording() {
            span.attr("tag", name);
            span.attr("raw", raw.to_string());
        }
        let update_ctx = span.ctx();
        let scaled = raw * point.scale;
        let quality = if self.shared.degradation.is_degraded() {
            Quality::Invalid
        } else {
            Quality::Good
        };
        let mut shared = self.shared.shared.lock();
        let shared = &mut *shared;
        let entry = &mut shared.tags[tag];
        let significant = entry.quality == Quality::Uninitialized
            || (scaled - entry.value).abs() > point.deadband;
        let was_stale = entry.quality == Quality::Old;
        entry.updated_ms = now_ms;
        entry.quality = quality;
        if significant {
            entry.value = scaled;
        }
        let value = entry.value;
        if was_stale {
            if let Some(message) = shared.active_alarms.remove(&stale_key(name)) {
                shared.log(now_ms, format!("CLEARED {name}: {message}"));
                self.telemetry.record(now, || ObsEvent::ScadaAlarmCleared {
                    point: name.to_string(),
                    message: message.clone(),
                });
            }
        }
        // A value without good quality raises and clears no alarm.
        let rules: &[usize] = match quality {
            Quality::Good => &self.tag_alarms[tag],
            _ => &[],
        };
        for &r in rules {
            let rule = &self.config.alarms[r];
            let in_alarm = match rule.kind {
                AlarmKind::High(limit) => value > limit,
                AlarmKind::Low(limit) => value < limit,
                AlarmKind::StateTrue => value != 0.0,
                AlarmKind::StateFalse => value == 0.0,
            };
            let was_active = shared.active_alarms.contains_key(&rule.point);
            let state = if in_alarm && !was_active {
                shared
                    .active_alarms
                    .insert(rule.point.clone(), rule.message.clone());
                shared.log(now_ms, format!("ALARM {}: {}", rule.point, rule.message));
                self.alarms_counter.inc();
                self.telemetry.record(now, || ObsEvent::ScadaAlarm {
                    point: rule.point.clone(),
                    message: rule.message.clone(),
                });
                "raised"
            } else if !in_alarm && was_active {
                shared.active_alarms.remove(&rule.point);
                shared.log(now_ms, format!("CLEARED {}: {}", rule.point, rule.message));
                self.telemetry.record(now, || ObsEvent::ScadaAlarmCleared {
                    point: rule.point.clone(),
                    message: rule.message.clone(),
                });
                "cleared"
            } else {
                continue;
            };
            let mut alarm_span = tracer.open("scada.alarm", Plane::Scada, update_ctx, now);
            if alarm_span.is_recording() {
                alarm_span.attr("point", rule.point.as_str());
                alarm_span.attr("state", state);
            }
            alarm_span.end(now);
        }
        span.end(now);
    }

    /// Flips tags that have not refreshed within the stale window to
    /// [`Quality::Old`] and raises a staleness alarm per tag. Runs on the
    /// same 50 ms housekeeping timer as command processing; a `None` window
    /// makes this a no-op.
    fn sweep_stale(&mut self, now_ms: u64) {
        let mut shared = self.shared.shared.lock();
        let Some(window) = shared.stale_window_ms else {
            return;
        };
        let mut newly_stale: Vec<(&str, u64)> = Vec::new();
        for (tag, point) in shared.tags.iter_mut().zip(points(&self.config)) {
            if tag.quality == Quality::Good && now_ms.saturating_sub(tag.updated_ms) > window {
                tag.quality = Quality::Old;
                newly_stale.push((&point.name, now_ms - tag.updated_ms));
            }
        }
        newly_stale.sort();
        let now = TimeNs::from_millis(now_ms);
        for (tag, age_ms) in newly_stale {
            let message = format!("stale: no update for {age_ms} ms (window {window} ms)");
            shared.active_alarms.insert(stale_key(tag), message.clone());
            shared.log(now_ms, format!("ALARM {tag}: {message}"));
            self.alarms_counter.inc();
            self.telemetry.record(now, || ObsEvent::TagStale {
                tag: tag.to_string(),
                age_ms,
            });
            self.telemetry.record(now, || ObsEvent::ScadaAlarm {
                point: tag.to_string(),
                message: message.clone(),
            });
        }
    }

    fn process_commands(&mut self, ctx: &mut HostCtx<'_>) {
        loop {
            let command = self.shared.shared.lock().commands.pop_front();
            let Some(OperatorCommand::WriteTag { tag, value }) = command else {
                break;
            };
            let now_ms = ctx.now().as_millis();
            let Some((source, point)) = self
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
            let link = &mut self.links[source];
            let Some(conn) = link.conn.filter(|_| link.connected) else {
                continue;
            };
            let wire = match (&mut link.protocol, &point.address) {
                (
                    LinkProtocol::Modbus { client, unit, .. },
                    &PointAddress::Modbus { kind, address },
                ) => {
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
                    client.request(*unit, request)
                }
                (LinkProtocol::Mms { client, .. }, PointAddress::Mms { item }) => {
                    let Some((_, wire)) = client.request(&MmsRequest::Write {
                        items: vec![item.clone()],
                        values: vec![DataValue::Bool(value != 0.0)],
                    }) else {
                        self.log(now_ms, format!("REJECTED write to {tag:?}: too long"));
                        continue;
                    };
                    wire
                }
                _ => continue,
            };
            ctx.tcp_send(conn, &wire);
            self.log(now_ms, format!("COMMAND {tag} := {value}"));
            self.commands_counter.inc();
            self.telemetry
                .record(TimeNs::from_millis(now_ms), || ObsEvent::ScadaCommand {
                    tag: tag.clone(),
                    value,
                });
        }
        ctx.set_timer(SimDuration::from_millis(50), TOKEN_COMMANDS);
    }

    /// The source whose session is `conn`.
    fn link_of(&self, conn: ConnId) -> Option<usize> {
        self.links.iter().position(|l| l.conn == Some(conn))
    }
}

impl SocketApp for ScadaApp {
    fn plane(&self) -> AppPlane {
        AppPlane::Scada
    }

    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        for (i, (link, source)) in self.links.iter_mut().zip(&self.config.sources).enumerate() {
            link.conn = Some(ctx.tcp_connect(source.ip, source.port));
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
        let Some(index) = self.link_of(conn) else {
            return;
        };
        let link = &mut self.links[index];
        link.connected = true;
        if let LinkProtocol::Mms { client, .. } = &mut link.protocol {
            let init = client.initiate();
            ctx.tcp_send(conn, &init);
        }
    }

    fn on_tcp_data(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId, data: &[u8]) {
        let Some(source) = self.link_of(conn) else {
            return;
        };
        let now_ms = ctx.now().as_millis();
        // The inbound data's causal context: for Modbus poll responses this
        // is the PLC scan that last changed the image; for MMS reports the
        // IED action that emitted them.
        let tracer = ctx.tracer();
        let parent = ctx.trace_parent();
        // (point, raw value) pairs, applied once every reply is read.
        let mut updates: Vec<(usize, f64)> = Vec::new();
        match &mut self.links[source].protocol {
            LinkProtocol::Modbus { client, reads, .. } => {
                for (request, response) in client.feed(data) {
                    let raw = match response {
                        ModbusResponse::Bits(bits) => bits.first().map(|b| f64::from(u8::from(*b))),
                        ModbusResponse::Registers(regs) => regs.first().map(|r| f64::from(*r)),
                        _ => None,
                    };
                    // A write's response polls no point.
                    let Some(raw) = raw else { continue };
                    let polled = reads.iter().filter(|(_, read)| *read == request);
                    updates.extend(polled.map(|&(k, _)| (k, raw)));
                }
            }
            LinkProtocol::Mms { client, points, .. } => {
                let source_points = &self.config.sources[source].points;
                for pdu in client.feed(data) {
                    match pdu {
                        MmsPdu::InformationReport {
                            report_name,
                            entries,
                        } => {
                            // Spontaneous report (e.g. a protection trip):
                            // log it and refresh every tag bound to a
                            // reported item.
                            let entries_text: Vec<String> = (entries.iter())
                                .map(|(item, value)| format!("{item}={value:?}"))
                                .collect();
                            let message =
                                format!("REPORT {report_name}: {}", entries_text.join(", "));
                            self.shared.shared.lock().log(now_ms, message);
                            for (item, value) in &entries {
                                let Some(raw) = raw_value(value) else {
                                    continue;
                                };
                                let fed = points.iter().filter(|&&k| {
                                    let address = &source_points[k].address;
                                    matches!(address, PointAddress::Mms { item: i } if i == item)
                                });
                                updates.extend(fed.map(|&k| (k, raw)));
                            }
                        }
                        // A read's response: a write's answers no point.
                        MmsPdu::ConfirmedResponse {
                            response: MmsResponse::Read { results },
                            ..
                        } => {
                            for (&k, result) in points.iter().zip(results) {
                                if let Some(raw) = result.ok().as_ref().and_then(raw_value) {
                                    updates.push((k, raw));
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        for (k, raw) in updates {
            self.update_tag(now_ms, (source, k), raw, &tracer, parent);
        }
    }
}
