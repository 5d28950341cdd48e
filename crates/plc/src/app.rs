//! The virtual PLC network application: Modbus server towards SCADA, MMS
//! client towards IEDs, scan cycle in between — the OpenPLC61850
//! architecture on an emulated host.

use crate::runtime::PlcRuntime;
use crate::st::interp::StValue;
use parking_lot::Mutex;
use sgcr_iec61850::{
    DataValue, GooseSubscriber, MmsClient, MmsPdu, MmsRequest, MmsResponse, MMS_PORT,
};
use sgcr_modbus::{ModbusServerApp, SharedRegisters};
use sgcr_net::{
    ethertype, AppPlane, ConnId, EthernetFrame, HostCtx, Ipv4Addr, SimDuration, SocketApp,
};
use sgcr_obs::{Counter, Event as ObsEvent, Plane, Telemetry, TraceCtx};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

const TOKEN_SCAN: u64 = 1;

/// A point polled from an IED into a PLC variable.
#[derive(Debug, Clone, PartialEq)]
pub struct MmsReadBinding {
    /// IED server address.
    pub server: Ipv4Addr,
    /// MMS item id (`GIED1LD0/MMXU1$MX$TotW$mag$f`).
    pub item: String,
    /// PLC variable receiving the value.
    pub variable: String,
    /// Multiply the read value by this before storing (unit scaling).
    pub scale: f64,
}

/// A PLC boolean variable driving an IED control on change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MmsWriteBinding {
    /// IED server address.
    pub server: Ipv4Addr,
    /// Control item (`GIED1LD0/CSWI1$CO$Pos$Oper$ctlVal`).
    pub item: String,
    /// PLC variable watched for changes.
    pub variable: String,
}

/// A GOOSE dataset entry mapped into a PLC variable: the PLC subscribes to
/// the control block on its station bus and copies the entry's value into
/// the variable on reception, ahead of the next scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GooseBinding {
    /// Control block reference to subscribe to.
    pub gocb_ref: String,
    /// Dataset entry index.
    pub index: usize,
    /// PLC variable receiving the value.
    pub variable: String,
}

/// Status snapshot shared with the experiment harness.
#[derive(Debug, Default)]
pub struct PlcStatus {
    /// Completed scans.
    pub scans: u64,
    /// Fault message if the program faulted.
    pub fault: Option<String>,
    /// MMS reads completed.
    pub reads_ok: u64,
    /// MMS controls issued.
    pub controls_sent: u64,
}

/// Shared observable handle to a running PLC.
pub type PlcHandle = Arc<Mutex<PlcStatus>>;

struct MmsLink {
    client: MmsClient,
    conn: Option<ConnId>,
}

/// The virtual PLC application.
pub struct PlcApp {
    runtime: PlcRuntime,
    modbus: ModbusServerApp,
    scan_period: SimDuration,
    reads: Vec<MmsReadBinding>,
    writes: Vec<MmsWriteBinding>,
    gooses: Vec<GooseBinding>,
    goose_subs: Vec<GooseSubscriber>,
    links: HashMap<Ipv4Addr, MmsLink>,
    conn_to_server: HashMap<ConnId, Ipv4Addr>,
    last_written: HashMap<String, bool>,
    status: PlcHandle,
    telemetry: Telemetry,
    controls_counter: Counter,
    /// Shared Modbus image, kept for output-change detection while tracing.
    registers: SharedRegisters,
    /// Trace context of the GOOSE reception that will causally drive the
    /// next scan; consumed (taken) when the scan runs.
    pending_cause: Option<TraceCtx>,
    /// Trace context of the scan that last *changed* the Modbus output
    /// image: the causal parent of subsequent SCADA poll responses.
    image_ctx: Option<TraceCtx>,
}

impl PlcApp {
    /// Builds the app with a telemetry handle (`Telemetry::disabled()` for
    /// none). `registers` is the Modbus image shared with the embedded
    /// server; `reads`/`writes` bind IED points to PLC variables. Issued MMS
    /// controls feed the `plc.controls_sent` counter and journal
    /// [`PlcControl`](sgcr_obs::Event::PlcControl) events.
    pub fn with_telemetry(
        runtime: PlcRuntime,
        registers: SharedRegisters,
        scan_period: SimDuration,
        reads: Vec<MmsReadBinding>,
        writes: Vec<MmsWriteBinding>,
        telemetry: Telemetry,
    ) -> (PlcApp, PlcHandle) {
        let status: PlcHandle = Arc::default();
        (
            PlcApp {
                runtime,
                modbus: ModbusServerApp::new(registers.clone()),
                scan_period,
                reads,
                writes,
                gooses: Vec::new(),
                goose_subs: Vec::new(),
                links: HashMap::new(),
                conn_to_server: HashMap::new(),
                last_written: HashMap::new(),
                status: status.clone(),
                controls_counter: telemetry.counter("plc.controls_sent"),
                telemetry,
                registers,
                pending_cause: None,
                image_ctx: None,
            },
            status,
        )
    }

    /// Installs GOOSE dataset → PLC variable bindings; the app subscribes to
    /// each distinct control block on its station bus.
    pub fn set_goose_bindings(&mut self, bindings: Vec<GooseBinding>) {
        let mut refs: Vec<String> = bindings.iter().map(|b| b.gocb_ref.clone()).collect();
        refs.sort();
        refs.dedup();
        self.goose_subs = refs.iter().map(|g| GooseSubscriber::new(g)).collect();
        self.gooses = bindings;
    }

    /// The servers this PLC needs MMS sessions to.
    fn servers(&self) -> Vec<Ipv4Addr> {
        let mut servers: Vec<Ipv4Addr> = self
            .reads
            .iter()
            .map(|r| r.server)
            .chain(self.writes.iter().map(|w| w.server))
            .collect();
        servers.sort();
        servers.dedup();
        servers
    }

    fn scan(&mut self, ctx: &mut HostCtx<'_>) {
        let now = ctx.now();
        // A GOOSE reception since the previous scan is this scan's causal
        // parent (consumed exactly once); otherwise the scan is periodic and
        // roots a fresh trace only if tracing is on.
        let scan_span =
            ctx.tracer()
                .open("plc.scan", Plane::Control, self.pending_cause.take(), now);
        let scan_ctx = scan_span.ctx();
        if scan_ctx.is_some() {
            // MMS polls and controls issued below chain to the scan span.
            ctx.set_trace_parent(scan_ctx);
        }
        // Snapshot the Modbus image (tracing only) so an output change made
        // by this scan can be attributed to it for later SCADA polls.
        let image_before = scan_ctx.map(|_| self.registers.with(|r| r.clone()));
        self.runtime.scan(now.as_nanos());
        if let Some(before) = image_before {
            if self.registers.with(|r| *r != before) {
                self.image_ctx = scan_ctx;
            }
        }
        {
            let mut status = self.status.lock();
            status.scans = self.runtime.scan_count();
            status.fault = self.runtime.fault().map(|f| f.message.clone());
        }

        // Poll IED reads. Grouped in a BTreeMap so the request order (and
        // with it frame timing and trace-ID assignment) is deterministic.
        let mut per_server: BTreeMap<Ipv4Addr, Vec<String>> = BTreeMap::new();
        for r in &self.reads {
            per_server.entry(r.server).or_default().push(r.item.clone());
        }
        for (server, items) in per_server {
            if let Some(link) = self.links.get_mut(&server) {
                if let Some(conn) = link.conn {
                    if let Some((_, wire)) = link.client.request(MmsRequest::Read { items }) {
                        ctx.tcp_send(conn, &wire);
                    }
                }
            }
        }

        // Issue controls for changed output variables. The first observation
        // of a variable only records its value: controls are edge-triggered,
        // so startup defaults never emit a spurious open/close.
        for w in &self.writes {
            let Some(value) = self.runtime.get(&w.variable).and_then(StValue::as_bool) else {
                continue;
            };
            let changed = match self.last_written.get(&w.variable) {
                None => {
                    self.last_written.insert(w.variable.clone(), value);
                    false
                }
                Some(prev) => *prev != value,
            };
            if !changed {
                continue;
            }
            if let Some(link) = self.links.get_mut(&w.server) {
                if let Some(conn) = link.conn {
                    let Some((_, wire)) = link.client.request(MmsRequest::Write {
                        items: vec![w.item.clone()],
                        values: vec![DataValue::Bool(value)],
                    }) else {
                        continue;
                    };
                    let mut control_span =
                        ctx.tracer()
                            .open("plc.control", Plane::Control, scan_ctx, now);
                    if control_span.is_recording() {
                        control_span.attr("variable", w.variable.as_str());
                        control_span.attr("item", w.item.as_str());
                        control_span.attr("value", if value { "true" } else { "false" });
                    }
                    let control_ctx = control_span.ctx();
                    if control_ctx.is_some() {
                        ctx.set_trace_parent(control_ctx);
                    }
                    ctx.tcp_send(conn, &wire);
                    control_span.end(now);
                    if scan_ctx.is_some() {
                        // Later sends in this scan are not caused by this
                        // particular control.
                        ctx.set_trace_parent(scan_ctx);
                    }
                    self.last_written.insert(w.variable.clone(), value);
                    self.status.lock().controls_sent += 1;
                    self.controls_counter.inc();
                    self.telemetry
                        .record(now.as_nanos(), || ObsEvent::PlcControl {
                            variable: w.variable.clone(),
                            value,
                        });
                }
            }
        }

        scan_span.end(now);
        ctx.set_timer(self.scan_period, TOKEN_SCAN);
    }

    fn handle_goose_frame(&mut self, ctx: &mut HostCtx<'_>, frame: &EthernetFrame) {
        let now = ctx.now();
        for sub in &mut self.goose_subs {
            if sub.process(now, frame).is_none() {
                continue;
            }
            let gocb = sub.gocb_ref.clone();
            let data = sub.data.clone();
            let mut span =
                ctx.tracer()
                    .open("plc.goose_rx", Plane::Control, ctx.trace_parent(), now);
            if span.is_recording() {
                span.attr("gocb", gocb.as_str());
            }
            let rx_ctx = span.ctx();
            span.end(now);
            if rx_ctx.is_some() {
                // The next scan consumes this: GOOSE-driven logic is
                // parented to the reception, hence to the publishing IED.
                self.pending_cause = rx_ctx;
            }
            for binding in &self.gooses {
                if binding.gocb_ref != gocb {
                    continue;
                }
                let Some(value) = data.get(binding.index) else {
                    continue;
                };
                let st_value = match value {
                    DataValue::Bool(v) => StValue::Bool(*v),
                    DataValue::Float(f) => StValue::Real(f64::from(*f)),
                    DataValue::Int(i) => StValue::Int(*i),
                    DataValue::Uint(u) => StValue::Int(*u as i64),
                    other => match other.as_dbpos() {
                        Some(v) => StValue::Bool(v),
                        None => continue,
                    },
                };
                self.runtime.set(&binding.variable, st_value);
            }
        }
    }

    fn handle_mms_data(&mut self, server: Ipv4Addr, data: &[u8]) {
        let Some(link) = self.links.get_mut(&server) else {
            return;
        };
        for reply in link.client.feed(data) {
            if let (
                Some(MmsRequest::Read { items }),
                MmsPdu::ConfirmedResponse {
                    response: MmsResponse::Read { results },
                    ..
                },
            ) = reply
            {
                for (item, result) in items.iter().zip(results) {
                    let Ok(value) = result else { continue };
                    let binding = self
                        .reads
                        .iter()
                        .find(|r| r.server == server && r.item == *item);
                    if let Some(binding) = binding {
                        let st_value = match &value {
                            DataValue::Bool(b) => StValue::Bool(*b),
                            DataValue::Float(f) => StValue::Real(f64::from(*f) * binding.scale),
                            DataValue::Int(i) => StValue::Int(*i),
                            DataValue::Uint(u) => StValue::Int(*u as i64),
                            other => match other.as_dbpos() {
                                Some(b) => StValue::Bool(b),
                                None => continue,
                            },
                        };
                        self.runtime.set(&binding.variable, st_value);
                        self.status.lock().reads_ok += 1;
                    }
                }
            }
        }
    }
}

impl SocketApp for PlcApp {
    fn plane(&self) -> AppPlane {
        AppPlane::Plc
    }

    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.modbus.on_start(ctx);
        for server in self.servers() {
            let conn = ctx.tcp_connect(server, MMS_PORT);
            self.links.insert(
                server,
                MmsLink {
                    client: MmsClient::new(),
                    conn: None,
                },
            );
            self.conn_to_server.insert(conn, server);
        }
        ctx.set_timer(self.scan_period, TOKEN_SCAN);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        if token == TOKEN_SCAN {
            self.scan(ctx);
        }
    }

    fn on_tcp_connected(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId) {
        if let Some(&server) = self.conn_to_server.get(&conn) {
            if let Some(link) = self.links.get_mut(&server) {
                link.conn = Some(conn);
                let init = link.client.initiate();
                ctx.tcp_send(conn, &init);
            }
        }
    }

    fn on_tcp_accepted(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId, peer: (Ipv4Addr, u16)) {
        self.modbus.on_tcp_accepted(ctx, conn, peer);
    }

    fn on_tcp_data(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId, data: &[u8]) {
        if let Some(&server) = self.conn_to_server.get(&conn) {
            self.handle_mms_data(server, data);
        } else {
            // Modbus traffic from SCADA. The values a poll returns were
            // produced by the scan that last changed the output image, so
            // responses are parented to that scan, not to the poll request.
            if self.image_ctx.is_some() {
                ctx.set_trace_parent(self.image_ctx);
            }
            self.modbus.on_tcp_data(ctx, conn, data);
        }
    }

    fn on_raw_frame(&mut self, ctx: &mut HostCtx<'_>, frame: &EthernetFrame) {
        if frame.ethertype == ethertype::GOOSE && !self.goose_subs.is_empty() {
            self.handle_goose_frame(ctx, frame);
        }
    }

    fn on_tcp_closed(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId) {
        if let Some(server) = self.conn_to_server.remove(&conn) {
            if let Some(link) = self.links.get_mut(&server) {
                link.conn = None;
            }
        } else {
            self.modbus.on_tcp_closed(ctx, conn);
        }
    }
}
