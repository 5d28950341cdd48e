//! The virtual PLC network application: Modbus server towards SCADA, MMS
//! client towards IEDs, scan cycle in between — the OpenPLC61850
//! architecture on an emulated host.

use crate::runtime::PlcRuntime;
use crate::st::interp::StValue;
use parking_lot::Mutex;
use sgcr_iec61850::{
    DataValue, GoosePdu, GooseSubscriber, MmsClient, MmsPdu, MmsRequest, MmsResponse, MMS_PORT,
};
use sgcr_modbus::{ModbusServerApp, SharedRegisters};
use sgcr_net::{
    ethertype, AppPlane, ConnId, EthernetFrame, HostCtx, Ipv4Addr, SimDuration, SocketApp,
};
use sgcr_obs::{Counter, Event as ObsEvent, Plane, Telemetry, TraceCtx};
use std::collections::BTreeSet;
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

/// One MMS session, to one IED server, resolved when the app is built.
struct MmsLink {
    server: Ipv4Addr,
    client: MmsClient,
    /// The connection, from the connect on start until it closes.
    conn: Option<ConnId>,
    /// Whether `conn` is established.
    connected: bool,
    /// The read one poll sends: the items of the link's read bindings, in
    /// binding order.
    poll: MmsRequest,
    /// The read bindings (indices into `PlcApp::reads`) the items feed: a
    /// read response's results map to them by position.
    reads: Vec<usize>,
}

/// The virtual PLC application. Its bindings are shared with every other
/// tenant of the compiled PLC; the sessions, the edge memory and the
/// runtime's variables are its own.
pub struct PlcApp {
    runtime: PlcRuntime,
    modbus: ModbusServerApp,
    scan_period: SimDuration,
    reads: Arc<[MmsReadBinding]>,
    writes: Arc<[MmsWriteBinding]>,
    gooses: Arc<[GooseBinding]>,
    /// One session per server a read or write names, in address order.
    links: Vec<MmsLink>,
    /// A subscriber per distinct control block, in reference order, with
    /// the GOOSE bindings (indices into `gooses`) it feeds.
    goose_subs: Vec<(GooseSubscriber, Vec<usize>)>,
    /// The value each write binding last saw, by index: controls are
    /// edge-triggered.
    last_written: Vec<Option<bool>>,
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

/// A polled or subscribed value as a PLC variable; `scale` multiplies a
/// float (GOOSE values pass 1).
fn st_value(value: &DataValue, scale: f64) -> Option<StValue> {
    Some(match value {
        DataValue::Bool(b) => StValue::Bool(*b),
        DataValue::Float(f) => StValue::Real(f64::from(*f) * scale),
        DataValue::Int(i) => StValue::Int(*i),
        DataValue::Uint(u) => StValue::Int(*u as i64),
        other => StValue::Bool(other.as_dbpos()?),
    })
}

impl PlcApp {
    /// Builds the app with a telemetry handle (`Telemetry::disabled()` for
    /// none). `registers` is the Modbus image shared with the embedded
    /// server; `reads`/`writes` bind IED points to PLC variables, and the
    /// app subscribes to each distinct control block `gooses` names on its
    /// station bus. Issued MMS controls feed the `plc.controls_sent` counter
    /// and journal [`PlcControl`](sgcr_obs::Event::PlcControl) events.
    pub fn with_telemetry(
        runtime: PlcRuntime,
        registers: SharedRegisters,
        scan_period: SimDuration,
        reads: Arc<[MmsReadBinding]>,
        writes: Arc<[MmsWriteBinding]>,
        gooses: Arc<[GooseBinding]>,
        telemetry: Telemetry,
    ) -> (PlcApp, PlcHandle) {
        let servers: BTreeSet<Ipv4Addr> = (reads.iter().map(|r| r.server))
            .chain(writes.iter().map(|w| w.server))
            .collect();
        let links = servers
            .into_iter()
            .map(|server| {
                let polled: Vec<usize> = (0..reads.len())
                    .filter(|&i| reads[i].server == server)
                    .collect();
                MmsLink {
                    server,
                    client: MmsClient::new(),
                    conn: None,
                    connected: false,
                    poll: MmsRequest::Read {
                        items: polled.iter().map(|&i| reads[i].item.clone()).collect(),
                    },
                    reads: polled,
                }
            })
            .collect();
        let refs: BTreeSet<&str> = gooses.iter().map(|g| g.gocb_ref.as_str()).collect();
        let goose_subs = refs
            .into_iter()
            .map(|gocb_ref| {
                let fed = (0..gooses.len()).filter(|&i| gooses[i].gocb_ref == gocb_ref);
                (GooseSubscriber::new(gocb_ref), fed.collect())
            })
            .collect();
        let status: PlcHandle = Arc::default();
        (
            PlcApp {
                runtime,
                modbus: ModbusServerApp::new(registers.clone()),
                scan_period,
                last_written: vec![None; writes.len()],
                reads,
                writes,
                gooses,
                links,
                goose_subs,
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

        // Poll IED reads, server by server in address order, so the request
        // order (and with it frame timing and trace-ID assignment) is
        // deterministic.
        for link in &mut self.links {
            let Some(conn) = link
                .conn
                .filter(|_| link.connected && !link.reads.is_empty())
            else {
                continue;
            };
            if let Some((_, wire)) = link.client.request(&link.poll) {
                ctx.tcp_send(conn, &wire);
            }
        }

        // Issue controls for changed output variables. The first observation
        // of a variable only records its value: controls are edge-triggered,
        // so startup defaults never emit a spurious open/close.
        for (i, w) in self.writes.iter().enumerate() {
            let Some(value) = self.runtime.get(&w.variable).and_then(StValue::as_bool) else {
                continue;
            };
            match self.last_written[i] {
                None => {
                    self.last_written[i] = Some(value);
                    continue;
                }
                Some(prev) if prev == value => continue,
                Some(_) => {}
            }
            let Some(link) = self.links.iter_mut().find(|l| l.server == w.server) else {
                continue;
            };
            let Some(conn) = link.conn.filter(|_| link.connected) else {
                continue;
            };
            let Some((_, wire)) = link.client.request(&MmsRequest::Write {
                items: vec![w.item.clone()],
                values: vec![DataValue::Bool(value)],
            }) else {
                continue;
            };
            let mut control_span = ctx
                .tracer()
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
            self.last_written[i] = Some(value);
            self.status.lock().controls_sent += 1;
            self.controls_counter.inc();
            self.telemetry
                .record(now.as_nanos(), || ObsEvent::PlcControl {
                    variable: w.variable.clone(),
                    value,
                });
        }

        scan_span.end(now);
        ctx.set_timer(self.scan_period, TOKEN_SCAN);
    }

    /// Hands a received GOOSE frame, decoded once, to every subscriber.
    fn handle_goose_frame(&mut self, ctx: &mut HostCtx<'_>, frame: &EthernetFrame) {
        let now = ctx.now();
        let Ok((_, pdu)) = GoosePdu::decode(&frame.payload) else {
            return;
        };
        for (sub, fed) in &mut self.goose_subs {
            if sub.process(now, &pdu).is_none() {
                continue;
            }
            let mut span =
                ctx.tracer()
                    .open("plc.goose_rx", Plane::Control, ctx.trace_parent(), now);
            if span.is_recording() {
                span.attr("gocb", sub.gocb_ref.as_str());
            }
            let rx_ctx = span.ctx();
            span.end(now);
            if rx_ctx.is_some() {
                // The next scan consumes this: GOOSE-driven logic is
                // parented to the reception, hence to the publishing IED.
                self.pending_cause = rx_ctx;
            }
            for &i in fed.iter() {
                let binding = &self.gooses[i];
                let value = sub.data.get(binding.index).and_then(|v| st_value(v, 1.0));
                if let Some(value) = value {
                    self.runtime.set(&binding.variable, value);
                }
            }
        }
    }

    fn handle_mms_data(&mut self, link: usize, data: &[u8]) {
        let link = &mut self.links[link];
        for reply in link.client.feed(data) {
            if let MmsPdu::ConfirmedResponse {
                response: MmsResponse::Read { results },
                ..
            } = reply
            {
                for (&i, result) in link.reads.iter().zip(results) {
                    let binding = &self.reads[i];
                    if let Some(value) = result.ok().and_then(|v| st_value(&v, binding.scale)) {
                        self.runtime.set(&binding.variable, value);
                        self.status.lock().reads_ok += 1;
                    }
                }
            }
        }
    }

    /// The MMS session on `conn`, if `conn` is one.
    fn link_of(&self, conn: ConnId) -> Option<usize> {
        self.links.iter().position(|l| l.conn == Some(conn))
    }
}

impl SocketApp for PlcApp {
    fn plane(&self) -> AppPlane {
        AppPlane::Plc
    }

    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.modbus.on_start(ctx);
        for link in &mut self.links {
            link.conn = Some(ctx.tcp_connect(link.server, MMS_PORT));
        }
        ctx.set_timer(self.scan_period, TOKEN_SCAN);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        if token == TOKEN_SCAN {
            self.scan(ctx);
        }
    }

    fn on_tcp_connected(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId) {
        if let Some(i) = self.link_of(conn) {
            let link = &mut self.links[i];
            link.connected = true;
            let init = link.client.initiate();
            ctx.tcp_send(conn, &init);
        }
    }

    fn on_tcp_accepted(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId, peer: (Ipv4Addr, u16)) {
        self.modbus.on_tcp_accepted(ctx, conn, peer);
    }

    fn on_tcp_data(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId, data: &[u8]) {
        if let Some(link) = self.link_of(conn) {
            self.handle_mms_data(link, data);
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
        if let Some(i) = self.link_of(conn) {
            let link = &mut self.links[i];
            link.conn = None;
            link.connected = false;
        } else {
            self.modbus.on_tcp_closed(ctx, conn);
        }
    }
}
