//! The application trait hosted on emulated nodes and its context API.

use crate::addr::{Ipv4Addr, MacAddr};
use crate::frame::{ipproto, ipv4_packet, EthernetFrame, UdpDatagram};
use crate::host::{ConnId, HostState};
use crate::sim::{Event, Network, NodeId, TickState, TickWaker};
use crate::time::{SimDuration, SimTime};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::task::Waker;

/// The simulation plane an application's wall time is attributed to by
/// per-step profiling (`step.plane.*` histograms).
///
/// Every dispatch into a [`SocketApp`] — timers, socket events, raw frames —
/// is timed against the app's declared plane while the network's telemetry
/// is enabled; the range's step loop turns the accumulated nanoseconds into
/// per-plane attribution histograms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AppPlane {
    /// Virtual IEDs: IEC 61850 servers, measurement sampling, protection.
    Ied,
    /// PLC scan cycles and control logic.
    Plc,
    /// SCADA/HMI masters, polling, and housekeeping.
    Scada,
    /// Everything else (attack tooling, test fixtures, ad-hoc apps).
    #[default]
    Other,
}

impl AppPlane {
    /// Number of planes (the length of a per-plane accumulator array).
    pub const COUNT: usize = 4;

    /// A stable dense index for per-plane accumulator arrays.
    pub fn index(self) -> usize {
        match self {
            AppPlane::Ied => 0,
            AppPlane::Plc => 1,
            AppPlane::Scada => 2,
            AppPlane::Other => 3,
        }
    }

    /// The plane's name as used in `step.plane.<name>_seconds` metrics.
    pub fn name(self) -> &'static str {
        match self {
            AppPlane::Ied => "ied",
            AppPlane::Plc => "plc",
            AppPlane::Scada => "scada",
            AppPlane::Other => "other",
        }
    }
}

/// An application running on an emulated host (virtual IED, PLC, SCADA,
/// attacker tool, …).
///
/// All methods have no-op defaults; implement the ones the application needs.
/// Methods receive a [`HostCtx`] giving access to the host's sockets, timers,
/// and raw frame transmission. Everything is driven by the deterministic
/// event loop — there are no threads and no wall-clock time.
#[allow(unused_variables)]
pub trait SocketApp: Send {
    /// The plane this app's execution time is attributed to in per-step
    /// profiling. Defaults to [`AppPlane::Other`].
    fn plane(&self) -> AppPlane {
        AppPlane::Other
    }

    /// Called once when the simulation starts (or when the app is attached).
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {}

    /// A timer set via [`HostCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {}

    /// The host's tick, armed via [`HostCtx::arm_tick`] or woken from
    /// [`HostCtx::park_tick`], fired.
    fn on_tick(&mut self, ctx: &mut HostCtx<'_>) {}

    /// A UDP datagram arrived on a bound port.
    fn on_udp(&mut self, ctx: &mut HostCtx<'_>, src: (Ipv4Addr, u16), dst_port: u16, data: &[u8]) {}

    /// An outbound TCP connection completed its handshake.
    fn on_tcp_connected(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId) {}

    /// An inbound TCP connection was accepted on a listening port.
    fn on_tcp_accepted(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId, peer: (Ipv4Addr, u16)) {}

    /// In-order TCP data arrived.
    fn on_tcp_data(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId, data: &[u8]) {}

    /// A TCP connection closed (FIN exchange completed or RST received).
    fn on_tcp_closed(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId) {}

    /// A frame addressed to the host (unicast/broadcast/multicast) arrived
    /// at its port. GOOSE/SV subscribers live here.
    fn on_raw_frame(&mut self, ctx: &mut HostCtx<'_>, frame: &EthernetFrame) {}

    /// An IPv4 packet addressed to this host's MAC but a *different* IP
    /// address arrived, and transit delivery is enabled: the
    /// man-in-the-middle position. The app decides whether to forward,
    /// modify, or drop.
    fn on_transit_ip(&mut self, ctx: &mut HostCtx<'_>, frame: &EthernetFrame) {}
}

/// Handle given to applications for interacting with their host and network:
/// each method acts on the network directly.
pub struct HostCtx<'a> {
    pub(crate) net: &'a mut Network,
    pub(crate) node: NodeId,
}

impl<'a> HostCtx<'a> {
    fn state(&mut self) -> &mut HostState {
        &mut self.net.host_mut(self.node).state
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// This host's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This host's name.
    pub fn name(&self) -> &str {
        self.net.node_name(self.node)
    }

    /// This host's IPv4 address.
    pub fn ip(&self) -> Ipv4Addr {
        self.net.host_ip(self.node)
    }

    /// This host's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.net.host_mac(self.node)
    }

    /// Binds a UDP port so datagrams to it are delivered to the app.
    pub fn bind_udp(&mut self, port: u16) {
        let bound = &mut self.state().udp_bound;
        if !bound.contains(&port) {
            bound.push(port);
        }
    }

    /// Sends a UDP datagram (ARP resolution happens automatically).
    pub fn send_udp(&mut self, dst: Ipv4Addr, dst_port: u16, src_port: u16, data: &[u8]) {
        let datagram = UdpDatagram {
            src_port,
            dst_port,
            payload: data,
        };
        let packet = ipv4_packet(self.ip(), dst, ipproto::UDP, &datagram.header(), data);
        self.net.send_packet(self.node, dst, packet);
    }

    /// Starts listening for TCP connections on a port.
    pub fn tcp_listen(&mut self, port: u16) {
        let listening = &mut self.state().tcp_listen;
        if !listening.contains(&port) {
            listening.push(port);
        }
    }

    /// Opens a TCP connection; completion is signalled via
    /// [`SocketApp::on_tcp_connected`].
    pub fn tcp_connect(&mut self, dst: Ipv4Addr, dst_port: u16) -> ConnId {
        let conn = self.state().tcp_connect(dst, dst_port);
        self.net.send_tcp(self.node, conn);
        conn
    }

    /// Sends bytes on an established connection.
    pub fn tcp_send(&mut self, conn: ConnId, data: &[u8]) {
        self.state().tcp_send(conn, data);
        self.net.send_tcp(self.node, conn);
    }

    /// Closes a connection (orderly FIN).
    pub fn tcp_close(&mut self, conn: ConnId) {
        self.state().tcp_close(conn);
        self.net.send_tcp(self.node, conn);
    }

    /// Transmits a raw Ethernet frame out of the host's port.
    pub fn send_frame(&mut self, frame: EthernetFrame) {
        self.net.transmit(self.node, 0, frame);
    }

    /// Schedules [`SocketApp::on_timer`] with `token` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let node = self.node;
        self.net.schedule(delay, Event::AppTimer { node, token });
    }

    /// Arms the host's tick to fire [`SocketApp::on_tick`] after `delay`.
    ///
    /// A host has one tick, so arming it again or parking it replaces the
    /// pending one. At one instant, every host's tick runs before any other
    /// event, in node order.
    pub fn arm_tick(&mut self, delay: SimDuration) {
        let at = self.net.now() + delay;
        self.net.arm_tick(self.node, at);
    }

    /// Parks the host's tick on the grid of `period` through its latest
    /// tick instead of arming it: it fires again only after a wake of
    /// [`tick_waker`](HostCtx::tick_waker), at the first grid instant
    /// strictly after the wake. A crash of the host arms it the same way
    /// ([`Network::set_host_enabled`]).
    pub fn park_tick(&mut self, period: SimDuration) {
        self.net.host_mut(self.node).tick.state = TickState::Parked(period);
    }

    /// A new waker of the host's tick: waking it arms a parked tick (see
    /// [`park_tick`](HostCtx::park_tick)) and does nothing otherwise. The
    /// waker may be woken from anywhere; the network arms the tick before
    /// it dispatches its next event. The network keeps every waker it hands
    /// out, so an app takes one when it starts and keeps it.
    pub fn tick_waker(&mut self) -> Waker {
        let waker = Arc::new(TickWaker {
            node: self.node,
            woken: AtomicBool::new(false),
            pending: self.net.pending_wakes.clone(),
        });
        self.net.tick_wakers.push(waker.clone());
        Waker::from(waker)
    }

    /// The instant of the host's latest tick at or before now: the last one
    /// dispatched, or while parked the latest instant of its grid — the
    /// tick that would have run had it not parked.
    pub fn last_tick(&self) -> SimTime {
        self.net.host(self.node).tick.latest(self.net.now())
    }

    /// Enables or disables transit-IP delivery (the MITM hook).
    pub fn set_deliver_transit(&mut self, on: bool) {
        self.state().deliver_transit = on;
    }

    /// The trace context that caused the event currently being dispatched,
    /// if any.
    ///
    /// Set automatically while a received frame (and everything it triggers
    /// synchronously — UDP/TCP delivery, raw-frame taps) is being processed,
    /// so spans opened by the app are parented to the span that sent the
    /// frame. `None` for timer-driven callbacks, which are causal roots.
    pub fn trace_parent(&self) -> Option<sgcr_obs::TraceCtx> {
        self.net.ambient_ctx
    }

    /// Overrides the ambient trace context for the rest of this dispatch.
    ///
    /// Frames transmitted afterwards (via [`HostCtx::send_frame`],
    /// [`HostCtx::tcp_send`], …) carry `ctx` as their causal parent instead
    /// of the inherited one. The override is cleared automatically when the
    /// current event finishes dispatching.
    pub fn set_trace_parent(&mut self, ctx: Option<sgcr_obs::TraceCtx>) {
        self.net.ambient_ctx = ctx;
    }

    /// The tracer shared by this network's telemetry hub (disabled when
    /// tracing is off; spans opened on a disabled tracer cost nothing).
    pub fn tracer(&self) -> sgcr_obs::Tracer {
        self.net.tracer().clone()
    }
}
