//! The deterministic discrete-event network: nodes, links, switches, and the
//! event loop gluing host stacks to applications.

use crate::addr::{ethertype, Ipv4Addr, MacAddr};
use crate::app::{AppPlane, HostCtx, SocketApp};
use crate::frame::{ipproto, ArpPacket, EthernetFrame, Ipv4Packet, TcpSegment, UdpDatagram};
use crate::host::{ConnId, HostState, TcpInput};
use crate::time::{SimDuration, SimTime};
use bytes::Bytes;
use sgcr_faults::{FaultRng, LinkFault};
use sgcr_obs::{
    buckets, Counter, Event as ObsEvent, Histogram, Name, Plane, Telemetry, TraceCtx, Tracer,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::Wake;

/// Identifier of a node (host or switch) in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Physical properties of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Transmission rate in bits per second.
    pub rate_bps: u64,
}

impl Default for LinkSpec {
    fn default() -> Self {
        // 100 Mbit/s switched Ethernet with 50 µs latency: the class of LAN
        // the EPIC testbed's substation network uses.
        LinkSpec {
            latency: SimDuration::from_micros(50),
            rate_bps: 100_000_000,
        }
    }
}

impl LinkSpec {
    /// A wide-area link profile (higher latency), for inter-substation WAN.
    pub fn wan() -> LinkSpec {
        LinkSpec {
            latency: SimDuration::from_millis(5),
            rate_bps: 100_000_000,
        }
    }
}

/// A captured frame (time of arrival at the capturing node).
#[derive(Debug, Clone)]
pub struct CapturedFrame {
    /// Arrival time.
    pub time: SimTime,
    /// The frame.
    pub frame: EthernetFrame,
}

struct Link {
    a: (NodeId, usize),
    b: (NodeId, usize),
    spec: LinkSpec,
    busy_until_ab: SimTime,
    busy_until_ba: SimTime,
    /// Administratively down links drop all frames (failure injection).
    up: bool,
    /// Probabilistic impairment profile; `None` (the default) keeps the
    /// transmit path exactly as fast and as deterministic as before faults
    /// existed.
    fault: Option<LinkFault>,
}

/// Per-host instrument handles, resolved once when the host is added (or when
/// telemetry is attached) so the hot path never touches the registry.
#[derive(Default)]
struct HostMeters {
    tx: Counter,
    rx: Counter,
    dropped: Counter,
}

pub(crate) struct HostNode {
    pub(crate) state: HostState,
    app: Option<Box<dyn SocketApp>>,
    meters: HostMeters,
    /// The attached app's plane, cached at [`Network::attach_app`] so the
    /// dispatch hot path never re-queries the trait object.
    plane: AppPlane,
    /// False while the simulated device is crashed: incoming frames are
    /// dropped and app/TCP timers are deferred until restart.
    enabled: bool,
    pub(crate) tick: Tick,
}

/// A host's tick: the one timer of its app that can park (see
/// [`HostCtx::arm_tick`](crate::HostCtx::arm_tick)).
#[derive(Default)]
pub(crate) struct Tick {
    /// The instant of the latest tick: the last one dispatched, or the last
    /// instant of the parked grid a wake or a crash stepped past.
    last: SimTime,
    pub(crate) state: TickState,
}

#[derive(Default, Clone, Copy, PartialEq)]
pub(crate) enum TickState {
    /// Never armed, or running now.
    #[default]
    Idle,
    /// Fires at this instant. A queued tick of another instant was
    /// replaced and is skipped.
    Armed(SimTime),
    /// Fires again only when woken, on the grid of `last` plus every
    /// multiple of this period.
    Parked(SimDuration),
}

impl Tick {
    /// The latest instant of the tick's grid at or before `now`: `last`,
    /// unless parked.
    pub(crate) fn latest(&self, now: SimTime) -> SimTime {
        match self.state {
            TickState::Parked(period) if period > SimDuration::ZERO => {
                let periods = now.saturating_sub(self.last).as_nanos() / period.as_nanos();
                self.last + SimDuration::from_nanos(periods * period.as_nanos())
            }
            _ => self.last,
        }
    }
}

/// The waker of one host's tick. A wake is two stores, so a writer that
/// wakes a tick that is not parked pays next to nothing.
pub(crate) struct TickWaker {
    pub(crate) node: NodeId,
    /// Set by a wake, cleared by the loop when it takes the wake.
    pub(crate) woken: AtomicBool,
    /// Shared by every waker of the network: whether any was woken since
    /// the loop last looked. Stored with `Release` after `woken`; the
    /// loop's `AcqRel` swap that reads it sees that `woken`.
    pub(crate) pending: Arc<AtomicBool>,
}

impl Wake for TickWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.woken.store(true, Ordering::Relaxed);
        self.pending.store(true, Ordering::Release);
    }
}

/// How many events a [`Network`] has dispatched, by kind (see
/// [`Network::dispatched`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dispatched {
    /// App timers and ticks, including those deferred while their host was
    /// down.
    pub app_timers: u64,
    /// TCP retransmission timers.
    pub tcp_timers: u64,
    /// Frame arrivals, one per link traversal (switch hops included).
    pub frames: u64,
}

struct SwitchNode {
    mac_table: HashMap<MacAddr, usize>,
}

enum NodeKind {
    Host(Box<HostNode>),
    Switch(SwitchNode),
}

struct Node {
    /// Shared with the node index and every event that names the node.
    name: Name,
    kind: NodeKind,
    /// Port index → link index.
    ports: Vec<usize>,
    capture: Option<Vec<CapturedFrame>>,
}

#[derive(Debug)]
pub(crate) enum Event {
    /// A host's tick: at one instant ticks run before every other event,
    /// in node order.
    Tick {
        node: NodeId,
    },
    Frame {
        node: NodeId,
        port: usize,
        frame: EthernetFrame,
        /// Causal context the frame carries across the wire: the `net.link`
        /// span of the traversal that delivers it. `None` unless tracing.
        ctx: Option<TraceCtx>,
    },
    AppStart {
        node: NodeId,
    },
    AppTimer {
        node: NodeId,
        token: u64,
    },
    TcpTimer {
        node: NodeId,
        conn: ConnId,
    },
}

/// What the stack hands a host's app from a received IPv4 frame, after its
/// raw delivery. Payloads borrow the frame.
enum Arrival<'f> {
    /// A packet for another IP, with transit delivery on (the MITM hook).
    Transit,
    /// A datagram from this address to a bound port.
    Udp(Ipv4Addr, UdpDatagram<'f>),
    /// A segment of this connection: what it did there, and its payload.
    Tcp(ConnId, TcpInput, &'f [u8]),
}

/// A queued event, ordered by `(time, lane, id)`: lane 0 is a tick, whose
/// id is its node, and lane 1 any other event, whose id is its `seq`.
struct Scheduled {
    time: SimTime,
    id: u64,
    event: Event,
}

impl Scheduled {
    fn key(&self) -> (SimTime, u8, u64) {
        let lane = u8::from(!matches!(self.event, Event::Tick { .. }));
        (self.time, lane, self.id)
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The TCP retransmission timeout used by the emulated stacks.
const TCP_RTO: SimDuration = SimDuration::from_millis(200);

/// How long a crashed host's deferred timer events wait before re-checking
/// whether the host came back. Bounds restart latency without busy-looping.
const CRASH_RETRY: SimDuration = SimDuration::from_millis(10);

/// The emulated network: a deterministic discrete-event simulator hosting
/// switches, hosts, and the applications attached to them.
///
/// Every event waits in one queue, ordered by time and then by lane: at one
/// instant every host's tick ([`HostCtx::arm_tick`](crate::HostCtx::arm_tick))
/// runs first, by node id, then every other event in the order it was
/// scheduled. A parked tick holds no place in the queue until a wake arms it
/// again, so ticks are ordered by node, not by when they were armed.
///
/// # Examples
///
/// ```
/// use sgcr_net::{Network, LinkSpec, SimTime};
///
/// let mut net = Network::new();
/// let sw = net.add_switch("sw0");
/// let h1 = net.add_host("h1", "10.0.0.1".parse().unwrap());
/// let h2 = net.add_host("h2", "10.0.0.2".parse().unwrap());
/// net.connect(h1, sw, LinkSpec::default());
/// net.connect(h2, sw, LinkSpec::default());
/// net.run_until(SimTime::from_millis(10));
/// assert_eq!(net.now(), SimTime::from_millis(10));
/// ```
#[derive(Default)]
pub struct Network {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Scheduled>>,
    /// Whether a tick waker was woken since the loop last looked.
    pub(crate) pending_wakes: Arc<AtomicBool>,
    /// Every tick waker handed out, read when `pending_wakes` is set.
    pub(crate) tick_wakers: Vec<Arc<TickWaker>>,
    dispatched: Dispatched,
    nodes: Vec<Node>,
    links: Vec<Link>,
    mac_counter: u64,
    names: HashMap<Name, NodeId>,
    telemetry: Telemetry,
    tracer: Tracer,
    /// The causal context of the event currently being dispatched. Set from
    /// the delivering frame's ctx (and only from frames — timers are causal
    /// roots), readable by apps via [`HostCtx::trace_parent`], overridable
    /// via [`HostCtx::set_trace_parent`] so e.g. a GOOSE publication span
    /// parents the frames it emits. Cleared after every dispatch.
    pub(crate) ambient_ctx: Option<TraceCtx>,
    frames_sent: Counter,
    frames_delivered: Counter,
    frames_dropped: Counter,
    link_latency: Histogram,
    /// The seeded decision stream behind probabilistic link faults. Only
    /// consulted while at least one link carries a fault profile, so
    /// fault-free runs never draw from it and stay byte-identical to
    /// pre-fault builds.
    fault_rng: FaultRng,
    /// Whether app dispatches are wall-clock timed per plane. On exactly
    /// when telemetry is enabled, so a disabled range never reads the clock.
    profile_planes: bool,
    /// Nanoseconds of app execution accumulated per [`AppPlane`] since the
    /// last [`Network::take_plane_nanos`].
    plane_nanos: [u64; AppPlane::COUNT],
}

impl Network {
    /// Creates an empty network at time zero.
    pub fn new() -> Network {
        Network::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Attaches a telemetry handle. Global and per-host frame counters and
    /// the link-latency histogram are resolved immediately, including for
    /// hosts that already exist. A [`Telemetry::disabled`] handle (the
    /// default) makes every instrument a no-op.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
        self.tracer = self.telemetry.tracer();
        self.profile_planes = self.telemetry.is_enabled();
        self.frames_sent = self.telemetry.counter("net.frames_sent");
        self.frames_delivered = self.telemetry.counter("net.frames_delivered");
        self.frames_dropped = self.telemetry.counter("net.frames_dropped");
        self.link_latency = self
            .telemetry
            .histogram("net.link_latency_seconds", &buckets::LATENCY_SECONDS);
        for i in 0..self.nodes.len() {
            self.resolve_host_meters(NodeId(i));
        }
    }

    /// The attached telemetry handle (disabled unless
    /// [`set_telemetry`](Network::set_telemetry) was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The attached tracer (disabled unless the telemetry handle traces).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn resolve_host_meters(&mut self, node: NodeId) {
        if !self.telemetry.is_enabled() {
            return;
        }
        if !self.is_host(node) {
            return;
        }
        let name = self.nodes[node.index()].name.clone();
        let meters = HostMeters {
            tx: self
                .telemetry
                .counter(&format!("net.host.{name}.tx_frames")),
            rx: self
                .telemetry
                .counter(&format!("net.host.{name}.rx_frames")),
            dropped: self
                .telemetry
                .counter(&format!("net.host.{name}.dropped_frames")),
        };
        if let NodeKind::Host(h) = &mut self.nodes[node.index()].kind {
            h.meters = meters;
        }
    }

    /// Adds a learning switch.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn add_switch(&mut self, name: &str) -> NodeId {
        self.add_node(
            name,
            NodeKind::Switch(SwitchNode {
                mac_table: HashMap::new(),
            }),
        )
    }

    /// Adds a host with an auto-assigned MAC address.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn add_host(&mut self, name: &str, ip: Ipv4Addr) -> NodeId {
        self.mac_counter += 1;
        let mac = MacAddr::auto_assigned(self.mac_counter);
        self.add_host_with_mac(name, ip, mac)
    }

    /// Adds a host with an explicit MAC address (from an SCD file).
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn add_host_with_mac(&mut self, name: &str, ip: Ipv4Addr, mac: MacAddr) -> NodeId {
        let id = self.add_node(
            name,
            NodeKind::Host(Box::new(HostNode {
                state: HostState::new(mac, ip),
                app: None,
                meters: HostMeters::default(),
                plane: AppPlane::Other,
                enabled: true,
                tick: Tick::default(),
            })),
        );
        self.resolve_host_meters(id);
        id
    }

    fn add_node(&mut self, name: &str, kind: NodeKind) -> NodeId {
        assert!(
            !self.names.contains_key(name),
            "duplicate node name {name:?}"
        );
        let id = NodeId(self.nodes.len());
        let name = Name::from(name);
        self.names.insert(name.clone(), id);
        self.nodes.push(Node {
            name,
            kind,
            ports: Vec::new(),
            capture: None,
        });
        id
    }

    /// Connects two nodes with a link.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        let link_id = self.links.len();
        let port_a = self.nodes[a.index()].ports.len();
        self.nodes[a.index()].ports.push(link_id);
        let port_b = self.nodes[b.index()].ports.len();
        self.nodes[b.index()].ports.push(link_id);
        self.links.push(Link {
            a: (a, port_a),
            b: (b, port_b),
            spec,
            busy_until_ab: SimTime::ZERO,
            busy_until_ba: SimTime::ZERO,
            up: true,
            fault: None,
        });
    }

    /// The index of the first link between two nodes, either way round.
    fn link_between(&self, a: NodeId, b: NodeId) -> Option<usize> {
        self.links.iter().position(|link| {
            let ends = (link.a.0, link.b.0);
            ends == (a, b) || ends == (b, a)
        })
    }

    /// Takes a link between two nodes up or down (failure injection).
    /// Returns `false` if no direct link exists.
    pub fn set_link_state(&mut self, a: NodeId, b: NodeId, up: bool) -> bool {
        let Some(link) = self.link_between(a, b) else {
            return false;
        };
        self.links[link].up = up;
        true
    }

    /// Changes the propagation latency of the link between two nodes
    /// (degradation injection: a congested or tampered path). Frames
    /// already in flight keep the latency they departed with.
    /// Returns `false` if no direct link exists.
    pub fn set_link_latency(&mut self, a: NodeId, b: NodeId, latency: SimDuration) -> bool {
        let Some(link) = self.link_between(a, b) else {
            return false;
        };
        self.links[link].spec.latency = latency;
        true
    }

    /// Seeds the fault-decision stream. Identical seeds (with identical
    /// fault profiles) replay identical loss/corruption/duplication
    /// patterns; the default stream uses seed 0.
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.fault_rng = FaultRng::new(seed);
    }

    /// The fault generator's current internal state — the replay position of
    /// the decision stream. Two deterministic runs that agree here have made
    /// exactly the same fault draws, which is what checkpoint verification
    /// compares.
    pub fn fault_rng_state(&self) -> u64 {
        self.fault_rng.state()
    }

    /// Installs (or, with a no-op profile, clears) an impairment profile on
    /// the link between two nodes. Returns `false` if no direct link exists.
    pub fn set_link_fault(&mut self, a: NodeId, b: NodeId, fault: LinkFault) -> bool {
        let Some(link) = self.link_between(a, b) else {
            return false;
        };
        self.links[link].fault = (!fault.is_noop()).then_some(fault);
        true
    }

    /// The impairment profile on the link between two nodes, if any.
    pub fn link_fault(&self, a: NodeId, b: NodeId) -> Option<LinkFault> {
        self.links[self.link_between(a, b)?].fault
    }

    /// Crashes or restarts a simulated device. While disabled, frames
    /// addressed to the host are dropped (`host-down`) and its application
    /// and TCP timers and its tick are deferred; re-enabling lets the
    /// deferred timers resume, so periodic apps pick their duty cycle back
    /// up within the 10 ms crash-retry interval. A crash arms a parked tick
    /// at its next grid instant, so the tick is deferred exactly as if it
    /// had never parked. Returns `false` if `node` is not a host.
    pub fn set_host_enabled(&mut self, node: NodeId, enabled: bool) -> bool {
        match &mut self.nodes[node.index()].kind {
            NodeKind::Host(h) => {
                h.enabled = enabled;
                if !enabled {
                    self.unpark(node);
                }
                true
            }
            NodeKind::Switch(_) => false,
        }
    }

    /// True when the node is a host that is currently up (not crashed).
    pub fn host_enabled(&self, node: NodeId) -> bool {
        match &self.nodes[node.index()].kind {
            NodeKind::Host(h) => h.enabled,
            NodeKind::Switch(_) => false,
        }
    }

    fn host_is_down(&self, node: NodeId) -> bool {
        matches!(&self.nodes[node.index()].kind, NodeKind::Host(h) if !h.enabled)
    }

    /// Attaches an application to a host; `on_start` fires at the current
    /// time (before any later event).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a host or already has an app.
    pub fn attach_app(&mut self, node: NodeId, app: Box<dyn SocketApp>) {
        match &mut self.nodes[node.index()].kind {
            NodeKind::Host(h) => {
                assert!(h.app.is_none(), "host already has an app");
                h.plane = app.plane();
                h.app = Some(app);
            }
            NodeKind::Switch(_) => panic!("cannot attach an app to a switch"),
        }
        self.schedule(SimDuration::ZERO, Event::AppStart { node });
    }

    /// How many events the loop has dispatched so far, by kind. App starts
    /// are not counted; a tick or timer deferred while its host is down
    /// counts each time it comes due.
    pub fn dispatched(&self) -> Dispatched {
        self.dispatched
    }

    /// Takes (returns and resets) the nanoseconds of app execution
    /// accumulated per plane since the previous call, indexed by
    /// [`AppPlane::index`]. All zeros unless telemetry is enabled.
    ///
    /// The range's step loop calls this once per co-simulation step to build
    /// the `step.plane.*` attribution histograms.
    pub fn take_plane_nanos(&mut self) -> [u64; AppPlane::COUNT] {
        std::mem::take(&mut self.plane_nanos)
    }

    /// Looks up a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// A node's name.
    pub fn node_name(&self, node: NodeId) -> &Name {
        &self.nodes[node.index()].name
    }

    /// Names of all nodes, in creation order.
    pub fn node_names(&self) -> Vec<&str> {
        self.nodes.iter().map(|n| &*n.name).collect()
    }

    /// Whether a node is a host.
    pub fn is_host(&self, node: NodeId) -> bool {
        matches!(self.nodes[node.index()].kind, NodeKind::Host(_))
    }

    /// Enables frame capture at a node (host or switch).
    pub fn enable_capture(&mut self, node: NodeId) {
        self.nodes[node.index()]
            .capture
            .get_or_insert_with(Vec::new);
    }

    /// Frames captured at a node since capture was enabled.
    pub fn captured(&self, node: NodeId) -> &[CapturedFrame] {
        self.nodes[node.index()].capture.as_deref().unwrap_or(&[])
    }

    // ----- host accessors used by HostCtx --------------------------------

    pub(crate) fn host(&self, node: NodeId) -> &HostNode {
        match &self.nodes[node.index()].kind {
            NodeKind::Host(h) => h,
            NodeKind::Switch(_) => panic!("node {node:?} is not a host"),
        }
    }

    pub(crate) fn host_mut(&mut self, node: NodeId) -> &mut HostNode {
        match &mut self.nodes[node.index()].kind {
            NodeKind::Host(h) => h,
            NodeKind::Switch(_) => panic!("node {node:?} is not a host"),
        }
    }

    /// A host's IPv4 address.
    pub fn host_ip(&self, node: NodeId) -> Ipv4Addr {
        self.host(node).state.ip
    }

    /// A host's MAC address.
    pub fn host_mac(&self, node: NodeId) -> MacAddr {
        self.host(node).state.mac
    }

    /// Arms `node`'s tick at `at`, replacing any tick queued before.
    pub(crate) fn arm_tick(&mut self, node: NodeId, at: SimTime) {
        self.host_mut(node).tick.state = TickState::Armed(at);
        self.queue.push(Reverse(Scheduled {
            time: at,
            id: node.index() as u64,
            event: Event::Tick { node },
        }));
    }

    /// Arms `node`'s tick at the first instant of its grid after now, if
    /// it is parked; the grid instants it passed count as ticks that ran.
    fn unpark(&mut self, node: NodeId) {
        let now = self.now;
        let NodeKind::Host(h) = &mut self.nodes[node.index()].kind else {
            return;
        };
        let tick = &mut h.tick;
        let TickState::Parked(period) = tick.state else {
            return;
        };
        tick.last = tick.latest(now);
        // The first grid instant strictly after now, as one at now has run
        // (a zero period degenerates to now).
        let at = (tick.last + period).max(now);
        self.arm_tick(node, at);
    }

    /// Arms every tick woken since the last call. One atomic load when
    /// nothing was woken. A wake that lands while the wakers are read
    /// stores `pending` again, so the next call takes it.
    fn take_wakes(&mut self) {
        if !self.pending_wakes.load(Ordering::Relaxed)
            || !self.pending_wakes.swap(false, Ordering::AcqRel)
        {
            return;
        }
        for i in 0..self.tick_wakers.len() {
            let waker = &self.tick_wakers[i];
            if waker.woken.load(Ordering::Relaxed) && waker.woken.swap(false, Ordering::Acquire) {
                let node = waker.node;
                self.unpark(node);
            }
        }
    }

    // ----- IP / frame transmission ----------------------------------------

    /// Sends every packet connection `conn` of `node` has ready, then arms
    /// its retransmission timer if it needs one and has none.
    pub(crate) fn send_tcp(&mut self, node: NodeId, conn: ConnId) {
        while let Some((dst, packet)) = self.host_mut(node).state.tcp_output(conn) {
            self.send_packet(node, dst, packet);
        }
        if self.host_mut(node).state.tcp_arm_timer(conn) {
            self.schedule(TCP_RTO, Event::TcpTimer { node, conn });
        }
    }

    /// Sends an IPv4 packet from `node` to `dst`: framed to `dst`'s MAC if
    /// the host's ARP cache has it, else queued behind an ARP request.
    pub(crate) fn send_packet(&mut self, node: NodeId, dst: Ipv4Addr, packet: Bytes) {
        let state = &mut self.host_mut(node).state;
        let frame = match state.arp_cache.get(&dst).copied() {
            Some(dst_mac) => EthernetFrame::new(dst_mac, state.mac, ethertype::IPV4, packet),
            None => {
                state.arp_pending.entry(dst).or_default().push(packet);
                ArpPacket::request(state.mac, state.ip, dst).into_frame(MacAddr::BROADCAST)
            }
        };
        self.transmit(node, 0, frame);
    }

    /// Transmits a frame out of `node`'s `port`, modelling serialization
    /// delay, link propagation latency, and FIFO queueing per direction.
    pub(crate) fn transmit(&mut self, node: NodeId, port: usize, frame: EthernetFrame) {
        let wire_bytes = frame.wire_len() as u64;
        let Some(&link_id) = self.nodes[node.index()].ports.get(port) else {
            // Unconnected port: frame vanishes.
            self.note_drop(node, wire_bytes, "no-link");
            return;
        };
        let wire_bits = wire_bytes * 8;
        if !self.links[link_id].up {
            self.note_drop(node, wire_bytes, "link-down");
            return;
        }
        // Fault plane: only links carrying a profile touch the seeded
        // decision stream, so fault-free topologies replay exactly as before.
        let mut jitter = SimDuration::ZERO;
        let mut duplicated = false;
        if let Some(fault) = self.links[link_id].fault {
            if fault.flapped_down(self.now.as_nanos()) {
                self.note_drop(node, wire_bytes, "fault-flap");
                return;
            }
            if self.fault_rng.chance(fault.loss) {
                self.note_drop(node, wire_bytes, "fault-loss");
                return;
            }
            if self.fault_rng.chance(fault.corrupt) {
                // Bit damage in flight: the receiver's FCS check rejects the
                // frame, so corruption manifests as a drop, never as a
                // mangled delivery.
                self.note_drop(node, wire_bytes, "fault-corrupt");
                return;
            }
            if fault.jitter_ns > 0 {
                jitter = SimDuration::from_nanos(self.fault_rng.below(fault.jitter_ns + 1));
            }
            duplicated = self.fault_rng.chance(fault.duplicate);
        }
        let link = &mut self.links[link_id];
        let (peer, busy) = if link.a == (node, port) {
            (link.b, &mut link.busy_until_ab)
        } else {
            (link.a, &mut link.busy_until_ba)
        };
        let ser =
            SimDuration::from_nanos(wire_bits.saturating_mul(1_000_000_000) / link.spec.rate_bps);
        let start = (*busy).max(self.now);
        *busy = start + ser;
        let arrival = start + ser + link.spec.latency + jitter;
        // A duplicated frame occupies the wire a second time, back to back.
        let dup_arrival = if duplicated {
            *busy = start + ser + ser;
            Some(arrival + ser)
        } else {
            None
        };
        let delay = arrival - self.now;
        self.link_latency.observe(delay.as_secs_f64());
        // Sends are counted at the originating host only; switch forwards of
        // the same frame are not re-counted.
        if let NodeKind::Host(h) = &self.nodes[node.index()].kind {
            self.frames_sent.inc();
            h.meters.tx.inc();
            self.telemetry
                .record(self.now.as_nanos(), || ObsEvent::PacketSent {
                    host: self.nodes[node.index()].name.clone(),
                    bytes: wire_bytes,
                });
        }
        // Each traversal records a `net.link` span parented to the context
        // of whatever put the frame on the wire (the sending app's span at
        // the first hop, the previous hop's span at switch forwards), and
        // the frame carries the *new* span's context to the receiving node:
        // multi-hop paths become chains, and a PLC action triggered by a
        // GOOSE frame stays transitively parented to the IED that sent it.
        // Context only exists while tracing, so untraced traffic pays one
        // `Option` check here.
        let ctx = self.ambient_ctx.map(|parent| {
            let mut span = self
                .tracer
                .open("net.link", Plane::Net, Some(parent), self.now);
            if span.is_recording() {
                span.attr("from", &*self.nodes[node.index()].name);
                span.attr("to", &*self.nodes[peer.0.index()].name);
            }
            let ctx = span.ctx();
            span.end(arrival);
            ctx.unwrap_or(parent)
        });
        if let Some(dup_arrival) = dup_arrival {
            self.schedule(
                dup_arrival - self.now,
                Event::Frame {
                    node: peer.0,
                    port: peer.1,
                    frame: frame.clone(),
                    ctx,
                },
            );
        }
        self.schedule(
            delay,
            Event::Frame {
                node: peer.0,
                port: peer.1,
                frame,
                ctx,
            },
        );
    }

    /// Accounts for a frame discarded before it reached a link. Drops by
    /// switches count globally; drops at a host also feed its per-host
    /// counter and journal a [`ObsEvent::PacketDropped`].
    fn note_drop(&self, node: NodeId, bytes: u64, reason: &'static str) {
        self.frames_dropped.inc();
        if let NodeKind::Host(h) = &self.nodes[node.index()].kind {
            h.meters.dropped.inc();
            self.telemetry
                .record(self.now.as_nanos(), || ObsEvent::PacketDropped {
                    host: self.nodes[node.index()].name.clone(),
                    bytes,
                    reason: reason.to_string(),
                });
        }
    }

    /// Queues an event other than a tick `delay` after now.
    pub(crate) fn schedule(&mut self, delay: SimDuration, event: Event) {
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            time: self.now + delay,
            id: self.seq,
            event,
        }));
    }

    // ----- event loop ------------------------------------------------------

    /// Runs the simulation until `t` (inclusive of events at `t`), then sets
    /// the clock to `t`. Ticks woken before or during the run are armed
    /// before the loop looks at its next event.
    pub fn run_until(&mut self, t: SimTime) {
        loop {
            self.take_wakes();
            if self.queue.peek().is_none_or(|Reverse(head)| head.time > t) {
                break;
            }
            let Reverse(head) = self.queue.pop().expect("peeked");
            self.now = head.time;
            self.process(head.event);
        }
        self.now = t;
    }

    /// Runs `node`'s tick if it is still the armed one, deferring it while
    /// the host is down.
    fn fire_tick(&mut self, node: NodeId) {
        let now = self.now;
        let NodeKind::Host(host) = &mut self.nodes[node.index()].kind else {
            return;
        };
        if host.tick.state != TickState::Armed(now) {
            return;
        }
        self.dispatched.app_timers += 1;
        if !host.enabled {
            self.arm_tick(node, now + CRASH_RETRY);
            return;
        }
        host.tick.state = TickState::Idle;
        host.tick.last = now;
        self.with_app(node, |app, ctx| app.on_tick(ctx));
        self.ambient_ctx = None;
    }

    /// Runs the simulation for `d` beyond the current time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.run_until(t);
    }

    fn process(&mut self, event: Event) {
        let node = match &event {
            Event::Tick { node } => return self.fire_tick(*node),
            Event::Frame { node, .. } => {
                self.dispatched.frames += 1;
                *node
            }
            Event::AppTimer { node, .. } => {
                self.dispatched.app_timers += 1;
                *node
            }
            Event::TcpTimer { node, .. } => {
                self.dispatched.tcp_timers += 1;
                *node
            }
            Event::AppStart { node } => *node,
        };
        if self.host_is_down(node) {
            match event {
                // A crashed NIC answers nothing; the frame is gone.
                Event::Frame { frame, .. } => {
                    self.note_drop(node, frame.wire_len() as u64, "host-down");
                }
                // Timers are deferred, not dropped, so a restarted device
                // resumes its periodic duty cycle instead of going silent.
                other => self.schedule(CRASH_RETRY, other),
            }
            return;
        }
        match event {
            Event::Frame {
                port, frame, ctx, ..
            } => {
                // The frame's context becomes ambient for everything this
                // delivery triggers — stack processing, app callbacks, and
                // any sends they make. Timers deliberately stay context-free
                // (a re-armed periodic timer would otherwise chain forever).
                self.ambient_ctx = ctx;
                self.process_frame(node, port, frame);
            }
            Event::AppStart { .. } => self.with_app(node, |app, ctx| app.on_start(ctx)),
            Event::AppTimer { token, .. } => {
                self.with_app(node, |app, ctx| app.on_timer(ctx, token));
            }
            Event::TcpTimer { conn, .. } => {
                if let Some((dst, packet)) = self.host_mut(node).state.tcp_retransmit(conn) {
                    self.send_packet(node, dst, packet);
                }
                self.send_tcp(node, conn);
            }
            // Dispatched above.
            Event::Tick { .. } => {}
        }
        // An app may have overridden the ambient context mid-dispatch
        // (set_trace_parent); never let it leak into the next event.
        self.ambient_ctx = None;
    }

    fn process_frame(&mut self, node: NodeId, port: usize, frame: EthernetFrame) {
        if let Some(cap) = &mut self.nodes[node.index()].capture {
            cap.push(CapturedFrame {
                time: self.now,
                frame: frame.clone(),
            });
        }
        match &mut self.nodes[node.index()].kind {
            NodeKind::Switch(sw) => {
                // Learn the source, then forward: to the port the
                // destination was learned on, else out of every other port.
                if !frame.src.is_multicast() {
                    sw.mac_table.insert(frame.src, port);
                }
                let learned = if frame.dst.is_multicast() || frame.dst.is_broadcast() {
                    None
                } else {
                    sw.mac_table.get(&frame.dst).copied()
                };
                match learned {
                    Some(p) if p != port => self.transmit(node, p, frame),
                    Some(_) => {}
                    None => {
                        for p in 0..self.nodes[node.index()].ports.len() {
                            if p != port {
                                self.transmit(node, p, frame.clone());
                            }
                        }
                    }
                }
            }
            NodeKind::Host(host) => {
                let mac = host.state.mac;
                let for_us =
                    frame.dst == mac || frame.dst.is_broadcast() || frame.dst.is_multicast();
                if !for_us {
                    return;
                }
                self.frames_delivered.inc();
                host.meters.rx.inc();
                let bytes = frame.wire_len() as u64;
                self.telemetry
                    .record(self.now.as_nanos(), || ObsEvent::PacketDelivered {
                        host: self.nodes[node.index()].name.clone(),
                        bytes,
                    });
                // Stack processing for frames addressed to our MAC/broadcast.
                let mut arrival = None;
                if frame.dst == mac || frame.dst.is_broadcast() {
                    match frame.ethertype {
                        ethertype::ARP => self.process_arp(node, &frame),
                        ethertype::IPV4 => arrival = self.process_ipv4(node, &frame),
                        _ => {}
                    }
                }
                // Raw delivery (after stack, so ARP replies are already
                // usable from within on_raw_frame).
                self.with_app(node, |app, ctx| app.on_raw_frame(ctx, &frame));
                if let Some(arrival) = arrival {
                    self.deliver(node, &frame, arrival);
                }
            }
        }
    }

    fn process_arp(&mut self, node: NodeId, frame: &EthernetFrame) {
        let Some(arp) = ArpPacket::decode(&frame.payload) else {
            return;
        };
        let state = &mut self.host_mut(node).state;
        let (our_ip, our_mac) = (state.ip, state.mac);
        // Learn the sender unconditionally — including unsolicited replies.
        // This is standard ARP behaviour and exactly what ARP spoofing
        // (the paper's MITM case study) exploits.
        state.arp_cache.insert(arp.sender_ip, arp.sender_mac);
        // Frame the packets that were waiting on this resolution.
        let pending = state.arp_pending.remove(&arp.sender_ip);
        for packet in pending.into_iter().flatten() {
            let frame = EthernetFrame::new(arp.sender_mac, our_mac, ethertype::IPV4, packet);
            self.transmit(node, 0, frame);
        }
        // Answer requests for our address.
        if arp.operation == ArpPacket::REQUEST && arp.target_ip == our_ip {
            let reply = ArpPacket::reply(our_mac, our_ip, arp.sender_mac, arp.sender_ip);
            self.transmit(node, 0, reply.into_frame(arp.sender_mac));
        }
    }

    /// Runs the stack on an IPv4 frame addressed to `node`, answering a
    /// TCP segment here, and returns what the app hears of it.
    fn process_ipv4<'f>(&mut self, node: NodeId, frame: &'f EthernetFrame) -> Option<Arrival<'f>> {
        let packet = Ipv4Packet::decode(&frame.payload)?;
        let state = &mut self.host_mut(node).state;
        if packet.dst != state.ip {
            return state.deliver_transit.then_some(Arrival::Transit);
        }
        match packet.protocol {
            ipproto::UDP => {
                let datagram = UdpDatagram::decode(packet.payload)?;
                let bound = state.udp_bound.contains(&datagram.dst_port);
                bound.then_some(Arrival::Udp(packet.src, datagram))
            }
            ipproto::TCP => {
                let segment = TcpSegment::decode(packet.payload)?;
                let Some((conn, input)) = state.tcp_input(packet.src, &segment) else {
                    if let Some((dst, rst)) = state.tcp_refusal(packet.src, &segment) {
                        self.send_packet(node, dst, rst);
                    }
                    return None;
                };
                self.send_tcp(node, conn);
                Some(Arrival::Tcp(conn, input, segment.payload))
            }
            _ => None,
        }
    }

    /// Hands `node`'s app what the stack made of `frame`.
    fn deliver(&mut self, node: NodeId, frame: &EthernetFrame, arrival: Arrival<'_>) {
        match arrival {
            Arrival::Transit => self.with_app(node, |app, ctx| app.on_transit_ip(ctx, frame)),
            Arrival::Udp(src, datagram) => self.with_app(node, |app, ctx| {
                let from = (src, datagram.src_port);
                app.on_udp(ctx, from, datagram.dst_port, datagram.payload);
            }),
            Arrival::Tcp(conn, input, data) => {
                if input.connected {
                    self.with_app(node, |app, ctx| app.on_tcp_connected(ctx, conn));
                }
                if let Some(peer) = input.accepted {
                    self.with_app(node, |app, ctx| app.on_tcp_accepted(ctx, conn, peer));
                }
                if input.data {
                    self.with_app(node, |app, ctx| app.on_tcp_data(ctx, conn, data));
                }
                if input.closed {
                    self.with_app(node, |app, ctx| app.on_tcp_closed(ctx, conn));
                }
            }
        }
    }

    fn with_app<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn SocketApp, &mut HostCtx<'_>),
    {
        let (mut app, plane) = match &mut self.nodes[node.index()].kind {
            NodeKind::Host(h) => (h.app.take(), h.plane),
            NodeKind::Switch(_) => (None, AppPlane::Other),
        };
        if let Some(a) = app.as_mut() {
            let started = self.profile_planes.then(std::time::Instant::now);
            let mut ctx = HostCtx { net: self, node };
            f(a.as_mut(), &mut ctx);
            if let Some(started) = started {
                let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.plane_nanos[plane.index()] =
                    self.plane_nanos[plane.index()].saturating_add(nanos);
            }
        }
        if let NodeKind::Host(h) = &mut self.nodes[node.index()].kind {
            if h.app.is_none() {
                h.app = app;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// Simple app: on start, sends a UDP "ping" to a peer; logs everything.
    struct Pinger {
        peer: Ipv4Addr,
        log: Arc<Mutex<Vec<String>>>,
    }

    impl SocketApp for Pinger {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            ctx.bind_udp(9000);
            ctx.send_udp(self.peer, 9000, 9000, b"ping");
        }
        fn on_udp(
            &mut self,
            ctx: &mut HostCtx<'_>,
            src: (Ipv4Addr, u16),
            _dst_port: u16,
            data: &[u8],
        ) {
            self.log.lock().push(format!(
                "{} got {:?} from {} at {}",
                ctx.name(),
                std::str::from_utf8(data).unwrap(),
                src.0,
                ctx.now()
            ));
            if data == b"ping" {
                ctx.send_udp(src.0, src.1, 9000, b"pong");
            }
        }
    }

    struct Echo {
        log: Arc<Mutex<Vec<String>>>,
    }

    impl SocketApp for Echo {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            ctx.bind_udp(9000);
        }
        fn on_udp(
            &mut self,
            ctx: &mut HostCtx<'_>,
            src: (Ipv4Addr, u16),
            _dst_port: u16,
            data: &[u8],
        ) {
            self.log
                .lock()
                .push(format!("echo got {:?}", std::str::from_utf8(data).unwrap()));
            if data == b"ping" {
                ctx.send_udp(src.0, src.1, 9000, b"pong");
            }
        }
    }

    fn star(n_hosts: usize) -> (Network, Vec<NodeId>) {
        let mut net = Network::new();
        let sw = net.add_switch("sw0");
        let mut hosts = Vec::new();
        for i in 0..n_hosts {
            let h = net.add_host(&format!("h{i}"), Ipv4Addr::new(10, 0, 0, (i + 1) as u8));
            net.connect(h, sw, LinkSpec::default());
            hosts.push(h);
        }
        (net, hosts)
    }

    #[test]
    fn udp_ping_pong_with_arp_resolution() {
        let (mut net, hosts) = star(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        net.attach_app(
            hosts[0],
            Box::new(Pinger {
                peer: Ipv4Addr::new(10, 0, 0, 2),
                log: log.clone(),
            }),
        );
        net.attach_app(hosts[1], Box::new(Echo { log: log.clone() }));
        net.run_until(SimTime::from_millis(100));
        let entries = log.lock();
        assert!(entries.iter().any(|e| e.contains("echo got \"ping\"")));
        assert!(entries.iter().any(|e| e.contains("h0 got \"pong\"")));
    }

    #[test]
    fn arp_caches_populated_after_exchange() {
        let (mut net, hosts) = star(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        net.attach_app(
            hosts[0],
            Box::new(Pinger {
                peer: Ipv4Addr::new(10, 0, 0, 2),
                log: log.clone(),
            }),
        );
        net.attach_app(hosts[1], Box::new(Echo { log }));
        net.run_until(SimTime::from_millis(100));
        let arp_lookup = |node: NodeId, ip| net.host(node).state.arp_cache.get(&ip).copied();
        assert_eq!(
            arp_lookup(hosts[0], Ipv4Addr::new(10, 0, 0, 2)),
            Some(net.host_mac(hosts[1]))
        );
        assert_eq!(
            arp_lookup(hosts[1], Ipv4Addr::new(10, 0, 0, 1)),
            Some(net.host_mac(hosts[0]))
        );
    }

    #[test]
    fn switch_learns_and_stops_flooding() {
        let (mut net, hosts) = star(3);
        let log = Arc::new(Mutex::new(Vec::new()));
        net.enable_capture(hosts[2]);
        net.attach_app(
            hosts[0],
            Box::new(Pinger {
                peer: Ipv4Addr::new(10, 0, 0, 2),
                log: log.clone(),
            }),
        );
        net.attach_app(hosts[1], Box::new(Echo { log }));
        net.run_until(SimTime::from_millis(100));
        // h2 sees the ARP broadcast but no unicast IP traffic once learned.
        let captured = net.captured(hosts[2]);
        assert!(captured.iter().any(|c| c.frame.ethertype == ethertype::ARP));
        let unicast_ip = captured
            .iter()
            .filter(|c| c.frame.ethertype == ethertype::IPV4)
            .count();
        assert_eq!(unicast_ip, 0, "switch must not flood learned unicast");
    }

    #[test]
    fn determinism_identical_logs() {
        let run = || {
            let (mut net, hosts) = star(2);
            let log = Arc::new(Mutex::new(Vec::new()));
            net.attach_app(
                hosts[0],
                Box::new(Pinger {
                    peer: Ipv4Addr::new(10, 0, 0, 2),
                    log: log.clone(),
                }),
            );
            net.attach_app(hosts[1], Box::new(Echo { log: log.clone() }));
            net.run_until(SimTime::from_millis(100));
            let entries = log.lock().clone();
            entries
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn link_down_drops_traffic() {
        let (mut net, hosts) = star(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        let sw = net.node_by_name("sw0").unwrap();
        net.attach_app(
            hosts[0],
            Box::new(Pinger {
                peer: Ipv4Addr::new(10, 0, 0, 2),
                log: log.clone(),
            }),
        );
        net.attach_app(hosts[1], Box::new(Echo { log: log.clone() }));
        net.set_link_state(hosts[0], sw, false);
        net.run_until(SimTime::from_millis(100));
        assert!(log.lock().is_empty());
    }

    #[test]
    fn telemetry_counts_frames_and_journals_packets() {
        let (mut net, hosts) = star(2);
        let telemetry = Telemetry::new();
        net.set_telemetry(telemetry.clone());
        let log = Arc::new(Mutex::new(Vec::new()));
        net.attach_app(
            hosts[0],
            Box::new(Pinger {
                peer: Ipv4Addr::new(10, 0, 0, 2),
                log: log.clone(),
            }),
        );
        net.attach_app(hosts[1], Box::new(Echo { log }));
        net.run_until(SimTime::from_millis(100));
        let snap = telemetry.snapshot();
        assert!(
            snap.counter("net.frames_sent").unwrap() >= 4,
            "arp + udp both ways"
        );
        assert!(snap.counter("net.frames_delivered").unwrap() >= 4);
        assert!(snap.counter("net.host.h0.tx_frames").unwrap() > 0);
        assert!(snap.counter("net.host.h1.rx_frames").unwrap() > 0);
        assert!(snap.histogram("net.link_latency_seconds").unwrap().count > 0);
        let events = telemetry.events();
        assert!(events.iter().any(|r| r.event.kind() == "PacketSent"));
        assert!(events.iter().any(|r| r.event.kind() == "PacketDelivered"));
    }

    #[test]
    fn telemetry_journals_drops_on_downed_link() {
        let (mut net, hosts) = star(2);
        let telemetry = Telemetry::new();
        net.set_telemetry(telemetry.clone());
        let sw = net.node_by_name("sw0").unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        net.attach_app(
            hosts[0],
            Box::new(Pinger {
                peer: Ipv4Addr::new(10, 0, 0, 2),
                log: log.clone(),
            }),
        );
        net.set_link_state(hosts[0], sw, false);
        net.run_until(SimTime::from_millis(100));
        let snap = telemetry.snapshot();
        assert!(snap.counter("net.frames_dropped").unwrap() > 0);
        assert!(snap.counter("net.host.h0.dropped_frames").unwrap() > 0);
        assert!(telemetry.events().iter().any(
            |r| matches!(&r.event, ObsEvent::PacketDropped { reason, .. } if reason == "link-down")
        ));
    }

    /// Sends `remaining` pings to `peer`, one per millisecond.
    struct Burst {
        peer: Ipv4Addr,
        remaining: u32,
    }

    impl SocketApp for Burst {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            ctx.bind_udp(9000);
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.send_udp(self.peer, 9000, 9000, b"ping");
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
    }

    #[test]
    fn fault_full_loss_drops_everything() {
        let (mut net, hosts) = star(2);
        let telemetry = Telemetry::new();
        net.set_telemetry(telemetry.clone());
        let sw = net.node_by_name("sw0").unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        net.attach_app(
            hosts[0],
            Box::new(Pinger {
                peer: Ipv4Addr::new(10, 0, 0, 2),
                log: log.clone(),
            }),
        );
        net.attach_app(hosts[1], Box::new(Echo { log: log.clone() }));
        assert!(net.set_link_fault(
            hosts[0],
            sw,
            LinkFault {
                loss: 1.0,
                ..LinkFault::default()
            }
        ));
        net.run_until(SimTime::from_millis(100));
        assert!(log.lock().is_empty());
        assert!(telemetry.events().iter().any(
            |r| matches!(&r.event, ObsEvent::PacketDropped { reason, .. } if reason == "fault-loss")
        ));
    }

    #[test]
    fn fault_corrupt_drops_with_its_own_reason() {
        let (mut net, hosts) = star(2);
        let telemetry = Telemetry::new();
        net.set_telemetry(telemetry.clone());
        let sw = net.node_by_name("sw0").unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        net.attach_app(
            hosts[0],
            Box::new(Pinger {
                peer: Ipv4Addr::new(10, 0, 0, 2),
                log: log.clone(),
            }),
        );
        net.set_link_fault(
            hosts[0],
            sw,
            LinkFault {
                corrupt: 1.0,
                ..LinkFault::default()
            },
        );
        net.run_until(SimTime::from_millis(100));
        assert!(log.lock().is_empty());
        assert!(telemetry.events().iter().any(|r| matches!(
            &r.event,
            ObsEvent::PacketDropped { reason, .. } if reason == "fault-corrupt"
        )));
    }

    #[test]
    fn fault_duplicate_delivers_twice() {
        let (mut net, hosts) = star(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        let sw = net.node_by_name("sw0").unwrap();
        net.attach_app(
            hosts[0],
            Box::new(Pinger {
                peer: Ipv4Addr::new(10, 0, 0, 2),
                log: log.clone(),
            }),
        );
        net.attach_app(hosts[1], Box::new(Echo { log: log.clone() }));
        net.set_link_fault(
            hosts[0],
            sw,
            LinkFault {
                duplicate: 1.0,
                ..LinkFault::default()
            },
        );
        net.run_until(SimTime::from_millis(100));
        let pings = log
            .lock()
            .iter()
            .filter(|e| e.contains("echo got \"ping\""))
            .count();
        assert!(pings >= 2, "duplicated ping must arrive twice, got {pings}");
    }

    #[test]
    fn fault_flap_down_window_blocks_traffic() {
        let (mut net, hosts) = star(2);
        let telemetry = Telemetry::new();
        net.set_telemetry(telemetry.clone());
        let sw = net.node_by_name("sw0").unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        net.attach_app(
            hosts[0],
            Box::new(Pinger {
                peer: Ipv4Addr::new(10, 0, 0, 2),
                log: log.clone(),
            }),
        );
        net.attach_app(hosts[1], Box::new(Echo { log: log.clone() }));
        // Down for the whole period: permanently flapped away.
        net.set_link_fault(
            hosts[0],
            sw,
            LinkFault {
                flap_period_ns: 1_000_000,
                flap_down_ns: 1_000_000,
                ..LinkFault::default()
            },
        );
        net.run_until(SimTime::from_millis(100));
        assert!(log.lock().is_empty());
        assert!(telemetry.events().iter().any(
            |r| matches!(&r.event, ObsEvent::PacketDropped { reason, .. } if reason == "fault-flap")
        ));
    }

    #[test]
    fn fault_noop_profile_clears_the_fault() {
        let (mut net, hosts) = star(2);
        let sw = net.node_by_name("sw0").unwrap();
        net.set_link_fault(
            hosts[0],
            sw,
            LinkFault {
                loss: 1.0,
                ..LinkFault::default()
            },
        );
        assert!(net.link_fault(hosts[0], sw).is_some());
        net.set_link_fault(hosts[0], sw, LinkFault::default());
        assert!(net.link_fault(hosts[0], sw).is_none());
    }

    /// Runs a lossy 50-ping burst and returns the telemetry journal.
    fn lossy_burst_journal(seed: u64) -> String {
        let (mut net, hosts) = star(2);
        let telemetry = Telemetry::new();
        net.set_telemetry(telemetry.clone());
        net.set_fault_seed(seed);
        let sw = net.node_by_name("sw0").unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        net.attach_app(
            hosts[0],
            Box::new(Burst {
                peer: Ipv4Addr::new(10, 0, 0, 2),
                remaining: 50,
            }),
        );
        net.attach_app(hosts[1], Box::new(Echo { log }));
        net.set_link_fault(
            hosts[0],
            sw,
            LinkFault {
                loss: 0.5,
                jitter_ns: 200_000,
                ..LinkFault::default()
            },
        );
        net.run_until(SimTime::from_millis(200));
        telemetry.journal_jsonl()
    }

    #[test]
    fn fault_same_seed_replays_byte_identical_journal() {
        assert_eq!(lossy_burst_journal(42), lossy_burst_journal(42));
    }

    #[test]
    fn fault_different_seed_changes_the_loss_pattern() {
        assert_ne!(lossy_burst_journal(42), lossy_burst_journal(43));
    }

    #[test]
    fn crashed_host_drops_frames_and_restart_resumes_timers() {
        struct Ticker {
            log: Arc<Mutex<Vec<SimTime>>>,
        }
        impl SocketApp for Ticker {
            fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
            fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
                self.log.lock().push(ctx.now());
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
        }
        let (mut net, hosts) = star(2);
        let telemetry = Telemetry::new();
        net.set_telemetry(telemetry.clone());
        let ticks = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::new(Mutex::new(Vec::new()));
        net.attach_app(hosts[0], Box::new(Ticker { log: ticks.clone() }));
        assert!(net.host_enabled(hosts[0]));
        net.run_until(SimTime::from_millis(35));
        let before = ticks.lock().len();
        assert!(before >= 3);
        assert!(net.set_host_enabled(hosts[0], false));
        // Ping the crashed host: the ARP broadcast reaches its dead NIC and
        // is dropped there.
        net.attach_app(
            hosts[1],
            Box::new(Pinger {
                peer: Ipv4Addr::new(10, 0, 0, 1),
                log: log.clone(),
            }),
        );
        net.run_until(SimTime::from_millis(100));
        let during = ticks.lock().len();
        assert_eq!(before, during, "crashed host must not tick");
        net.set_host_enabled(hosts[0], true);
        net.run_until(SimTime::from_millis(200));
        assert!(ticks.lock().len() > during, "restart must resume timers");
        // The ping addressed to the crashed host was dropped at delivery.
        assert!(telemetry.events().iter().any(
            |r| matches!(&r.event, ObsEvent::PacketDropped { reason, .. } if reason == "host-down")
        ));
        assert!(!net.set_host_enabled(net.node_by_name("sw0").unwrap(), false));
    }

    /// Ticks every 10 ms and parks after each tick once `park` is set,
    /// logging `(host, time)` of every tick and timer.
    struct Ticker10 {
        log: Arc<Mutex<Vec<(String, SimTime)>>>,
        waker: Arc<Mutex<Option<std::task::Waker>>>,
        park: bool,
    }

    impl SocketApp for Ticker10 {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            *self.waker.lock() = Some(ctx.tick_waker());
            ctx.arm_tick(SimDuration::from_millis(10));
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }
        fn on_tick(&mut self, ctx: &mut HostCtx<'_>) {
            self.log
                .lock()
                .push((format!("{} tick", ctx.name()), ctx.now()));
            if self.park {
                ctx.park_tick(SimDuration::from_millis(10));
            } else {
                ctx.arm_tick(SimDuration::from_millis(10));
            }
        }
        fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
            self.log
                .lock()
                .push((format!("{} timer", ctx.name()), ctx.now()));
        }
    }

    #[test]
    fn ticks_run_first_at_an_instant_in_node_order() {
        let (mut net, hosts) = star(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        // Attached in reverse node order: h1 arms its tick and timer first.
        for &host in hosts.iter().rev() {
            let app = Ticker10 {
                log: log.clone(),
                waker: Arc::default(),
                park: false,
            };
            net.attach_app(host, Box::new(app));
        }
        net.run_until(SimTime::from_millis(10));
        let order: Vec<String> = log.lock().iter().map(|(what, _)| what.clone()).collect();
        assert_eq!(order, ["h0 tick", "h1 tick", "h1 timer", "h0 timer"]);
        let dispatched = net.dispatched();
        assert_eq!((dispatched.app_timers, dispatched.tcp_timers), (4, 0));
    }

    #[test]
    fn a_parked_tick_runs_on_its_grid_after_a_wake_or_a_crash() {
        let (mut net, hosts) = star(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        let waker = Arc::new(Mutex::new(None));
        let app = Ticker10 {
            log: log.clone(),
            waker: waker.clone(),
            park: true,
        };
        net.attach_app(hosts[0], Box::new(app));
        let ticks = || -> Vec<u64> {
            let log = log.lock();
            let ticks = log.iter().filter(|(what, _)| what.ends_with("tick"));
            ticks.map(|(_, t)| t.as_millis()).collect()
        };
        let wake = || waker.lock().as_ref().expect("started").wake_by_ref();
        let last_tick = |net: &Network| net.host(hosts[0]).tick.latest(net.now()).as_millis();

        net.run_until(SimTime::from_millis(35));
        assert_eq!(ticks(), [10], "parked after its first tick");
        assert_eq!(last_tick(&net), 30, "the grid runs on while parked");
        // A wake at 35 ms runs the tick at the grid's next instant; two
        // wakes before it runs arm it once.
        wake();
        net.run_until(SimTime::from_millis(45));
        wake();
        wake();
        net.run_until(SimTime::from_millis(100));
        assert_eq!(ticks(), [10, 40, 50]);
        // A wake exactly on the grid: the tick of that instant has run.
        wake();
        net.run_until(SimTime::from_millis(115));
        assert_eq!(ticks(), [10, 40, 50, 110]);
        // A crash arms the parked tick, which is deferred until restart.
        assert!(net.set_host_enabled(hosts[0], false));
        net.run_until(SimTime::from_millis(135));
        assert!(net.set_host_enabled(hosts[0], true));
        net.run_until(SimTime::from_millis(200));
        assert_eq!(ticks(), [10, 40, 50, 110, 140]);
        // Ticks at 10, 40, 50, 110, 120 (deferred), 130 (deferred), 140;
        // the one timer at 10.
        assert_eq!(net.dispatched().app_timers, 8);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerApp {
            log: Arc<Mutex<Vec<u64>>>,
        }
        impl SocketApp for TimerApp {
            fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
                ctx.set_timer(SimDuration::from_millis(30), 3);
                ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(20), 2);
            }
            fn on_timer(&mut self, _ctx: &mut HostCtx<'_>, token: u64) {
                self.log.lock().push(token);
            }
        }
        let (mut net, hosts) = star(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        net.attach_app(hosts[0], Box::new(TimerApp { log: log.clone() }));
        net.run_until(SimTime::from_millis(100));
        assert_eq!(*log.lock(), vec![1, 2, 3]);
    }
}
