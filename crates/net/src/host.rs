//! Per-host protocol state: ARP cache, UDP bindings, and the TCP-lite
//! state machine.
//!
//! The functions here are state transitions over [`HostState`]: an input (a
//! segment, an application call) changes a connection's state, and what the
//! connection then has to send — its handshake segment, unsent data, a FIN,
//! a due ACK — is taken one finished IPv4 packet at a time with
//! [`HostState::tcp_output`], each segment written straight from the
//! connection's send buffer. The simulator core ([`crate::Network`])
//! frames the packets, resolves ARP and schedules them.

use crate::addr::{Ipv4Addr, MacAddr};
use crate::frame::{ipproto, ipv4_packet, TcpFlags, TcpSegment};
use bytes::Bytes;
use std::collections::HashMap;

/// Identifier of a TCP connection within one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

/// Maximum TCP payload per segment.
pub const TCP_MSS: usize = 1460;

/// TCP connection states (simplified RFC 793 machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// SYN sent, waiting for SYN+ACK.
    SynSent,
    /// SYN received on a listener, SYN+ACK sent.
    SynRcvd,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent.
    FinWait,
    /// Peer closed first; we may still send.
    CloseWait,
    /// We closed after CloseWait; FIN sent, waiting for last ACK.
    LastAck,
    /// Fully closed.
    Closed,
}

/// One TCP connection's state.
#[derive(Debug, Clone)]
pub(crate) struct TcpConn {
    /// Current state.
    state: TcpState,
    /// Local port.
    local_port: u16,
    /// Remote endpoint.
    remote: (Ipv4Addr, u16),
    /// Oldest unacknowledged sequence number.
    snd_una: u32,
    /// Next sequence number to send.
    snd_nxt: u32,
    /// Next sequence number expected from the peer.
    rcv_nxt: u32,
    /// Bytes from `snd_una` onward (unacked + unsent).
    send_buf: Vec<u8>,
    /// Whether our FIN has been queued after the send buffer.
    fin_queued: bool,
    /// Whether our FIN has been sent (occupies one sequence number).
    fin_sent: bool,
    /// Whether an ACK of `rcv_nxt` is due after whatever else is sent.
    ack_due: bool,
    /// Whether the connection's retransmission timer is in the network's
    /// queue.
    timer_armed: bool,
}

/// The flags of a bare ACK, the base of every other segment's flags.
const ACK: TcpFlags = TcpFlags {
    syn: false,
    ack: true,
    fin: false,
    rst: false,
    psh: false,
};

impl TcpConn {
    /// A connection in `state` that has sent nothing from `iss` yet.
    fn new(state: TcpState, local_port: u16, remote: (Ipv4Addr, u16), iss: u32) -> TcpConn {
        TcpConn {
            state,
            local_port,
            remote,
            snd_una: iss,
            snd_nxt: iss,
            rcv_nxt: 0,
            send_buf: Vec::new(),
            fin_queued: false,
            fin_sent: false,
            ack_due: false,
            timer_armed: false,
        }
    }

    /// A segment to the peer at `seq`, acknowledging `rcv_nxt`.
    fn segment<'a>(&self, seq: u32, flags: TcpFlags, payload: &'a [u8]) -> TcpSegment<'a> {
        TcpSegment {
            src_port: self.local_port,
            dst_port: self.remote.1,
            seq,
            ack: self.rcv_nxt,
            flags,
            window: 65535,
            payload,
        }
    }

    /// The segment at `snd_una`: during the handshake its own segment —
    /// the SYN, or the SYN+ACK answering the peer's SYN (RFC 793) — and
    /// after it the first unacknowledged chunk, or the FIN.
    fn first(&self) -> TcpSegment<'_> {
        let seq = self.snd_una;
        match self.state {
            TcpState::SynSent => self.segment(seq, TcpFlags::SYN, &[]),
            TcpState::SynRcvd => self.segment(seq, TcpFlags { syn: true, ..ACK }, &[]),
            _ => {
                let chunk = &self.send_buf[..self.send_buf.len().min(TCP_MSS)];
                let flags = TcpFlags {
                    psh: !chunk.is_empty(),
                    fin: chunk.is_empty() && self.fin_sent,
                    ..ACK
                };
                self.segment(seq, flags, chunk)
            }
        }
    }

    /// The next segment the connection sends, past which `snd_nxt`
    /// advances: the handshake segment not yet sent, then unsent data, the
    /// FIN once all data is out, and a due ACK.
    fn output(&mut self) -> Option<TcpSegment<'_>> {
        let seq = self.snd_nxt;
        // Unsent data begins at offset (snd_nxt - snd_una) within send_buf.
        let sent = seq.wrapping_sub(self.snd_una) as usize;
        if sent == 0 && matches!(self.state, TcpState::SynSent | TcpState::SynRcvd) {
            // SYN consumes one sequence number.
            self.snd_nxt = seq.wrapping_add(1);
            Some(self.first())
        } else if sent < self.send_buf.len() {
            let end = self.send_buf.len().min(sent + TCP_MSS);
            self.snd_nxt = seq.wrapping_add((end - sent) as u32);
            let flags = TcpFlags { psh: true, ..ACK };
            Some(self.segment(seq, flags, &self.send_buf[sent..end]))
        } else if self.fin_queued && !self.fin_sent {
            self.snd_nxt = seq.wrapping_add(1);
            self.fin_sent = true;
            Some(self.segment(seq, TcpFlags { fin: true, ..ACK }, &[]))
        } else if std::mem::take(&mut self.ack_due) {
            Some(self.segment(seq, ACK, &[]))
        } else {
            None
        }
    }
}

/// `segment` from `src` to `dst` as a finished IPv4 packet, with its
/// destination.
fn packet(src: Ipv4Addr, dst: Ipv4Addr, segment: &TcpSegment<'_>) -> (Ipv4Addr, Bytes) {
    let header = segment.header();
    let packet = ipv4_packet(src, dst, ipproto::TCP, &header, segment.payload);
    (dst, packet)
}

/// What a TCP segment did to the connection it reached, as its app hears
/// of it: the connection completed, accepted, got in-order data (the
/// segment's payload) and closed, each in that order when set.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TcpInput {
    /// An outbound connection completed its handshake.
    pub(crate) connected: bool,
    /// An inbound connection was accepted from this peer.
    pub(crate) accepted: Option<(Ipv4Addr, u16)>,
    /// The segment's payload arrived in order.
    pub(crate) data: bool,
    /// The connection fully closed (FIN exchange or RST).
    pub(crate) closed: bool,
}

/// Host protocol state (one per emulated host).
#[derive(Debug)]
pub(crate) struct HostState {
    /// The host's MAC address.
    pub(crate) mac: MacAddr,
    /// The host's IPv4 address.
    pub(crate) ip: Ipv4Addr,
    /// ARP cache: IP → MAC. Updated by *any* received ARP packet, including
    /// unsolicited replies — the behaviour ARP spoofing exploits.
    pub(crate) arp_cache: HashMap<Ipv4Addr, MacAddr>,
    /// IPv4 packets queued waiting for ARP resolution, per destination.
    pub(crate) arp_pending: HashMap<Ipv4Addr, Vec<Bytes>>,
    /// Bound UDP ports.
    pub(crate) udp_bound: Vec<u16>,
    /// Listening TCP ports.
    pub(crate) tcp_listen: Vec<u16>,
    /// Every connection the host opened or accepted, closed ones included:
    /// `ConnId(n)` is entry `n - 1`.
    conns: Vec<TcpConn>,
    /// Next ephemeral port.
    next_port: u16,
    /// Next initial sequence number (deterministic).
    next_iss: u32,
    /// Surface IP packets addressed to our MAC but a foreign IP to the app
    /// (the man-in-the-middle forwarding point).
    pub(crate) deliver_transit: bool,
}

impl HostState {
    /// Creates a fresh host stack.
    pub(crate) fn new(mac: MacAddr, ip: Ipv4Addr) -> HostState {
        HostState {
            mac,
            ip,
            arp_cache: HashMap::new(),
            arp_pending: HashMap::new(),
            udp_bound: Vec::new(),
            tcp_listen: Vec::new(),
            conns: Vec::new(),
            next_port: 49152,
            next_iss: 1000,
            deliver_transit: false,
        }
    }

    /// Allocates an ephemeral port.
    fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = self.next_port.checked_add(1).unwrap_or(49152);
        p
    }

    fn alloc_iss(&mut self) -> u32 {
        let iss = self.next_iss;
        self.next_iss = self.next_iss.wrapping_add(64_000);
        iss
    }

    /// Adds a connection; ids run 1, 2, 3, … in the order they are added.
    fn add_conn(&mut self, conn: TcpConn) -> ConnId {
        self.conns.push(conn);
        ConnId(self.conns.len() as u64)
    }

    /// The connection `id` names, if the host has one.
    fn conn_mut(&mut self, id: ConnId) -> Option<&mut TcpConn> {
        self.conns
            .get_mut(usize::try_from(id.0.checked_sub(1)?).ok()?)
    }

    /// Initiates an outbound connection; its SYN is its first output.
    pub(crate) fn tcp_connect(&mut self, dst: Ipv4Addr, dst_port: u16) -> ConnId {
        let local_port = self.alloc_port();
        let iss = self.alloc_iss();
        let conn = TcpConn::new(TcpState::SynSent, local_port, (dst, dst_port), iss);
        self.add_conn(conn)
    }

    /// Queues application data for sending.
    pub(crate) fn tcp_send(&mut self, id: ConnId, data: &[u8]) {
        if let Some(conn) = self.conn_mut(id) {
            if matches!(conn.state, TcpState::Established | TcpState::CloseWait) {
                conn.send_buf.extend_from_slice(data);
            }
        }
    }

    /// Begins an orderly close: a FIN follows the queued data.
    pub(crate) fn tcp_close(&mut self, id: ConnId) {
        let Some(conn) = self.conn_mut(id) else {
            return;
        };
        conn.state = match conn.state {
            TcpState::Established => TcpState::FinWait,
            TcpState::CloseWait => TcpState::LastAck,
            _ => return,
        };
        conn.fin_queued = true;
    }

    /// The next packet connection `id` sends and its destination, or
    /// `None` once it has sent all it has ready.
    pub(crate) fn tcp_output(&mut self, id: ConnId) -> Option<(Ipv4Addr, Bytes)> {
        let src = self.ip;
        let conn = self.conn_mut(id)?;
        let dst = conn.remote.0;
        Some(packet(src, dst, &conn.output()?))
    }

    /// The packet to retransmit when the connection's timer expires
    /// (go-back-N from `snd_una`); the timer is no longer armed.
    pub(crate) fn tcp_retransmit(&mut self, id: ConnId) -> Option<(Ipv4Addr, Bytes)> {
        let src = self.ip;
        let conn = self.conn_mut(id)?;
        conn.timer_armed = false;
        if conn.state == TcpState::Closed || conn.snd_nxt == conn.snd_una {
            return None;
        }
        Some(packet(src, conn.remote.0, &conn.first()))
    }

    /// Marks the connection's retransmission timer armed if it needs one —
    /// it has unacknowledged data — and has none; the caller then schedules
    /// it.
    pub(crate) fn tcp_arm_timer(&mut self, id: ConnId) -> bool {
        self.conn_mut(id).is_some_and(|c| {
            c.snd_nxt != c.snd_una
                && c.state != TcpState::Closed
                && !std::mem::replace(&mut c.timer_armed, true)
        })
    }

    /// The RST answering `seg` from `src_ip` when no connection takes it,
    /// unless `seg` is itself a RST.
    pub(crate) fn tcp_refusal(
        &self,
        src_ip: Ipv4Addr,
        seg: &TcpSegment<'_>,
    ) -> Option<(Ipv4Addr, Bytes)> {
        let rst = TcpSegment {
            src_port: seg.dst_port,
            dst_port: seg.src_port,
            seq: seg.ack,
            ack: seg.seq.wrapping_add(1),
            flags: TcpFlags { rst: true, ..ACK },
            window: 0,
            payload: &[],
        };
        (!seg.flags.rst).then(|| packet(self.ip, src_ip, &rst))
    }

    /// Processes an incoming TCP segment addressed to this host.
    ///
    /// Returns the connection the segment touched — the one it matched, or
    /// the one its SYN opened on a listener — and what it did there; the
    /// connection's output then holds what it answers. `None` when no
    /// connection takes the segment (see [`HostState::tcp_refusal`]).
    pub(crate) fn tcp_input(
        &mut self,
        src_ip: Ipv4Addr,
        seg: &TcpSegment<'_>,
    ) -> Option<(ConnId, TcpInput)> {
        let mut input = TcpInput::default();
        // Find the connection this segment belongs to.
        let existing = self.conns.iter().position(|c| {
            c.local_port == seg.dst_port
                && c.remote == (src_ip, seg.src_port)
                && c.state != TcpState::Closed
        });
        let Some(index) = existing else {
            // New inbound SYN on a listener? Its SYN+ACK is its first output.
            if seg.flags.syn && !seg.flags.ack && self.tcp_listen.contains(&seg.dst_port) {
                let iss = self.alloc_iss();
                let mut conn =
                    TcpConn::new(TcpState::SynRcvd, seg.dst_port, (src_ip, seg.src_port), iss);
                conn.rcv_nxt = seg.seq.wrapping_add(1);
                return Some((self.add_conn(conn), input));
            }
            return None;
        };
        let id = ConnId(index as u64 + 1);
        let conn = &mut self.conns[index];

        if seg.flags.rst {
            conn.state = TcpState::Closed;
            input.closed = true;
            return Some((id, input));
        }

        // Handshake transitions.
        match conn.state {
            TcpState::SynSent if seg.flags.syn && seg.flags.ack => {
                conn.rcv_nxt = seg.seq.wrapping_add(1);
                conn.snd_una = seg.ack;
                conn.state = TcpState::Established;
                conn.ack_due = true;
                input.connected = true;
                return Some((id, input));
            }
            // Until the peer's SYN arrives, nothing else is acceptable.
            TcpState::SynSent if !seg.flags.syn => return Some((id, input)),
            TcpState::SynRcvd if seg.flags.ack && !seg.flags.syn => {
                conn.snd_una = seg.ack;
                conn.state = TcpState::Established;
                input.accepted = Some(conn.remote);
                // Fall through: the ACK may carry data.
            }
            _ => {}
        }

        // ACK processing: drop acked bytes from the send buffer.
        if seg.flags.ack {
            let acked = seg.ack.wrapping_sub(conn.snd_una);
            let outstanding = conn.snd_nxt.wrapping_sub(conn.snd_una);
            if acked > 0 && acked <= outstanding {
                // FIN consumes a sequence number not present in buf.
                let data_acked = (acked as usize).min(conn.send_buf.len());
                conn.send_buf.drain(..data_acked);
                conn.snd_una = seg.ack;
                if conn.state == TcpState::LastAck && conn.fin_sent && conn.snd_una == conn.snd_nxt
                {
                    conn.state = TcpState::Closed;
                    input.closed = true;
                    return Some((id, input));
                }
            }
        }

        // In-order data delivery.
        if !seg.payload.is_empty() {
            if seg.seq == conn.rcv_nxt {
                conn.rcv_nxt = conn.rcv_nxt.wrapping_add(seg.payload.len() as u32);
                input.data = true;
            }
            // Out-of-order or duplicate: just re-ACK rcv_nxt.
            conn.ack_due = true;
        }

        // Peer FIN.
        if seg.flags.fin && seg.seq == conn.rcv_nxt {
            conn.rcv_nxt = conn.rcv_nxt.wrapping_add(1);
            conn.ack_due = true;
            match conn.state {
                TcpState::Established => conn.state = TcpState::CloseWait,
                TcpState::FinWait => {
                    conn.state = TcpState::Closed;
                    input.closed = true;
                }
                _ => {}
            }
        }
        Some((id, input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Ipv4Packet;

    /// What an app hears of a segment.
    #[derive(Debug, PartialEq)]
    enum Event {
        Connected(ConnId),
        Accepted(ConnId),
        Data(ConnId, Vec<u8>),
        Closed(ConnId),
    }

    fn pair() -> (HostState, HostState) {
        let a = HostState::new(MacAddr::from_index(1), Ipv4Addr::new(10, 0, 0, 1));
        let b = HostState::new(MacAddr::from_index(2), Ipv4Addr::new(10, 0, 0, 2));
        (a, b)
    }

    /// The TCP segment an IPv4 packet carries.
    fn segment(packet: &[u8]) -> TcpSegment<'_> {
        let ip = Ipv4Packet::decode(packet).expect("an IPv4 packet");
        TcpSegment::decode(ip.payload).expect("a TCP segment")
    }

    /// Every packet `host` has ready on `conn`.
    fn output(host: &mut HostState, conn: ConnId) -> Vec<Bytes> {
        std::iter::from_fn(|| host.tcp_output(conn).map(|(_, packet)| packet)).collect()
    }

    /// Delivers `packet` from `from` to `host`: the events it raises and
    /// the packets `host` answers with.
    fn deliver(host: &mut HostState, from: Ipv4Addr, packet: &[u8]) -> (Vec<Event>, Vec<Bytes>) {
        let seg = segment(packet);
        let Some((id, input)) = host.tcp_input(from, &seg) else {
            let refusal = host.tcp_refusal(from, &seg).map(|(_, packet)| packet);
            return (Vec::new(), refusal.into_iter().collect());
        };
        let mut events = Vec::new();
        if input.connected {
            events.push(Event::Connected(id));
        }
        if input.accepted.is_some() {
            events.push(Event::Accepted(id));
        }
        if input.data {
            events.push(Event::Data(id, seg.payload.to_vec()));
        }
        if input.closed {
            events.push(Event::Closed(id));
        }
        (events, output(host, id))
    }

    /// Ferries packets between two host stacks until quiescent.
    fn exchange(
        a: &mut HostState,
        b: &mut HostState,
        mut from_a: Vec<Bytes>,
    ) -> (Vec<Event>, Vec<Event>) {
        let mut ev_a = Vec::new();
        let mut ev_b = Vec::new();
        let mut from_b: Vec<Bytes> = Vec::new();
        for _ in 0..64 {
            if from_a.is_empty() && from_b.is_empty() {
                break;
            }
            let mut next_from_b = Vec::new();
            for packet in from_a.drain(..) {
                let (evs, outs) = deliver(b, a.ip, &packet);
                next_from_b.extend(outs);
                ev_b.extend(evs);
            }
            let mut next_from_a = Vec::new();
            for packet in from_b.drain(..) {
                let (evs, outs) = deliver(a, b.ip, &packet);
                next_from_a.extend(outs);
                ev_a.extend(evs);
            }
            from_a = next_from_a;
            from_b = next_from_b;
        }
        (ev_a, ev_b)
    }

    /// Opens a connection from `a` to `b`'s `port` and returns both ends.
    fn connect(a: &mut HostState, b: &mut HostState, port: u16) -> (ConnId, ConnId) {
        b.tcp_listen.push(port);
        let conn_a = a.tcp_connect(b.ip, port);
        let syn = output(a, conn_a);
        let (ev_a, ev_b) = exchange(a, b, syn);
        assert_eq!(ev_a, [Event::Connected(conn_a)]);
        match ev_b[..] {
            [Event::Accepted(conn_b)] => (conn_a, conn_b),
            ref other => panic!("expected accept, got {other:?}"),
        }
    }

    #[test]
    fn handshake_and_data() {
        let (mut a, mut b) = pair();
        let (conn_a, conn_b) = connect(&mut a, &mut b, 102);
        a.tcp_send(conn_a, b"hello world");
        let outs = output(&mut a, conn_a);
        let (_, ev_b) = exchange(&mut a, &mut b, outs);
        assert_eq!(ev_b, [Event::Data(conn_b, b"hello world".to_vec())]);
    }

    #[test]
    fn bidirectional_data() {
        let (mut a, mut b) = pair();
        let (conn_a, conn_b) = connect(&mut a, &mut b, 502);
        b.tcp_send(conn_b, b"response");
        let outs = output(&mut b, conn_b);
        // Segments now flow b->a; reuse exchange with roles swapped.
        let (_, ev_a) = exchange(&mut b, &mut a, outs);
        assert_eq!(ev_a, [Event::Data(conn_a, b"response".to_vec())]);
    }

    #[test]
    fn large_transfer_segments_and_reassembles() {
        let (mut a, mut b) = pair();
        let (conn_a, _) = connect(&mut a, &mut b, 102);
        let big: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        a.tcp_send(conn_a, &big);
        let outs = output(&mut a, conn_a);
        assert!(outs.len() >= 4, "payload must be segmented at MSS");
        let (_, ev_b) = exchange(&mut a, &mut b, outs);
        let received: Vec<u8> = ev_b
            .into_iter()
            .filter_map(|e| match e {
                Event::Data(_, d) => Some(d),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(received, big);
    }

    #[test]
    fn orderly_close_both_sides() {
        let (mut a, mut b) = pair();
        let (conn_a, conn_b) = connect(&mut a, &mut b, 102);
        // a closes; b sees CloseWait (no event yet), then b closes too.
        a.tcp_close(conn_a);
        let fin = output(&mut a, conn_a);
        exchange(&mut a, &mut b, fin);
        assert_eq!(b.conn_mut(conn_b).unwrap().state, TcpState::CloseWait);
        b.tcp_close(conn_b);
        let fin_b = output(&mut b, conn_b);
        let (ev_a2, ev_b2) = exchange(&mut b, &mut a, fin_b);
        assert!(ev_a2.contains(&Event::Closed(conn_b)));
        assert!(ev_b2.contains(&Event::Closed(conn_a)));
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let (mut a, mut b) = pair();
        let conn_a = a.tcp_connect(b.ip, 9999);
        let syn = output(&mut a, conn_a);
        let (_, outs) = deliver(&mut b, a.ip, &syn[0]);
        assert_eq!(outs.len(), 1);
        assert!(segment(&outs[0]).flags.rst);
        let (evs, _) = deliver(&mut a, b.ip, &outs[0]);
        assert_eq!(evs, [Event::Closed(conn_a)]);
    }

    #[test]
    fn retransmission_recovers_lost_segment() {
        let (mut a, mut b) = pair();
        let (conn_a, conn_b) = connect(&mut a, &mut b, 102);
        // Send data but "lose" it (never deliver).
        a.tcp_send(conn_a, b"important");
        assert_eq!(output(&mut a, conn_a).len(), 1);
        assert!(a.tcp_arm_timer(conn_a), "unacknowledged data needs a timer");
        // Timer fires: retransmit and deliver this time.
        let (_, rexmit) = a.tcp_retransmit(conn_a).unwrap();
        assert_eq!(segment(&rexmit).payload, b"important");
        let (_, ev_b) = exchange(&mut a, &mut b, vec![rexmit]);
        assert_eq!(ev_b, [Event::Data(conn_b, b"important".to_vec())]);
        assert!(!a.tcp_arm_timer(conn_a), "acknowledged data needs none");
    }

    #[test]
    fn duplicate_data_not_delivered_twice() {
        let (mut a, mut b) = pair();
        let (conn_a, conn_b) = connect(&mut a, &mut b, 102);
        a.tcp_send(conn_a, b"once");
        let outs = output(&mut a, conn_a);
        let (ev1, _) = deliver(&mut b, a.ip, &outs[0]);
        let (ev2, _) = deliver(&mut b, a.ip, &outs[0]);
        assert_eq!(ev1, [Event::Data(conn_b, b"once".to_vec())]);
        assert_eq!(ev2, [], "duplicate must be dropped");
    }

    #[test]
    fn ephemeral_ports_unique() {
        let mut h = HostState::new(MacAddr::from_index(1), Ipv4Addr::new(10, 0, 0, 1));
        let p1 = h.alloc_port();
        let p2 = h.alloc_port();
        assert_ne!(p1, p2);
    }
}
