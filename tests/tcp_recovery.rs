//! The emulated TCP recovers a lost handshake segment.
//!
//! A client and a server share one switch, the server behind a WAN link, and
//! the client's link drops every frame from 12 to 30 ms. That window holds
//! only the server's SYN+ACK, which reaches the client at 20.2 ms on a
//! clean link. The client must still connect and get its data echoed: the
//! server's retransmission re-sends the SYN+ACK (RFC 793), and a client
//! still waiting for it ignores any segment without SYN or RST.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic

use sg_cyber_range::faults::LinkFault;
use sg_cyber_range::net::{
    ConnId, HostCtx, Ipv4Addr, LinkSpec, Network, NodeId, SimTime, SocketApp,
};
use std::sync::{Arc, Mutex};

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const PORT: u16 = 102;

/// What the client saw: when it connected, and the bytes echoed back.
#[derive(Default)]
struct Seen {
    connected: Option<SimTime>,
    echoed: Vec<u8>,
}

struct Client {
    seen: Arc<Mutex<Seen>>,
}

impl SocketApp for Client {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.tcp_connect(SERVER, PORT);
    }
    fn on_tcp_connected(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId) {
        self.seen.lock().unwrap().connected = Some(ctx.now());
        ctx.tcp_send(conn, b"hello");
    }
    fn on_tcp_data(&mut self, _ctx: &mut HostCtx<'_>, _conn: ConnId, data: &[u8]) {
        self.seen.lock().unwrap().echoed.extend_from_slice(data);
    }
}

struct Echo;

impl SocketApp for Echo {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.tcp_listen(PORT);
    }
    fn on_tcp_data(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId, data: &[u8]) {
        ctx.tcp_send(conn, data);
    }
}

/// Runs the pair for 3 s, dropping every frame on the client's link from
/// 12 to 30 ms when `lossy`.
fn run(lossy: bool) -> Seen {
    let mut net = Network::new();
    let sw = net.add_switch("sw");
    let client = net.add_host("client", Ipv4Addr::new(10, 0, 0, 1));
    let server = net.add_host("server", SERVER);
    net.connect(client, sw, LinkSpec::default());
    net.connect(server, sw, LinkSpec::wan());
    let seen = Arc::new(Mutex::new(Seen::default()));
    net.attach_app(client, Box::new(Client { seen: seen.clone() }));
    net.attach_app(server, Box::new(Echo));
    let set_loss = |net: &mut Network, node: NodeId, loss: f64| {
        let fault = LinkFault {
            loss,
            ..LinkFault::default()
        };
        assert!(net.set_link_fault(node, sw, fault));
    };
    if lossy {
        net.run_until(SimTime::from_millis(12));
        set_loss(&mut net, client, 1.0);
        net.run_until(SimTime::from_millis(30));
        set_loss(&mut net, client, 0.0);
    }
    net.run_until(SimTime::from_secs(3));
    let seen = std::mem::take(&mut *seen.lock().unwrap());
    seen
}

#[test]
fn a_clean_handshake_connects_at_the_first_syn_ack() {
    let seen = run(false);
    let connected = seen.connected.expect("connects");
    assert!(connected < SimTime::from_millis(21), "{connected}");
    assert_eq!(seen.echoed, b"hello");
}

#[test]
fn a_lost_syn_ack_is_sent_again() {
    let seen = run(true);
    let connected = seen.connected.expect("connects after the lost SYN+ACK");
    // The server re-sends its SYN+ACK when its timer fires, 200 ms after
    // the SYN reached it at 15.2 ms.
    let first_retransmission = SimTime::from_millis(215)..SimTime::from_millis(225);
    assert!(first_retransmission.contains(&connected), "{connected}");
    assert_eq!(seen.echoed, b"hello");
}
