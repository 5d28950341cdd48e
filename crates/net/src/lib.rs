#![warn(missing_docs)]

//! # sgcr-net
//!
//! A deterministic discrete-event L2/L3 network emulator — the Rust
//! substitute for the Mininet network emulation used by the SG-ML paper.
//!
//! The cyber side of a smart grid cyber range is "a virtual network running a
//! number of (virtual) smart grid devices". This crate provides that virtual
//! network: learning switches, links with latency and serialization delay,
//! and hosts with a real protocol stack — Ethernet framing, ARP (including
//! acceptance of unsolicited replies, the behaviour ARP-spoofing MITM attacks
//! exploit), IPv4, UDP, and a reliable TCP subset with retransmission.
//!
//! Applications (virtual IEDs, PLCs, SCADA, attack tools) implement
//! [`SocketApp`] and are attached to hosts; everything is driven by one
//! deterministic event loop in simulated time, so every experiment replays
//! bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use sgcr_net::{Network, LinkSpec, SimTime, SocketApp, HostCtx};
//!
//! struct Hello;
//! impl SocketApp for Hello {
//!     fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
//!         ctx.bind_udp(20000);
//!         ctx.send_udp("10.0.0.2".parse().unwrap(), 20000, 20000, b"hi");
//!     }
//! }
//!
//! let mut net = Network::new();
//! let sw = net.add_switch("sw0");
//! let h1 = net.add_host("h1", "10.0.0.1".parse().unwrap());
//! let h2 = net.add_host("h2", "10.0.0.2".parse().unwrap());
//! net.connect(h1, sw, LinkSpec::default());
//! net.connect(h2, sw, LinkSpec::default());
//! net.attach_app(h1, Box::new(Hello));
//! net.run_until(SimTime::from_millis(10));
//! ```

mod addr;
mod app;
mod frame;
mod host;
pub mod pcap;
mod sim;
mod time;

pub use addr::{ethertype, Ipv4Addr, MacAddr, ParseMacError};
pub use app::{AppPlane, HostCtx, SocketApp};
pub use frame::{
    internet_checksum, ipproto, ArpPacket, EthernetFrame, Ipv4Packet, TcpFlags, TcpSegment,
    UdpDatagram,
};
pub use host::{ConnId, TcpState, TCP_MSS};
pub use sim::{CapturedFrame, Dispatched, LinkSpec, Network, NodeId};
pub use time::{SimDuration, SimTime};
