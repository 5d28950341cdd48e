//! Ethernet frames and the ARP, IPv4, UDP, and TCP packet codecs.
//!
//! Headers follow the real wire formats (byte-for-byte for ARP/IPv4/UDP/TCP
//! fixed parts), so captures taken in the emulator look like real traffic and
//! attack tools can manipulate protocol fields the way real tools do.
//!
//! A frame's bytes live in one buffer, its `payload`. [`Ipv4Packet`],
//! [`UdpDatagram`] and [`TcpSegment`] are views whose `payload` borrows the
//! bytes they were decoded from, so reading a frame copies nothing; each
//! one's `header` writes its layer's header for its payload, and a send
//! writes every header and the payload once, into one buffer.

use crate::addr::{ethertype, Ipv4Addr, MacAddr};
use bytes::Bytes;
use std::cell::RefCell;

/// An Ethernet II frame (optionally 802.1Q tagged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// 802.1Q VLAN id if tagged (GOOSE traffic commonly is).
    pub vlan: Option<u16>,
    /// EtherType of the payload.
    pub ethertype: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

impl EthernetFrame {
    /// Creates an untagged frame.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: u16, payload: impl Into<Bytes>) -> Self {
        EthernetFrame {
            dst,
            src,
            vlan: None,
            ethertype,
            payload: payload.into(),
        }
    }

    /// Total on-wire size in bytes (header + payload + FCS).
    pub fn wire_len(&self) -> usize {
        14 + if self.vlan.is_some() { 4 } else { 0 } + self.payload.len() + 4
    }

    /// Serializes the frame (without FCS).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.dst.octets());
        out.extend_from_slice(&self.src.octets());
        if let Some(vlan) = self.vlan {
            out.extend_from_slice(&ethertype::VLAN.to_be_bytes());
            out.extend_from_slice(&(vlan & 0x0fff).to_be_bytes());
        }
        out.extend_from_slice(&self.ethertype.to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a frame from raw bytes.
    pub fn decode(data: &[u8]) -> Option<EthernetFrame> {
        if data.len() < 14 {
            return None;
        }
        let dst = MacAddr(data[0..6].try_into().ok()?);
        let src = MacAddr(data[6..12].try_into().ok()?);
        let mut ethertype = u16::from_be_bytes([data[12], data[13]]);
        let mut offset = 14;
        let mut vlan = None;
        if ethertype == ethertype::VLAN {
            if data.len() < 18 {
                return None;
            }
            vlan = Some(u16::from_be_bytes([data[14], data[15]]) & 0x0fff);
            ethertype = u16::from_be_bytes([data[16], data[17]]);
            offset = 18;
        }
        Some(EthernetFrame {
            dst,
            src,
            vlan,
            ethertype,
            payload: Bytes::copy_from_slice(&data[offset..]),
        })
    }
}

/// An ARP packet (Ethernet/IPv4 flavor only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArpPacket {
    /// 1 = request, 2 = reply.
    pub operation: u16,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// ARP operation code for a request.
    pub const REQUEST: u16 = 1;
    /// ARP operation code for a reply.
    pub const REPLY: u16 = 2;

    /// Builds a who-has request.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Self {
        ArpPacket {
            operation: Self::REQUEST,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// Builds a reply (also used, unsolicited, for ARP spoofing).
    pub fn reply(
        sender_mac: MacAddr,
        sender_ip: Ipv4Addr,
        target_mac: MacAddr,
        target_ip: Ipv4Addr,
    ) -> Self {
        ArpPacket {
            operation: Self::REPLY,
            sender_mac,
            sender_ip,
            target_mac,
            target_ip,
        }
    }

    /// Serializes to the 28-byte wire format.
    pub fn encode(&self) -> [u8; 28] {
        let mut out = [0; 28];
        out[..2].copy_from_slice(&1u16.to_be_bytes()); // htype: ethernet
        out[2..4].copy_from_slice(&ethertype::IPV4.to_be_bytes()); // ptype
        out[4] = 6; // hlen
        out[5] = 4; // plen
        out[6..8].copy_from_slice(&self.operation.to_be_bytes());
        out[8..14].copy_from_slice(&self.sender_mac.octets());
        out[14..18].copy_from_slice(&self.sender_ip.octets());
        out[18..24].copy_from_slice(&self.target_mac.octets());
        out[24..].copy_from_slice(&self.target_ip.octets());
        out
    }

    /// Parses from wire bytes.
    pub fn decode(data: &[u8]) -> Option<ArpPacket> {
        if data.len() < 28 {
            return None;
        }
        if u16::from_be_bytes([data[0], data[1]]) != 1 {
            return None;
        }
        Some(ArpPacket {
            operation: u16::from_be_bytes([data[6], data[7]]),
            sender_mac: MacAddr(data[8..14].try_into().ok()?),
            sender_ip: Ipv4Addr::new(data[14], data[15], data[16], data[17]),
            target_mac: MacAddr(data[18..24].try_into().ok()?),
            target_ip: Ipv4Addr::new(data[24], data[25], data[26], data[27]),
        })
    }

    /// Wraps the packet in a broadcast (request) or unicast (reply) frame.
    pub fn into_frame(self, dst: MacAddr) -> EthernetFrame {
        EthernetFrame::new(dst, self.sender_mac, ethertype::ARP, self.encode())
    }
}

/// IP protocol numbers used by the cyber range.
pub mod ipproto {
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
}

/// An IPv4 packet (no options, no fragmentation), viewed in the bytes it
/// was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Packet<'a> {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Protocol number (see [`ipproto`]).
    pub protocol: u8,
    /// Time to live.
    pub ttl: u8,
    /// Transport payload.
    pub payload: &'a [u8],
}

impl<'a> Ipv4Packet<'a> {
    /// The 20-byte header that goes in front of the payload on the wire:
    /// its total length counts the payload, and its checksum is correct.
    pub fn header(&self) -> [u8; 20] {
        let total_len = (20 + self.payload.len()) as u16;
        let mut out = [0; 20];
        out[0] = 0x45; // version 4, IHL 5
        out[2..4].copy_from_slice(&total_len.to_be_bytes());
        out[6] = 0x40; // flags: DF, fragment offset 0
        out[8] = self.ttl;
        out[9] = self.protocol;
        out[12..16].copy_from_slice(&self.src.octets());
        out[16..].copy_from_slice(&self.dst.octets());
        let csum = internet_checksum(&out);
        out[10..12].copy_from_slice(&csum.to_be_bytes());
        out
    }

    /// Parses from wire bytes, verifying version and header checksum.
    pub fn decode(data: &'a [u8]) -> Option<Ipv4Packet<'a>> {
        if data.len() < 20 || data[0] >> 4 != 4 {
            return None;
        }
        let ihl = ((data[0] & 0x0f) as usize) * 4;
        if ihl < 20 || data.len() < ihl {
            return None;
        }
        if internet_checksum(&data[..ihl]) != 0 {
            return None;
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]) as usize;
        if total_len < ihl || total_len > data.len() {
            return None;
        }
        Some(Ipv4Packet {
            src: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
            dst: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
            protocol: data[9],
            ttl: data[8],
            payload: &data[ihl..total_len],
        })
    }
}

thread_local! {
    /// The buffer [`ipv4_packet`] writes into. It grows to the longest
    /// packet its thread sends and is reused, so that a packet allocates
    /// only its bytes.
    static PACKET: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// An IPv4 packet from `src` to `dst` with a TTL of 64: its header, the
/// transport header `transport`, then `payload`, each written once into
/// the thread's packet buffer, which is copied out at its exact length.
pub(crate) fn ipv4_packet(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: u8,
    transport: &[u8],
    payload: &[u8],
) -> Bytes {
    PACKET.with_borrow_mut(|buffer| {
        buffer.clear();
        buffer.extend_from_slice(&[0; 20]);
        buffer.extend_from_slice(transport);
        buffer.extend_from_slice(payload);
        let (header, payload) = buffer.split_at_mut(20);
        let packet = Ipv4Packet {
            src,
            dst,
            protocol,
            ttl: 64,
            payload,
        };
        header.copy_from_slice(&packet.header());
        Bytes::copy_from_slice(buffer)
    })
}

/// Computes the 16-bit one's-complement internet checksum.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// A UDP datagram, viewed in the bytes it was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpDatagram<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: &'a [u8],
}

impl<'a> UdpDatagram<'a> {
    /// The 8-byte header that goes in front of the payload on the wire
    /// (checksum omitted: 0, legal for IPv4 UDP).
    pub fn header(&self) -> [u8; 8] {
        let len = (8 + self.payload.len()) as u16;
        let mut out = [0; 8];
        out[..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..6].copy_from_slice(&len.to_be_bytes());
        out
    }

    /// Parses from wire bytes.
    pub fn decode(data: &'a [u8]) -> Option<UdpDatagram<'a>> {
        if data.len() < 8 {
            return None;
        }
        let len = u16::from_be_bytes([data[4], data[5]]) as usize;
        if len < 8 || len > data.len() {
            return None;
        }
        Some(UdpDatagram {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            payload: &data[8..len],
        })
    }
}

/// TCP header flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// SYN.
    pub syn: bool,
    /// ACK.
    pub ack: bool,
    /// FIN.
    pub fin: bool,
    /// RST.
    pub rst: bool,
    /// PSH.
    pub psh: bool,
}

impl TcpFlags {
    /// SYN only.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };

    fn encode(self) -> u8 {
        (u8::from(self.fin))
            | (u8::from(self.syn) << 1)
            | (u8::from(self.rst) << 2)
            | (u8::from(self.psh) << 3)
            | (u8::from(self.ack) << 4)
    }

    fn decode(b: u8) -> TcpFlags {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

/// A TCP segment (fixed 20-byte header, no options), viewed in the bytes it
/// was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSegment<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number (meaningful when `flags.ack`).
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Advertised window.
    pub window: u16,
    /// Payload bytes.
    pub payload: &'a [u8],
}

impl<'a> TcpSegment<'a> {
    /// The 20-byte header that goes in front of the payload on the wire
    /// (checksum left zero: the emulator's links are reliable and the
    /// pseudo-header checksum is not needed for correctness here).
    pub fn header(&self) -> [u8; 20] {
        let mut out = [0; 20];
        out[..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..8].copy_from_slice(&self.seq.to_be_bytes());
        out[8..12].copy_from_slice(&self.ack.to_be_bytes());
        out[12] = 5 << 4; // data offset 5 words
        out[13] = self.flags.encode();
        out[14..16].copy_from_slice(&self.window.to_be_bytes());
        out
    }

    /// Parses from wire bytes.
    pub fn decode(data: &'a [u8]) -> Option<TcpSegment<'a>> {
        if data.len() < 20 {
            return None;
        }
        let offset = ((data[12] >> 4) as usize) * 4;
        if offset < 20 || data.len() < offset {
            return None;
        }
        Some(TcpSegment {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: TcpFlags::decode(data[13]),
            window: u16::from_be_bytes([data[14], data[15]]),
            payload: &data[offset..],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(i: u64) -> MacAddr {
        MacAddr::from_index(i)
    }

    #[test]
    fn ethernet_roundtrip() {
        let f = EthernetFrame::new(mac(1), mac(2), ethertype::IPV4, vec![1, 2, 3]);
        assert_eq!(EthernetFrame::decode(&f.encode()), Some(f));
    }

    #[test]
    fn ethernet_vlan_roundtrip() {
        let mut f = EthernetFrame::new(
            MacAddr::goose_multicast(1),
            mac(2),
            ethertype::GOOSE,
            vec![9; 20],
        );
        f.vlan = Some(101);
        let decoded = EthernetFrame::decode(&f.encode()).unwrap();
        assert_eq!(decoded.vlan, Some(101));
        assert_eq!(decoded.ethertype, ethertype::GOOSE);
        assert_eq!(decoded, f);
    }

    #[test]
    fn ethernet_rejects_short() {
        assert_eq!(EthernetFrame::decode(&[0; 10]), None);
    }

    #[test]
    fn arp_roundtrip() {
        let req = ArpPacket::request(
            mac(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        assert_eq!(ArpPacket::decode(&req.encode()), Some(req));
        let rep = ArpPacket::reply(
            mac(2),
            Ipv4Addr::new(10, 0, 0, 2),
            mac(1),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        assert_eq!(ArpPacket::decode(&rep.encode()), Some(rep));
    }

    #[test]
    fn ipv4_roundtrip_and_checksum() {
        let p = Ipv4Packet {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            protocol: ipproto::UDP,
            ttl: 64,
            payload: &[5; 12],
        };
        let wire = [&p.header()[..], p.payload].concat();
        assert_eq!(Ipv4Packet::decode(&wire), Some(p));
        // Corrupt a header byte: checksum must reject it.
        let mut bad = wire.clone();
        bad[8] ^= 0xff;
        assert_eq!(Ipv4Packet::decode(&bad), None);
    }

    #[test]
    fn udp_roundtrip() {
        let d = UdpDatagram {
            src_port: 1234,
            dst_port: 102,
            payload: b"hello",
        };
        let wire = [&d.header()[..], d.payload].concat();
        assert_eq!(UdpDatagram::decode(&wire), Some(d));
    }

    #[test]
    fn tcp_roundtrip() {
        let s = TcpSegment {
            src_port: 4000,
            dst_port: 102,
            seq: 1000,
            ack: 2000,
            flags: TcpFlags {
                syn: true,
                ack: true,
                ..TcpFlags::default()
            },
            window: 65535,
            payload: b"data",
        };
        let wire = [&s.header()[..], s.payload].concat();
        assert_eq!(TcpSegment::decode(&wire), Some(s));
    }

    #[test]
    fn a_sent_packet_is_each_layers_header_then_the_payload() {
        let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let d = UdpDatagram {
            src_port: 1234,
            dst_port: 102,
            payload: b"hello",
        };
        let packet = ipv4_packet(src, dst, ipproto::UDP, &d.header(), d.payload);
        let ip = Ipv4Packet::decode(&packet).unwrap();
        assert_eq!(
            (ip.src, ip.dst, ip.protocol, ip.ttl),
            (src, dst, ipproto::UDP, 64)
        );
        assert_eq!(UdpDatagram::decode(ip.payload), Some(d));
        assert_eq!(&packet[..20], ip.header());
    }

    #[test]
    fn checksum_known_vector() {
        // RFC 1071 example-style check: checksum of data with its own
        // checksum embedded is zero.
        let p = Ipv4Packet {
            src: Ipv4Addr::new(192, 168, 0, 1),
            dst: Ipv4Addr::new(192, 168, 0, 99),
            protocol: ipproto::TCP,
            ttl: 64,
            payload: &[],
        };
        assert_eq!(internet_checksum(&p.header()), 0);
    }
}
