//! Traffic capture analysis: classify captured frames by smart grid
//! protocol, for experiment reporting and intrusion-detection exercises.

use sgcr_net::{
    ethertype, ipproto, CapturedFrame, EthernetFrame, Ipv4Packet, TcpSegment, UdpDatagram,
};
use std::collections::BTreeMap;

/// Protocols the classifier recognizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProtocolClass {
    /// ARP.
    Arp,
    /// IEC 61850 GOOSE (L2 multicast).
    Goose,
    /// IEC 61850 Sampled Values (L2 multicast).
    Sv,
    /// MMS over TPKT/TCP (port 102).
    Mms,
    /// Modbus TCP (port 502).
    Modbus,
    /// R-GOOSE / R-SV session over UDP 102.
    RGoose,
    /// Other TCP traffic.
    OtherTcp,
    /// Other UDP traffic.
    OtherUdp,
    /// Anything else.
    Other,
}

impl std::fmt::Display for ProtocolClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ProtocolClass::Arp => "ARP",
            ProtocolClass::Goose => "GOOSE",
            ProtocolClass::Sv => "SV",
            ProtocolClass::Mms => "MMS",
            ProtocolClass::Modbus => "Modbus",
            ProtocolClass::RGoose => "R-GOOSE/R-SV",
            ProtocolClass::OtherTcp => "TCP",
            ProtocolClass::OtherUdp => "UDP",
            ProtocolClass::Other => "other",
        };
        write!(f, "{s}")
    }
}

/// Classifies one frame.
pub fn classify(frame: &EthernetFrame) -> ProtocolClass {
    match frame.ethertype {
        ethertype::ARP => ProtocolClass::Arp,
        ethertype::GOOSE => ProtocolClass::Goose,
        ethertype::SV => ProtocolClass::Sv,
        ethertype::IPV4 => {
            let Some(packet) = Ipv4Packet::decode(&frame.payload) else {
                return ProtocolClass::Other;
            };
            match packet.protocol {
                ipproto::TCP => match TcpSegment::decode(packet.payload) {
                    Some(segment) => {
                        if segment.src_port == 102 || segment.dst_port == 102 {
                            ProtocolClass::Mms
                        } else if segment.src_port == 502 || segment.dst_port == 502 {
                            ProtocolClass::Modbus
                        } else {
                            ProtocolClass::OtherTcp
                        }
                    }
                    None => ProtocolClass::OtherTcp,
                },
                ipproto::UDP => match UdpDatagram::decode(packet.payload) {
                    Some(dgram) if dgram.src_port == 102 || dgram.dst_port == 102 => {
                        ProtocolClass::RGoose
                    }
                    Some(_) => ProtocolClass::OtherUdp,
                    None => ProtocolClass::OtherUdp,
                },
                _ => ProtocolClass::Other,
            }
        }
        _ => ProtocolClass::Other,
    }
}

/// A per-protocol frame count summary of a capture.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CaptureSummary {
    /// Frame counts by protocol.
    pub counts: BTreeMap<ProtocolClass, u64>,
    /// Total frames.
    pub total: u64,
}

impl CaptureSummary {
    /// Summarizes a capture buffer.
    pub fn of(frames: &[CapturedFrame]) -> CaptureSummary {
        let mut summary = CaptureSummary::default();
        for captured in frames {
            *summary.counts.entry(classify(&captured.frame)).or_default() += 1;
            summary.total += 1;
        }
        summary
    }

    /// Count for one protocol.
    pub fn count(&self, class: ProtocolClass) -> u64 {
        self.counts.get(&class).copied().unwrap_or(0)
    }
}

impl std::fmt::Display for CaptureSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} frames:", self.total)?;
        for (class, count) in &self.counts {
            write!(f, " {class}={count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgcr_net::MacAddr;

    fn tcp_frame(src_port: u16, dst_port: u16) -> EthernetFrame {
        let segment = TcpSegment {
            src_port,
            dst_port,
            seq: 0,
            ack: 0,
            flags: Default::default(),
            window: 1000,
            payload: &[],
        };
        let packet = Ipv4Packet {
            src: "10.0.0.1".parse().unwrap(),
            dst: "10.0.0.2".parse().unwrap(),
            protocol: ipproto::TCP,
            ttl: 64,
            payload: &segment.header(),
        };
        EthernetFrame::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            ethertype::IPV4,
            [&packet.header()[..], packet.payload].concat(),
        )
    }

    #[test]
    fn classification() {
        assert_eq!(classify(&tcp_frame(49152, 102)), ProtocolClass::Mms);
        assert_eq!(classify(&tcp_frame(502, 49152)), ProtocolClass::Modbus);
        assert_eq!(classify(&tcp_frame(1234, 80)), ProtocolClass::OtherTcp);
        let goose = EthernetFrame::new(
            MacAddr::goose_multicast(1),
            MacAddr::from_index(1),
            ethertype::GOOSE,
            vec![0u8; 16],
        );
        assert_eq!(classify(&goose), ProtocolClass::Goose);
        let arp = sgcr_net::ArpPacket::request(
            MacAddr::from_index(1),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
        )
        .into_frame(MacAddr::BROADCAST);
        assert_eq!(classify(&arp), ProtocolClass::Arp);
    }

    #[test]
    fn summary_counts() {
        let frames = vec![
            CapturedFrame {
                time: sgcr_net::SimTime::ZERO,
                frame: tcp_frame(49152, 102),
            },
            CapturedFrame {
                time: sgcr_net::SimTime::ZERO,
                frame: tcp_frame(49153, 102),
            },
            CapturedFrame {
                time: sgcr_net::SimTime::ZERO,
                frame: tcp_frame(49154, 502),
            },
        ];
        let summary = CaptureSummary::of(&frames);
        assert_eq!(summary.total, 3);
        assert_eq!(summary.count(ProtocolClass::Mms), 2);
        assert_eq!(summary.count(ProtocolClass::Modbus), 1);
        assert_eq!(summary.count(ProtocolClass::Goose), 0);
        assert!(summary.to_string().contains("MMS=2"));
    }
}
