//! Property tests on the packet codecs: roundtrips and decoder robustness
//! (the emulator parses whatever attackers put on the wire).

use proptest::prelude::*;
use sgcr_net::{
    ArpPacket, EthernetFrame, Ipv4Addr, Ipv4Packet, MacAddr, TcpFlags, TcpSegment, UdpDatagram,
};

fn mac_strategy() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn ip_strategy() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(|b| Ipv4Addr::new(b[0], b[1], b[2], b[3]))
}

proptest! {
    #[test]
    fn ethernet_roundtrip(
        dst in mac_strategy(),
        src in mac_strategy(),
        ethertype in any::<u16>().prop_filter("not vlan tpid", |e| *e != 0x8100),
        vlan in proptest::option::of(0u16..4096),
        payload in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut frame = EthernetFrame::new(dst, src, ethertype, payload);
        frame.vlan = vlan;
        let wire = frame.encode();
        prop_assert_eq!(EthernetFrame::decode(&wire), Some(frame));
    }

    #[test]
    fn ethernet_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..100)) {
        let _ = EthernetFrame::decode(&bytes);
    }

    #[test]
    fn arp_roundtrip(
        op in 1u16..3,
        sender_mac in mac_strategy(),
        sender_ip in ip_strategy(),
        target_mac in mac_strategy(),
        target_ip in ip_strategy(),
    ) {
        let packet = ArpPacket {
            operation: op,
            sender_mac,
            sender_ip,
            target_mac,
            target_ip,
        };
        prop_assert_eq!(ArpPacket::decode(&packet.encode()), Some(packet));
    }

    #[test]
    fn ipv4_roundtrip(
        src in ip_strategy(),
        dst in ip_strategy(),
        protocol in any::<u8>(),
        ttl in 1u8..255,
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let packet = Ipv4Packet { src, dst, protocol, ttl, payload: &payload };
        let wire = [&packet.header()[..], packet.payload].concat();
        prop_assert_eq!(Ipv4Packet::decode(&wire), Some(packet));
    }

    #[test]
    fn ipv4_detects_any_single_header_corruption(
        src in ip_strategy(),
        dst in ip_strategy(),
        byte in 0usize..20,
        flip in 1u8..=255,
    ) {
        let packet = Ipv4Packet { src, dst, protocol: 17, ttl: 64, payload: &[1, 2, 3] };
        let mut wire = [&packet.header()[..], packet.payload].concat();
        wire[byte] ^= flip;
        // Either the checksum rejects it, or (for some fields like total
        // length shrink) parsing changes the payload — but it must never
        // return the original packet with a corrupted header byte.
        if let Some(decoded) = Ipv4Packet::decode(&wire) {
            prop_assert_ne!(decoded, packet);
        }
    }

    #[test]
    fn udp_roundtrip(
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let dgram = UdpDatagram {
            src_port,
            dst_port,
            payload: &payload,
        };
        let wire = [&dgram.header()[..], dgram.payload].concat();
        prop_assert_eq!(UdpDatagram::decode(&wire), Some(dgram));
    }

    #[test]
    fn tcp_roundtrip(
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        window in any::<u16>(),
        syn in any::<bool>(),
        ack_flag in any::<bool>(),
        fin in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let segment = TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags: TcpFlags { syn, ack: ack_flag, fin, rst: false, psh: false },
            window,
            payload: &payload,
        };
        let wire = [&segment.header()[..], segment.payload].concat();
        prop_assert_eq!(TcpSegment::decode(&wire), Some(segment));
    }

    #[test]
    fn transport_decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..100)) {
        let _ = UdpDatagram::decode(&bytes);
        let _ = TcpSegment::decode(&bytes);
        let _ = ArpPacket::decode(&bytes);
        let _ = Ipv4Packet::decode(&bytes);
    }
}
