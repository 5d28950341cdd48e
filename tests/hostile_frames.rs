//! Hostile bytes: the frames a range puts on the wire, mutated, through
//! every decoder an attacker reaches. A man in the middle controls every
//! byte a device decodes, so no decoder may panic on any input, and the
//! link-layer to transport codecs must give back the bytes they decoded.
//!
//! The corpus is captured, not written by hand: the frames an EPIC run
//! delivers to the SCADA workstation and to GIED1 (as
//! `examples/capture_traffic.rs` taps them), and the R-GOOSE/R-SV datagrams
//! of a 2-substation multisub run. Each frame is split into its layers —
//! Ethernet, then ARP, IPv4, GOOSE or SV by ethertype, UDP or TCP by IP
//! protocol, the R-GOOSE session, TPKT/MMS or Modbus by port, and the
//! GOOSE or SV APDU inside a session — and each layer's bytes are fed,
//! mutated, to that layer's decoder and, where it accepts them, to every
//! decoder above it. The mutations: every truncation, every single-bit
//! flip, and each length field set to 0 and to its maximum: about 900,000
//! inputs, decoded in about a second in a debug build. One more mutation
//! deepens nesting: an MMS Write value and a GOOSE `allData` entry of
//! structures nested past the decoder's depth limit must be refused, not
//! recursed into until the stack overflows.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic

use sg_cyber_range::core::{fnv1a_64, CompiledModel, CyberRange, IedConfig, SgmlBundle};
use sg_cyber_range::iec61850::ber::{self, Tag};
use sg_cyber_range::iec61850::{
    DataValue, GoosePdu, MmsPdu, MmsRequest, SessionPacket, SessionPayloadType, SvPdu, TpktDecoder,
    MAX_DATA_DEPTH, MMS_PORT, RGOOSE_PORT,
};
use sg_cyber_range::ied::{GooseEntry, GooseSpec, RsvSpec};
use sg_cyber_range::modbus::{
    decode_request, decode_response, Request, StreamDecoder, MODBUS_PORT,
};
use sg_cyber_range::models::{epic_bundle, multisub_bundle, MultiSubParams};
use sg_cyber_range::net::{
    ethertype, ipproto, ArpPacket, EthernetFrame, Ipv4Packet, SimDuration, TcpSegment, UdpDatagram,
};
use std::collections::HashSet;
use std::panic;
use std::sync::{Arc, Mutex};

/// A protocol layer a decoder reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Layer {
    Ethernet,
    Arp,
    Ipv4,
    Udp,
    Tcp,
    Goose,
    Sv,
    /// The R-GOOSE/R-SV session header over UDP.
    Session,
    /// A TPKT-framed MMS stream over TCP.
    Tpkt,
    /// A Modbus TCP stream.
    Modbus,
}

const ALL_LAYERS: [Layer; 10] = [
    Layer::Ethernet,
    Layer::Arp,
    Layer::Ipv4,
    Layer::Udp,
    Layer::Tcp,
    Layer::Goose,
    Layer::Sv,
    Layer::Session,
    Layer::Tpkt,
    Layer::Modbus,
];

/// Runs `range` for `seconds` with capture taps on `hosts` and returns the
/// encoded bytes of every frame they delivered.
fn capture(mut range: CyberRange, hosts: &[&str], seconds: u64) -> Vec<Vec<u8>> {
    let nodes: Vec<_> = hosts.iter().map(|h| range.node(h).expect(h)).collect();
    for &node in &nodes {
        range.net.enable_capture(node);
    }
    range.run_for(SimDuration::from_secs(seconds));
    let frames = nodes.iter().flat_map(|&node| range.net.captured(node));
    frames.map(|c| c.frame.encode()).collect()
}

/// A 2-substation multisub bundle whose first IEDs talk across the WAN:
/// each publishes its breaker over GOOSE and R-GOOSE to the other and
/// streams its feeder current to it over R-SV.
fn cross_substation_bundle() -> SgmlBundle {
    let params = MultiSubParams {
        substations: 2,
        total_ieds: 4,
        interval_ms: 100,
    };
    let mut bundle = multisub_bundle(&params);
    let mut config = IedConfig::parse(bundle.ied_config.as_ref().unwrap()).unwrap();
    for (name, peer) in [("S1IED1", "10.2.0.10"), ("S2IED1", "10.1.0.10")] {
        let spec = config.ieds.iter_mut().find(|s| s.name == name).unwrap();
        let peers = vec![peer.parse().unwrap()];
        spec.rsv = Some(RsvSpec {
            sv_id: format!("{name}-SV"),
            current_key: spec.measurements[1].kv_key.clone(),
            peers: peers.clone(),
            subscribe_sv_id: None,
        });
        spec.goose = Some(GooseSpec {
            appid: 0x1000,
            gocb_ref: format!("{name}LD0/LLN0$GO$gcb01"),
            dataset: format!("{name}LD0/LLN0$ds01"),
            entries: vec![GooseEntry::BreakerState("CB1".into())],
            rgoose_peers: peers,
        });
    }
    bundle.ied_config = Some(config.to_xml());
    bundle
}

/// The frames carrying the R-GOOSE/R-SV datagrams between the two
/// substations of a multisub run for 2 s.
fn session_frames() -> Vec<Vec<u8>> {
    let multisub = CompiledModel::shared(&cross_substation_bundle()).unwrap();
    let multisub = CyberRange::instantiate(multisub).unwrap();
    let frames = capture(multisub, &["S1IED1", "S2IED1"], 2).into_iter();
    let sessions = frames.filter(|bytes| {
        let mut layers = layers(bytes).into_iter();
        layers.any(|(layer, _)| layer == Layer::Session)
    });
    sessions.collect()
}

/// The corpus: EPIC at SCADA and GIED1 for 5 s, and the session frames.
fn corpus() -> Vec<Vec<u8>> {
    let epic = CyberRange::instantiate(CompiledModel::shared(&epic_bundle()).unwrap()).unwrap();
    let mut frames = capture(epic, &["SCADA", "GIED1"], 5);
    frames.extend(session_frames());
    frames
}

/// The session frames' count and the FNV-1a digest of their bytes, one
/// after another. No journal records these bytes and EPIC sends no SV, so
/// this pins the GOOSE and SV encoders' output inside R-GOOSE and R-SV.
const SESSION_FRAMES: (usize, u64) = (72, 0x57bfafafa2f478e3);

#[test]
fn session_frames_are_byte_identical() {
    let frames = session_frames();
    assert_eq!((frames.len(), fnv1a_64(&frames.concat())), SESSION_FRAMES);
}

/// The layer an Ethernet payload is by its ethertype.
fn by_ethertype(ethertype: u16) -> Option<Layer> {
    match ethertype {
        ethertype::ARP => Some(Layer::Arp),
        ethertype::IPV4 => Some(Layer::Ipv4),
        ethertype::GOOSE => Some(Layer::Goose),
        ethertype::SV => Some(Layer::Sv),
        _ => None,
    }
}

/// The layer a TCP payload is by its ports.
fn by_tcp_port(segment: &TcpSegment) -> Option<Layer> {
    let ports = [segment.src_port, segment.dst_port];
    if ports.contains(&MMS_PORT) {
        Some(Layer::Tpkt)
    } else if ports.contains(&MODBUS_PORT) {
        Some(Layer::Modbus)
    } else {
        None
    }
}

/// Decodes `bytes` as `layer` and returns the layer its payload is, with
/// the payload, when the decoder accepts them and selects one. Decoders
/// with no layer above decode the whole way down: the MMS PDUs of a TPKT
/// stream, the requests of a Modbus stream and its responses to each of
/// `requests`.
fn decode(layer: Layer, bytes: &[u8], requests: &[Request]) -> Option<(Layer, Vec<u8>)> {
    match layer {
        Layer::Ethernet => {
            let frame = EthernetFrame::decode(bytes)?;
            Some((by_ethertype(frame.ethertype)?, frame.payload.to_vec()))
        }
        Layer::Arp => ArpPacket::decode(bytes).and(None),
        Layer::Ipv4 => {
            let packet = Ipv4Packet::decode(bytes)?;
            let next = match packet.protocol {
                ipproto::UDP => Layer::Udp,
                ipproto::TCP => Layer::Tcp,
                _ => return None,
            };
            Some((next, packet.payload.to_vec()))
        }
        Layer::Udp => {
            let datagram = UdpDatagram::decode(bytes)?;
            let rgoose = [datagram.src_port, datagram.dst_port].contains(&RGOOSE_PORT);
            rgoose.then(|| (Layer::Session, datagram.payload.to_vec()))
        }
        Layer::Tcp => {
            let segment = TcpSegment::decode(bytes)?;
            Some((by_tcp_port(&segment)?, segment.payload.to_vec()))
        }
        Layer::Goose => GoosePdu::decode(bytes).ok().and(None),
        Layer::Sv => SvPdu::decode(bytes).ok().and(None),
        Layer::Session => {
            let packet = SessionPacket::decode(bytes)?;
            let next = match packet.payload_type {
                SessionPayloadType::Goose => Layer::Goose,
                SessionPayloadType::Sv => Layer::Sv,
            };
            Some((next, packet.payload.to_vec()))
        }
        Layer::Tpkt => {
            TpktDecoder::new().feed(bytes, |pdu| {
                let _ = MmsPdu::decode(pdu);
            });
            None
        }
        Layer::Modbus => {
            for adu in StreamDecoder::new().feed(bytes) {
                let _ = decode_request(&adu.pdu);
                for request in requests {
                    let _ = decode_response(request, &adu.pdu);
                }
            }
            None
        }
    }
}

/// Decodes `bytes` as `layer` and on up through every layer it selects.
fn decode_up(mut layer: Layer, bytes: &[u8], requests: &[Request]) {
    let mut bytes = bytes.to_vec();
    while let Some((next, payload)) = decode(layer, &bytes, requests) {
        (layer, bytes) = (next, payload);
    }
}

/// A frame's layers, outermost first, each with its bytes.
fn layers(frame: &[u8]) -> Vec<(Layer, Vec<u8>)> {
    let mut out = vec![(Layer::Ethernet, frame.to_vec())];
    while let Some(next) = {
        let (layer, bytes) = out.last().expect("one layer");
        decode(*layer, bytes, &[])
    } {
        out.push(next);
    }
    out
}

/// `bytes` with the big-endian field of `width` bytes at `at` set to
/// `value`'s low bytes.
fn with_field(bytes: &[u8], at: usize, width: usize, value: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for (i, byte) in out[at..at + width].iter_mut().enumerate() {
        *byte = (value >> (8 * (width - 1 - i))) as u8;
    }
    out
}

/// The `(offset, width, maximum)` of every BER length field in `bytes`,
/// recursing into constructed elements; `base` is the offset of `bytes` in
/// the layer. A short-form length's maximum is 0x7f.
fn ber_lengths(bytes: &[u8], base: usize, out: &mut Vec<(usize, usize, u64)>) {
    let mut at = 0;
    while at + 2 <= bytes.len() {
        let (tag, first) = (bytes[at], bytes[at + 1]);
        let (field, width) = match first {
            0..=0x7f => (at + 1, 1),
            0x81..=0x84 => (at + 2, usize::from(first & 0x7f)),
            _ => return,
        };
        let Some(length) = bytes.get(field..field + width) else {
            return;
        };
        let length = length.iter().fold(0usize, |n, &b| n << 8 | usize::from(b));
        let start = field + width;
        let Some(end) = start.checked_add(length).filter(|&end| end <= bytes.len()) else {
            return;
        };
        let max = if first < 0x80 { 0x7f } else { u64::MAX };
        out.push((base + field, width, max));
        if tag & 0x20 != 0 {
            ber_lengths(&bytes[start..end], base + start, out);
        }
        at = end;
    }
}

/// Every length field of a layer's bytes as `(offset, width, maximum)`.
/// IPv4's IHL and TCP's data offset are nibbles and are set apart.
fn length_fields(layer: Layer, bytes: &[u8]) -> Vec<(usize, usize, u64)> {
    let mut fields = match layer {
        Layer::Ethernet | Layer::Tcp => vec![],
        Layer::Arp => vec![(4, 1, 0xff), (5, 1, 0xff)],
        Layer::Ipv4 => vec![(2, 2, 0xffff)],
        Layer::Udp => vec![(4, 2, 0xffff)],
        Layer::Goose | Layer::Sv => vec![(2, 2, 0xffff)],
        Layer::Session => vec![(0, 1, 0xff), (8, 2, 0xffff)],
        Layer::Tpkt => vec![(2, 2, 0xffff)],
        // The MBAP length, and the byte count a read response carries at
        // offset 8 and a write-multiple request at offset 12.
        Layer::Modbus => vec![(4, 2, 0xffff), (8, 1, 0xff), (12, 1, 0xff)],
    };
    let ber_at = match layer {
        Layer::Goose | Layer::Sv => Some(8),
        Layer::Tpkt => Some(4),
        _ => None,
    };
    if let Some(ber_at) = ber_at.filter(|&at| at <= bytes.len()) {
        ber_lengths(&bytes[ber_at..], ber_at, &mut fields);
    }
    fields.retain(|&(at, width, _)| at + width <= bytes.len());
    fields
}

/// Every mutation of a layer's bytes: each truncation, each single-bit
/// flip, and each length field at 0 and at its maximum.
fn mutations(layer: Layer, bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|len| bytes[..len].to_vec()).collect();
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        out.push(flipped);
    }
    for (at, width, max) in length_fields(layer, bytes) {
        out.push(with_field(bytes, at, width, 0));
        out.push(with_field(bytes, at, width, max));
    }
    let nibble = match layer {
        Layer::Ipv4 => Some((0, 0x0f)), // IHL, the low nibble
        Layer::Tcp => Some((12, 0xf0)), // data offset, the high nibble
        _ => None,
    };
    if let Some((at, mask)) = nibble.filter(|&(at, _)| at < bytes.len()) {
        for value in [0, mask] {
            let mut out_bytes = bytes.to_vec();
            out_bytes[at] = (out_bytes[at] & !mask) | value;
            out.push(out_bytes);
        }
    }
    out
}

#[test]
fn every_decoder_survives_every_mutation_of_captured_frames() {
    let frames = corpus();
    let requests: Vec<Request> = frames
        .iter()
        .flat_map(|frame| layers(frame))
        .filter(|(layer, _)| *layer == Layer::Modbus)
        .flat_map(|(_, bytes)| StreamDecoder::new().feed(&bytes))
        .filter_map(|adu| decode_request(&adu.pdu))
        .collect();

    // Encode∘decode gives back the captured bytes at the link, network
    // and transport layers.
    let mut seen = HashSet::new();
    for frame in &frames {
        for (layer, bytes) in layers(frame) {
            seen.insert(layer);
            let encoded = match layer {
                Layer::Ethernet => EthernetFrame::decode(&bytes).map(|f| f.encode()),
                Layer::Arp => ArpPacket::decode(&bytes).map(|p| p.encode().to_vec()),
                Layer::Ipv4 => {
                    Ipv4Packet::decode(&bytes).map(|p| [&p.header()[..], p.payload].concat())
                }
                Layer::Udp => {
                    UdpDatagram::decode(&bytes).map(|d| [&d.header()[..], d.payload].concat())
                }
                Layer::Tcp => {
                    TcpSegment::decode(&bytes).map(|s| [&s.header()[..], s.payload].concat())
                }
                _ => continue,
            };
            assert_eq!(encoded.as_ref(), Some(&bytes), "{layer:?} round trip");
        }
    }
    for layer in ALL_LAYERS {
        assert!(seen.contains(&layer), "the corpus holds no {layer:?} frame");
    }

    // A panic is caught, counted and described once, by the first one's
    // message, instead of printing each.
    let first_panic = Arc::new(Mutex::new(None));
    let hook_panic = first_panic.clone();
    panic::set_hook(Box::new(move |info| {
        let mut first = hook_panic.lock().unwrap();
        first.get_or_insert_with(|| info.to_string());
    }));
    let (mut decoded, mut panics) = (0usize, Vec::new());
    for frame in &frames {
        for (layer, bytes) in layers(frame) {
            for mutant in mutations(layer, &bytes) {
                decoded += 1;
                if panic::catch_unwind(|| decode_up(layer, &mutant, &requests)).is_err() {
                    panics.push(format!("{layer:?} {mutant:02x?}"));
                }
            }
        }
    }
    drop(panic::take_hook());
    assert!(decoded > 100_000, "only {decoded} mutants decoded");
    assert!(
        panics.is_empty(),
        "{} of {decoded} mutants panicked a decoder; the first, {}, panicked {}",
        panics.len(),
        panics[0],
        first_panic.lock().unwrap().as_deref().unwrap_or("")
    );
}

/// The BER bytes of `depth` MMS structures nested one in another, the
/// innermost empty. Built from the inside out, as a hostile peer would,
/// without a `DataValue` whose encoder and destructor would recurse.
fn nested_structures(depth: usize) -> Vec<u8> {
    let mut contents = Vec::with_capacity(depth);
    let mut length = 0;
    for _ in 0..depth {
        contents.push(length);
        let mut header = vec![Tag::context_constructed(2).0];
        ber::write_length(&mut header, length);
        length += header.len();
    }
    let mut out = Vec::with_capacity(length);
    for &length in contents.iter().rev() {
        out.push(Tag::context_constructed(2).0);
        ber::write_length(&mut out, length);
    }
    out
}

/// `bytes`, a run of BER elements, with the `len` bytes at `at` — one
/// whole element — replaced by `new` and every length enclosing it
/// re-encoded.
fn splice(bytes: &[u8], at: usize, len: usize, new: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let first = bytes[pos + 1];
        let (start, length) = match first {
            0..=0x7f => (pos + 2, usize::from(first)),
            _ => {
                let width = usize::from(first & 0x7f);
                let field = &bytes[pos + 2..pos + 2 + width];
                (
                    pos + 2 + width,
                    field.iter().fold(0, |n, &b| n << 8 | usize::from(b)),
                )
            }
        };
        let end = start + length;
        if pos == at {
            assert_eq!(end - pos, len, "the spliced element");
            out.extend_from_slice(new);
        } else if pos < at && at < end {
            let contents = splice(&bytes[start..end], at - start, len, new);
            out.push(bytes[pos]);
            ber::write_length(&mut out, contents.len());
            out.extend(contents);
        } else {
            out.extend_from_slice(&bytes[pos..end]);
        }
        pos = end;
    }
    out
}

/// `encoded` with the encoding of `placeholder` replaced by `value`.
fn with_value(encoded: &[u8], placeholder: &DataValue, value: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    placeholder.encode(&mut wire);
    let at = encoded.windows(wire.len()).position(|w| w == wire);
    splice(encoded, at.expect("the placeholder"), wire.len(), value)
}

#[test]
fn values_nested_past_the_depth_limit_are_refused() {
    let placeholder = DataValue::Str("nesting placeholder".into());
    let write = MmsPdu::ConfirmedRequest {
        invoke_id: 7,
        request: MmsRequest::Write {
            items: vec!["GIED1LD0/CSWI1$CO$Pos$Oper$ctlVal".into()],
            values: vec![placeholder.clone()],
        },
    }
    .encode();
    let goose = GoosePdu {
        gocb_ref: "GIED1LD0/LLN0$GO$gcb01".into(),
        time_allowed_to_live_ms: 2000,
        dat_set: "GIED1LD0/LLN0$ds01".into(),
        go_id: "GIED1".into(),
        t: 0,
        st_num: 1,
        sq_num: 0,
        simulation: false,
        conf_rev: 1,
        nds_com: false,
        all_data: vec![DataValue::Bool(true), placeholder.clone()],
    }
    .encode(0x1000);

    for depth in [MAX_DATA_DEPTH, MAX_DATA_DEPTH + 1, 16_000] {
        let value = nested_structures(depth);
        let refused = depth > MAX_DATA_DEPTH;

        let write = with_value(&write, &placeholder, &value);
        assert_eq!(
            MmsPdu::decode(&write).is_err(),
            refused,
            "MMS Write, depth {depth}"
        );

        // The APDU follows the 8-byte GOOSE header, whose length field
        // counts the whole payload.
        let mut payload = goose[..8].to_vec();
        payload.extend(with_value(&goose[8..], &placeholder, &value));
        let length = u16::try_from(payload.len()).expect("one frame");
        payload[2..4].copy_from_slice(&length.to_be_bytes());
        let decoded = GoosePdu::decode(&payload);
        assert_eq!(decoded.is_err(), refused, "GOOSE allData, depth {depth}");

        let datagram = SessionPacket {
            payload_type: SessionPayloadType::Goose,
            spdu_num: 1,
            payload: &payload,
        }
        .encode();
        let session = SessionPacket::decode(&datagram).expect("the session header decodes");
        let decoded = GoosePdu::decode(session.payload);
        assert_eq!(decoded.is_err(), refused, "R-GOOSE allData, depth {depth}");
    }
}
