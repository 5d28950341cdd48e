//! Routable GOOSE and Routable Sampled Values (IEC TR 61850-90-5 style):
//! a thin session layer carrying GOOSE/SV APDUs over UDP for
//! inter-substation communication.
//!
//! The paper enables R-GOOSE/R-SV on virtual IEDs whose ICD defines
//! inter-substation protection (PDIF, CILO). Here the session header is a
//! simplified 90-5 shape: version, payload type, SPDU number (replay
//! detection), and SPDU length. Security (signatures) is out of scope, as in
//! the paper's range.

use sgcr_net::SimTime;

/// The UDP port used for R-GOOSE/R-SV sessions (IEC 61850-90-5 uses 102).
pub const RGOOSE_PORT: u16 = 102;

/// Payload type carried in a session packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SessionPayloadType {
    /// A GOOSE APDU (as produced by [`crate::GoosePdu::encode`]).
    Goose = 0x81,
    /// A sampled-values APDU (as produced by [`crate::SvPdu::encode`]).
    Sv = 0x82,
}

impl SessionPayloadType {
    fn from_u8(b: u8) -> Option<SessionPayloadType> {
        match b {
            0x81 => Some(SessionPayloadType::Goose),
            0x82 => Some(SessionPayloadType::Sv),
            _ => None,
        }
    }
}

/// A routable session packet, viewed in the bytes it was decoded from or
/// lent by its sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionPacket<'a> {
    /// What the payload is.
    pub payload_type: SessionPayloadType,
    /// Monotonic SPDU number for replay detection.
    pub spdu_num: u32,
    /// The embedded GOOSE/SV payload (APPID header + APDU).
    pub payload: &'a [u8],
}

impl<'a> SessionPacket<'a> {
    /// Serializes to UDP payload bytes: the header, then the payload, in
    /// one buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(10 + self.payload.len());
        out.push(0x01); // LI: parameter length
        out.push(0x40); // TI: transport unit data
        out.push(self.payload_type as u8);
        out.push(0x01); // session version
        out.extend_from_slice(&self.spdu_num.to_be_bytes());
        out.extend_from_slice(&(self.payload.len() as u16).to_be_bytes());
        out.extend_from_slice(self.payload);
        out
    }

    /// Parses from UDP payload bytes.
    pub fn decode(data: &'a [u8]) -> Option<SessionPacket<'a>> {
        if data.len() < 10 || data[0] != 0x01 || data[1] != 0x40 {
            return None;
        }
        let payload_type = SessionPayloadType::from_u8(data[2])?;
        let spdu_num = u32::from_be_bytes([data[4], data[5], data[6], data[7]]);
        let len = u16::from_be_bytes([data[8], data[9]]) as usize;
        let payload = data.get(10..10 + len)?;
        Some(SessionPacket {
            payload_type,
            spdu_num,
            payload,
        })
    }
}

/// Sender-side session state: assigns SPDU numbers.
#[derive(Debug, Default)]
pub struct SessionSender {
    next_spdu: u32,
}

impl SessionSender {
    /// Creates a sender starting at SPDU 1.
    pub fn new() -> SessionSender {
        SessionSender::default()
    }

    /// Wraps a GOOSE/SV payload into the next session packet.
    pub fn wrap<'a>(&mut self, kind: SessionPayloadType, payload: &'a [u8]) -> SessionPacket<'a> {
        self.next_spdu = self.next_spdu.wrapping_add(1);
        SessionPacket {
            payload_type: kind,
            spdu_num: self.next_spdu,
            payload,
        }
    }
}

/// Receiver-side session state: drops replays/stale SPDUs.
#[derive(Debug, Default)]
pub struct SessionReceiver {
    highest_spdu: Option<u32>,
    /// Packets rejected as replays (diagnostics).
    pub replays_dropped: u64,
    /// Last accepted packet time.
    pub last_rx: Option<SimTime>,
}

impl SessionReceiver {
    /// Creates an empty receiver.
    pub fn new() -> SessionReceiver {
        SessionReceiver::default()
    }

    /// Validates a packet: whether it is fresh. A replayed or stale SPDU
    /// is counted and refused.
    pub fn accept(&mut self, now: SimTime, packet: &SessionPacket<'_>) -> bool {
        if let Some(highest) = self.highest_spdu {
            if packet.spdu_num <= highest {
                self.replays_dropped += 1;
                return false;
            }
        }
        self.highest_spdu = Some(packet.spdu_num);
        self.last_rx = Some(now);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_roundtrip() {
        let packet = SessionPacket {
            payload_type: SessionPayloadType::Goose,
            spdu_num: 77,
            payload: &[1, 2, 3, 4, 5],
        };
        assert_eq!(SessionPacket::decode(&packet.encode()), Some(packet));
    }

    #[test]
    fn malformed_rejected() {
        assert_eq!(SessionPacket::decode(&[]), None);
        assert_eq!(
            SessionPacket::decode(&[0x01, 0x40, 0x99, 1, 0, 0, 0, 1, 0, 0]),
            None
        );
        // Truncated payload.
        let packet = SessionPacket {
            payload_type: SessionPayloadType::Sv,
            spdu_num: 1,
            payload: &[9; 20],
        };
        let wire = packet.encode();
        assert_eq!(SessionPacket::decode(&wire[..wire.len() - 1]), None);
    }

    #[test]
    fn sender_receiver_replay_protection() {
        let mut sender = SessionSender::new();
        let mut receiver = SessionReceiver::new();
        let now = SimTime::from_millis(1);
        let p1 = sender.wrap(SessionPayloadType::Goose, &[1]);
        let p2 = sender.wrap(SessionPayloadType::Goose, &[2]);
        assert!(receiver.accept(now, &p1));
        assert!(receiver.accept(now, &p2));
        // Replay of p1 is dropped.
        assert!(!receiver.accept(now, &p1));
        assert_eq!(receiver.replays_dropped, 1);
    }
}
