//! GOOSE (Generic Object Oriented Substation Event) publish/subscribe:
//! PDU codec, publisher retransmission state machine, and subscriber with
//! stNum/sqNum tracking and TTL supervision.

use crate::ber::{self, BerError, Reader, Tag};
use crate::model::DataValue;
use sgcr_net::{ethertype, EthernetFrame, MacAddr, SimDuration, SimTime};

/// A GOOSE application PDU (IEC 61850-8-1 `IECGoosePdu` subset).
#[derive(Debug, Clone, PartialEq)]
pub struct GoosePdu {
    /// GOOSE control block reference (`IED/LLN0$GO$gcb1`).
    pub gocb_ref: String,
    /// Time allowed to live in milliseconds (subscriber supervision).
    pub time_allowed_to_live_ms: u32,
    /// Dataset reference.
    pub dat_set: String,
    /// GOOSE id.
    pub go_id: String,
    /// Timestamp of the last status change (simulation nanoseconds).
    pub t: u64,
    /// State number: increments on every data change.
    pub st_num: u32,
    /// Sequence number: increments on every retransmission.
    pub sq_num: u32,
    /// Simulation/test flag.
    pub simulation: bool,
    /// Configuration revision.
    pub conf_rev: u32,
    /// Needs-commissioning flag.
    pub nds_com: bool,
    /// The dataset values.
    pub all_data: Vec<DataValue>,
}

impl GoosePdu {
    /// Encodes the PDU body (the `goosePdu` APDU with its APPID header).
    pub fn encode(&self, appid: u16) -> Vec<u8> {
        appid_payload(appid, |out| {
            ber::nest(out, Tag::application_constructed(1), |out| {
                ber::write_tlv(out, Tag::context(0), self.gocb_ref.as_bytes());
                let ttl = u64::from(self.time_allowed_to_live_ms);
                ber::write_unsigned(out, Tag::context(1), ttl);
                ber::write_tlv(out, Tag::context(2), self.dat_set.as_bytes());
                ber::write_tlv(out, Tag::context(3), self.go_id.as_bytes());
                ber::write_utc_time(out, Tag::context(4), self.t);
                ber::write_unsigned(out, Tag::context(5), u64::from(self.st_num));
                ber::write_unsigned(out, Tag::context(6), u64::from(self.sq_num));
                ber::write_tlv(out, Tag::context(7), &[u8::from(self.simulation)]);
                ber::write_unsigned(out, Tag::context(8), u64::from(self.conf_rev));
                ber::write_tlv(out, Tag::context(9), &[u8::from(self.nds_com)]);
                ber::write_unsigned(out, Tag::context(10), self.all_data.len() as u64);
                ber::nest(out, Tag::context_constructed(11), |out| {
                    for v in &self.all_data {
                        v.encode(out);
                    }
                });
            });
        })
    }

    /// Decodes a GOOSE Ethernet payload; returns `(appid, pdu)`.
    pub fn decode(payload: &[u8]) -> Result<(u16, GoosePdu), BerError> {
        let (appid, mut r) = read_appid_payload(payload, Tag::application_constructed(1))?;
        let gocb_ref = r.expect(Tag::context(0))?.as_str()?.to_string();
        let ttl = r.expect(Tag::context(1))?.as_unsigned()? as u32;
        let dat_set = r.expect(Tag::context(2))?.as_str()?.to_string();
        let go_id = r.expect(Tag::context(3))?.as_str()?.to_string();
        let t = ber::decode_utc_time(r.expect(Tag::context(4))?.contents)?;
        let st_num = r.expect(Tag::context(5))?.as_unsigned()? as u32;
        let sq_num = r.expect(Tag::context(6))?.as_unsigned()? as u32;
        let simulation = r.expect(Tag::context(7))?.as_bool()?;
        let conf_rev = r.expect(Tag::context(8))?.as_unsigned()? as u32;
        let nds_com = r.expect(Tag::context(9))?.as_bool()?;
        let _num_entries = r.expect(Tag::context(10))?.as_unsigned()?;
        let data_el = r.expect(Tag::context_constructed(11))?;
        let all_data = data_el.children().map(|child| DataValue::decode(&child?));
        let all_data = all_data.collect::<Result<_, _>>()?;
        Ok((
            appid,
            GoosePdu {
                gocb_ref,
                time_allowed_to_live_ms: ttl,
                dat_set,
                go_id,
                t,
                st_num,
                sq_num,
                simulation,
                conf_rev,
                nds_com,
                all_data,
            },
        ))
    }
}

/// A GOOSE or SV Ethernet payload: the 8-byte header (APPID, length, two
/// reserved words), then the APDU `apdu` writes. The header's length counts
/// the whole payload.
pub(crate) fn appid_payload(appid: u16, apdu: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    ber::encode_exact(|out| {
        out.extend_from_slice(&appid.to_be_bytes());
        out.extend_from_slice(&[0; 6]);
        apdu(out);
        let len = out.len() as u16;
        out[2..4].copy_from_slice(&len.to_be_bytes());
    })
}

/// The APPID of a GOOSE or SV Ethernet payload, and a reader over the
/// contents of its APDU, which must carry `tag`.
pub(crate) fn read_appid_payload(payload: &[u8], tag: Tag) -> Result<(u16, Reader<'_>), BerError> {
    let [hi, lo, _, _, _, _, _, _, apdu @ ..] = payload else {
        return Err(BerError::Truncated);
    };
    Ok((
        u16::from_be_bytes([*hi, *lo]),
        Reader::new(apdu).expect(tag)?.children(),
    ))
}

/// Publisher configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GooseConfig {
    /// Control block reference.
    pub gocb_ref: String,
    /// Dataset reference.
    pub dat_set: String,
    /// GOOSE id.
    pub go_id: String,
    /// APPID (also selects the multicast MAC).
    pub appid: u16,
    /// Configuration revision.
    pub conf_rev: u32,
    /// Fastest retransmission interval after a change.
    pub min_time: SimDuration,
    /// Steady-state heartbeat interval.
    pub max_time: SimDuration,
}

impl GooseConfig {
    /// A typical protection-grade configuration (4 ms fast, 1 s heartbeat).
    pub fn new(gocb_ref: &str, dat_set: &str, go_id: &str, appid: u16) -> GooseConfig {
        GooseConfig {
            gocb_ref: gocb_ref.to_string(),
            dat_set: dat_set.to_string(),
            go_id: go_id.to_string(),
            appid,
            conf_rev: 1,
            min_time: SimDuration::from_millis(4),
            max_time: SimDuration::from_millis(1000),
        }
    }
}

/// Publisher state machine implementing the standard retransmission curve:
/// on change, transmissions at `min_time` doubling up to `max_time`, then a
/// steady heartbeat at `max_time`.
#[derive(Debug)]
pub struct GoosePublisher {
    /// The PDU of the current state — the configuration's names and
    /// revision, the dataset and its counters — which every
    /// (re)transmission encodes.
    pdu: GoosePdu,
    appid: u16,
    min_time: SimDuration,
    max_time: SimDuration,
    t_change: u64,
    next_interval: SimDuration,
}

impl GoosePublisher {
    /// Creates a publisher with initial dataset values.
    pub fn new(config: GooseConfig, initial_data: Vec<DataValue>) -> GoosePublisher {
        let GooseConfig {
            gocb_ref,
            dat_set,
            go_id,
            appid,
            conf_rev,
            min_time,
            max_time,
        } = config;
        let pdu = GoosePdu {
            gocb_ref,
            time_allowed_to_live_ms: 0,
            dat_set,
            go_id,
            t: 0,
            st_num: 1,
            sq_num: 0,
            simulation: false,
            conf_rev,
            nds_com: false,
            all_data: initial_data,
        };
        GoosePublisher {
            pdu,
            appid,
            min_time,
            max_time,
            t_change: 0,
            next_interval: min_time,
        }
    }

    /// The control block reference the publisher sends under.
    pub fn gocb_ref(&self) -> &str {
        &self.pdu.gocb_ref
    }

    /// Current dataset values.
    pub fn data(&self) -> &[DataValue] {
        &self.pdu.all_data
    }

    /// Current state number.
    pub fn st_num(&self) -> u32 {
        self.pdu.st_num
    }

    /// Updates the dataset. If the values changed, the state number bumps,
    /// the sequence resets, and the retransmission curve restarts.
    /// Returns `true` if a change was detected.
    pub fn update(&mut self, now: SimTime, data: Vec<DataValue>) -> bool {
        if data == self.pdu.all_data {
            return false;
        }
        self.pdu.all_data = data;
        self.pdu.st_num = self.pdu.st_num.wrapping_add(1);
        self.pdu.sq_num = 0;
        self.t_change = now.as_nanos();
        self.next_interval = self.min_time;
        true
    }

    /// Builds the frame for the current (re)transmission and advances the
    /// sequence/backoff state. Call at each scheduled transmission time.
    pub fn emit(&mut self, now: SimTime, src_mac: MacAddr) -> (EthernetFrame, SimDuration) {
        let pdu = &mut self.pdu;
        pdu.time_allowed_to_live_ms = (self.next_interval.as_millis() * 2).max(10) as u32;
        pdu.t = match self.t_change {
            0 => now.as_nanos(),
            t_change => t_change,
        };
        let payload = pdu.encode(self.appid);
        pdu.sq_num = pdu.sq_num.wrapping_add(1);
        let wait = self.next_interval;
        // Double toward the heartbeat interval.
        let doubled = SimDuration::from_nanos(self.next_interval.as_nanos().saturating_mul(2));
        self.next_interval = doubled.min(self.max_time);

        let mut frame = EthernetFrame::new(
            MacAddr::goose_multicast(self.appid),
            src_mac,
            ethertype::GOOSE,
            payload,
        );
        frame.vlan = Some(0);
        (frame, wait)
    }
}

/// What a subscriber concluded about a received GOOSE PDU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GooseObservation {
    /// New state (data changed): act on it.
    StateChange,
    /// Retransmission of the current state.
    Retransmission,
    /// Stale or replayed message (stNum went backwards).
    OutOfOrder {
        /// The highest stNum seen so far.
        expected_st_num: u32,
    },
}

/// Subscriber: filters by gocbRef, tracks stNum/sqNum, and supervises TTL.
#[derive(Debug)]
pub struct GooseSubscriber {
    /// The gocbRef to accept.
    pub gocb_ref: String,
    last_st_num: Option<u32>,
    last_rx: Option<SimTime>,
    last_ttl: SimDuration,
    /// Latest accepted dataset.
    pub data: Vec<DataValue>,
}

impl GooseSubscriber {
    /// Creates a subscriber for one control block.
    pub fn new(gocb_ref: &str) -> GooseSubscriber {
        GooseSubscriber {
            gocb_ref: gocb_ref.to_string(),
            last_st_num: None,
            last_rx: None,
            last_ttl: SimDuration::from_millis(2000),
            data: Vec::new(),
        }
    }

    /// Processes a received GOOSE PDU; `None` if it is not ours.
    pub fn process(&mut self, now: SimTime, pdu: &GoosePdu) -> Option<GooseObservation> {
        if pdu.gocb_ref != self.gocb_ref {
            return None;
        }
        self.last_rx = Some(now);
        self.last_ttl = SimDuration::from_millis(u64::from(pdu.time_allowed_to_live_ms));
        let observation = match self.last_st_num {
            Some(last) if pdu.st_num == last => GooseObservation::Retransmission,
            Some(last) if pdu.st_num < last => {
                return Some(GooseObservation::OutOfOrder {
                    expected_st_num: last,
                })
            }
            _ => GooseObservation::StateChange,
        };
        self.last_st_num = Some(pdu.st_num);
        self.data.clone_from(&pdu.all_data);
        Some(observation)
    }

    /// Whether the stream's TTL has expired (publisher presumed dead).
    pub fn is_expired(&self, now: SimTime) -> bool {
        match self.last_rx {
            Some(last) => now.saturating_sub(last) > self.last_ttl + self.last_ttl,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_pdu() -> GoosePdu {
        GoosePdu {
            gocb_ref: "GIED1LD0/LLN0$GO$gcb01".into(),
            time_allowed_to_live_ms: 2000,
            dat_set: "GIED1LD0/LLN0$GOOSE1".into(),
            go_id: "GIED1_GOOSE1".into(),
            t: 123_456_789_000,
            st_num: 5,
            sq_num: 2,
            simulation: false,
            conf_rev: 1,
            nds_com: false,
            all_data: vec![DataValue::Bool(true), DataValue::dbpos_on()],
        }
    }

    #[test]
    fn pdu_roundtrip() {
        let pdu = sample_pdu();
        let wire = pdu.encode(0x3001);
        let (appid, decoded) = GoosePdu::decode(&wire).unwrap();
        assert_eq!(appid, 0x3001);
        // Timestamp precision: compare within 100 ns.
        assert!((decoded.t as i128 - pdu.t as i128).abs() < 100);
        let mut norm = decoded.clone();
        norm.t = pdu.t;
        assert_eq!(norm, pdu);
    }

    #[test]
    fn truncated_pdu_rejected() {
        let wire = sample_pdu().encode(1);
        for cut in 0..wire.len().min(30) {
            assert!(GoosePdu::decode(&wire[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn publisher_retransmission_curve() {
        let config = GooseConfig::new("gcb", "ds", "id", 1);
        let mut publisher = GoosePublisher::new(config, vec![DataValue::Bool(false)]);
        let src = MacAddr::from_index(1);
        let now = SimTime::from_millis(10);

        // First emissions double the interval: 4, 8, 16 … up to 1000 ms.
        let mut intervals = Vec::new();
        for _ in 0..12 {
            let (_, wait) = publisher.emit(now, src);
            intervals.push(wait.as_millis());
        }
        assert_eq!(&intervals[..8], &[4, 8, 16, 32, 64, 128, 256, 512]);
        assert!(intervals[8..].iter().all(|&w| w == 1000));

        // sqNum increments on retransmission; stNum stable.
        let (frame, _) = publisher.emit(now, src);
        let (_, pdu) = GoosePdu::decode(&frame.payload).unwrap();
        assert_eq!(pdu.st_num, 1);
        assert_eq!(pdu.sq_num, 12);
    }

    #[test]
    fn publisher_change_restarts_curve() {
        let config = GooseConfig::new("gcb", "ds", "id", 1);
        let mut publisher = GoosePublisher::new(config, vec![DataValue::Bool(false)]);
        let src = MacAddr::from_index(1);
        for _ in 0..5 {
            publisher.emit(SimTime::from_millis(1), src);
        }
        // No-op update: nothing changes.
        assert!(!publisher.update(SimTime::from_millis(50), vec![DataValue::Bool(false)]));
        // Real change: stNum bumps, sqNum resets, interval back to min.
        assert!(publisher.update(SimTime::from_millis(60), vec![DataValue::Bool(true)]));
        let (frame, wait) = publisher.emit(SimTime::from_millis(60), src);
        let (_, pdu) = GoosePdu::decode(&frame.payload).unwrap();
        assert_eq!(pdu.st_num, 2);
        assert_eq!(pdu.sq_num, 0);
        assert_eq!(wait.as_millis(), 4);
        // Timestamp survives the 24-bit-fraction encoding to within 100 ns.
        let expected = SimTime::from_millis(60).as_nanos() as i128;
        assert!((pdu.t as i128 - expected).abs() < 100);
    }

    #[test]
    fn subscriber_classifies_messages() {
        let config = GooseConfig::new("gcb", "ds", "id", 1);
        let mut publisher = GoosePublisher::new(config, vec![DataValue::Bool(false)]);
        let mut subscriber = GooseSubscriber::new("gcb");
        let src = MacAddr::from_index(1);
        let t = SimTime::from_millis(5);

        let emit = |publisher: &mut GoosePublisher| {
            let (frame, _) = publisher.emit(t, src);
            GoosePdu::decode(&frame.payload).unwrap().1
        };
        let p1 = emit(&mut publisher);
        assert_eq!(
            subscriber.process(t, &p1),
            Some(GooseObservation::StateChange)
        );
        let p2 = emit(&mut publisher);
        assert_eq!(
            subscriber.process(t, &p2),
            Some(GooseObservation::Retransmission)
        );
        // Replay of the first frame after a state change → out of order.
        publisher.update(t, vec![DataValue::Bool(true)]);
        let p3 = emit(&mut publisher);
        assert_eq!(
            subscriber.process(t, &p3),
            Some(GooseObservation::StateChange)
        );
        assert_eq!(
            subscriber.process(t, &p1),
            Some(GooseObservation::OutOfOrder { expected_st_num: 2 })
        );
        assert_eq!(subscriber.data, vec![DataValue::Bool(true)]);
    }

    #[test]
    fn subscriber_ignores_other_gocb() {
        let config = GooseConfig::new("other-gcb", "ds", "id", 1);
        let mut publisher = GoosePublisher::new(config, vec![]);
        let mut subscriber = GooseSubscriber::new("my-gcb");
        let (frame, _) = publisher.emit(SimTime::ZERO, MacAddr::from_index(1));
        let (_, pdu) = GoosePdu::decode(&frame.payload).unwrap();
        assert_eq!(subscriber.process(SimTime::ZERO, &pdu), None);
    }

    #[test]
    fn ttl_expiry_detection() {
        let config = GooseConfig::new("gcb", "ds", "id", 1);
        let mut publisher = GoosePublisher::new(config, vec![DataValue::Bool(true)]);
        let mut subscriber = GooseSubscriber::new("gcb");
        let (frame, _) = publisher.emit(SimTime::from_millis(0), MacAddr::from_index(1));
        let (_, pdu) = GoosePdu::decode(&frame.payload).unwrap();
        subscriber.process(SimTime::from_millis(0), &pdu);
        assert!(!subscriber.is_expired(SimTime::from_millis(10)));
        // TTL was ~10 ms (2x min interval); far future must be expired.
        assert!(subscriber.is_expired(SimTime::from_secs(30)));
    }
}
