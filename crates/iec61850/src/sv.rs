//! IEC 61850-9-2 Sampled Values: PDU codec and a fixed-rate publisher.
//!
//! The cyber range uses SV (and R-SV over UDP, see [`crate::rgoose`]) to
//! stream current/voltage measurements between IEDs — the paper's PDIF
//! differential protection compares local and remote R-SV currents.

use crate::ber::{self, BerError, Reader, Tag};
use crate::goose::{appid_payload, read_appid_payload};
use sgcr_net::{SimDuration, SimTime};

/// One ASDU (application service data unit) of a sampled-values message.
#[derive(Debug, Clone, PartialEq)]
pub struct SvAsdu {
    /// Sampled-values id.
    pub sv_id: String,
    /// Sample counter (wraps at the configured rate).
    pub smp_cnt: u16,
    /// Configuration revision.
    pub conf_rev: u32,
    /// Synchronization source (0 none, 1 local, 2 global).
    pub smp_synch: u8,
    /// The sample values (phase currents/voltages, magnitude-scaled).
    pub samples: Vec<f32>,
}

impl SvAsdu {
    fn encode(&self, out: &mut Vec<u8>) {
        ber::nest(out, Tag::SEQUENCE, |out| {
            ber::write_tlv(out, Tag::context(0), self.sv_id.as_bytes());
            ber::write_unsigned(out, Tag::context(1), u64::from(self.smp_cnt));
            ber::write_unsigned(out, Tag::context(2), u64::from(self.conf_rev));
            ber::write_tlv(out, Tag::context(3), &[self.smp_synch]);
            ber::nest(out, Tag::context(4), |out| {
                for s in &self.samples {
                    out.extend_from_slice(&s.to_be_bytes());
                }
            });
        });
    }

    fn decode(el: &ber::Element<'_>) -> Result<SvAsdu, BerError> {
        let mut r = Reader::new(el.contents);
        let sv_id = r.expect(Tag::context(0))?.as_str()?.to_string();
        let smp_cnt = r.expect(Tag::context(1))?.as_unsigned()? as u16;
        let conf_rev = r.expect(Tag::context(2))?.as_unsigned()? as u32;
        let smp_synch = *r
            .expect(Tag::context(3))?
            .contents
            .first()
            .ok_or(BerError::BadContent("smpSynch"))?;
        let seq = r.expect(Tag::context(4))?;
        if seq.contents.len() % 4 != 0 {
            return Err(BerError::BadContent("sample sequence length"));
        }
        let samples = seq
            .contents
            .chunks_exact(4)
            .map(|c| f32::from_be_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Ok(SvAsdu {
            sv_id,
            smp_cnt,
            conf_rev,
            smp_synch,
            samples,
        })
    }
}

/// A complete SV message (one or more ASDUs).
#[derive(Debug, Clone, PartialEq)]
pub struct SvPdu {
    /// The ASDUs.
    pub asdus: Vec<SvAsdu>,
}

impl SvPdu {
    /// Encodes the Ethernet payload (APPID header + savPdu).
    pub fn encode(&self, appid: u16) -> Vec<u8> {
        appid_payload(appid, |out| {
            ber::nest(out, Tag::application_constructed(0), |out| {
                ber::write_unsigned(out, Tag::context(0), self.asdus.len() as u64);
                ber::nest(out, Tag::context_constructed(2), |out| {
                    for asdu in &self.asdus {
                        asdu.encode(out);
                    }
                });
            });
        })
    }

    /// Decodes an SV Ethernet payload; returns `(appid, pdu)`.
    pub fn decode(payload: &[u8]) -> Result<(u16, SvPdu), BerError> {
        let (appid, mut r) = read_appid_payload(payload, Tag::application_constructed(0))?;
        let _count = r.expect(Tag::context(0))?.as_unsigned()?;
        let seq = r.expect(Tag::context_constructed(2))?;
        let asdus = seq.children().map(|child| SvAsdu::decode(&child?));
        let asdus = asdus.collect::<Result<_, _>>()?;
        Ok((appid, SvPdu { asdus }))
    }
}

/// A fixed-rate SV publisher for one stream.
#[derive(Debug)]
pub struct SvPublisher {
    /// Stream id.
    pub sv_id: String,
    /// APPID, in each payload's header.
    pub appid: u16,
    /// Publication interval.
    pub interval: SimDuration,
    smp_cnt: u16,
    /// Samples per second implied by `interval` (for smpCnt wrap).
    samples_per_second: u16,
}

impl SvPublisher {
    /// Creates a publisher emitting every `interval`.
    pub fn new(sv_id: &str, appid: u16, interval: SimDuration) -> SvPublisher {
        let samples_per_second = (1_000_000_000 / interval.as_nanos().max(1)) as u16;
        SvPublisher {
            sv_id: sv_id.to_string(),
            appid,
            interval,
            smp_cnt: 0,
            samples_per_second: samples_per_second.max(1),
        }
    }

    /// Builds the next payload (APPID header and savPdu) carrying
    /// `samples`: the bytes an SV frame or an R-SV session packet carries.
    pub fn emit(&mut self, samples: Vec<f32>) -> Vec<u8> {
        let pdu = SvPdu {
            asdus: vec![SvAsdu {
                sv_id: self.sv_id.clone(),
                smp_cnt: self.smp_cnt,
                conf_rev: 1,
                smp_synch: 2,
                samples,
            }],
        };
        self.smp_cnt = (self.smp_cnt + 1) % self.samples_per_second;
        pdu.encode(self.appid)
    }
}

/// Subscriber for one SV stream: keeps the latest samples.
#[derive(Debug)]
pub struct SvSubscriber {
    /// Stream id to accept.
    pub sv_id: String,
    /// Latest samples.
    pub samples: Vec<f32>,
    /// Last receive time.
    pub last_rx: Option<SimTime>,
    last_cnt: Option<u16>,
    /// Number of messages with a sample-count gap (diagnostics).
    pub gaps: u64,
}

impl SvSubscriber {
    /// Creates a subscriber.
    pub fn new(sv_id: &str) -> SvSubscriber {
        SvSubscriber {
            sv_id: sv_id.to_string(),
            samples: Vec::new(),
            last_rx: None,
            last_cnt: None,
            gaps: 0,
        }
    }

    /// Processes a received SV PDU; returns `true` if it carried our
    /// stream.
    pub fn process(&mut self, now: SimTime, pdu: &SvPdu) -> bool {
        let mut matched = false;
        for asdu in &pdu.asdus {
            if asdu.sv_id != self.sv_id {
                continue;
            }
            if let Some(last) = self.last_cnt {
                let expected = last.wrapping_add(1);
                if asdu.smp_cnt != expected && asdu.smp_cnt != 0 {
                    self.gaps += 1;
                }
            }
            self.last_cnt = Some(asdu.smp_cnt);
            self.samples.clone_from(&asdu.samples);
            self.last_rx = Some(now);
            matched = true;
        }
        matched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdu_roundtrip() {
        let pdu = SvPdu {
            asdus: vec![SvAsdu {
                sv_id: "GIED1-SV01".into(),
                smp_cnt: 37,
                conf_rev: 1,
                smp_synch: 2,
                samples: vec![1.0, -2.5, 3.25, 0.0],
            }],
        };
        let wire = pdu.encode(0x4001);
        let (appid, decoded) = SvPdu::decode(&wire).unwrap();
        assert_eq!(appid, 0x4001);
        assert_eq!(decoded, pdu);
    }

    #[test]
    fn publisher_counts_and_wraps() {
        let mut publisher = SvPublisher::new("s1", 1, SimDuration::from_millis(100));
        // 10 samples/second → smpCnt wraps at 10.
        let mut counts = Vec::new();
        for _ in 0..12 {
            let (_, pdu) = SvPdu::decode(&publisher.emit(vec![1.0])).unwrap();
            counts.push(pdu.asdus[0].smp_cnt);
        }
        assert_eq!(counts, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1]);
    }

    #[test]
    fn subscriber_tracks_latest_and_gaps() {
        let mut publisher = SvPublisher::new("s1", 1, SimDuration::from_millis(100));
        let mut subscriber = SvSubscriber::new("s1");
        let mut emit = |value| SvPdu::decode(&publisher.emit(vec![value])).unwrap().1;
        let (f1, f2, f3) = (emit(1.0), emit(2.0), emit(3.0));
        assert!(subscriber.process(SimTime::from_millis(0), &f1));
        // Drop f2; deliver f3: gap detected, latest value taken.
        assert!(subscriber.process(SimTime::from_millis(200), &f3));
        assert_eq!(subscriber.samples, vec![3.0]);
        assert_eq!(subscriber.gaps, 1);
        // f2 late delivery still processes (counts as another gap).
        assert!(subscriber.process(SimTime::from_millis(300), &f2));
        assert_eq!(subscriber.gaps, 2);
    }

    #[test]
    fn subscriber_ignores_foreign_streams() {
        let mut publisher = SvPublisher::new("other", 1, SimDuration::from_millis(100));
        let mut subscriber = SvSubscriber::new("mine");
        let (_, pdu) = SvPdu::decode(&publisher.emit(vec![9.0])).unwrap();
        assert!(!subscriber.process(SimTime::ZERO, &pdu));
        assert!(subscriber.samples.is_empty());
    }
}
