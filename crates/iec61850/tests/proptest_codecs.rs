//! Property tests on the IEC 61850 codecs: roundtrips for every PDU family
//! and no-panic robustness against arbitrary bytes (attack surfaces: these
//! decoders face hostile traffic inside the cyber range).

use proptest::prelude::*;
use sgcr_iec61850::ber::{self, Reader, Tag};
use sgcr_iec61850::{
    DataValue, GoosePdu, MmsPdu, MmsRequest, MmsResponse, SessionPacket, SvAsdu, SvPdu,
};

fn item_id_strategy() -> impl Strategy<Value = String> {
    ("[A-Z][A-Z0-9]{0,8}", "[A-Z]{4}[0-9]", "[A-Za-z0-9$]{1,20}")
        .prop_map(|(ld, ln, rest)| format!("{ld}LD0/{ln}$ST${rest}"))
}

fn data_value_strategy() -> impl Strategy<Value = DataValue> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(DataValue::Bool),
        any::<i64>().prop_map(DataValue::Int),
        any::<u64>().prop_map(DataValue::Uint),
        any::<f32>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(DataValue::Float),
        "[ -~]{0,24}".prop_map(DataValue::Str),
        (1u8..16, proptest::collection::vec(any::<u8>(), 1..2)).prop_map(|(bits, data)| {
            DataValue::BitString {
                bits: bits.min(8),
                data,
            }
        }),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        proptest::collection::vec(inner, 0..3).prop_map(DataValue::Struct)
    })
}

proptest! {
    #[test]
    fn ber_integer_roundtrip(v in any::<i64>()) {
        let mut wire = Vec::new();
        ber::write_integer(&mut wire, Tag::universal(0x02), v);
        let el = Reader::new(&wire).read_element().expect("one element");
        prop_assert_eq!(el.as_integer(), Ok(v));
    }

    #[test]
    fn ber_unsigned_roundtrip(v in any::<u64>()) {
        let mut wire = Vec::new();
        ber::write_unsigned(&mut wire, Tag::universal(0x02), v);
        let el = Reader::new(&wire).read_element().expect("one element");
        prop_assert_eq!(el.as_unsigned(), Ok(v));
    }

    #[test]
    fn ber_nest_equals_write_tlv(tag in 0u8..31, contents in proptest::collection::vec(any::<u8>(), 0..300)) {
        let (mut nested, mut written) = (Vec::new(), Vec::new());
        ber::nest(&mut nested, Tag::context_constructed(tag), |out| out.extend_from_slice(&contents));
        ber::write_tlv(&mut written, Tag::context_constructed(tag), &contents);
        prop_assert_eq!(nested, written);
    }

    #[test]
    fn ber_tlv_roundtrip(tag in 0u8..31, contents in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut wire = Vec::new();
        ber::write_tlv(&mut wire, Tag::context(tag), &contents);
        let mut reader = Reader::new(&wire);
        let el = reader.read_element().expect("roundtrip");
        prop_assert_eq!(el.contents, &contents[..]);
        prop_assert!(reader.is_empty());
    }

    #[test]
    fn ber_reader_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let mut reader = Reader::new(&bytes);
        while let Ok(el) = reader.read_element() {
            // Exercise the accessors too.
            let _ = el.as_integer();
            let _ = el.as_str();
            let _ = el.children().count();
            if reader.is_empty() { break; }
        }
    }

    #[test]
    fn data_value_roundtrip(v in data_value_strategy()) {
        let mut wire = Vec::new();
        v.encode(&mut wire);
        let mut reader = Reader::new(&wire);
        let el = reader.read_element().expect("encoded element");
        let decoded = DataValue::decode(&el).expect("decodes");
        // BitString bit counts are normalized to the stored byte length.
        match (&v, &decoded) {
            (DataValue::BitString { data: a, .. }, DataValue::BitString { data: b, .. }) => {
                prop_assert_eq!(a, b);
            }
            _ => prop_assert_eq!(&v, &decoded),
        }
    }

    #[test]
    fn mms_request_roundtrip(
        invoke_id in any::<u32>(),
        items in proptest::collection::vec(item_id_strategy(), 1..5),
        values in proptest::collection::vec(data_value_strategy(), 1..5),
    ) {
        let n = items.len().min(values.len());
        let pdus = vec![
            MmsPdu::ConfirmedRequest {
                invoke_id,
                request: MmsRequest::Read { items: items.clone() },
            },
            MmsPdu::ConfirmedRequest {
                invoke_id,
                request: MmsRequest::Write {
                    items: items[..n].to_vec(),
                    values: values[..n].to_vec(),
                },
            },
            MmsPdu::ConfirmedResponse {
                invoke_id,
                response: MmsResponse::GetNameList {
                    identifiers: items.clone(),
                    more_follows: false,
                },
            },
        ];
        for pdu in pdus {
            let wire = pdu.encode();
            let decoded = MmsPdu::decode(&wire).expect("roundtrip");
            // Write payloads may contain BitStrings whose bit-count is
            // normalized; compare via re-encoding.
            prop_assert_eq!(decoded.encode(), wire);
        }
    }

    #[test]
    fn mms_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = MmsPdu::decode(&bytes);
    }

    #[test]
    fn goose_roundtrip(
        st_num in any::<u32>(),
        sq_num in any::<u32>(),
        ttl in 1u32..60000,
        data in proptest::collection::vec(any::<bool>().prop_map(DataValue::Bool), 0..6),
    ) {
        let pdu = GoosePdu {
            gocb_ref: "IEDXLD0/LLN0$GO$gcb".into(),
            time_allowed_to_live_ms: ttl,
            dat_set: "IEDXLD0/LLN0$DS".into(),
            go_id: "IEDX".into(),
            t: 55_000_000,
            st_num,
            sq_num,
            simulation: false,
            conf_rev: 1,
            nds_com: false,
            all_data: data,
        };
        let wire = pdu.encode(0x3abc);
        let (appid, decoded) = GoosePdu::decode(&wire).expect("roundtrip");
        prop_assert_eq!(appid, 0x3abc);
        prop_assert_eq!(decoded.st_num, st_num);
        prop_assert_eq!(decoded.sq_num, sq_num);
        prop_assert_eq!(decoded.all_data, pdu.all_data);
    }

    #[test]
    fn goose_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = GoosePdu::decode(&bytes);
    }

    #[test]
    fn sv_roundtrip(samples in proptest::collection::vec(
        any::<f32>().prop_filter("finite", |f| f.is_finite()), 0..12
    ), smp_cnt in any::<u16>()) {
        let pdu = SvPdu {
            asdus: vec![SvAsdu {
                sv_id: "streamX".into(),
                smp_cnt,
                conf_rev: 1,
                smp_synch: 2,
                samples: samples.clone(),
            }],
        };
        let wire = pdu.encode(0x4abc);
        let (_, decoded) = SvPdu::decode(&wire).expect("roundtrip");
        prop_assert_eq!(&decoded.asdus[0].samples, &samples);
        prop_assert_eq!(decoded.asdus[0].smp_cnt, smp_cnt);
    }

    #[test]
    fn sv_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = SvPdu::decode(&bytes);
    }

    #[test]
    fn session_packet_roundtrip(spdu in any::<u32>(), payload in proptest::collection::vec(any::<u8>(), 0..200)) {
        let packet = SessionPacket {
            payload_type: sgcr_iec61850::SessionPayloadType::Goose,
            spdu_num: spdu,
            payload: &payload,
        };
        let wire = packet.encode();
        prop_assert_eq!(SessionPacket::decode(&wire), Some(packet));
    }

    #[test]
    fn session_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..100)) {
        let _ = SessionPacket::decode(&bytes);
    }
}
