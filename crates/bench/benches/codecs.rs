//! Micro-benchmarks of the protocol codecs: MMS, GOOSE, SV, Modbus — the
//! per-message costs behind every virtual-device interaction.

use criterion::{criterion_group, criterion_main, Criterion};
use sgcr_iec61850::{DataValue, GoosePdu, MmsPdu, MmsRequest, MmsResponse, SvAsdu, SvPdu};
use sgcr_modbus::{decode_request, encode_request, Request};

fn sample_goose() -> GoosePdu {
    GoosePdu {
        gocb_ref: "GIED1LD0/LLN0$GO$gcb01".into(),
        time_allowed_to_live_ms: 2000,
        dat_set: "GIED1LD0/LLN0$DSGoose".into(),
        go_id: "GIED1".into(),
        t: 123_456_789_000,
        st_num: 7,
        sq_num: 3,
        simulation: false,
        conf_rev: 1,
        nds_com: false,
        all_data: vec![
            DataValue::Bool(true),
            DataValue::Bool(false),
            DataValue::dbpos_on(),
            DataValue::Float(1.25),
        ],
    }
}

fn bench_codecs(c: &mut Criterion) {
    c.bench_function("goose_encode", |b| {
        let pdu = sample_goose();
        b.iter(|| pdu.encode(0x3001));
    });
    c.bench_function("goose_decode", |b| {
        let wire = sample_goose().encode(0x3001);
        b.iter(|| GoosePdu::decode(&wire).expect("decodes"));
    });

    let read = MmsPdu::ConfirmedRequest {
        invoke_id: 42,
        request: MmsRequest::Read {
            items: vec![
                "GIED1LD0/MMXU1$MX$TotW$mag$f".into(),
                "GIED1LD0/XCBR1$ST$Pos$stVal".into(),
                "GIED1LD0/PTOC1$ST$Op$general".into(),
            ],
        },
    };
    c.bench_function("mms_read_request_encode", |b| {
        b.iter(|| read.encode());
    });
    let response = MmsPdu::ConfirmedResponse {
        invoke_id: 42,
        response: MmsResponse::Read {
            results: vec![
                Ok(DataValue::Float(12.5)),
                Ok(DataValue::dbpos_on()),
                Ok(DataValue::Bool(false)),
            ],
        },
    };
    let wire = response.encode();
    c.bench_function("mms_read_response_decode", |b| {
        b.iter(|| MmsPdu::decode(&wire).expect("decodes"));
    });

    let write = MmsPdu::ConfirmedRequest {
        invoke_id: 43,
        request: MmsRequest::Write {
            items: vec!["GIED1LD0/CSWI1$CO$Pos$Oper$ctlVal".into()],
            values: vec![DataValue::Bool(false)],
        },
    };
    c.bench_function("mms_write_request_encode", |b| {
        b.iter(|| write.encode());
    });
    let report = MmsPdu::InformationReport {
        report_name: "GIED1LD0/LLN0$BR$brcb01".into(),
        entries: vec![
            ("GIED1LD0/PTOC1$ST$Op$general".into(), DataValue::Bool(true)),
            ("GIED1LD0/XCBR1$ST$Pos$stVal".into(), DataValue::dbpos_off()),
        ],
    };
    c.bench_function("mms_information_report_encode", |b| {
        b.iter(|| report.encode());
    });

    let sv = SvPdu {
        asdus: vec![SvAsdu {
            sv_id: "S1IED1-SV".into(),
            smp_cnt: 7,
            conf_rev: 1,
            smp_synch: 2,
            samples: vec![1.25, -0.5, 0.75, 230.0],
        }],
    };
    c.bench_function("sv_encode", |b| {
        b.iter(|| sv.encode(0x4001));
    });
    let wire = sv.encode(0x4001);
    c.bench_function("sv_decode", |b| {
        b.iter(|| SvPdu::decode(&wire).expect("decodes"));
    });

    let request = Request::ReadInputRegisters {
        address: 0,
        count: 16,
    };
    c.bench_function("modbus_request_roundtrip", |b| {
        b.iter(|| {
            let wire = encode_request(&request);
            decode_request(&wire).expect("decodes")
        });
    });
}

criterion_group!(benches, bench_codecs);
criterion_main!(benches);
