//! Per-layer probes for the traced run: each times one crate's public
//! function on inputs built from a compiled model, outside any range.

use crate::cputime::time_ms;
use crate::spans::Spans;
use crate::stats::median;
use crate::Metric;
use sgcr_adversary::{plan, AttackGraph, PlanRequest};
use sgcr_core::CompiledModel;
use sgcr_iec61850::{DataValue, GoosePdu, MmsPdu, MmsRequest, MmsResponse};
use sgcr_ied::GooseEntry;
use sgcr_modbus::{decode_request, encode_request, Request};
use sgcr_plc::Interpreter;
use sgcr_scada::{ModbusPointKind, PointAddress};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time each probe spends measuring.
const PROBE_BUDGET: Duration = Duration::from_millis(150);

/// Median per-call time of `f` in seconds, over batches sized to about a
/// millisecond each, measured for about `budget` (at least five batches).
/// Returns the median and the number of batches.
pub fn per_call(budget: Duration, mut f: impl FnMut()) -> (f64, usize) {
    let t = Instant::now();
    f();
    let once = t.elapsed().max(Duration::from_nanos(20));
    let batch = (Duration::from_millis(1).as_nanos() / once.as_nanos()).clamp(1, 1 << 20) as usize;
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed() < budget {
        let ((), ms) = time_ms(|| {
            for _ in 0..batch {
                f();
            }
        });
        samples.push(ms / 1e3 / batch as f64);
    }
    (median(&samples).unwrap_or(0.0), samples.len())
}

/// Times the power-flow solve of `model`'s pristine network.
pub fn powerflow(spans: &mut Spans, model: &CompiledModel) -> Vec<Metric> {
    let span = spans.open("powerflow.solve");
    let iterations = sgcr_powerflow::solve(&model.power).map_or(0, |r| r.iterations);
    let (seconds, n) = per_call(PROBE_BUDGET, || {
        let _ = black_box(sgcr_powerflow::solve(black_box(&model.power)));
    });
    spans.close(span);
    vec![
        Metric::new("powerflow.solve_ms", "ms", seconds * 1e3, n),
        Metric::new("powerflow.nr_iterations", "count", iterations as f64, 1),
    ]
}

/// Times one scan of every PLC program of the EPIC model (the paper-scale
/// model has no PLC).
pub fn plc(spans: &mut Spans, epic: &CompiledModel) -> Vec<Metric> {
    let span = spans.open("plc.scan");
    let mut interpreters: Vec<Interpreter> = epic
        .plcs
        .iter()
        .filter_map(|p| Interpreter::new(p.program.clone()).ok())
        .collect();
    let mut now_ns = 0u64;
    let (seconds, n) = per_call(PROBE_BUDGET, || {
        now_ns += 100_000_000;
        for interp in &mut interpreters {
            let _ = black_box(interp.scan(now_ns));
        }
    });
    spans.close(span);
    let per_program = seconds / interpreters.len().max(1) as f64;
    vec![Metric::new("plc.scan_us", "us", per_program * 1e6, n)]
}

/// Times the MMS, GOOSE and Modbus codecs on messages built from the EPIC
/// model's own items: the SCADA and PLC MMS read items, the first GOOSE
/// publisher's dataset, and the SCADA Modbus points.
pub fn codecs(spans: &mut Spans, epic: &CompiledModel) -> Vec<Metric> {
    let span = spans.open("codecs");
    let scada = epic.scada.as_ref().map(|s| &s.config);
    let mut items: Vec<String> = epic
        .plcs
        .iter()
        .flat_map(|p| p.reads.iter().map(|r| r.item.clone()))
        .collect();
    let mut modbus = Vec::new();
    for source in scada.map(|c| c.sources.as_slice()).unwrap_or_default() {
        for point in &source.points {
            match &point.address {
                PointAddress::Mms { item } => items.push(item.clone()),
                PointAddress::Modbus { kind, address } => {
                    let (address, count) = (*address, 1);
                    modbus.push(match kind {
                        ModbusPointKind::Coil => Request::ReadCoils { address, count },
                        ModbusPointKind::Discrete => Request::ReadDiscreteInputs { address, count },
                        ModbusPointKind::Holding => {
                            Request::ReadHoldingRegisters { address, count }
                        }
                        ModbusPointKind::Input => Request::ReadInputRegisters { address, count },
                    });
                }
            }
        }
    }
    let read = MmsPdu::ConfirmedRequest {
        invoke_id: 42,
        request: MmsRequest::Read {
            items: items.clone(),
        },
    };
    let response = MmsPdu::ConfirmedResponse {
        invoke_id: 42,
        response: MmsResponse::Read {
            results: items.iter().map(|_| Ok(DataValue::Float(0.5))).collect(),
        },
    }
    .encode();
    let goose_spec = epic
        .ieds
        .iter()
        .find_map(|i| i.goose.as_ref().map(|g| (i, g)));
    let goose = goose_spec.map(|(ied, g)| GoosePdu {
        gocb_ref: g.gocb_ref.clone(),
        time_allowed_to_live_ms: 2000,
        dat_set: g.dataset.clone(),
        go_id: ied.name.clone(),
        t: 123_456_789_000,
        st_num: 7,
        sq_num: 3,
        simulation: false,
        conf_rev: 1,
        nds_com: false,
        all_data: g
            .entries
            .iter()
            .map(|e| match e {
                GooseEntry::BreakerState(_) => DataValue::dbpos_on(),
                GooseEntry::ProtectionOp(_) => DataValue::Bool(false),
            })
            .collect(),
    });
    let appid = goose_spec.map_or(0, |(_, g)| g.appid);
    let goose_wire = goose.as_ref().map(|g| g.encode(appid)).unwrap_or_default();

    let per = |f: &mut dyn FnMut()| per_call(PROBE_BUDGET, f);
    let (mms_enc, n1) = per(&mut || {
        black_box(black_box(&read).encode());
    });
    let (mms_dec, n2) = per(&mut || {
        let _ = black_box(MmsPdu::decode(black_box(&response)));
    });
    let (goose_enc, n3) = per(&mut || {
        if let Some(g) = &goose {
            black_box(black_box(g).encode(appid));
        }
    });
    let (goose_dec, n4) = per(&mut || {
        let _ = black_box(GoosePdu::decode(black_box(&goose_wire)));
    });
    let (modbus_rt, n5) = per(&mut || {
        for request in &modbus {
            let _ = black_box(decode_request(&encode_request(black_box(request))));
        }
    });
    spans.close(span);
    vec![
        Metric::new("iec61850.mms_read_encode_us", "us", mms_enc * 1e6, n1),
        Metric::new("iec61850.mms_read_decode_us", "us", mms_dec * 1e6, n2),
        Metric::new("iec61850.goose_encode_us", "us", goose_enc * 1e6, n3),
        Metric::new("iec61850.goose_decode_us", "us", goose_dec * 1e6, n4),
        Metric::new(
            "modbus.request_roundtrip_us",
            "us",
            modbus_rt / modbus.len().max(1) as f64 * 1e6,
            n5,
        ),
    ]
}

/// Times attack-graph derivation plus campaign planning on the EPIC model
/// for the run's adversary seed.
pub fn adversary(
    spans: &mut Spans,
    epic: &CompiledModel,
    goal: &str,
    budget: u32,
    seed: u64,
) -> Vec<Metric> {
    let span = spans.open("adversary.plan");
    let (seconds, n) = per_call(PROBE_BUDGET, || {
        let graph = AttackGraph::derive(black_box(epic));
        let _ = black_box(plan(
            &graph,
            &PlanRequest {
                goal,
                budget,
                seed,
                ..PlanRequest::default()
            },
        ));
    });
    spans.close(span);
    vec![Metric::new("adversary.plan_ms", "ms", seconds * 1e3, n)]
}
