//! Integration tests: virtual IEDs on an emulated network, coupled to the
//! process store — protection trips, MMS control, GOOSE exchange, interlocks.

use parking_lot::Mutex;
use sgcr_iec61850::{DataValue, MmsClient, MmsPdu, MmsRequest, MmsResponse, MMS_PORT};
use sgcr_ied::{
    BreakerMap, GooseEntry, GooseSpec, IedEventKind, IedSpec, MeasurementMap, MonitoredBreaker,
    ProtectionSpec, VirtualIedApp,
};
use sgcr_kvstore::{ProcessStore, Value};
use sgcr_net::{ConnId, HostCtx, Ipv4Addr, LinkSpec, Network, SimTime, SocketApp};
use std::sync::Arc;

fn base_spec() -> IedSpec {
    let mut spec = IedSpec::new("GIED1", "S1");
    spec.measurements.push(MeasurementMap {
        kv_key: "meas/S1/branch/l1/i_ka".into(),
        item: "MMXU1$MX$A$phsA$cVal$mag$f".into(),
    });
    spec.breakers.push(BreakerMap {
        name: "CB1".into(),
        xcbr: "XCBR1".into(),
        cswi: "CSWI1".into(),
        state_key: "meas/S1/cb/CB1/closed".into(),
        cmd_key: "cmd/S1/cb/CB1/close".into(),
        interlocked: false,
    });
    spec
}

fn one_ied_net(spec: IedSpec, store: ProcessStore) -> (Network, sgcr_ied::IedHandle) {
    let mut net = Network::new();
    let sw = net.add_switch("sw");
    let ied = net.add_host("ied", Ipv4Addr::new(10, 0, 0, 1));
    net.connect(ied, sw, LinkSpec::default());
    let (app, handle) = VirtualIedApp::new(spec, store);
    net.attach_app(ied, Box::new(app));
    (net, handle)
}

#[test]
fn measurements_flow_into_model() {
    let store = ProcessStore::new();
    store.set("meas/S1/branch/l1/i_ka", Value::Float(0.42));
    let (mut net, handle) = one_ied_net(base_spec(), store);
    net.run_until(SimTime::from_millis(250));
    let v = handle
        .model
        .read("GIED1LD0/MMXU1$MX$A$phsA$cVal$mag$f")
        .unwrap();
    assert_eq!(v, DataValue::Float(0.42));
}

#[test]
fn breaker_state_reflected_as_dbpos() {
    let store = ProcessStore::new();
    store.set("meas/S1/cb/CB1/closed", Value::Bool(true));
    let (mut net, handle) = one_ied_net(base_spec(), store.clone());
    net.run_until(SimTime::from_millis(250));
    let v = handle.model.read("GIED1LD0/XCBR1$ST$Pos$stVal").unwrap();
    assert_eq!(v.as_dbpos(), Some(true));
    store.set("meas/S1/cb/CB1/closed", Value::Bool(false));
    net.run_until(SimTime::from_millis(500));
    let v = handle.model.read("GIED1LD0/XCBR1$ST$Pos$stVal").unwrap();
    assert_eq!(v.as_dbpos(), Some(false));
}

#[test]
fn ptoc_trips_breaker_via_process_store() {
    let mut spec = base_spec();
    spec.protections.push(ProtectionSpec::Ptoc {
        ln: "PTOC1".into(),
        measurement_key: "meas/S1/branch/l1/i_ka".into(),
        pickup: 1.0,
        delay_ms: 200,
        breaker: "CB1".into(),
    });
    let store = ProcessStore::new();
    store.set("meas/S1/branch/l1/i_ka", Value::Float(0.5));
    store.set("meas/S1/cb/CB1/closed", Value::Bool(true));
    let (mut net, handle) = one_ied_net(spec, store.clone());

    net.run_until(SimTime::from_millis(300));
    assert_eq!(handle.trip_count(), 0);

    // Fault: current jumps above pickup.
    store.set("meas/S1/branch/l1/i_ka", Value::Float(3.5));
    net.run_until(SimTime::from_millis(900));

    assert_eq!(handle.trip_count(), 1, "PTOC must trip exactly once");
    // The trip wrote an open command for the power side to pick up.
    assert_eq!(store.get_bool("cmd/S1/cb/CB1/close"), Some(false));
    // Op flag raised in the model.
    assert_eq!(
        handle.model.read("GIED1LD0/PTOC1$ST$Op$general"),
        Some(DataValue::Bool(true))
    );
    // Pickup event precedes the trip.
    let pickups = handle.events_of(IedEventKind::ProtectionPickup);
    assert!(!pickups.is_empty());
}

#[test]
fn ptov_and_ptuv_trip_on_voltage_violations() {
    for (threshold, voltage, protection_is_over) in [(1.1, 1.2, true), (0.9, 0.7, false)] {
        let mut spec = base_spec();
        let protection = if protection_is_over {
            ProtectionSpec::Ptov {
                ln: "PTOV1".into(),
                voltage_key: "meas/S1/bus/b1/vm_pu".into(),
                threshold_pu: threshold,
                delay_ms: 100,
                breaker: "CB1".into(),
            }
        } else {
            ProtectionSpec::Ptuv {
                ln: "PTUV1".into(),
                voltage_key: "meas/S1/bus/b1/vm_pu".into(),
                threshold_pu: threshold,
                delay_ms: 100,
                breaker: "CB1".into(),
            }
        };
        spec.protections.push(protection);
        let store = ProcessStore::new();
        store.set("meas/S1/bus/b1/vm_pu", Value::Float(1.0));
        store.set("meas/S1/cb/CB1/closed", Value::Bool(true));
        let (mut net, handle) = one_ied_net(spec, store.clone());
        net.run_until(SimTime::from_millis(300));
        assert_eq!(handle.trip_count(), 0);
        store.set("meas/S1/bus/b1/vm_pu", Value::Float(voltage));
        net.run_until(SimTime::from_millis(800));
        assert_eq!(
            handle.trip_count(),
            1,
            "threshold {threshold} voltage {voltage}"
        );
    }
}

/// An MMS operator client that issues one control after connecting.
struct ControlClient {
    server: Ipv4Addr,
    item: String,
    value: bool,
    client: MmsClient,
    result: Arc<Mutex<Option<Result<(), String>>>>,
}

impl SocketApp for ControlClient {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.tcp_connect(self.server, MMS_PORT);
    }
    fn on_tcp_connected(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId) {
        let init = self.client.initiate();
        ctx.tcp_send(conn, &init);
        let (_, wire) = self
            .client
            .request(&MmsRequest::Write {
                items: vec![self.item.clone()],
                values: vec![DataValue::Bool(self.value)],
            })
            .expect("a one-item write fits a frame");
        ctx.tcp_send(conn, &wire);
    }
    fn on_tcp_data(&mut self, _ctx: &mut HostCtx<'_>, _conn: ConnId, data: &[u8]) {
        for pdu in self.client.feed(data) {
            if let MmsPdu::ConfirmedResponse {
                response: MmsResponse::Write { results },
                ..
            } = pdu
            {
                *self.result.lock() = Some(results[0].map_err(|e| format!("{e:?}")));
            }
        }
    }
}

#[test]
fn mms_control_opens_breaker() {
    let store = ProcessStore::new();
    store.set("meas/S1/cb/CB1/closed", Value::Bool(true));
    let mut net = Network::new();
    let sw = net.add_switch("sw");
    let ied = net.add_host("ied", Ipv4Addr::new(10, 0, 0, 1));
    let operator = net.add_host("op", Ipv4Addr::new(10, 0, 0, 2));
    net.connect(ied, sw, LinkSpec::default());
    net.connect(operator, sw, LinkSpec::default());
    let (app, handle) = VirtualIedApp::new(base_spec(), store.clone());
    net.attach_app(ied, Box::new(app));
    let result = Arc::new(Mutex::new(None));
    net.attach_app(
        operator,
        Box::new(ControlClient {
            server: Ipv4Addr::new(10, 0, 0, 1),
            item: "GIED1LD0/CSWI1$CO$Pos$Oper$ctlVal".into(),
            value: false, // open command
            client: MmsClient::new(),
            result: result.clone(),
        }),
    );
    net.run_until(SimTime::from_millis(500));
    assert_eq!(*result.lock(), Some(Ok(())));
    assert_eq!(store.get_bool("cmd/S1/cb/CB1/close"), Some(false));
    let executed = handle.events_of(IedEventKind::ControlExecuted);
    assert_eq!(executed.len(), 1);
    assert!(executed[0].detail.contains("open CB1"));
}

#[test]
fn goose_interlock_blocks_close_until_peer_closed() {
    // IED A publishes CB-A state over GOOSE; IED B's CILO monitors it and
    // gates closing CB-B.
    let store = ProcessStore::new();
    store.set("meas/S1/cb/CBA/closed", Value::Bool(false));
    store.set("meas/S1/cb/CBB/closed", Value::Bool(false));

    let mut spec_a = IedSpec::new("IEDA", "S1");
    spec_a.breakers.push(BreakerMap {
        name: "CBA".into(),
        xcbr: "XCBR1".into(),
        cswi: "CSWI1".into(),
        state_key: "meas/S1/cb/CBA/closed".into(),
        cmd_key: "cmd/S1/cb/CBA/close".into(),
        interlocked: false,
    });
    spec_a.goose = Some(GooseSpec {
        appid: 0x3001,
        gocb_ref: "IEDALD0/LLN0$GO$gcb01".into(),
        dataset: "IEDALD0/LLN0$DS1".into(),
        entries: vec![GooseEntry::BreakerState("CBA".into())],
        rgoose_peers: vec![],
    });

    let mut spec_b = IedSpec::new("IEDB", "S1");
    spec_b.breakers.push(BreakerMap {
        name: "CBB".into(),
        xcbr: "XCBR1".into(),
        cswi: "CSWI1".into(),
        state_key: "meas/S1/cb/CBB/closed".into(),
        cmd_key: "cmd/S1/cb/CBB/close".into(),
        interlocked: true,
    });
    spec_b.protections.push(ProtectionSpec::Cilo {
        ln: "CILO1".into(),
        breaker: "CBB".into(),
        monitored: vec![MonitoredBreaker {
            reference: "S1/CBA".into(),
            gocb_ref: "IEDALD0/LLN0$GO$gcb01".into(),
            dataset_index: 0,
        }],
    });

    let mut net = Network::new();
    let sw = net.add_switch("sw");
    let host_a = net.add_host("ieda", Ipv4Addr::new(10, 0, 0, 1));
    let host_b = net.add_host("iedb", Ipv4Addr::new(10, 0, 0, 2));
    let operator = net.add_host("op", Ipv4Addr::new(10, 0, 0, 3));
    for h in [host_a, host_b, operator] {
        net.connect(h, sw, LinkSpec::default());
    }
    let (app_a, _handle_a) = VirtualIedApp::new(spec_a, store.clone());
    let (app_b, handle_b) = VirtualIedApp::new(spec_b, store.clone());
    net.attach_app(host_a, Box::new(app_a));
    net.attach_app(host_b, Box::new(app_b));

    // Phase 1: CBA open → close command on CBB must be rejected.
    let result = Arc::new(Mutex::new(None));
    net.attach_app(
        operator,
        Box::new(ControlClient {
            server: Ipv4Addr::new(10, 0, 0, 2),
            item: "IEDBLD0/CSWI1$CO$Pos$Oper$ctlVal".into(),
            value: true,
            client: MmsClient::new(),
            result: result.clone(),
        }),
    );
    net.run_until(SimTime::from_millis(1000));
    assert!(
        matches!(*result.lock(), Some(Err(_))),
        "close must be interlock-blocked"
    );
    assert_eq!(handle_b.events_of(IedEventKind::ControlRejected).len(), 1);
    assert_eq!(store.get_bool("cmd/S1/cb/CBB/close"), None);
    // EnaCls mirrors the interlock in the model.
    assert_eq!(
        handle_b.model.read("IEDBLD0/CILO1$ST$EnaCls$stVal"),
        Some(DataValue::Bool(false))
    );

    // Phase 2: close CBA; GOOSE propagates; now the interlock permits.
    store.set("meas/S1/cb/CBA/closed", Value::Bool(true));
    net.run_until(SimTime::from_millis(2500));
    assert_eq!(
        handle_b.model.read("IEDBLD0/CILO1$ST$EnaCls$stVal"),
        Some(DataValue::Bool(true))
    );
}

#[test]
fn goose_ttl_expiry_degrades_interlock_to_unknown() {
    // IED A publishes CB-A state; IED B's CILO depends on it. When A's host
    // link dies, the GOOSE stream stops and B must fail safe (block close).
    let store = ProcessStore::new();
    store.set("meas/S1/cb/CBA/closed", Value::Bool(true));
    store.set("meas/S1/cb/CBB/closed", Value::Bool(false));

    let mut spec_a = IedSpec::new("IEDA", "S1");
    spec_a.breakers.push(BreakerMap {
        name: "CBA".into(),
        xcbr: "XCBR1".into(),
        cswi: "CSWI1".into(),
        state_key: "meas/S1/cb/CBA/closed".into(),
        cmd_key: "cmd/S1/cb/CBA/close".into(),
        interlocked: false,
    });
    spec_a.goose = Some(GooseSpec {
        appid: 0x3001,
        gocb_ref: "IEDALD0/LLN0$GO$gcb01".into(),
        dataset: "IEDALD0/LLN0$DS1".into(),
        entries: vec![GooseEntry::BreakerState("CBA".into())],
        rgoose_peers: vec![],
    });

    let mut spec_b = IedSpec::new("IEDB", "S1");
    spec_b.breakers.push(BreakerMap {
        name: "CBB".into(),
        xcbr: "XCBR1".into(),
        cswi: "CSWI1".into(),
        state_key: "meas/S1/cb/CBB/closed".into(),
        cmd_key: "cmd/S1/cb/CBB/close".into(),
        interlocked: true,
    });
    spec_b.protections.push(ProtectionSpec::Cilo {
        ln: "CILO1".into(),
        breaker: "CBB".into(),
        monitored: vec![MonitoredBreaker {
            reference: "S1/CBA".into(),
            gocb_ref: "IEDALD0/LLN0$GO$gcb01".into(),
            dataset_index: 0,
        }],
    });

    let mut net = Network::new();
    let sw = net.add_switch("sw");
    let host_a = net.add_host("ieda", Ipv4Addr::new(10, 0, 0, 1));
    let host_b = net.add_host("iedb", Ipv4Addr::new(10, 0, 0, 2));
    net.connect(host_a, sw, LinkSpec::default());
    net.connect(host_b, sw, LinkSpec::default());
    let (app_a, _) = VirtualIedApp::new(spec_a, store.clone());
    let (app_b, handle_b) = VirtualIedApp::new(spec_b, store.clone());
    net.attach_app(host_a, Box::new(app_a));
    net.attach_app(host_b, Box::new(app_b));

    // Healthy: CBA closed and published → close permitted.
    net.run_until(SimTime::from_millis(1500));
    assert_eq!(
        handle_b.model.read("IEDBLD0/CILO1$ST$EnaCls$stVal"),
        Some(DataValue::Bool(true))
    );

    // Kill the publisher's link: GOOSE stream goes silent.
    net.set_link_state(host_a, sw, false);
    // TTL is 2x the current retransmission interval (heartbeat 1 s → 2 s);
    // expiry trips at 2x TTL. Run well past that.
    net.run_until(SimTime::from_secs(10));
    assert_eq!(
        handle_b.model.read("IEDBLD0/CILO1$ST$EnaCls$stVal"),
        Some(DataValue::Bool(false)),
        "close permission must fail safe after GOOSE supervision timeout"
    );

    // Publisher returns: permission recovers.
    net.set_link_state(host_a, sw, true);
    net.run_until(SimTime::from_secs(14));
    assert_eq!(
        handle_b.model.read("IEDBLD0/CILO1$ST$EnaCls$stVal"),
        Some(DataValue::Bool(true)),
        "permission restored once the stream resumes"
    );
}

#[test]
fn stuck_sensor_holds_first_faulted_value() {
    let store = ProcessStore::new();
    store.set("meas/S1/branch/l1/i_ka", Value::Float(0.42));
    let (mut net, handle) = one_ied_net(base_spec(), store.clone());
    net.run_until(SimTime::from_millis(250));
    handle.set_sensor_fault(
        "meas/S1/branch/l1/i_ka",
        sgcr_faults::SensorFault::Stuck,
        250,
    );
    // One faulted sample captures 0.42; the later process change is unseen.
    net.run_until(SimTime::from_millis(400));
    store.set("meas/S1/branch/l1/i_ka", Value::Float(0.9));
    net.run_until(SimTime::from_millis(600));
    let v = handle
        .model
        .read("GIED1LD0/MMXU1$MX$A$phsA$cVal$mag$f")
        .unwrap();
    assert_eq!(v, DataValue::Float(0.42), "stuck sensor must hold");
    assert!(handle.clear_sensor_fault("meas/S1/branch/l1/i_ka"));
    net.run_until(SimTime::from_millis(900));
    let v = handle
        .model
        .read("GIED1LD0/MMXU1$MX$A$phsA$cVal$mag$f")
        .unwrap();
    assert_eq!(v, DataValue::Float(0.9), "cleared fault must track again");
}

#[test]
fn drifting_sensor_walks_away_from_truth() {
    let store = ProcessStore::new();
    store.set("meas/S1/branch/l1/i_ka", Value::Float(1.0));
    let (mut net, handle) = one_ied_net(base_spec(), store);
    handle.set_sensor_fault(
        "meas/S1/branch/l1/i_ka",
        sgcr_faults::SensorFault::Drift { per_sec: 0.5 },
        0,
    );
    net.run_until(SimTime::from_secs(2));
    let v = handle
        .model
        .read("GIED1LD0/MMXU1$MX$A$phsA$cVal$mag$f")
        .unwrap();
    let DataValue::Float(f) = v else {
        panic!("expected float, got {v:?}");
    };
    assert!(
        (1.8..=2.2).contains(&f),
        "after 2 s at +0.5/s the reading should be near 2.0, got {f}"
    );
}

#[test]
fn degradation_signal_flips_measurement_quality() {
    let store = ProcessStore::new();
    store.set("meas/S1/branch/l1/i_ka", Value::Float(0.42));
    let (mut net, handle) = one_ied_net(base_spec(), store);
    net.run_until(SimTime::from_millis(250));
    assert_eq!(
        handle.model.read("GIED1LD0/MMXU1$MX$A$phsA$q"),
        Some(DataValue::Str("good".into()))
    );
    handle.degradation().set(true);
    net.run_until(SimTime::from_millis(500));
    assert_eq!(
        handle.model.read("GIED1LD0/MMXU1$MX$A$phsA$q"),
        Some(DataValue::Str("invalid".into())),
        "held measurements must be flagged invalid"
    );
    handle.degradation().set(false);
    net.run_until(SimTime::from_millis(750));
    assert_eq!(
        handle.model.read("GIED1LD0/MMXU1$MX$A$phsA$q"),
        Some(DataValue::Str("good".into())),
        "recovery must restore good quality"
    );
}
