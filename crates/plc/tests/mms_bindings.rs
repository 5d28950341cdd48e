//! Integration: the PLC polling an MMS server (IED stand-in) over the
//! emulated network into its program variables, and out through its
//! located Modbus outputs.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic

use sgcr_iec61850::{DataModel, DataValue, MmsServer, MmsServerApp, SharedModel};
use sgcr_modbus::SharedRegisters;
use sgcr_net::{Ipv4Addr, LinkSpec, Network, SimDuration, SimTime};
use sgcr_obs::Telemetry;
use sgcr_plc::{parse_program, MmsReadBinding, PlcApp, PlcRuntime};

const ITEM: &str = "IED1LD0/MMXU1$MX$TotW$mag$f";

#[test]
fn two_reads_of_one_item_each_get_the_value() {
    let mut net = Network::new();
    let sw = net.add_switch("sw");
    let ied_ip = Ipv4Addr::new(10, 0, 0, 2);
    let plc = net.add_host("plc", Ipv4Addr::new(10, 0, 0, 1));
    let ied = net.add_host("ied", ied_ip);
    for host in [plc, ied] {
        net.connect(host, sw, LinkSpec::default());
    }
    let mut model = DataModel::new("IED1");
    model.insert(ITEM, DataValue::Float(2.5));
    let server = MmsServer::new(SharedModel::new(model));
    net.attach_app(ied, Box::new(MmsServerApp::new(server)));

    let program = parse_program(
        "PROGRAM p VAR x : REAL; y : REAL; \
           x_out AT %QW0 : INT; y_out AT %QW1 : INT; END_VAR \
         x_out := TO_INT(x); y_out := TO_INT(y); END_PROGRAM",
    )
    .unwrap();
    let registers = SharedRegisters::with_size(16);
    let runtime = PlcRuntime::new(program, registers.clone()).unwrap();
    let read = |variable: &str, scale: f64| MmsReadBinding {
        server: ied_ip,
        item: ITEM.to_string(),
        variable: variable.to_string(),
        scale,
    };
    let (app, status) = PlcApp::with_telemetry(
        runtime,
        registers.clone(),
        SimDuration::from_millis(100),
        [read("x", 1.0), read("y", 1000.0)].into(),
        [].into(),
        [].into(),
        Telemetry::disabled(),
    );
    net.attach_app(plc, Box::new(app));
    net.run_until(SimTime::from_millis(1_000));

    assert!(status.lock().reads_ok >= 2, "both reads were answered");
    assert_eq!(registers.holding(0), 2, "x = 2.5");
    assert_eq!(registers.holding(1), 2_500, "y = 2.5 × 1000");
}
