//! Integration: how polled values reach tags — every point on an item or
//! register gets the value with its own scale, and reads convert every
//! numeric leaf.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic

use sgcr_iec61850::{DataModel, DataValue, MmsServer, MmsServerApp, SharedModel};
use sgcr_modbus::{ModbusServerApp, SharedRegisters};
use sgcr_net::{Ipv4Addr, LinkSpec, Network, SimTime};
use sgcr_scada::{ScadaApp, ScadaConfig, ScadaHandle};

const CONFIG: &str = r#"<ScadaConfig name="point-bindings">
  <DataSource name="PLC" type="MODBUS" ip="10.0.0.1" pollMs="200">
    <Point name="P" kind="input" address="3"/>
    <Point name="P_half" kind="input" address="3" scale="0.5"/>
  </DataSource>
  <DataSource name="IED1" type="MMS" ip="10.0.0.2" pollMs="300">
    <Point name="V" item="IED1LD0/MMXU1$MX$PhV$mag$f"/>
    <Point name="V_double" item="IED1LD0/MMXU1$MX$PhV$mag$f" scale="2"/>
    <Point name="Ops" item="IED1LD0/XCBR1$ST$OpCnt$stVal"/>
  </DataSource>
</ScadaConfig>"#;

/// Runs the HMI for a second against a Modbus server whose input register 3
/// holds 120 and an MMS server with a float and an unsigned leaf.
fn polled() -> ScadaHandle {
    let mut net = Network::new();
    let sw = net.add_switch("sw");
    let plc = net.add_host("plc", Ipv4Addr::new(10, 0, 0, 1));
    let ied = net.add_host("ied", Ipv4Addr::new(10, 0, 0, 2));
    let hmi = net.add_host("hmi", Ipv4Addr::new(10, 0, 0, 100));
    for host in [plc, ied, hmi] {
        net.connect(host, sw, LinkSpec::default());
    }
    let registers = SharedRegisters::with_size(16);
    registers.set_input(3, 120);
    net.attach_app(plc, Box::new(ModbusServerApp::new(registers)));
    let mut model = DataModel::new("IED1");
    model.insert("IED1LD0/MMXU1$MX$PhV$mag$f", DataValue::Float(230.0));
    model.insert("IED1LD0/XCBR1$ST$OpCnt$stVal", DataValue::Uint(7));
    let server = MmsServer::new(SharedModel::new(model));
    net.attach_app(ied, Box::new(MmsServerApp::new(server)));
    let (app, handle) = ScadaApp::new(ScadaConfig::parse(CONFIG).unwrap());
    net.attach_app(hmi, Box::new(app));
    net.run_until(SimTime::from_millis(1_000));
    handle
}

#[test]
fn every_point_on_a_polled_item_or_register_gets_its_own_value() {
    let handle = polled();
    assert_eq!(handle.tag_value("P"), Some(120.0));
    assert_eq!(handle.tag_value("P_half"), Some(60.0));
    assert_eq!(handle.tag_value("V"), Some(230.0));
    assert_eq!(handle.tag_value("V_double"), Some(460.0));
}

#[test]
fn a_uint_leaf_read_updates_its_tag() {
    assert_eq!(polled().tag_value("Ops"), Some(7.0));
}
