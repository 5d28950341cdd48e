//! Integration: the SCADA HMI polling a Modbus server (PLC stand-in) and an
//! MMS server (IED stand-in) over the emulated network, with alarms and
//! operator commands.

use sgcr_iec61850::{DataModel, DataValue, MmsServer, MmsServerApp, SharedModel};
use sgcr_modbus::{
    decode_request, encode_response, Adu, FunctionCode, ModbusServerApp, SharedRegisters,
    StreamDecoder, MODBUS_PORT,
};
use sgcr_net::{ConnId, HostCtx, Ipv4Addr, LinkSpec, Network, SimTime, SocketApp};
use sgcr_scada::{OperatorCommand, Quality, ScadaApp, ScadaConfig};

const CONFIG: &str = r#"<ScadaConfig name="test-hmi">
  <DataSource name="PLC" type="MODBUS" ip="10.0.0.1" pollMs="200">
    <Point name="P_total" kind="input" address="0" scale="0.1"/>
    <Point name="CB1_fb" kind="discrete" address="0"/>
    <Point name="CB1_cmd" kind="coil" address="0" writable="true"/>
  </DataSource>
  <DataSource name="IED1" type="MMS" ip="10.0.0.2" pollMs="300">
    <Point name="IED1_V" item="IED1LD0/MMXU1$MX$PhV$mag$f"/>
  </DataSource>
  <Alarm point="P_total" kind="high" limit="40" message="Feeder overload"/>
</ScadaConfig>"#;

struct TestBed {
    net: Network,
    registers: SharedRegisters,
    model: SharedModel,
    handle: sgcr_scada::ScadaHandle,
}

fn testbed() -> TestBed {
    let mut net = Network::new();
    let sw = net.add_switch("sw");
    let plc = net.add_host("plc", Ipv4Addr::new(10, 0, 0, 1));
    let ied = net.add_host("ied", Ipv4Addr::new(10, 0, 0, 2));
    let hmi = net.add_host("hmi", Ipv4Addr::new(10, 0, 0, 100));
    for h in [plc, ied, hmi] {
        net.connect(h, sw, LinkSpec::default());
    }
    let registers = SharedRegisters::with_size(64);
    net.attach_app(plc, Box::new(ModbusServerApp::new(registers.clone())));

    let mut model = DataModel::new("IED1");
    model.insert("IED1LD0/MMXU1$MX$PhV$mag$f", DataValue::Float(0.0));
    let shared = SharedModel::new(model);
    net.attach_app(
        ied,
        Box::new(MmsServerApp::new(MmsServer::new(shared.clone()))),
    );

    let config = ScadaConfig::parse(CONFIG).expect("config");
    let (app, handle) = ScadaApp::new(config);
    net.attach_app(hmi, Box::new(app));
    TestBed {
        net,
        registers,
        model: shared,
        handle,
    }
}

#[test]
fn polls_both_protocols_with_scaling() {
    let mut bed = testbed();
    bed.registers.set_input(0, 235); // 23.5 after 0.1 scale
    bed.registers.set_discrete(0, true);
    bed.model
        .write("IED1LD0/MMXU1$MX$PhV$mag$f", DataValue::Float(1.02));
    bed.net.run_until(SimTime::from_millis(1500));

    assert_eq!(bed.handle.tag_value("P_total"), Some(23.5));
    assert_eq!(bed.handle.tag_value("CB1_fb"), Some(1.0));
    let v = bed.handle.tag_value("IED1_V").unwrap();
    assert!((v - 1.02).abs() < 1e-6);
    assert!(bed.handle.polls_completed() > 5);
    // All tags good quality.
    for name in bed.handle.tag_names() {
        assert_eq!(
            bed.handle.tag(&name).unwrap().quality,
            Quality::Good,
            "{name}"
        );
    }
}

#[test]
fn tags_track_changes_over_time() {
    let mut bed = testbed();
    bed.registers.set_input(0, 100);
    bed.model
        .write("IED1LD0/MMXU1$MX$PhV$mag$f", DataValue::Float(10.0));
    bed.net.run_until(SimTime::from_millis(500));
    assert_eq!(bed.handle.tag_value("P_total"), Some(10.0));
    assert_eq!(bed.handle.tag_value("IED1_V"), Some(10.0));
    // Model writes made mid-run reach the later polls of both protocols.
    bed.registers.set_input(0, 300);
    bed.model
        .write("IED1LD0/MMXU1$MX$PhV$mag$f", DataValue::Float(20.0));
    bed.net.run_until(SimTime::from_millis(1200));
    assert_eq!(bed.handle.tag_value("P_total"), Some(30.0));
    assert_eq!(bed.handle.tag_value("IED1_V"), Some(20.0));
}

#[test]
fn alarm_raises_and_clears() {
    let mut bed = testbed();
    bed.registers.set_input(0, 100); // 10.0 < 40: normal
    bed.net.run_until(SimTime::from_millis(500));
    assert!(bed.handle.active_alarms().is_empty());

    bed.registers.set_input(0, 500); // 50.0 > 40: alarm
    bed.net.run_until(SimTime::from_millis(1000));
    let alarms = bed.handle.active_alarms();
    assert_eq!(alarms.len(), 1);
    assert_eq!(alarms[0].1, "Feeder overload");

    bed.registers.set_input(0, 100);
    bed.net.run_until(SimTime::from_millis(1500));
    assert!(bed.handle.active_alarms().is_empty());
    let events = bed.handle.events();
    assert!(events.iter().any(|e| e.message.contains("ALARM")));
    assert!(events.iter().any(|e| e.message.contains("CLEARED")));
}

#[test]
fn operator_command_reaches_plc() {
    let mut bed = testbed();
    bed.net.run_until(SimTime::from_millis(300));
    assert!(!bed.registers.coil(0));
    bed.handle.operate("CB1_cmd", true);
    bed.net.run_until(SimTime::from_millis(800));
    assert!(bed.registers.coil(0), "coil written by operator command");
    assert!(bed
        .handle
        .events()
        .iter()
        .any(|e| e.message.contains("COMMAND CB1_cmd")));
}

#[test]
fn command_to_readonly_tag_rejected() {
    let mut bed = testbed();
    bed.net.run_until(SimTime::from_millis(200));
    bed.handle.send_command(OperatorCommand::WriteTag {
        tag: "P_total".into(),
        value: 1.0,
    });
    bed.net.run_until(SimTime::from_millis(600));
    assert!(bed
        .handle
        .events()
        .iter()
        .any(|e| e.message.contains("REJECTED")));
}

/// A Modbus server whose first reply is cut short, as a man in the middle
/// truncating it would leave it: the client cannot decode that reply.
struct TruncatesFirstReply {
    registers: SharedRegisters,
    decoder: StreamDecoder,
    truncated: bool,
}

impl SocketApp for TruncatesFirstReply {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.tcp_listen(MODBUS_PORT);
    }

    fn on_tcp_data(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId, data: &[u8]) {
        for adu in self.decoder.feed(data) {
            let Some(request) = decode_request(&adu.pdu) else {
                continue;
            };
            let function = FunctionCode::from_u8(adu.pdu[0]).expect("decoded request");
            let response = self.registers.with(|map| map.execute(&request));
            let mut pdu = encode_response(function, &response);
            if !self.truncated {
                pdu.truncate(2);
                self.truncated = true;
            }
            let reply = Adu {
                transaction_id: adu.transaction_id,
                unit_id: adu.unit_id,
                pdu: pdu.into(),
            };
            ctx.tcp_send(conn, &reply.encode());
        }
    }
}

#[test]
fn an_undecodable_modbus_reply_does_not_shift_later_tags() {
    let mut net = Network::new();
    let sw = net.add_switch("sw");
    let plc = net.add_host("plc", Ipv4Addr::new(10, 0, 0, 1));
    let hmi = net.add_host("hmi", Ipv4Addr::new(10, 0, 0, 100));
    for h in [plc, hmi] {
        net.connect(h, sw, LinkSpec::default());
    }
    let registers = SharedRegisters::with_size(8);
    registers.set_input(0, 111);
    registers.set_input(1, 222);
    net.attach_app(
        plc,
        Box::new(TruncatesFirstReply {
            registers,
            decoder: StreamDecoder::new(),
            truncated: false,
        }),
    );
    let config = ScadaConfig::parse(
        r#"<ScadaConfig name="shift">
  <DataSource name="PLC" type="MODBUS" ip="10.0.0.1" pollMs="200">
    <Point name="A" kind="input" address="0"/>
    <Point name="B" kind="input" address="1"/>
  </DataSource>
</ScadaConfig>"#,
    )
    .expect("config");
    let (app, handle) = ScadaApp::new(config);
    net.attach_app(hmi, Box::new(app));
    net.run_until(SimTime::from_millis(1500));
    assert_eq!(handle.tag_value("A"), Some(111.0));
    assert_eq!(handle.tag_value("B"), Some(222.0));
}
