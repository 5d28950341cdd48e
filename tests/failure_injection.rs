//! Failure injection on the generated range: infeasible power flow, PLC
//! program faults, link failures, and hostile/garbage traffic — the range
//! must degrade gracefully, never panic.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::core::{CompiledModel, CyberRange, PlcConfig, PlcLogic, SgmlBundle};
use sg_cyber_range::models::epic_bundle;
use sg_cyber_range::net::{HostCtx, Ipv4Addr, SimDuration, SocketApp};

fn epic_range() -> CyberRange {
    CyberRange::instantiate(CompiledModel::shared(&epic_bundle()).expect("EPIC compiles"))
        .expect("EPIC compiles")
}

#[test]
fn infeasible_power_flow_is_survived() {
    let mut range = epic_range();
    range.run_for(SimDuration::from_secs(1));
    // Make the model electrically impossible: absurd load on a weak feeder.
    let load = range.power.load_by_name("EPIC/Load1").unwrap();
    range.power.load[load.index()].p_mw = 1.0e6;
    range.run_for(SimDuration::from_secs(1));
    // The step loop recorded solve errors but kept the range alive
    // (protection may legitimately have opened a breaker meanwhile).
    assert!(range.solve_errors_total() > 0, "solve failures recorded");
    // Cyber side kept running: SCADA still polls the (stale or post-trip)
    // state without crashing.
    range.run_for(SimDuration::from_secs(1));
    assert!(range.scada.as_ref().unwrap().polls_completed() > 0);
}

#[test]
fn plc_program_fault_latches_and_reports() {
    let mut bundle: SgmlBundle = epic_bundle();
    // Replace CPLC logic with a program that divides by an input that will
    // be zero at runtime.
    let mut config = PlcConfig::parse(bundle.plc_config.as_ref().unwrap()).unwrap();
    config.plcs[0].logic = PlcLogic::StructuredText(
        "PROGRAM bad VAR x AT %QW0 : INT; d : INT; END_VAR x := 100 / d; END_PROGRAM".to_string(),
    );
    config.plcs[0].reads.clear();
    config.plcs[0].writes.clear();
    bundle.plc_config = Some(config.to_xml());
    let mut range = CyberRange::instantiate(CompiledModel::shared(&bundle).expect("compiles"))
        .expect("compiles");
    range.run_for(SimDuration::from_secs(2));
    let status = range.plcs["CPLC"].lock();
    assert!(status.fault.is_some(), "fault latched: {:?}", status.fault);
    assert!(
        status.fault.as_ref().unwrap().contains("division by zero"),
        "{:?}",
        status.fault
    );
    // IEDs unaffected.
    drop(status);
    let p = range.ieds["GIED1"]
        .model
        .read("GIED1LD0/MMXU1$MX$TotW$mag$f")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(p.abs() > 1e-9);
}

#[test]
fn link_failure_stalls_scada_but_not_the_grid() {
    let mut range = epic_range();
    range.run_for(SimDuration::from_secs(2));
    let scada = range.scada.as_ref().unwrap().clone();
    let before = scada.tag("MicroFeeder_MW").unwrap();

    // Cut TIED1's access link: its MMS source goes dark.
    let tied1 = range.node("TIED1").unwrap();
    let trans_bus = range.net.node_by_name("TransBus").unwrap();
    assert!(range.net.set_link_state(tied1, trans_bus, false));

    range.run_for(SimDuration::from_secs(4));
    let after = scada.tag("MicroFeeder_MW").unwrap();
    // The tag's last update time froze (no fresh polls), value retained.
    assert_eq!(
        before.value, after.value,
        "stale value retained after link cut"
    );
    assert!(
        after.updated_ms <= before.updated_ms + 1500,
        "no fresh updates after the cut: {} vs {}",
        after.updated_ms,
        before.updated_ms
    );
    // The physical side and other tags keep flowing.
    assert!((range.solve_errors_total() == 0));
    let gen_tag = scada.tag("GenFeeder_kW").unwrap();
    assert!(
        gen_tag.updated_ms > after.updated_ms,
        "other sources still update"
    );

    // Repair: polling resumes (TCP retransmission recovers the session or a
    // fresh poll round reads again).
    assert!(range.net.set_link_state(tied1, trans_bus, true));
    range.run_for(SimDuration::from_secs(4));
    let repaired = scada.tag("MicroFeeder_MW").unwrap();
    assert!(
        repaired.updated_ms > after.updated_ms,
        "updates resume after repair"
    );
}

/// An app that sprays garbage at every service port of a victim.
struct GarbageSprayer {
    victim: Ipv4Addr,
    conn: Option<sg_cyber_range::net::ConnId>,
}

impl SocketApp for GarbageSprayer {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        // Garbage to the R-GOOSE UDP port.
        ctx.send_udp(self.victim, 102, 4444, &[0xff; 64]);
        ctx.send_udp(self.victim, 102, 4444, &[0x01, 0x40, 0x81]);
        // Garbage over TCP to the MMS port.
        self.conn = Some(ctx.tcp_connect(self.victim, 102));
    }
    fn on_tcp_connected(&mut self, ctx: &mut HostCtx<'_>, conn: sg_cyber_range::net::ConnId) {
        ctx.tcp_send(conn, &[0x03, 0x00, 0x00, 0xff]); // TPKT announcing 255 bytes
        ctx.tcp_send(conn, &[0xde, 0xad, 0xbe, 0xef]);
        ctx.tcp_send(conn, b"GET / HTTP/1.1\r\n\r\n"); // wrong protocol entirely
    }
}

#[test]
fn garbage_traffic_does_not_kill_the_ied() {
    let mut range = epic_range();
    range.add_host("fuzzer", Ipv4Addr::new(10, 0, 1, 77), "GenBus");
    let victim = range.plan().host_ip("GIED1").unwrap();
    range.attach_app("fuzzer", Box::new(GarbageSprayer { victim, conn: None }));
    range.run_for(SimDuration::from_secs(3));
    // GIED1 still serves its data model (CPLC keeps reading through it).
    let plc = range.plcs["CPLC"].lock();
    assert!(plc.reads_ok > 0, "IED still answers MMS after garbage");
    assert_eq!(plc.fault, None);
}

#[test]
fn breaker_command_for_unknown_target_is_ignored() {
    let mut range = epic_range();
    range.store.set(
        "cmd/EPIC/cb/NO_SUCH_CB/close",
        sg_cyber_range::kvstore::Value::Bool(false),
    );
    range.store.set(
        "cmd/EPIC/load/NO_SUCH_LOAD/p_mw",
        sg_cyber_range::kvstore::Value::Float(1.0),
    );
    range
        .store
        .set("cmd/garbage", sg_cyber_range::kvstore::Value::Bool(true));
    range.run_for(SimDuration::from_secs(1));
    assert!((range.solve_errors_total() == 0));
    // Real breakers untouched.
    assert!(range.power.switch.iter().all(|s| s.closed));
}
