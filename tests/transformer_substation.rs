//! A hand-written two-voltage-level substation with a power transformer —
//! exercises the HV/MV path of the SSD compiler and the trafo measurements
//! end-to-end (no generated model uses a transformer).

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::core::{CompiledModel, CyberRange, SgmlBundle};
use sg_cyber_range::net::SimDuration;

const SSD: &str = r#"<SCL xmlns="http://www.iec.ch/61850/2003/SCL">
  <Header id="hvmv" version="1"/>
  <Substation name="HVMV">
    <PowerTransformer name="T1" type="PTR">
      <TransformerWinding name="W1" sgcr:ratedKV="110">
        <Terminal name="T1" connectivityNode="HVMV/HV/Feed/CNHV"/>
      </TransformerWinding>
      <TransformerWinding name="W2" sgcr:ratedKV="22">
        <Terminal name="T1" connectivityNode="HVMV/MV/Dist/CNMV"/>
      </TransformerWinding>
      <Private type="sgcr:ElectricalParams" sn_mva="40" vk_percent="11" vkr_percent="0.45"/>
    </PowerTransformer>
    <VoltageLevel name="HV">
      <Voltage multiplier="k" unit="V">110</Voltage>
      <Bay name="Feed">
        <ConnectivityNode name="CNHV" pathName="HVMV/HV/Feed/CNHV"/>
        <ConductingEquipment name="GRID" type="IFL">
          <Terminal name="T1" connectivityNode="HVMV/HV/Feed/CNHV"/>
          <Private type="sgcr:ElectricalParams" vm_pu="1.02"/>
        </ConductingEquipment>
      </Bay>
    </VoltageLevel>
    <VoltageLevel name="MV">
      <Voltage multiplier="k" unit="V">22</Voltage>
      <Bay name="Dist">
        <ConnectivityNode name="CNMV" pathName="HVMV/MV/Dist/CNMV"/>
        <ConnectivityNode name="CNF" pathName="HVMV/MV/Dist/CNF"/>
        <ConductingEquipment name="CBF" type="CBR">
          <Terminal name="T1" connectivityNode="HVMV/MV/Dist/CNMV"/>
          <Terminal name="T2" connectivityNode="HVMV/MV/Dist/CNF"/>
        </ConductingEquipment>
        <ConductingEquipment name="CITY" type="LOD">
          <Terminal name="T1" connectivityNode="HVMV/MV/Dist/CNF"/>
          <Private type="sgcr:ElectricalParams" p_mw="18" q_mvar="5"/>
        </ConductingEquipment>
      </Bay>
    </VoltageLevel>
  </Substation>
</SCL>"#;

const SCD: &str = r#"<SCL xmlns="http://www.iec.ch/61850/2003/SCL">
  <Header id="hvmv-scd" version="1"/>
  <Substation name="HVMV"><VoltageLevel name="HV"><Voltage>110</Voltage></VoltageLevel></Substation>
  <Communication>
    <SubNetwork name="StationBus" type="8-MMS">
      <ConnectedAP iedName="TRIED1" apName="AP1">
        <Address><P type="IP">10.9.0.11</P><P type="IP-SUBNET">255.255.0.0</P></Address>
      </ConnectedAP>
    </SubNetwork>
  </Communication>
  <IED name="TRIED1"><AccessPoint name="AP1"><Server>
    <LDevice inst="LD0">
      <LN0 lnClass="LLN0" inst="" lnType="LLN0_T"/>
      <LN lnClass="MMXU" inst="1" lnType="MMXU_T"/>
      <LN lnClass="XCBR" inst="1" lnType="XCBR_T"/>
      <LN lnClass="CSWI" inst="1" lnType="CSWI_T"/>
      <LN lnClass="PTOC" inst="1" lnType="PTOC_T"/>
    </LDevice>
  </Server></AccessPoint></IED>
</SCL>"#;

const IED_CONFIG: &str = r#"<IEDConfig>
  <IED name="TRIED1" substation="HVMV" ld="TRIED1LD0" samplePeriodMs="100">
    <Measurement item="MMXU1$MX$TotW$mag$f" key="meas/HVMV/branch/T1/p_mw"/>
    <Measurement item="MMXU1$MX$A$phsA$cVal$mag$f" key="meas/HVMV/branch/T1/i_ka"/>
    <Breaker name="CBF" xcbr="XCBR1" cswi="CSWI1"/>
    <Protection type="PTOC" ln="PTOC1" measurementKey="meas/HVMV/branch/T1/i_ka"
                threshold="0.12" delayMs="200" breaker="CBF"/>
  </IED>
</IEDConfig>"#;

fn bundle() -> SgmlBundle {
    SgmlBundle {
        ssds: vec![SSD.to_string()],
        scds: vec![SCD.to_string()],
        icds: vec![],
        seds: vec![],
        ied_config: Some(IED_CONFIG.to_string()),
        scada_config: None,
        plc_config: None,
        power_extra: None,
        scenarios: vec![],
        scada_host: None,
    }
}

#[test]
fn transformer_substation_compiles_and_solves() {
    let range =
        CyberRange::instantiate(CompiledModel::shared(&bundle()).expect("HV/MV bundle compiles"))
            .expect("HV/MV bundle compiles");
    assert_eq!(range.power.trafo.len(), 1);
    let trafo = &range.power.trafo[0];
    assert_eq!(trafo.sn_mva, 40.0);
    assert_eq!(trafo.vn_hv_kv, 110.0);
    assert_eq!(trafo.vn_lv_kv, 22.0);

    // Base case: MV voltage sags below the HV set-point under 18 MW load.
    let hv = range.power.bus_by_name("HVMV/HV/Feed/CNHV").unwrap();
    let mv = range.power.bus_by_name("HVMV/MV/Dist/CNF").unwrap();
    let hv_v = range.last_result().bus[hv.index()].vm_pu;
    let mv_v = range.last_result().bus[mv.index()].vm_pu;
    assert!(
        (hv_v - 1.02).abs() < 1e-6,
        "slack holds set-point, got {hv_v}"
    );
    assert!(mv_v < hv_v, "load side sags: {mv_v} < {hv_v}");
    assert!(mv_v > 0.9, "but stays healthy: {mv_v}");

    // Transformer flow ≈ load + losses; loading vs 40 MVA rating.
    let flow = &range.last_result().trafo[0];
    assert!(
        flow.p_from_mw > 18.0 && flow.p_from_mw < 19.5,
        "{}",
        flow.p_from_mw
    );
    assert!(flow.loading_percent > 40.0 && flow.loading_percent < 60.0);
}

#[test]
fn transformer_measurements_reach_the_ied() {
    let mut range = CyberRange::instantiate(CompiledModel::shared(&bundle()).expect("compiles"))
        .expect("compiles");
    range.run_for(SimDuration::from_secs(1));
    let ied = &range.ieds["TRIED1"];
    let p = ied
        .model
        .read("TRIED1LD0/MMXU1$MX$TotW$mag$f")
        .and_then(|v| v.as_f64())
        .expect("trafo power mapped");
    assert!(p > 18.0, "IED reads the transformer flow: {p}");
}

#[test]
fn overcurrent_on_mv_feeder_trips_and_unloads_the_transformer() {
    let mut range = CyberRange::instantiate(CompiledModel::shared(&bundle()).expect("compiles"))
        .expect("compiles");
    range.run_for(SimDuration::from_secs(1));
    // The published branch current is the HV side: 18 MW @ 110 kV ≈ 0.095 kA.
    // Jump the load so it crosses the 0.12 kA pickup (~30 MW → 0.16 kA).
    let load = range.power.load_by_name("HVMV/CITY").unwrap();
    range.power.load[load.index()].p_mw = 30.0;
    range.run_for(SimDuration::from_secs(2));
    assert!(
        range.ieds["TRIED1"].trip_count() >= 1,
        "{:?}",
        range.ieds["TRIED1"].events()
    );
    // Breaker CBF opened → transformer unloaded.
    assert!(range.last_result().trafo[0].p_from_mw.abs() < 0.5);
}
