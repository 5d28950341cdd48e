//! Edge-case tests for SCL parsing: namespaces, voltage multipliers,
//! degenerate structures, and diagnostics.

use sgcr_scl::{parse_scl, Diagnostic, SclError, Severity};

#[test]
fn namespaced_scl_parses_like_plain() {
    // Some tools emit prefixed SCL; local-name matching must handle it.
    let text = r#"<scl:SCL xmlns:scl="http://www.iec.ch/61850/2003/SCL">
      <scl:Header id="ns-test"/>
      <scl:Substation name="S1">
        <scl:VoltageLevel name="VL1">
          <scl:Voltage multiplier="k">66</scl:Voltage>
          <scl:Bay name="B1">
            <scl:ConnectivityNode name="CN1" pathName="S1/VL1/B1/CN1"/>
          </scl:Bay>
        </scl:VoltageLevel>
      </scl:Substation>
    </scl:SCL>"#;
    let doc = parse_scl(text).expect("prefixed SCL parses");
    assert_eq!(doc.header.id, "ns-test");
    assert_eq!(doc.substations[0].voltage_levels[0].voltage_kv, 66.0);
}

#[test]
fn voltage_multipliers() {
    for (multiplier, value, expected_kv) in
        [("k", "110", 110.0), ("M", "1.1", 1100.0), ("", "400", 0.4)]
    {
        let text = format!(
            r#"<SCL><Header id="v"/><Substation name="S">
              <VoltageLevel name="VL"><Voltage multiplier="{multiplier}">{value}</Voltage></VoltageLevel>
            </Substation></SCL>"#
        );
        let doc = parse_scl(&text).expect("parses");
        assert_eq!(
            doc.substations[0].voltage_levels[0].voltage_kv, expected_kv,
            "multiplier {multiplier:?}"
        );
    }
}

#[test]
fn missing_voltage_defaults_with_warning_not_error() {
    let text = r#"<SCL><Header id="v"/><Substation name="S">
        <VoltageLevel name="VL"/></Substation></SCL>"#;
    let doc = parse_scl(text).expect("still parses");
    assert_eq!(doc.substations[0].voltage_levels[0].voltage_kv, 20.0);
}

#[test]
fn unnamed_substation_is_an_error() {
    let text = r#"<SCL><Header id="x"/><Substation/></SCL>"#;
    match parse_scl(text) {
        Err(SclError::Invalid { diagnostics }) => {
            assert!(diagnostics
                .iter()
                .any(|d: &Diagnostic| d.severity == Severity::Error
                    && d.message.contains("without a name")));
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
}

#[test]
fn connectivity_node_path_defaults_when_missing() {
    let text = r#"<SCL><Header id="x"/><Substation name="S1">
      <VoltageLevel name="VL1"><Voltage>20</Voltage>
        <Bay name="B1"><ConnectivityNode name="CN1"/></Bay>
      </VoltageLevel></Substation></SCL>"#;
    let doc = parse_scl(text).unwrap();
    assert_eq!(
        doc.connectivity_node_paths(),
        vec!["S1/VL1/B1/CN1".to_string()]
    );
}

#[test]
fn ln0_and_prefixed_lns_are_captured() {
    let text = r#"<SCL><Header id="x"/>
      <IED name="X"><AccessPoint name="AP1"><Server>
        <LDevice inst="LD0">
          <LN0 lnClass="LLN0" inst="" lnType="T0"/>
          <LN prefix="Q1" lnClass="XCBR" inst="2" lnType="T1"/>
        </LDevice>
      </Server></AccessPoint></IED></SCL>"#;
    let doc = parse_scl(text).unwrap();
    let ied = doc.ied("X").unwrap();
    assert!(ied.has_ln_class("LLN0"));
    let lns = &ied.access_points[0].ldevices[0].lns;
    assert_eq!(lns[1].name(), "Q1XCBR2");
}

#[test]
fn gse_hex_fields_parse() {
    let text = r#"<SCL><Header id="x"/>
      <Substation name="S"><VoltageLevel name="V"><Voltage>20</Voltage></VoltageLevel></Substation>
      <Communication><SubNetwork name="N">
        <ConnectedAP iedName="I" apName="A">
          <Address><P type="IP">10.0.0.1</P><P type="IP-SUBNET">255.0.0.0</P></Address>
          <GSE ldInst="LD0" cbName="g">
            <Address><P type="MAC-Address">01-0C-CD-01-0A-FF</P>
            <P type="APPID">3FFF</P><P type="VLAN-ID">0FA</P></Address>
          </GSE>
        </ConnectedAP>
      </SubNetwork></Communication>
      <IED name="I"><AccessPoint name="A"><Server><LDevice inst="LD0"/></Server></AccessPoint></IED>
    </SCL>"#;
    let doc = parse_scl(text).unwrap();
    let gse = &doc.communication.as_ref().unwrap().subnetworks[0].connected_aps[0].gse[0];
    assert_eq!(gse.appid, 0x3fff);
    assert_eq!(gse.vlan_id, 0x0fa);
}

#[test]
fn writer_escapes_hostile_names() {
    // Element names come from models; attribute *values* may hold anything.
    let mut doc = sgcr_scl::SclDocument::default();
    doc.header.id = r#"<evil> & "quoted""#.to_string();
    let text = sgcr_scl::write_scl(&doc);
    let reparsed = parse_scl(&text).expect("escaped output reparses");
    assert_eq!(reparsed.header.id, doc.header.id);
}
