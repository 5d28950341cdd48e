//! Structural validation of the ScadaBR-style JSON translation — the
//! paper's "script to translate the SCADA Config XML into a JSON format
//! that SCADABR can import". We validate with the workspace's JSON reader
//! so the output is guaranteed parseable by a real importer.

use sgcr_obs::json::{parse, Value};
use sgcr_scada::ScadaConfig;

/// Parses the export, failing the test on invalid JSON.
fn parsed(json: &str) -> Value {
    parse(json).unwrap_or_else(|e| panic!("invalid JSON ({e}):\n{json}"))
}

/// The `name` of every entry of one of the export's arrays.
fn names<'a>(root: &'a Value, array: &str) -> Vec<&'a str> {
    root.get(array)
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|entry| entry.get("name").and_then(Value::as_str))
        .collect()
}

const CONFIG: &str = r#"<ScadaConfig name="json-test">
  <DataSource name="PLC &quot;main&quot;" type="MODBUS" ip="10.0.0.1" pollMs="500">
    <Point name="P1" kind="holding" address="0" scale="0.1"/>
    <Point name="C1" kind="coil" address="3" writable="true"/>
  </DataSource>
  <DataSource name="IED1" type="MMS" ip="10.0.0.2" pollMs="1000">
    <Point name="V1" item="IED1LD0/MMXU1$MX$PhV$mag$f"/>
    <Point name="V2&#10;phase&#9;B" item="IED1LD0/MMXU1$MX$PhV$phsB$f"/>
  </DataSource>
</ScadaConfig>"#;

#[test]
fn json_is_structurally_valid() {
    let config = ScadaConfig::parse(CONFIG).unwrap();
    let root = parsed(&config.to_scadabr_json());
    assert_eq!(names(&root, "dataSources"), ["PLC \"main\"", "IED1"]);
    assert_eq!(names(&root, "dataPoints").len(), 4);
}

#[test]
fn json_escapes_quotes_in_names() {
    let config = ScadaConfig::parse(CONFIG).unwrap();
    let json = config.to_scadabr_json();
    assert!(json.contains(r#"PLC \"main\""#), "{json}");
    assert!(json.contains(r#""V2\nphase\tB""#), "{json}");
    let root = parsed(&json);
    assert_eq!(
        names(&root, "dataPoints"),
        ["P1", "C1", "V1", "V2\nphase\tB"]
    );
}

#[test]
fn json_carries_addressing_for_both_protocols() {
    let config = ScadaConfig::parse(CONFIG).unwrap();
    let json = config.to_scadabr_json();
    assert!(json.contains("\"range\": \"HOLDING_REGISTER\", \"offset\": 0"));
    assert!(json.contains("\"range\": \"COIL_STATUS\", \"offset\": 3"));
    assert!(json.contains("\"objectReference\": \"IED1LD0/MMXU1$MX$PhV$mag$f\""));
    assert!(json.contains("\"settable\": true"));
    assert!(json.contains("\"multiplier\": 0.1"));
}

#[test]
fn every_point_references_an_emitted_source() {
    let config = ScadaConfig::parse(CONFIG).unwrap();
    let json = config.to_scadabr_json();
    for i in 1..=2 {
        assert!(json.contains(&format!("\"xid\": \"DS_{i}\"")));
    }
    for i in 1..=4 {
        assert!(json.contains(&format!("\"xid\": \"DP_{i}\"")));
    }
    // Data points only reference defined sources.
    for line in json.lines().filter(|l| l.contains("dataSourceXid")) {
        assert!(
            line.contains("\"dataSourceXid\": \"DS_1\"")
                || line.contains("\"dataSourceXid\": \"DS_2\""),
            "{line}"
        );
    }
}
