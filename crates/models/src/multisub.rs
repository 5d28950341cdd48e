//! Synthetic multi-substation model generator — the workload behind the
//! paper's scalability claim (*"a commodity desktop PC … can host a
//! 5-substation model including 104 virtual IEDs with 100 ms power flow
//! simulation interval"*).
//!
//! Each substation is a 22 kV distribution station: a main bus fed either
//! by an external grid (substation 1) or an inter-substation tie line (SED),
//! plus one feeder per IED — breaker, line, and load — so IED count scales
//! both the cyber and the physical model together.

use crate::assets;
use sgcr_core::{
    branch_i_key, branch_p_key, breaker_cmd_key, breaker_state_key, IedConfig, PowerExtraConfig,
    SgmlBundle,
};
use sgcr_ied::{BreakerMap, IedSpec, MeasurementMap, ProtectionSpec};
use sgcr_scl::{write_scl, ElectricalParams, Header, InterSubstationLine, SclDocument, SourcePos};

/// Parameters of a synthetic multi-substation model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiSubParams {
    /// Number of substations (chained by SED tie lines).
    pub substations: usize,
    /// Total virtual IEDs across all substations.
    pub total_ieds: usize,
    /// Power-flow interval in milliseconds.
    pub interval_ms: u64,
}

impl MultiSubParams {
    /// The paper's scalability configuration: 5 substations, 104 IEDs,
    /// 100 ms interval.
    pub fn paper_profile() -> MultiSubParams {
        MultiSubParams {
            substations: 5,
            total_ieds: 104,
            interval_ms: 100,
        }
    }
}

/// How many IEDs substation `index` (0-based) receives.
pub fn ieds_in_substation(params: &MultiSubParams, index: usize) -> usize {
    let base = params.total_ieds / params.substations;
    let remainder = params.total_ieds % params.substations;
    base + usize::from(index < remainder)
}

/// Substation name for an index (1-based in names).
pub fn substation_name(index: usize) -> String {
    format!("S{}", index + 1)
}

/// IED name: `S{n}IED{k}`.
pub fn ied_name(substation_index: usize, ied_index: usize) -> String {
    format!("{}IED{}", substation_name(substation_index), ied_index + 1)
}

/// Generates the complete bundle.
pub fn multisub_bundle(params: &MultiSubParams) -> SgmlBundle {
    let mut ssds = Vec::new();
    let mut scds = Vec::new();
    let mut icds = Vec::new();
    let mut ied_config = IedConfig::default();

    for s in 0..params.substations {
        let sub = substation_name(s);
        let n_ieds = ieds_in_substation(params, s);

        // --- SSD: main bus + one feeder per IED -------------------------
        let mut builder = assets::ssd_builder(&sub)
            .voltage_level("MV", 22.0)
            .bus("MV", "Main", "CNMAIN");
        if s == 0 {
            builder = builder.infeed("MV", "Main", "GRID", "CNMAIN", 1.0);
        }
        for f in 0..n_ieds {
            let feeder_bay = format!("F{}", f + 1);
            let cn_feeder = format!("CNF{}", f + 1);
            let cn_tap = format!("CNT{}", f + 1);
            builder = builder
                .bus("MV", &feeder_bay, &cn_tap)
                .bus("MV", &feeder_bay, &cn_feeder)
                .breaker(
                    "MV",
                    &feeder_bay,
                    &format!("CB{}", f + 1),
                    "CNMAIN",
                    &cn_tap,
                    false,
                )
                .line(
                    "MV",
                    &feeder_bay,
                    &format!("LF{}", f + 1),
                    &cn_tap,
                    &cn_feeder,
                    1.0,
                    0.15,
                    0.12,
                    0.3,
                )
                .load(
                    "MV",
                    &feeder_bay,
                    &format!("LOAD{}", f + 1),
                    &cn_feeder,
                    0.08 + 0.01 * (f % 5) as f64,
                    0.02,
                );
        }
        ssds.push(write_scl(&builder.finish()));

        // --- SCD: one station bus, all IEDs + (S1 only) SCADA ------------
        let mut scd =
            assets::scd_builder(&sub, &format!("{sub}-scd")).subnetwork(&format!("{sub}Bus"));
        for f in 0..n_ieds {
            let name = ied_name(s, f);
            let ip = format!("10.{}.{}.{}", s + 1, f / 200, 10 + (f % 200));
            scd = scd.host(&format!("{sub}Bus"), &name, &ip, None);
            scd = scd.ied(&name, &["LLN0", "LPHD", "MMXU", "XCBR", "CSWI", "PTOC"]);
        }
        if s == 0 {
            scd = scd.host(&format!("{sub}Bus"), "SCADA", "10.1.9.100", None);
        }
        scds.push(scd.finish_xml());

        // --- ICDs + IED Config -------------------------------------------
        for f in 0..n_ieds {
            let name = ied_name(s, f);
            icds.push(assets::icd_for(
                &name,
                &["LLN0", "LPHD", "MMXU", "XCBR", "CSWI", "PTOC"],
            ));
            let mut spec = IedSpec::new(&name, &sub);
            let breaker = format!("CB{}", f + 1);
            let scoped_breaker = format!("{sub}/{breaker}");
            let line = format!("{sub}/LF{}", f + 1);
            spec.measurements.push(MeasurementMap {
                item: "MMXU1$MX$TotW$mag$f".into(),
                kv_key: branch_p_key(&line),
            });
            spec.measurements.push(MeasurementMap {
                item: "MMXU1$MX$A$phsA$cVal$mag$f".into(),
                kv_key: branch_i_key(&line),
            });
            spec.breakers.push(BreakerMap {
                name: breaker.clone(),
                xcbr: "XCBR1".into(),
                cswi: "CSWI1".into(),
                state_key: breaker_state_key(&scoped_breaker),
                cmd_key: breaker_cmd_key(&scoped_breaker),
                interlocked: false,
            });
            spec.protections.push(ProtectionSpec::Ptoc {
                ln: "PTOC1".into(),
                measurement_key: branch_i_key(&line),
                pickup: 0.012,
                delay_ms: 300,
                breaker,
            });
            ied_config.ieds.push(spec);
        }
    }

    // --- SEDs: chain S1–S2, S2–S3, … ------------------------------------
    let mut seds = Vec::new();
    for s in 1..params.substations {
        let from = substation_name(s - 1);
        let to = substation_name(s);
        let sed = SclDocument {
            header: Header {
                id: format!("sed-{from}-{to}"),
                version: "1".into(),
                revision: String::new(),
            },
            inter_substation_lines: vec![InterSubstationLine {
                pos: SourcePos::default(),
                name: format!("TIE{}{}", s, s + 1),
                from_substation: from.clone(),
                from_node: format!("{from}/MV/Main/CNMAIN"),
                to_substation: to.clone(),
                to_node: format!("{to}/MV/Main/CNMAIN"),
                params: ElectricalParams {
                    length_km: Some(5.0),
                    r_ohm_per_km: Some(0.08),
                    x_ohm_per_km: Some(0.25),
                    max_i_ka: Some(0.8),
                    ..ElectricalParams::default()
                },
                protection_ieds: vec![ied_name(s - 1, 0), ied_name(s, 0)],
            }],
            ..SclDocument::default()
        };
        seds.push(write_scl(&sed));
    }

    // --- SCADA: poll the first IED of each substation over MMS -----------
    let mut scada_sources = String::new();
    for s in 0..params.substations {
        let name = ied_name(s, 0);
        let ip = format!("10.{}.0.10", s + 1);
        scada_sources.push_str(&format!(
            r#"  <DataSource name="{name}" type="MMS" ip="{ip}" pollMs="1000">
    <Point name="{name}_P" item="{name}LD0/MMXU1$MX$TotW$mag$f"/>
  </DataSource>
"#
        ));
    }
    let scada_config =
        format!("<ScadaConfig name=\"multisub-HMI\">\n{scada_sources}</ScadaConfig>");

    let power_extra = PowerExtraConfig {
        interval_ms: params.interval_ms,
        ..PowerExtraConfig::default()
    };

    SgmlBundle {
        ssds,
        scds,
        icds,
        seds,
        ied_config: Some(ied_config.to_xml()),
        scada_config: Some(scada_config),
        plc_config: None,
        power_extra: Some(power_extra.to_xml()),
        scenarios: vec![],
        scada_host: Some("SCADA".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ied_distribution_sums_to_total() {
        let params = MultiSubParams::paper_profile();
        let total: usize = (0..params.substations)
            .map(|s| ieds_in_substation(&params, s))
            .sum();
        assert_eq!(total, 104);
        // 104 = 21 + 21 + 21 + 21 + 20
        assert_eq!(ieds_in_substation(&params, 0), 21);
        assert_eq!(ieds_in_substation(&params, 4), 20);
    }

    #[test]
    fn small_bundle_files_parse() {
        let params = MultiSubParams {
            substations: 2,
            total_ieds: 4,
            interval_ms: 100,
        };
        let bundle = multisub_bundle(&params);
        assert_eq!(bundle.ssds.len(), 2);
        assert_eq!(bundle.scds.len(), 2);
        assert_eq!(bundle.icds.len(), 4);
        assert_eq!(bundle.seds.len(), 1);
        for ssd in &bundle.ssds {
            assert!(!sgcr_scl::parse_scl(ssd).unwrap().substations.is_empty());
        }
        for scd in &bundle.scds {
            let doc = sgcr_scl::parse_scl(scd).unwrap();
            assert!(doc.communication.is_some() && !doc.ieds.is_empty());
        }
        for sed in &bundle.seds {
            let doc = sgcr_scl::parse_scl(sed).unwrap();
            assert!(!doc.inter_substation_lines.is_empty());
        }
        IedConfig::parse(bundle.ied_config.as_ref().unwrap()).unwrap();
        sgcr_scada::ScadaConfig::parse(bundle.scada_config.as_ref().unwrap()).unwrap();
    }
}
