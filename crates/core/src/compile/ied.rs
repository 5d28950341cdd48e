//! Virtual IED instantiation: combining an ICD (which logical nodes the IED
//! declares → which features are enabled) with the supplementary IED Config
//! XML (thresholds + cyber↔physical mapping).
//!
//! Per the paper: *"Each virtual IED is instantiated by an IEC 61850 ICD
//! file by enabling features defined in it. For instance, if the ICD file
//! contains definition of logical node PTOV, overvoltage protection function
//! is enabled … an ICD file alone is not sufficient because actual threshold
//! for each protection function is not specified"*.

use sgcr_ied::IedSpec;
use sgcr_scl::{codes, Diagnostic, SclDocument};

/// The outcome of resolving one IED against its ICD.
#[derive(Debug)]
pub struct IedCompilation {
    /// The validated spec (functions without ICD backing removed).
    pub spec: IedSpec,
    /// Diagnostics (missing LNs, disabled functions).
    pub diagnostics: Vec<Diagnostic>,
}

/// Resolves a configured spec against the IED's ICD: protection functions
/// whose LN class the ICD does not declare are disabled (with a diagnostic),
/// and GOOSE publication requires an LLN0 on the IED.
pub fn compile_ied(config_spec: &IedSpec, icd: &SclDocument) -> IedCompilation {
    let mut diagnostics = Vec::new();
    let mut spec = config_spec.clone();

    let Some(ied) = icd.ied(&spec.name).or_else(|| icd.ieds.first()) else {
        diagnostics.push(Diagnostic::error(
            codes::ORPHAN_ICD,
            format!("ICD does not describe IED {:?}", spec.name),
            "compile_ied".to_string(),
        ));
        spec.protections.clear();
        spec.goose = None;
        return IedCompilation { spec, diagnostics };
    };

    // The ICD gates which protection features are enabled.
    spec.protections.retain(|p| {
        let class = p.ln_class();
        if ied.has_ln_class(class) {
            true
        } else {
            diagnostics.push(Diagnostic::warning(
                codes::FEATURE_NO_LN,
                format!(
                    "{}: protection {} configured but ICD declares no {class} — disabled",
                    spec.name,
                    p.ln()
                ),
                "compile_ied".to_string(),
            ));
            false
        }
    });

    // Breakers need an XCBR; measurements an MMXU (warn only).
    if !spec.breakers.is_empty() && !ied.has_ln_class("XCBR") {
        diagnostics.push(Diagnostic::warning(
            codes::FEATURE_NO_LN,
            format!("{}: breakers mapped but ICD declares no XCBR", spec.name),
            "compile_ied".to_string(),
        ));
    }
    if !spec.measurements.is_empty() && !ied.has_ln_class("MMXU") {
        diagnostics.push(Diagnostic::warning(
            codes::FEATURE_NO_LN,
            format!(
                "{}: measurements mapped but ICD declares no MMXU",
                spec.name
            ),
            "compile_ied".to_string(),
        ));
    }
    if spec.goose.is_some() && !ied.has_ln_class("LLN0") {
        diagnostics.push(Diagnostic::warning(
            codes::FEATURE_NO_LN,
            format!(
                "{}: GOOSE configured but ICD declares no LLN0 — disabled",
                spec.name
            ),
            "compile_ied".to_string(),
        ));
        spec.goose = None;
    }
    // R-SV / PDIF pairing: the paper enables inter-substation comms when the
    // relevant LNs exist.
    let has_pdif = spec.protections.iter().any(|p| p.ln_class() == "PDIF");
    if spec.rsv.is_some() && !has_pdif && !ied.has_ln_class("PDIF") {
        diagnostics.push(Diagnostic::warning(
            codes::FEATURE_NO_LN,
            format!(
                "{}: R-SV configured without PDIF — kept for streaming only",
                spec.name
            ),
            "compile_ied".to_string(),
        ));
    }

    IedCompilation { spec, diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgcr_ied::ProtectionSpec;
    use sgcr_scl::parse_scl;

    fn icd_with(classes: &[&str]) -> SclDocument {
        let lns: String = classes
            .iter()
            .map(|c| {
                if *c == "LLN0" {
                    r#"<LN0 lnClass="LLN0" inst="" lnType="LLN0_T"/>"#.to_string()
                } else {
                    format!(r#"<LN lnClass="{c}" inst="1" lnType="{c}_T"/>"#)
                }
            })
            .collect();
        let text = format!(
            r#"<SCL xmlns="http://www.iec.ch/61850/2003/SCL"><Header id="icd"/>
            <IED name="GIED1"><AccessPoint name="AP1"><Server>
            <LDevice inst="LD0">{lns}</LDevice></Server></AccessPoint></IED></SCL>"#
        );
        parse_scl(&text).unwrap()
    }

    fn spec_with_ptoc_and_ptov() -> IedSpec {
        let mut spec = IedSpec::new("GIED1", "S1");
        spec.protections.push(ProtectionSpec::Ptoc {
            ln: "PTOC1".into(),
            measurement_key: "k".into(),
            pickup: 1.0,
            delay_ms: 100,
            breaker: "CB1".into(),
        });
        spec.protections.push(ProtectionSpec::Ptov {
            ln: "PTOV1".into(),
            voltage_key: "v".into(),
            threshold_pu: 1.1,
            delay_ms: 100,
            breaker: "CB1".into(),
        });
        spec
    }

    #[test]
    fn icd_enables_declared_functions() {
        let icd = icd_with(&["LLN0", "XCBR", "PTOC", "PTOV", "MMXU"]);
        let result = compile_ied(&spec_with_ptoc_and_ptov(), &icd);
        assert_eq!(result.spec.protections.len(), 2);
        assert!(result.diagnostics.is_empty());
    }

    #[test]
    fn missing_ln_disables_function() {
        // ICD declares PTOC but not PTOV → over-voltage must be disabled.
        let icd = icd_with(&["LLN0", "XCBR", "PTOC"]);
        let result = compile_ied(&spec_with_ptoc_and_ptov(), &icd);
        assert_eq!(result.spec.protections.len(), 1);
        assert_eq!(result.spec.protections[0].ln_class(), "PTOC");
        assert!(result
            .diagnostics
            .iter()
            .any(|d| d.message.contains("PTOV") && d.message.contains("disabled")));
    }

    #[test]
    fn unknown_ied_clears_everything() {
        let text = r#"<SCL><Header id="icd"/><IED name="OTHER">
            <AccessPoint name="AP1"><Server><LDevice inst="LD0"/></Server></AccessPoint></IED></SCL>"#;
        let icd = parse_scl(text).unwrap();
        // Falls back to first IED in file; protections without LNs are dropped.
        let result = compile_ied(&spec_with_ptoc_and_ptov(), &icd);
        assert!(result.spec.protections.is_empty());
    }
}
