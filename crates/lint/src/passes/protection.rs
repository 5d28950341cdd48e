//! Protection sanity checks (`SG04xx`): every protection function must have a
//! defined breaker it can actually trip and a plausible threshold.

use crate::pass::LintPass;
use crate::source::LoadedBundle;
use sgcr_ied::ProtectionSpec;
use sgcr_scl::{codes, Diagnostic};

/// Checks protection functions declared in the IED Config and in the
/// single-line diagrams.
pub struct ProtectionPass;

impl LintPass for ProtectionPass {
    fn name(&self) -> &'static str {
        "protection"
    }

    fn run(&self, bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
        check_config(bundle, out);
        check_bays(bundle, out);
    }
}

/// Breaker references and thresholds of every configured protection function.
fn check_config(bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
    let Some(file) = &bundle.ied_config else {
        return;
    };
    for spec in &file.config.ieds {
        for protection in &spec.protections {
            let context = format!("{}: IED {}, {}", file.name, spec.name, protection.ln());
            let breaker = match protection {
                ProtectionSpec::Ptoc { breaker, .. }
                | ProtectionSpec::Ptov { breaker, .. }
                | ProtectionSpec::Ptuv { breaker, .. }
                | ProtectionSpec::Pdif { breaker, .. }
                | ProtectionSpec::Cilo { breaker, .. } => breaker,
            };
            if breaker.is_empty() {
                // CILO gates commands rather than tripping, but still needs
                // the breaker whose close commands it supervises.
                out.push(Diagnostic::warning(
                    codes::PROTECTION_NO_BREAKER,
                    format!(
                        "{} function has no breaker mapped and can never operate",
                        protection.ln_class()
                    ),
                    context.clone(),
                ));
            } else if spec.breaker(breaker).is_none() {
                out.push(Diagnostic::error(
                    codes::PROTECTION_UNDEFINED_BREAKER,
                    format!(
                        "{} trips breaker {breaker:?} but IED {} defines no such breaker mapping",
                        protection.ln_class(),
                        spec.name
                    ),
                    context.clone(),
                ));
            }
            let threshold = match protection {
                ProtectionSpec::Ptoc { pickup, .. } => Some(*pickup),
                ProtectionSpec::Ptov { threshold_pu, .. }
                | ProtectionSpec::Ptuv { threshold_pu, .. } => Some(*threshold_pu),
                ProtectionSpec::Pdif { threshold, .. } => Some(*threshold),
                ProtectionSpec::Cilo { .. } => None,
            };
            if let Some(threshold) = threshold {
                if threshold <= 0.0 || threshold.is_nan() {
                    out.push(Diagnostic::warning(
                        codes::PROTECTION_BAD_THRESHOLD,
                        format!(
                            "{} threshold {threshold} is not positive; the function would \
                             operate immediately or never",
                            protection.ln_class()
                        ),
                        context.clone(),
                    ));
                }
            }
        }
    }
}

/// SG0401 at the diagram level: a bay that assigns a protection-class LNode
/// but contains neither a breaker nor an XCBR reference has nothing to trip.
fn check_bays(bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
    for (file, substation) in bundle.substation_sources() {
        for vl in &substation.voltage_levels {
            for bay in &vl.bays {
                let has_breaker = bay
                    .equipment
                    .iter()
                    .any(|eq| eq.eq_type == sgcr_scl::EquipmentType::CircuitBreaker)
                    || bay.lnodes.iter().any(|l| l.ln_class == "XCBR");
                for lnode in &bay.lnodes {
                    let is_protection =
                        lnode.ln_class.starts_with('P') && lnode.ln_class.len() == 4;
                    if is_protection && !has_breaker {
                        out.push(
                            Diagnostic::warning(
                                codes::PROTECTION_NO_BREAKER,
                                format!(
                                    "bay assigns {} to {} but contains no circuit breaker to trip",
                                    lnode.ln_class, lnode.ied_name
                                ),
                                format!("{}/{}/{}", substation.name, vl.name, bay.name),
                            )
                            .with_pos(&file.name, Some(lnode.pos)),
                        );
                    }
                }
            }
        }
    }
}
