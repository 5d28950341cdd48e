//! The resolved configuration of one virtual IED.
//!
//! An [`IedSpec`] is what the SG-ML processor produces for each IED after
//! combining its ICD (which logical nodes exist → which features to enable)
//! with the supplementary *IED Config XML* (protection thresholds and the
//! cyber↔physical mapping that the paper notes are absent from SCL files).

use sgcr_net::{Ipv4Addr, SimDuration};

/// Maps one process measurement to a data-model item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasurementMap {
    /// Process-store key (e.g. `meas/S1/branch/l1/p_mw`).
    pub kv_key: String,
    /// Model item relative to the IED's LD (e.g. `MMXU1$MX$TotW$mag$f`).
    pub item: String,
}

/// Maps one controllable breaker to its LNs and process keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerMap {
    /// Power-model breaker (switch) name, e.g. `CB1`.
    pub name: String,
    /// The XCBR logical node name, e.g. `XCBR1`.
    pub xcbr: String,
    /// The CSWI logical node name, e.g. `CSWI1`.
    pub cswi: String,
    /// Process key holding the breaker position feedback.
    pub state_key: String,
    /// Process key accepting close (true) / open (false) commands.
    pub cmd_key: String,
    /// Whether CILO interlocking gates close commands on this breaker.
    pub interlocked: bool,
}

/// A protection function instance on the IED (paper Table II).
#[derive(Debug, Clone, PartialEq)]
pub enum ProtectionSpec {
    /// Time over-current.
    Ptoc {
        /// LN name (`PTOC1`).
        ln: String,
        /// Process key of the measured current (kA).
        measurement_key: String,
        /// Pickup threshold (kA).
        pickup: f64,
        /// Definite-time delay in ms.
        delay_ms: u64,
        /// Breaker (by [`BreakerMap::name`]) to trip.
        breaker: String,
    },
    /// Over-voltage.
    Ptov {
        /// LN name (`PTOV1`).
        ln: String,
        /// Process key of the bus voltage (pu).
        voltage_key: String,
        /// Upper threshold (pu).
        threshold_pu: f64,
        /// Definite-time delay in ms.
        delay_ms: u64,
        /// Breaker to trip.
        breaker: String,
    },
    /// Under-voltage.
    Ptuv {
        /// LN name (`PTUV1`).
        ln: String,
        /// Process key of the bus voltage (pu).
        voltage_key: String,
        /// Lower threshold (pu).
        threshold_pu: f64,
        /// Definite-time delay in ms.
        delay_ms: u64,
        /// Breaker to trip.
        breaker: String,
    },
    /// Differential across substations (remote current via R-SV).
    Pdif {
        /// LN name (`PDIF1`).
        ln: String,
        /// Process key of the local current (kA).
        local_current_key: String,
        /// Differential threshold (kA).
        threshold: f64,
        /// Definite-time delay in ms.
        delay_ms: u64,
        /// Breaker to trip.
        breaker: String,
    },
    /// Interlocking of a breaker on remote breaker states.
    Cilo {
        /// LN name (`CILO1`).
        ln: String,
        /// Breaker whose close commands are gated.
        breaker: String,
        /// Remote breakers whose state is monitored.
        monitored: Vec<MonitoredBreaker>,
    },
}

impl ProtectionSpec {
    /// The logical node name of this function.
    pub fn ln(&self) -> &str {
        match self {
            ProtectionSpec::Ptoc { ln, .. }
            | ProtectionSpec::Ptov { ln, .. }
            | ProtectionSpec::Ptuv { ln, .. }
            | ProtectionSpec::Pdif { ln, .. }
            | ProtectionSpec::Cilo { ln, .. } => ln,
        }
    }

    /// The breaker this function trips (relays) or gates (CILO), by
    /// [`BreakerMap::name`].
    pub fn breaker(&self) -> &str {
        match self {
            ProtectionSpec::Ptoc { breaker, .. }
            | ProtectionSpec::Ptov { breaker, .. }
            | ProtectionSpec::Ptuv { breaker, .. }
            | ProtectionSpec::Pdif { breaker, .. }
            | ProtectionSpec::Cilo { breaker, .. } => breaker,
        }
    }

    /// The process key a relay samples; `None` for CILO, which samples
    /// none.
    pub(crate) fn input_key(&self) -> Option<&str> {
        match self {
            ProtectionSpec::Ptoc {
                measurement_key, ..
            } => Some(measurement_key),
            ProtectionSpec::Ptov { voltage_key, .. } | ProtectionSpec::Ptuv { voltage_key, .. } => {
                Some(voltage_key)
            }
            ProtectionSpec::Pdif {
                local_current_key, ..
            } => Some(local_current_key),
            ProtectionSpec::Cilo { .. } => None,
        }
    }

    /// The LN class (`PTOC`, `PTOV`, …).
    pub fn ln_class(&self) -> &'static str {
        match self {
            ProtectionSpec::Ptoc { .. } => "PTOC",
            ProtectionSpec::Ptov { .. } => "PTOV",
            ProtectionSpec::Ptuv { .. } => "PTUV",
            ProtectionSpec::Pdif { .. } => "PDIF",
            ProtectionSpec::Cilo { .. } => "CILO",
        }
    }
}

/// A remote breaker monitored by CILO, received over (R-)GOOSE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitoredBreaker {
    /// Stable reference used in interlock conditions (`S2/CB1`).
    pub reference: String,
    /// The gocbRef of the GOOSE stream carrying the state.
    pub gocb_ref: String,
    /// Index of the state entry within the stream's dataset.
    pub dataset_index: usize,
}

/// One dataset entry of the IED's own GOOSE publication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GooseEntry {
    /// Publish a breaker's position (closed = true).
    BreakerState(String),
    /// Publish a protection LN's operate flag.
    ProtectionOp(String),
}

/// GOOSE publication settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GooseSpec {
    /// APPID (multicast MAC selector).
    pub appid: u16,
    /// Control block reference.
    pub gocb_ref: String,
    /// Dataset reference.
    pub dataset: String,
    /// Dataset entries, in order.
    pub entries: Vec<GooseEntry>,
    /// Publish over R-GOOSE (UDP) to these peers as well (inter-substation).
    pub rgoose_peers: Vec<Ipv4Addr>,
}

/// R-SV publication/subscription settings (for PDIF).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsvSpec {
    /// Our stream id.
    pub sv_id: String,
    /// Process key of the current we stream.
    pub current_key: String,
    /// Peers to send to (UDP unicast).
    pub peers: Vec<Ipv4Addr>,
    /// Remote stream id feeding our PDIF element.
    pub subscribe_sv_id: Option<String>,
}

/// The complete resolved configuration of one virtual IED.
#[derive(Debug, Clone, PartialEq)]
pub struct IedSpec {
    /// IED name (`GIED1`).
    pub name: String,
    /// Logical device name (`GIED1LD0`).
    pub ld: String,
    /// Substation scope for process keys.
    pub substation: String,
    /// Process sampling / protection scan period.
    pub sample_period: SimDuration,
    /// Measurement mappings.
    pub measurements: Vec<MeasurementMap>,
    /// Controllable breakers.
    pub breakers: Vec<BreakerMap>,
    /// Protection functions.
    pub protections: Vec<ProtectionSpec>,
    /// GOOSE publication (if the ICD declares a GSE control block).
    pub goose: Option<GooseSpec>,
    /// R-SV settings (if PDIF is enabled).
    pub rsv: Option<RsvSpec>,
}

impl IedSpec {
    /// A minimal spec with the standard 100 ms sampling period.
    pub fn new(name: &str, substation: &str) -> IedSpec {
        IedSpec {
            name: name.to_string(),
            ld: format!("{name}LD0"),
            substation: substation.to_string(),
            sample_period: SimDuration::from_millis(100),
            measurements: Vec::new(),
            breakers: Vec::new(),
            protections: Vec::new(),
            goose: None,
            rsv: None,
        }
    }

    /// Absolute item id within this IED's LD (`<ld>/<relative>`).
    pub fn item(&self, relative: &str) -> String {
        format!("{}/{}", self.ld, relative)
    }

    /// Finds a breaker mapping by name.
    pub fn breaker(&self, name: &str) -> Option<&BreakerMap> {
        self.breakers.iter().find(|b| b.name == name)
    }

    /// Every process key a sample passes through a sensor: each
    /// measurement's key and each relay's input key, in spec order. These
    /// are the keys a sensor fault can engage on.
    pub fn sampled_keys(&self) -> impl Iterator<Item = &str> {
        let measured = self.measurements.iter().map(|m| m.kv_key.as_str());
        measured.chain(
            self.protections
                .iter()
                .filter_map(ProtectionSpec::input_key),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_helpers() {
        let mut spec = IedSpec::new("GIED1", "S1");
        assert_eq!(spec.ld, "GIED1LD0");
        assert_eq!(
            spec.item("XCBR1$ST$Pos$stVal"),
            "GIED1LD0/XCBR1$ST$Pos$stVal"
        );
        spec.breakers.push(BreakerMap {
            name: "CB1".into(),
            xcbr: "XCBR1".into(),
            cswi: "CSWI1".into(),
            state_key: "meas/S1/cb/CB1/closed".into(),
            cmd_key: "cmd/S1/cb/CB1/close".into(),
            interlocked: false,
        });
        assert!(spec.breaker("CB1").is_some());
        assert!(spec.breaker("CB9").is_none());
        spec.measurements.push(MeasurementMap {
            kv_key: "meas/S1/branch/l1/p_mw".into(),
            item: "MMXU1$MX$TotW$mag$f".into(),
        });
        spec.protections.push(ProtectionSpec::Ptoc {
            ln: "PTOC1".into(),
            measurement_key: "meas/S1/branch/l1/i_ka".into(),
            pickup: 1.0,
            delay_ms: 100,
            breaker: "CB1".into(),
        });
        let sampled: Vec<&str> = spec.sampled_keys().collect();
        assert_eq!(
            sampled,
            ["meas/S1/branch/l1/p_mw", "meas/S1/branch/l1/i_ka"]
        );
    }

    #[test]
    fn protection_classes() {
        let p = ProtectionSpec::Ptoc {
            ln: "PTOC1".into(),
            measurement_key: "k".into(),
            pickup: 1.0,
            delay_ms: 100,
            breaker: "CB1".into(),
        };
        assert_eq!(p.ln_class(), "PTOC");
        assert_eq!(p.ln(), "PTOC1");
        assert_eq!(p.breaker(), "CB1");
    }
}
