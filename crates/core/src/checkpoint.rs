//! Checkpoints: a deterministic, versioned capture of one tenant's
//! [`RangeState`](crate::state::RangeState) that can be resumed against the
//! same shared [`CompiledModel`].
//!
//! A checkpoint captured at any step resumes there; one captured at step 0
//! is the restart recipe — resuming it rebuilds the tenant with its
//! captured settings and replays nothing. Because every source of
//! randomness in a range is the seeded fault RNG and the co-simulation is
//! otherwise a pure function of its inputs, the checkpoint does not need to
//! deep-copy live device state (virtual IED apps hold closures and shared
//! handles that cannot be cloned): it records the tenant's instantiation
//! settings plus its exact *replay position* — step count, simulation
//! clock, fault-RNG stream state, the full process store with per-entry
//! write versions, and a bit-exact digest of the power solution.
//!
//! [`Checkpoint::resume`] re-instantiates from the shared model and
//! re-executes the recorded number of steps, re-emitting journal events
//! into the new telemetry handle — so a resumed tenant's journal is
//! **byte-identical** to one that never paused (modulo wall-clock solve
//! times, exactly like the fault-determinism tests). The reconstructed
//! state is then verified against every recorded digest; any disagreement
//! is a typed [`CheckpointError::Divergence`], never silent drift. Capture
//! is cheap (a store dump plus a few hashes), suiting periodic supervision;
//! the O(steps) replay cost is paid only when a tenant actually restarts.
//!
//! The serialized form ([`Checkpoint::to_json`]) is versioned: a checkpoint
//! whose [`CHECKPOINT_VERSION`] does not match the running code is rejected
//! with [`CheckpointError::VersionMismatch`], and one taken against a
//! different compiled model with [`CheckpointError::ModelMismatch`].

use crate::fingerprint::fnv1a_64;
use crate::model::CompiledModel;
use crate::range::{CyberRange, RangeBuilder, RangeError};
use crate::state::{RangeSettings, RangeState};
use sgcr_kvstore::{Entry, Value};
use sgcr_obs::{json, Telemetry};
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// The checkpoint serialization format version this build writes and reads.
///
/// It changes whenever the same steps replay to a different recorded
/// position, so an older checkpoint is rejected with
/// [`CheckpointError::VersionMismatch`] instead of failing verification
/// with [`CheckpointError::Divergence`]. Version 2: the measurement publish
/// writes only values that changed, so entry versions and the store version
/// count fewer writes than version 1 recorded. Version 3: the voltage-
/// controlling units at one node share its Q, so the power solution digest
/// of a model with several such units differs from version 2's.
pub const CHECKPOINT_VERSION: u32 = 3;

/// An error capturing, decoding, or resuming a [`Checkpoint`].
#[derive(Debug)]
pub enum CheckpointError {
    /// The checkpoint was written by an incompatible format version.
    VersionMismatch {
        /// Version recorded in the checkpoint.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The checkpoint was captured against a different compiled model.
    ModelMismatch {
        /// Fingerprint of the model offered for resume.
        found: u64,
        /// Fingerprint recorded in the checkpoint.
        expected: u64,
    },
    /// Re-instantiating the range from the shared model failed.
    Instantiate(RangeError),
    /// Replay reconstructed a state that disagrees with the recorded
    /// digests — the determinism contract was broken.
    Divergence {
        /// Which recorded quantity disagreed, with expected/actual values.
        detail: String,
    },
    /// The serialized checkpoint could not be decoded.
    Decode {
        /// What was malformed.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint version {found} is not resumable by this build (expected {expected})"
            ),
            CheckpointError::ModelMismatch { found, expected } => write!(
                f,
                "checkpoint was captured against a different compiled model \
                 (model fingerprint {found:#018x}, checkpoint expects {expected:#018x})"
            ),
            CheckpointError::Instantiate(e) => write!(f, "cannot re-instantiate range: {e}"),
            CheckpointError::Divergence { detail } => {
                write!(f, "replay diverged from checkpoint: {detail}")
            }
            CheckpointError::Decode { detail } => write!(f, "malformed checkpoint: {detail}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Instantiate(e) => Some(e),
            _ => None,
        }
    }
}

/// A deterministic, versioned mid-run capture of one tenant range. See the
/// module docs for the capture/replay design.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Serialization format version. Public so compatibility handling (and
    /// the version-rejection tests) can inspect and manipulate it.
    pub version: u32,
    model_fingerprint: u64,
    settings: RangeSettings,
    steps: u64,
    sim_time_ns: u64,
    fault_rng_state: u64,
    store_version: u64,
    cmd_cursor: u64,
    solve_errors_total: u64,
    power_digest: u64,
    store: Vec<(String, Entry)>,
}

/// Bit-exact digest of a power solution: FNV-1a over its debug rendering,
/// which prints every float with shortest-round-trip precision.
fn power_digest(state: &RangeState) -> u64 {
    fnv1a_64(format!("{:?}", state.last_result()).as_bytes())
}

impl Checkpoint {
    /// Captures the replay position of a live range (read-only; the range
    /// continues unaffected). Called between steps by
    /// [`CyberRange::checkpoint`].
    pub(crate) fn capture(
        model: &Arc<CompiledModel>,
        settings: &RangeSettings,
        state: &RangeState,
    ) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            model_fingerprint: model.fingerprint(),
            settings: settings.clone(),
            steps: state.steps_total(),
            sim_time_ns: state.now().as_nanos(),
            fault_rng_state: state.net.fault_rng_state(),
            store_version: state.store.version(),
            cmd_cursor: state.cmd_cursor(),
            solve_errors_total: state.solve_errors_total(),
            power_digest: power_digest(state),
            store: state.store.dump(),
        }
    }

    /// The number of co-simulation steps the captured tenant had executed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Simulated nanoseconds at capture time.
    pub fn sim_time_ns(&self) -> u64 {
        self.sim_time_ns
    }

    /// Resumes the checkpoint against the shared compiled model: validates
    /// the format version and model fingerprint, re-instantiates a fresh
    /// range with the recorded settings, deterministically re-executes the
    /// recorded number of steps (journal events re-emit into `telemetry`,
    /// so the resumed tenant's full journal is byte-identical to an
    /// uninterrupted run), and verifies the reconstructed state against
    /// every recorded digest.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::VersionMismatch`] for a foreign format version,
    /// [`CheckpointError::ModelMismatch`] for a different model,
    /// [`CheckpointError::Instantiate`] when the range cannot be rebuilt,
    /// and [`CheckpointError::Divergence`] when replay disagrees with any
    /// recorded digest.
    pub fn resume(
        &self,
        model: Arc<CompiledModel>,
        telemetry: Telemetry,
    ) -> Result<CyberRange, CheckpointError> {
        if self.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: self.version,
                expected: CHECKPOINT_VERSION,
            });
        }
        let found = model.fingerprint();
        if found != self.model_fingerprint {
            return Err(CheckpointError::ModelMismatch {
                found,
                expected: self.model_fingerprint,
            });
        }
        let mut builder = RangeBuilder::from_model(model).telemetry(telemetry);
        if let Some(interval) = self.settings.interval {
            builder = builder.interval(interval);
        }
        if let Some(seed) = self.settings.fault_seed {
            builder = builder.fault_seed(seed);
        }
        let mut range = builder.build().map_err(CheckpointError::Instantiate)?;
        for _ in 0..self.steps {
            range.step();
        }
        self.verify(&range)?;
        Ok(range)
    }

    /// Compares a replayed range against every recorded digest.
    fn verify(&self, range: &CyberRange) -> Result<(), CheckpointError> {
        let diverged = |what: &str, expected: String, actual: String| {
            Err(CheckpointError::Divergence {
                detail: format!("{what}: checkpoint recorded {expected}, replay produced {actual}"),
            })
        };
        if range.steps_total() != self.steps {
            return diverged(
                "steps",
                self.steps.to_string(),
                range.steps_total().to_string(),
            );
        }
        if range.now().as_nanos() != self.sim_time_ns {
            return diverged(
                "sim clock (ns)",
                self.sim_time_ns.to_string(),
                range.now().as_nanos().to_string(),
            );
        }
        if range.net.fault_rng_state() != self.fault_rng_state {
            return diverged(
                "fault-RNG state",
                format!("{:#018x}", self.fault_rng_state),
                format!("{:#018x}", range.net.fault_rng_state()),
            );
        }
        if range.solve_errors_total() != self.solve_errors_total {
            return diverged(
                "solve errors",
                self.solve_errors_total.to_string(),
                range.solve_errors_total().to_string(),
            );
        }
        if range.store.version() != self.store_version {
            return diverged(
                "store version",
                self.store_version.to_string(),
                range.store.version().to_string(),
            );
        }
        if range.cmd_cursor() != self.cmd_cursor {
            return diverged(
                "command cursor",
                self.cmd_cursor.to_string(),
                range.cmd_cursor().to_string(),
            );
        }
        let replayed = range.store.dump();
        if replayed.len() != self.store.len() {
            return diverged(
                "store size",
                self.store.len().to_string(),
                replayed.len().to_string(),
            );
        }
        for ((key_a, entry_a), (key_b, entry_b)) in self.store.iter().zip(replayed.iter()) {
            if key_a != key_b
                || entry_a.version != entry_b.version
                // Bitwise: verification must not be weaker than the
                // byte-identical journal contract.
                || !entry_a.value.bits_eq(&entry_b.value)
            {
                return diverged(
                    "store entry",
                    format!("{key_a}={:?} @v{}", entry_a.value, entry_a.version),
                    format!("{key_b}={:?} @v{}", entry_b.value, entry_b.version),
                );
            }
        }
        let digest = power_digest(range);
        if digest != self.power_digest {
            return diverged(
                "power solution digest",
                format!("{:#018x}", self.power_digest),
                format!("{digest:#018x}"),
            );
        }
        Ok(())
    }

    /// Serializes the checkpoint as one JSON object (single line). All
    /// 64-bit quantities that may exceed JSON's exact-integer range — RNG
    /// state, digests, fingerprints, seeds, float payloads — are encoded as
    /// hex/decimal *strings* so nothing is rounded through an `f64`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.store.len() * 64);
        let _ = write!(
            out,
            "{{\"format\":\"sgcr-checkpoint\",\"version\":{},\"model_fingerprint\":\"{:#018x}\",",
            self.version, self.model_fingerprint
        );
        out.push_str("\"settings\":{");
        match self.settings.interval {
            Some(interval) => {
                let _ = write!(out, "\"interval_ns\":{},", interval.as_nanos());
            }
            None => out.push_str("\"interval_ns\":null,"),
        }
        match self.settings.fault_seed {
            Some(seed) => {
                let _ = write!(out, "\"fault_seed\":\"{seed}\"");
            }
            None => out.push_str("\"fault_seed\":null"),
        }
        let _ = write!(
            out,
            "}},\"steps\":{},\"sim_time_ns\":{},\"fault_rng_state\":\"{:#018x}\",\
             \"store_version\":{},\"cmd_cursor\":{},\"solve_errors_total\":{},\
             \"power_digest\":\"{:#018x}\",\"store\":[",
            self.steps,
            self.sim_time_ns,
            self.fault_rng_state,
            self.store_version,
            self.cmd_cursor,
            self.solve_errors_total,
            self.power_digest,
        );
        for (i, (key, entry)) in self.store.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (tag, payload) = match &entry.value {
                Value::Bool(b) => ("b", b.to_string()),
                Value::Int(v) => ("i", v.to_string()),
                Value::Float(v) => ("f", format!("{:#018x}", v.to_bits())),
                Value::Str(s) => ("s", s.clone()),
            };
            let _ = write!(
                out,
                "[{},{},\"{tag}\",{}]",
                json::quote(key),
                entry.version,
                json::quote(&payload)
            );
        }
        out.push_str("]}");
        out
    }

    /// Decodes a checkpoint serialized by [`Checkpoint::to_json`]. The
    /// format version is *not* validated here — decoding a future version
    /// succeeds structurally and [`resume`](Checkpoint::resume) rejects it
    /// with the typed [`CheckpointError::VersionMismatch`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Decode`] for malformed JSON or schema violations,
    /// including a number that is not a whole `u64` (or a version past
    /// `u32`) and a `"b"` store payload other than `true`/`false`.
    pub fn from_json(text: &str) -> Result<Checkpoint, CheckpointError> {
        let bad = |detail: String| CheckpointError::Decode { detail };
        let root = json::parse(text).map_err(bad)?;
        if root.get("format").and_then(json::Value::as_str) != Some("sgcr-checkpoint") {
            return Err(bad("missing sgcr-checkpoint format marker".to_string()));
        }
        let num = |key: &str| -> Result<u64, CheckpointError> {
            root.get(key)
                .and_then(whole)
                .ok_or_else(|| bad(format!("missing numeric field {key:?}")))
        };
        let hex = |key: &str| -> Result<u64, CheckpointError> {
            let text = root
                .get(key)
                .and_then(json::Value::as_str)
                .ok_or_else(|| bad(format!("missing hex field {key:?}")))?;
            parse_u64_text(text).ok_or_else(|| bad(format!("bad hex field {key:?}: {text}")))
        };
        let settings_value = root
            .get("settings")
            .ok_or_else(|| bad("missing settings".to_string()))?;
        let interval = match settings_value.get("interval_ns") {
            None | Some(json::Value::Null) => None,
            Some(v) => Some(sgcr_net::SimDuration::from_nanos(
                whole(v).ok_or_else(|| bad("bad settings.interval_ns".to_string()))?,
            )),
        };
        let fault_seed = match settings_value.get("fault_seed") {
            None | Some(json::Value::Null) => None,
            Some(v) => {
                let text = v
                    .as_str()
                    .ok_or_else(|| bad("bad settings.fault_seed".to_string()))?;
                Some(
                    parse_u64_text(text)
                        .ok_or_else(|| bad(format!("bad settings.fault_seed: {text}")))?,
                )
            }
        };
        let settings = RangeSettings {
            interval,
            fault_seed,
        };
        let store_value = root
            .get("store")
            .and_then(json::Value::as_array)
            .ok_or_else(|| bad("missing store array".to_string()))?;
        let mut store = Vec::with_capacity(store_value.len());
        for item in store_value {
            let fields = item
                .as_array()
                .filter(|f| f.len() == 4)
                .ok_or_else(|| bad("store entry is not a 4-tuple".to_string()))?;
            let key = fields[0]
                .as_str()
                .ok_or_else(|| bad("store entry key is not a string".to_string()))?
                .to_string();
            let version = whole(&fields[1])
                .ok_or_else(|| bad(format!("store entry {key:?} has a bad version")))?;
            let tag = fields[2].as_str().unwrap_or("");
            let payload = fields[3]
                .as_str()
                .ok_or_else(|| bad(format!("store entry {key:?} has a bad payload")))?;
            let value = match tag {
                "b" => Value::Bool(
                    payload
                        .parse::<bool>()
                        .map_err(|e| bad(format!("store entry {key:?}: {e}")))?,
                ),
                "i" => Value::Int(
                    payload
                        .parse::<i64>()
                        .map_err(|e| bad(format!("store entry {key:?}: {e}")))?,
                ),
                "f" => Value::Float(f64::from_bits(parse_u64_text(payload).ok_or_else(
                    || {
                        bad(format!(
                            "store entry {key:?} has bad float bits {payload:?}"
                        ))
                    },
                )?)),
                "s" => Value::Str(payload.to_string()),
                other => {
                    return Err(bad(format!(
                        "store entry {key:?} has unknown value tag {other:?}"
                    )))
                }
            };
            store.push((key, Entry { value, version }));
        }
        let version = num("version")?;
        Ok(Checkpoint {
            version: u32::try_from(version)
                .map_err(|_| bad(format!("version {version} is out of range")))?,
            model_fingerprint: hex("model_fingerprint")?,
            settings,
            steps: num("steps")?,
            sim_time_ns: num("sim_time_ns")?,
            fault_rng_state: hex("fault_rng_state")?,
            store_version: num("store_version")?,
            cmd_cursor: num("cmd_cursor")?,
            solve_errors_total: num("solve_errors_total")?,
            power_digest: hex("power_digest")?,
            store,
        })
    }
}

/// A JSON number that is exactly a `u64`: fractions, negatives and values
/// past `u64::MAX` (including an overflowed `1e999`) are rejected rather
/// than truncated or saturated.
fn whole(value: &json::Value) -> Option<u64> {
    value
        .as_f64()
        .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64)
        .map(|n| n as u64)
}

/// Parses a `u64` written as `0x…` hex or plain decimal.
fn parse_u64_text(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse::<u64>().ok(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn u64_text_round_trips() {
        assert_eq!(parse_u64_text("0x00000000000000ff"), Some(255));
        assert_eq!(parse_u64_text("42"), Some(42));
        assert_eq!(parse_u64_text("0xzz"), None);
        assert_eq!(parse_u64_text(""), None);
        assert_eq!(
            parse_u64_text(&format!("{:#018x}", u64::MAX)),
            Some(u64::MAX)
        );
    }
}
