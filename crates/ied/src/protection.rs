//! Protection functions of the virtual IED — the paper's Table II:
//! PTOC (time over-current), PTOV (over-voltage), PTUV (under-voltage),
//! PDIF (differential), and CILO (interlocking).
//!
//! Each function is a pure, deterministic state machine stepped with
//! simulated time and the latest measurement; the IED runtime wires inputs
//! from the process store / SV streams and routes trips to breakers.

use sgcr_net::{SimDuration, SimTime};

/// What a protection step concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayEvent {
    /// The measured quantity crossed the threshold; timing started.
    Pickup,
    /// The function operated: trip the breaker.
    Operate,
    /// The quantity returned to normal before operating.
    Dropout,
}

/// Time-delay characteristic of an over-current element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OvercurrentCurve {
    /// Operate after a fixed delay above pickup.
    DefiniteTime {
        /// The fixed delay.
        delay: SimDuration,
    },
    /// IEC standard-inverse IDMT: `t = tms * 0.14 / ((I/Is)^0.02 - 1)`.
    StandardInverse {
        /// Time-multiplier setting.
        tms: f64,
    },
}

/// PTOC — time over-current protection.
///
/// Per Table II: *"Opens a circuit breaker when the amount of power flow
/// exceeds the threshold"*, with the threshold ("generally 3 to 4 times the
/// nominal current") supplied by the IED Config XML.
#[derive(Debug, Clone)]
pub struct OvercurrentRelay {
    /// Pickup threshold (same unit as the measurement, typically kA).
    pub pickup: f64,
    /// Delay characteristic.
    pub curve: OvercurrentCurve,
    picked_up_at: Option<SimTime>,
    operated: bool,
}

impl OvercurrentRelay {
    /// Creates a relay from its settings.
    pub fn new(pickup: f64, curve: OvercurrentCurve) -> OvercurrentRelay {
        OvercurrentRelay {
            pickup,
            curve,
            picked_up_at: None,
            operated: false,
        }
    }

    /// Whether the relay has operated (latched until [`Self::reset`]).
    pub fn has_operated(&self) -> bool {
        self.operated
    }

    /// Whether the relay is currently timing.
    pub fn is_picked_up(&self) -> bool {
        self.picked_up_at.is_some()
    }

    /// Clears the latched operate state (lockout reset).
    pub fn reset(&mut self) {
        self.operated = false;
        self.picked_up_at = None;
    }

    fn operate_delay(&self, current: f64) -> SimDuration {
        match self.curve {
            OvercurrentCurve::DefiniteTime { delay } => delay,
            OvercurrentCurve::StandardInverse { tms } => {
                let ratio = (current / self.pickup).max(1.0 + 1e-9);
                let secs = tms * 0.14 / (ratio.powf(0.02) - 1.0);
                SimDuration::from_nanos((secs.clamp(0.01, 600.0) * 1e9) as u64)
            }
        }
    }

    /// Steps the relay with the latest current measurement.
    pub fn step(&mut self, now: SimTime, current: f64) -> Option<RelayEvent> {
        if self.operated {
            return None;
        }
        if current > self.pickup {
            match self.picked_up_at {
                None => {
                    self.picked_up_at = Some(now);
                    // Instantaneous check (zero-delay definite time).
                    if now.saturating_sub(now) >= self.operate_delay(current)
                        && self.operate_delay(current) == SimDuration::ZERO
                    {
                        self.operated = true;
                        return Some(RelayEvent::Operate);
                    }
                    Some(RelayEvent::Pickup)
                }
                Some(start) => {
                    if now.saturating_sub(start) >= self.operate_delay(current) {
                        self.operated = true;
                        Some(RelayEvent::Operate)
                    } else {
                        None
                    }
                }
            }
        } else if self.picked_up_at.take().is_some() {
            Some(RelayEvent::Dropout)
        } else {
            None
        }
    }
}

/// Direction of a voltage element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoltageMode {
    /// PTOV: operate when voltage exceeds the threshold.
    Over,
    /// PTUV: operate when voltage falls below the threshold.
    Under,
}

/// PTOV / PTUV — over-/under-voltage protection with definite time delay
/// and hysteresis (dropout ratio).
#[derive(Debug, Clone)]
pub struct VoltageRelay {
    /// Operating mode.
    pub mode: VoltageMode,
    /// Threshold in per-unit.
    pub threshold_pu: f64,
    /// Definite time delay.
    pub delay: SimDuration,
    /// Dropout hysteresis ratio (e.g. 0.98 for over-voltage).
    pub dropout_ratio: f64,
    picked_up_at: Option<SimTime>,
    operated: bool,
}

impl VoltageRelay {
    /// Creates an over-voltage (PTOV) element.
    pub fn over(threshold_pu: f64, delay: SimDuration) -> VoltageRelay {
        VoltageRelay {
            mode: VoltageMode::Over,
            threshold_pu,
            delay,
            dropout_ratio: 0.98,
            picked_up_at: None,
            operated: false,
        }
    }

    /// Creates an under-voltage (PTUV) element.
    pub fn under(threshold_pu: f64, delay: SimDuration) -> VoltageRelay {
        VoltageRelay {
            mode: VoltageMode::Under,
            threshold_pu,
            delay,
            dropout_ratio: 1.02,
            picked_up_at: None,
            operated: false,
        }
    }

    /// Whether the relay has operated (latched).
    pub fn has_operated(&self) -> bool {
        self.operated
    }

    /// Whether the relay has picked up and not dropped out since; an
    /// operated relay stays picked up.
    pub fn is_picked_up(&self) -> bool {
        self.picked_up_at.is_some()
    }

    /// Clears the latched operate state.
    pub fn reset(&mut self) {
        self.operated = false;
        self.picked_up_at = None;
    }

    fn violated(&self, vm_pu: f64) -> bool {
        match self.mode {
            VoltageMode::Over => vm_pu > self.threshold_pu,
            VoltageMode::Under => vm_pu < self.threshold_pu,
        }
    }

    fn recovered(&self, vm_pu: f64) -> bool {
        match self.mode {
            VoltageMode::Over => vm_pu < self.threshold_pu * self.dropout_ratio,
            VoltageMode::Under => vm_pu > self.threshold_pu * self.dropout_ratio,
        }
    }

    /// Steps the relay with the latest bus voltage (per-unit).
    ///
    /// A PTUV element ignores a de-energized bus (vm ≈ 0): tripping an
    /// already-dead feeder is suppressed, as real undervoltage elements are
    /// blocked by a minimum-voltage release.
    pub fn step(&mut self, now: SimTime, vm_pu: f64) -> Option<RelayEvent> {
        if self.operated {
            return None;
        }
        if self.mode == VoltageMode::Under && vm_pu < 0.05 {
            // Dead bus: block (minimum voltage release).
            if self.picked_up_at.take().is_some() {
                return Some(RelayEvent::Dropout);
            }
            return None;
        }
        if self.violated(vm_pu) {
            match self.picked_up_at {
                None => {
                    self.picked_up_at = Some(now);
                    if self.delay == SimDuration::ZERO {
                        self.operated = true;
                        return Some(RelayEvent::Operate);
                    }
                    Some(RelayEvent::Pickup)
                }
                Some(start) => {
                    if now.saturating_sub(start) >= self.delay {
                        self.operated = true;
                        Some(RelayEvent::Operate)
                    } else {
                        None
                    }
                }
            }
        } else if self.recovered(vm_pu) && self.picked_up_at.take().is_some() {
            Some(RelayEvent::Dropout)
        } else {
            None
        }
    }
}

/// PDIF — differential protection across two measurement points (the paper
/// uses it between two substations, comparing local and remote currents via
/// R-SV).
#[derive(Debug, Clone)]
pub struct DifferentialRelay {
    /// Operate threshold on `|I_local − I_remote|`.
    pub threshold: f64,
    /// Definite time delay (usually very short).
    pub delay: SimDuration,
    /// Remote data timeout: without fresh remote data the element blocks.
    pub remote_timeout: SimDuration,
    picked_up_at: Option<SimTime>,
    operated: bool,
    last_remote: Option<(SimTime, f64)>,
}

impl DifferentialRelay {
    /// Creates a differential element.
    pub fn new(threshold: f64, delay: SimDuration) -> DifferentialRelay {
        DifferentialRelay {
            threshold,
            delay,
            remote_timeout: SimDuration::from_millis(1000),
            picked_up_at: None,
            operated: false,
            last_remote: None,
        }
    }

    /// Whether the relay has operated (latched).
    pub fn has_operated(&self) -> bool {
        self.operated
    }

    /// Whether the relay has picked up and not dropped out since; an
    /// operated relay stays picked up.
    pub fn is_picked_up(&self) -> bool {
        self.picked_up_at.is_some()
    }

    /// Clears the latched operate state.
    pub fn reset(&mut self) {
        self.operated = false;
        self.picked_up_at = None;
    }

    /// Feeds a remote current sample (from the R-SV subscriber).
    pub fn update_remote(&mut self, now: SimTime, current: f64) {
        self.last_remote = Some((now, current));
    }

    /// The current differential value, if remote data is fresh.
    pub fn differential(&self, now: SimTime, local: f64) -> Option<f64> {
        let (t, remote) = self.last_remote?;
        if now.saturating_sub(t) > self.remote_timeout {
            return None;
        }
        Some((local - remote).abs())
    }

    /// Steps the relay with the latest local current.
    pub fn step(&mut self, now: SimTime, local: f64) -> Option<RelayEvent> {
        if self.operated {
            return None;
        }
        let Some(diff) = self.differential(now, local) else {
            // Blocked: no fresh remote data.
            if self.picked_up_at.take().is_some() {
                return Some(RelayEvent::Dropout);
            }
            return None;
        };
        if diff > self.threshold {
            match self.picked_up_at {
                None => {
                    self.picked_up_at = Some(now);
                    if self.delay == SimDuration::ZERO {
                        self.operated = true;
                        return Some(RelayEvent::Operate);
                    }
                    Some(RelayEvent::Pickup)
                }
                Some(start) => {
                    if now.saturating_sub(start) >= self.delay {
                        self.operated = true;
                        Some(RelayEvent::Operate)
                    } else {
                        None
                    }
                }
            }
        } else if self.picked_up_at.take().is_some() {
            Some(RelayEvent::Dropout)
        } else {
            None
        }
    }
}

/// The last known state of a monitored breaker (via GOOSE/R-GOOSE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitoredState {
    /// No status received yet.
    Unknown,
    /// Breaker reported open.
    Open,
    /// Breaker reported closed.
    Closed,
}

/// CILO — interlocking. Per Table II: *"Prevents a circuit breaker to be
/// closed when a certain circuit breaker is open."*
#[derive(Debug, Clone)]
pub struct Interlock {
    /// Names (references) of the monitored breakers.
    pub monitored: Vec<String>,
    states: Vec<MonitoredState>,
    /// Whether an unknown state permits closing (default: no — fail-safe).
    pub permit_on_unknown: bool,
}

impl Interlock {
    /// Creates an interlock over the given monitored breaker references.
    pub fn new(monitored: Vec<String>) -> Interlock {
        let states = vec![MonitoredState::Unknown; monitored.len()];
        Interlock {
            monitored,
            states,
            permit_on_unknown: false,
        }
    }

    /// Updates the state of a monitored breaker by reference.
    pub fn update(&mut self, reference: &str, closed: bool) {
        if let Some(i) = self.monitored.iter().position(|m| m == reference) {
            self.states[i] = if closed {
                MonitoredState::Closed
            } else {
                MonitoredState::Open
            };
        }
    }

    /// Downgrades a monitored breaker to `Unknown` — used by GOOSE TTL
    /// supervision when the publishing stream goes silent (fail-safe:
    /// unknown blocks closing unless `permit_on_unknown`).
    pub fn set_unknown(&mut self, reference: &str) {
        if let Some(i) = self.monitored.iter().position(|m| m == reference) {
            self.states[i] = MonitoredState::Unknown;
        }
    }

    /// The recorded state of a monitored breaker.
    pub fn state_of(&self, reference: &str) -> MonitoredState {
        self.monitored
            .iter()
            .position(|m| m == reference)
            .map(|i| self.states[i])
            .unwrap_or(MonitoredState::Unknown)
    }

    /// Whether a *close* command is permitted right now (`EnaCls`).
    pub fn close_permitted(&self) -> bool {
        self.states.iter().all(|s| match s {
            MonitoredState::Closed => true,
            MonitoredState::Open => false,
            MonitoredState::Unknown => self.permit_on_unknown,
        })
    }

    /// Opening is always permitted (`EnaOpn` is unconditional here).
    pub fn open_permitted(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn ptoc_definite_time_sequence() {
        let mut relay = OvercurrentRelay::new(
            3.0,
            OvercurrentCurve::DefiniteTime {
                delay: SimDuration::from_millis(200),
            },
        );
        assert_eq!(relay.step(ms(0), 1.0), None);
        assert_eq!(relay.step(ms(100), 4.0), Some(RelayEvent::Pickup));
        assert_eq!(relay.step(ms(200), 4.0), None);
        assert_eq!(relay.step(ms(300), 4.0), Some(RelayEvent::Operate));
        assert!(relay.has_operated());
        // Latched: no further events.
        assert_eq!(relay.step(ms(400), 9.0), None);
        relay.reset();
        assert!(!relay.has_operated());
    }

    #[test]
    fn ptoc_dropout_before_operate() {
        let mut relay = OvercurrentRelay::new(
            3.0,
            OvercurrentCurve::DefiniteTime {
                delay: SimDuration::from_millis(500),
            },
        );
        assert_eq!(relay.step(ms(0), 5.0), Some(RelayEvent::Pickup));
        assert_eq!(relay.step(ms(100), 1.0), Some(RelayEvent::Dropout));
        assert_eq!(relay.step(ms(700), 1.0), None);
        assert!(!relay.has_operated());
    }

    #[test]
    fn ptoc_idmt_faster_for_larger_current() {
        let delay_at = |current: f64| {
            let mut relay =
                OvercurrentRelay::new(1.0, OvercurrentCurve::StandardInverse { tms: 0.1 });
            relay.step(ms(0), current);
            // Advance until operate.
            let mut t = 0;
            loop {
                t += 10;
                if relay.step(ms(t), current) == Some(RelayEvent::Operate) {
                    return t;
                }
                assert!(t < 700_000, "relay never operated for I={current}");
            }
        };
        let slow = delay_at(1.5);
        let fast = delay_at(6.0);
        assert!(
            fast < slow,
            "IDMT must operate faster at higher current ({fast} !< {slow})"
        );
    }

    #[test]
    fn ptov_over_voltage() {
        let mut relay = VoltageRelay::over(1.1, SimDuration::from_millis(100));
        assert_eq!(relay.step(ms(0), 1.0), None);
        assert_eq!(relay.step(ms(10), 1.15), Some(RelayEvent::Pickup));
        assert_eq!(relay.step(ms(120), 1.15), Some(RelayEvent::Operate));
    }

    #[test]
    fn ptuv_under_voltage_with_dead_bus_block() {
        let mut relay = VoltageRelay::under(0.9, SimDuration::from_millis(100));
        // Dead bus: blocked, no trip.
        assert_eq!(relay.step(ms(0), 0.0), None);
        assert_eq!(relay.step(ms(200), 0.01), None);
        // Live but low: picks up and operates.
        assert_eq!(relay.step(ms(300), 0.85), Some(RelayEvent::Pickup));
        assert_eq!(relay.step(ms(450), 0.85), Some(RelayEvent::Operate));
    }

    #[test]
    fn voltage_hysteresis() {
        let mut relay = VoltageRelay::over(1.1, SimDuration::from_millis(500));
        assert_eq!(relay.step(ms(0), 1.12), Some(RelayEvent::Pickup));
        // Just below threshold but above dropout level: stays picked up.
        assert_eq!(relay.step(ms(100), 1.095), None);
        assert!(relay.picked_up_at.is_some());
        // Below dropout level: drops out.
        assert_eq!(relay.step(ms(200), 1.0), Some(RelayEvent::Dropout));
    }

    #[test]
    fn pdif_trips_on_differential() {
        let mut relay = DifferentialRelay::new(0.2, SimDuration::from_millis(50));
        // No remote data: blocked.
        assert_eq!(relay.step(ms(0), 1.0), None);
        relay.update_remote(ms(10), 1.0);
        assert_eq!(relay.step(ms(20), 1.05), None); // diff 0.05 < 0.2
        relay.update_remote(ms(30), 0.3);
        assert_eq!(relay.step(ms(40), 1.0), Some(RelayEvent::Pickup)); // diff 0.7
        assert_eq!(relay.step(ms(100), 1.0), Some(RelayEvent::Operate));
    }

    #[test]
    fn pdif_blocks_on_stale_remote() {
        let mut relay = DifferentialRelay::new(0.2, SimDuration::ZERO);
        relay.update_remote(ms(0), 0.0);
        // Fresh: would trip instantly.
        // Stale (beyond 1000 ms): blocked instead.
        assert_eq!(relay.step(SimTime::from_millis(1500), 5.0), None);
        assert!(!relay.has_operated());
    }

    #[test]
    fn cilo_blocks_close_when_monitored_open() {
        let mut interlock = Interlock::new(vec!["S2/CB1".into()]);
        // Unknown: fail-safe block.
        assert!(!interlock.close_permitted());
        interlock.update("S2/CB1", true);
        assert!(interlock.close_permitted());
        interlock.update("S2/CB1", false);
        assert!(!interlock.close_permitted());
        assert!(interlock.open_permitted());
        assert_eq!(interlock.state_of("S2/CB1"), MonitoredState::Open);
        assert_eq!(interlock.state_of("other"), MonitoredState::Unknown);
    }

    #[test]
    fn cilo_permit_on_unknown_option() {
        let mut interlock = Interlock::new(vec!["X".into()]);
        interlock.permit_on_unknown = true;
        assert!(interlock.close_permitted());
    }
}
