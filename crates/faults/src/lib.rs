//! `sgcr-faults` — deterministic fault-injection primitives for the cyber
//! range.
//!
//! Everything here is *data and arithmetic*: the crate defines what a fault
//! looks like ([`LinkFault`], [`SensorFault`]), the seeded PRNG that decides
//! when a probabilistic fault fires ([`FaultRng`]), and the cross-plane
//! degradation flag ([`DegradationSignal`]) that lets the power plane tell
//! the IED and SCADA planes that held-last-good measurements are no longer
//! trustworthy. The *mechanics* of applying a fault (dropping a frame,
//! skipping a sensor write, flipping a quality bit) live in the plane that
//! owns the behaviour — `sgcr-net`, `sgcr-ied`, `sgcr-scada`, `sgcr-core` —
//! which keeps this crate dependency-free and usable from any of them.
//!
//! # Determinism
//!
//! All randomness flows from one [`FaultRng`] seeded explicitly (scenario
//! XML `faultSeed=`, `--fault-seed`, or [`FaultRng::new`] in tests). The
//! generator is a SplitMix64: tiny, full-period, and — crucially — a pure
//! function of its seed, so two runs of the same scenario with the same seed
//! draw identical decision streams and replay byte-identical journals.
//! Nothing in this crate reads a clock or OS entropy.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::task::Waker;

/// A deterministic SplitMix64 pseudo-random generator for fault decisions.
///
/// SplitMix64 passes BigCrush, needs eight bytes of state, and is a pure
/// function of its seed — exactly the properties a replayable fault plane
/// needs. It is *not* cryptographic and must never be used for anything
/// security-sensitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRng {
    state: u64,
}

impl Default for FaultRng {
    /// Seed 0 — the stream used when no seed was configured explicitly.
    fn default() -> FaultRng {
        FaultRng::new(0)
    }
}

impl FaultRng {
    /// Creates a generator from an explicit seed. Equal seeds yield equal
    /// decision streams forever.
    pub fn new(seed: u64) -> FaultRng {
        FaultRng { state: seed }
    }

    /// The generator's current internal state. Together with the SplitMix64
    /// recurrence this fully determines every future draw, so equal states
    /// are the replay-safe notion of "same position in the decision stream"
    /// a mid-run checkpoint needs to verify.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform float in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        (self.next_u64() >> 11) as f64 * SCALE
    }

    /// Bernoulli trial: true with probability `p`.
    ///
    /// `p <= 0` returns false and `p >= 1` returns true *without consuming a
    /// draw*, so disabled fault dimensions leave the decision stream exactly
    /// as it was.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Uniform integer in `[0, bound)`; returns 0 without drawing when
    /// `bound` is 0 or 1.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound <= 1 {
            0
        } else {
            // Multiply-shift bounded mapping (Lemire) — bias is negligible
            // at simulation scales and it stays branch-free.
            ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
        }
    }
}

/// A per-link impairment profile. All dimensions default to "off"; a profile
/// where every dimension is off ([`LinkFault::is_noop`]) behaves exactly
/// like no profile at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Probability in `[0, 1]` that a frame is silently lost.
    pub loss: f64,
    /// Probability in `[0, 1]` that a frame is bit-corrupted in flight. The
    /// Ethernet FCS catches the damage, so a corrupted frame is rejected
    /// (dropped) rather than delivered mangled.
    pub corrupt: f64,
    /// Probability in `[0, 1]` that a frame is delivered twice.
    pub duplicate: f64,
    /// Maximum extra per-frame delay, drawn uniformly from `[0, jitter_ns]`.
    /// Jitter larger than the inter-frame gap reorders frames naturally.
    pub jitter_ns: u64,
    /// Flapping period: the link administratively drops for
    /// [`LinkFault::flap_down_ns`] at the start of every `flap_period_ns`
    /// window. 0 disables flapping.
    pub flap_period_ns: u64,
    /// How long the link stays down inside each flap period.
    pub flap_down_ns: u64,
}

impl Default for LinkFault {
    fn default() -> LinkFault {
        LinkFault {
            loss: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            jitter_ns: 0,
            flap_period_ns: 0,
            flap_down_ns: 0,
        }
    }
}

impl LinkFault {
    /// True when every dimension is off — installing such a profile is
    /// equivalent to clearing the fault.
    pub fn is_noop(&self) -> bool {
        self.loss <= 0.0
            && self.corrupt <= 0.0
            && self.duplicate <= 0.0
            && self.jitter_ns == 0
            && (self.flap_period_ns == 0 || self.flap_down_ns == 0)
    }

    /// True when the flap schedule has the link down at simulation time
    /// `t_ns`. Purely arithmetic so replays agree without bookkeeping.
    pub fn flapped_down(&self, t_ns: u64) -> bool {
        self.flap_period_ns > 0
            && self.flap_down_ns > 0
            && t_ns % self.flap_period_ns < self.flap_down_ns
    }

    /// One-line human description for journals and stage details.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        if self.loss > 0.0 {
            parts.push(format!("loss={:.0}%", self.loss * 100.0));
        }
        if self.corrupt > 0.0 {
            parts.push(format!("corrupt={:.0}%", self.corrupt * 100.0));
        }
        if self.duplicate > 0.0 {
            parts.push(format!("duplicate={:.0}%", self.duplicate * 100.0));
        }
        if self.jitter_ns > 0 {
            parts.push(format!("jitter<={}ms", self.jitter_ns / 1_000_000));
        }
        if self.flap_period_ns > 0 && self.flap_down_ns > 0 {
            parts.push(format!(
                "flap={}ms/{}ms",
                self.flap_down_ns / 1_000_000,
                self.flap_period_ns / 1_000_000
            ));
        }
        if parts.is_empty() {
            String::from("clear")
        } else {
            parts.join(" ")
        }
    }
}

/// A fault on one sampled value inside an IED.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFault {
    /// The sensor repeats its last sampled value forever.
    Stuck,
    /// The sensor output drifts away from truth at a fixed rate
    /// (engineering units per simulated second).
    Drift {
        /// Drift rate in engineering units per second; may be negative.
        per_sec: f64,
    },
}

impl SensorFault {
    /// One-line human description for journals and stage details.
    pub fn summary(&self) -> String {
        match self {
            SensorFault::Stuck => String::from("stuck"),
            SensorFault::Drift { per_sec } => format!("drift {per_sec:+}/s"),
        }
    }
}

/// A shared, lock-free flag the power plane raises while it is holding the
/// last-good solution (solver non-convergence). IEDs consult it to stamp
/// published measurements with quality `invalid`; SCADA consults it to
/// degrade incoming tag quality. Cloning shares the underlying flag.
///
/// A consumer that waits for the flag registers a [`Waker`] with
/// [`watch`](DegradationSignal::watch); every flip wakes it.
#[derive(Debug, Clone, Default)]
pub struct DegradationSignal {
    inner: Arc<Signal>,
}

#[derive(Debug, Default)]
struct Signal {
    degraded: AtomicBool,
    watchers: Mutex<Vec<Waker>>,
}

impl DegradationSignal {
    /// Creates a healthy (not degraded) signal.
    pub fn new() -> DegradationSignal {
        DegradationSignal::default()
    }

    /// Raises or clears the degradation flag, waking every watcher when the
    /// flag flips. Returns the previous state so callers can journal only
    /// the transition.
    pub fn set(&self, degraded: bool) -> bool {
        let was = self.inner.degraded.swap(degraded, Ordering::Relaxed);
        if was != degraded {
            let watchers = self.watchers();
            watchers.iter().for_each(Waker::wake_by_ref);
        }
        was
    }

    /// True while the power plane is serving held (stale) measurements.
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::Relaxed)
    }

    /// Registers `waker` to be woken at every flip of the flag.
    pub fn watch(&self, waker: &Waker) {
        self.watchers().push(waker.clone());
    }

    fn watchers(&self) -> std::sync::MutexGuard<'_, Vec<Waker>> {
        // A waker cannot leave the list half-written: a poisoned lock still
        // guards a whole list.
        self.inner
            .watchers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = FaultRng::new(1);
        let mut b = FaultRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn splitmix_reference_values() {
        // First three outputs of SplitMix64 seeded with 1234567, per the
        // published reference implementation.
        let mut rng = FaultRng::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn next_f64_is_unit_interval() {
        let mut rng = FaultRng::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_edges_do_not_consume_draws() {
        let mut a = FaultRng::new(9);
        let mut b = FaultRng::new(9);
        assert!(!a.chance(0.0));
        assert!(a.chance(1.0));
        assert!(!a.chance(-0.5));
        assert!(a.chance(1.5));
        // `a` drew nothing, so the streams still agree.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = FaultRng::new(11);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn below_is_bounded() {
        let mut rng = FaultRng::new(13);
        assert_eq!(rng.below(0), 0);
        assert_eq!(rng.below(1), 0);
        for _ in 0..10_000 {
            assert!(rng.below(10) < 10);
        }
    }

    #[test]
    fn link_fault_noop_and_flap_window() {
        assert!(LinkFault::default().is_noop());
        let fault = LinkFault {
            flap_period_ns: 1_000,
            flap_down_ns: 250,
            ..LinkFault::default()
        };
        assert!(!fault.is_noop());
        assert!(fault.flapped_down(0));
        assert!(fault.flapped_down(249));
        assert!(!fault.flapped_down(250));
        assert!(!fault.flapped_down(999));
        assert!(fault.flapped_down(1_000));
    }

    #[test]
    fn summaries_are_stable() {
        let fault = LinkFault {
            loss: 0.25,
            jitter_ns: 5_000_000,
            ..LinkFault::default()
        };
        assert_eq!(fault.summary(), "loss=25% jitter<=5ms");
        assert_eq!(LinkFault::default().summary(), "clear");
        assert_eq!(SensorFault::Stuck.summary(), "stuck");
        assert_eq!(
            SensorFault::Drift { per_sec: -1.5 }.summary(),
            "drift -1.5/s"
        );
    }

    #[test]
    fn degradation_signal_is_shared_and_reports_transition() {
        let signal = DegradationSignal::new();
        let clone = signal.clone();
        assert!(!signal.is_degraded());
        assert!(!signal.set(true), "previous state was healthy");
        assert!(clone.is_degraded());
        assert!(clone.set(true), "already degraded");
        assert!(signal.set(false));
        assert!(!clone.is_degraded());
    }

    #[test]
    fn degradation_signal_wakes_its_watchers_on_a_flip() {
        use std::sync::atomic::AtomicUsize;
        use std::task::Wake;

        struct Count(AtomicUsize);
        impl Wake for Count {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let signal = DegradationSignal::new();
        let count = Arc::new(Count(AtomicUsize::new(0)));
        signal.clone().watch(&Waker::from(count.clone()));
        signal.set(false);
        assert_eq!(count.0.load(Ordering::Relaxed), 0, "no flip");
        signal.set(true);
        signal.set(true);
        signal.set(false);
        assert_eq!(count.0.load(Ordering::Relaxed), 2, "two flips");
    }
}
