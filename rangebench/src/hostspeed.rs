//! Host-speed reference.
//!
//! The benchmark host is a small virtual machine on a shared physical host.
//! Other guests on the same physical cores (SMT siblings, shared caches and
//! memory bandwidth) make the same code take more CPU time in some minutes
//! than in others — half as much again, for minutes at a time — which no run
//! length averages out. So the benchmark runs a fixed reference kernel of its
//! own between slices of measured work, and scales every gated timing by the
//! ratio of the kernel's nominal CPU time to its recently measured CPU time:
//! a timing reads as it would on the host running at its nominal speed. The
//! kernel is the benchmark's code, not the program's, so a change to the
//! program moves the scaled timings and never the reference. A slowdown
//! hits dense floating-point code and pointer-rich object code differently,
//! so each workload is scaled by the kernel that resembles its own hot path.

use crate::cputime::time_ms;
use crate::stats::median;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::hint::black_box;

/// Recent kernel timings a speed estimate is the median of.
const WINDOW: usize = 7;

/// Side of the dense matrix [`Kernel::Dense`] factorises: 288 KiB, about
/// the paper-scale power-flow Jacobian.
const LU_N: usize = 192;

/// Devices [`Kernel::Objects`] keeps state for.
const DEVICES: usize = 48;

/// A reference kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// An in-place dense LU factorisation with partial pivoting, like the
    /// Newton–Raphson power-flow solve that dominates a paper-scale step.
    Dense,
    /// String-keyed device stores updated, small frames built and queued,
    /// and events rendered as JSON Lines, like the device apps, network
    /// dispatch and journal that dominate an EPIC step.
    Objects,
}

impl Kernel {
    /// The kernel's thread CPU time in ms on the host at its nominal speed
    /// (its median in calibration runs on a 2-vCPU Xeon VM at 2.1 GHz).
    pub fn nominal_ms(self) -> f64 {
        match self {
            Kernel::Dense => 0.85,
            Kernel::Objects => 0.48,
        }
    }
}

/// The reference kernel's timings and its preallocated matrix.
pub struct HostSpeed {
    kernel: Kernel,
    matrix: Vec<f64>,
    recent: VecDeque<f64>,
    all: Vec<f64>,
}

impl HostSpeed {
    /// A reference on `kernel` with a full window of timings (after two
    /// warm-up runs).
    pub fn new(kernel: Kernel) -> HostSpeed {
        let mut speed = HostSpeed {
            kernel,
            matrix: vec![0.0; LU_N * LU_N],
            recent: VecDeque::with_capacity(WINDOW),
            all: Vec::new(),
        };
        for _ in 0..2 {
            black_box(speed.run());
        }
        for _ in 0..WINDOW {
            speed.tick();
        }
        speed
    }

    fn run(&mut self) -> f64 {
        match self.kernel {
            Kernel::Dense => dense(&mut self.matrix),
            Kernel::Objects => objects() as f64,
        }
    }

    /// Times one kernel run.
    pub fn tick(&mut self) {
        let (out, ms) = time_ms(|| self.run());
        black_box(out);
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(ms);
        self.all.push(ms);
    }

    /// The factor that turns a CPU time measured now into the time at the
    /// host's nominal speed: nominal ÷ median of the recent kernel timings.
    pub fn scale(&self) -> f64 {
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        let nominal = self.kernel.nominal_ms();
        nominal / median(&recent).unwrap_or(nominal).max(1e-9)
    }

    /// The kernel's nominal time, in ms.
    pub fn nominal_ms(&self) -> f64 {
        self.kernel.nominal_ms()
    }

    /// Every kernel timing of the run, in ms.
    pub fn samples(&self) -> &[f64] {
        &self.all
    }
}

/// [`Kernel::Dense`]: fills `a` (an `LU_N`² row-major matrix) with a fixed
/// diagonally dominant matrix and factorises it in place. Returns log |det|.
fn dense(a: &mut [f64]) -> f64 {
    let n = LU_N;
    for (k, x) in a.iter_mut().enumerate() {
        let (i, j) = (k / n, k % n);
        let diag = if i == j { n as f64 } else { 0.0 };
        *x = ((i * 37 + j * 11) % 97) as f64 / 97.0 - 0.5 + diag;
    }
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&p, &q| a[p * n + col].abs().total_cmp(&a[q * n + col].abs()))
            .unwrap_or(col);
        if pivot != col {
            for j in 0..n {
                a.swap(col * n + j, pivot * n + j);
            }
        }
        let (upper, lower) = a.split_at_mut((col + 1) * n);
        let pivot_row = &upper[col * n..];
        let d = pivot_row[col];
        for row in lower.chunks_exact_mut(n) {
            let f = row[col] / d;
            row[col] = f;
            for (x, p) in row[col + 1..].iter_mut().zip(&pivot_row[col + 1..]) {
                *x -= f * p;
            }
        }
    }
    (0..n).map(|i| a[i * n + i].abs().ln()).sum()
}

/// [`Kernel::Objects`]: per device, a string-keyed store of data attributes
/// is filled and updated over a few cycles, each update builds a small frame
/// queued for delivery, and delivered frames become JSON Lines events.
/// Returns the rendered length.
fn objects() -> usize {
    let mut stores: Vec<BTreeMap<String, i64>> = (0..DEVICES)
        .map(|d| {
            (0..12)
                .map(|a| (format!("IED{d}LD0/XCBR{a}.Pos.stVal"), (d * a) as i64))
                .collect()
        })
        .collect();
    let mut queue: VecDeque<(usize, Vec<u8>)> = VecDeque::new();
    let mut journal = String::new();
    for cycle in 0..6i64 {
        for (d, store) in stores.iter_mut().enumerate() {
            for (key, value) in store.iter_mut() {
                *value = value.wrapping_mul(31).wrapping_add(cycle);
                if *value % 3 == 0 {
                    let mut frame = Vec::with_capacity(64);
                    frame.extend_from_slice(key.as_bytes());
                    frame.extend_from_slice(&value.to_be_bytes());
                    queue.push_back((d, frame));
                }
            }
        }
        while let Some((d, frame)) = queue.pop_front() {
            let _ = writeln!(
                journal,
                "{{\"t\":{cycle},\"device\":{d},\"type\":\"PacketDelivered\",\"len\":{}}}",
                frame.len()
            );
        }
    }
    black_box(&stores);
    journal.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic() {
        let mut a = vec![0.0; LU_N * LU_N];
        let first = dense(&mut a);
        assert!(first.is_finite());
        assert_eq!(first, dense(&mut a));
        assert!(objects() > 0);
        assert_eq!(objects(), objects());
    }

    #[test]
    fn scale_is_nominal_over_recent_median() {
        let mut speed = HostSpeed::new(Kernel::Objects);
        let nominal = speed.nominal_ms();
        speed.recent.clear();
        speed.recent.extend([2.0 * nominal, 4.0 * nominal, nominal]);
        assert!((speed.scale() - 0.5).abs() < 1e-12);
        let before = speed.samples().len();
        speed.tick();
        assert_eq!(speed.samples().len(), before + 1);
    }
}
