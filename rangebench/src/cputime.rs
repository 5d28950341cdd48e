//! CPU-time clocks. On a shared virtual machine the wall clock keeps running
//! while the hypervisor gives the CPU to other guests (steal time): on a
//! 2-vCPU VM the same 1200 EPIC steps measured 120–420 ms of wall time but
//! 125–135 ms of thread CPU time within one minute. Every timing the
//! benchmark gates on is therefore CPU time, which excludes steal.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `i64`s on
    // 64-bit Linux) for the duration of the call, and `clock` is one of the
    // two constant clock ids above, which the kernel always accepts.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds the calling thread has consumed.
pub fn thread_seconds() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds all threads of the process have consumed.
pub fn process_seconds() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// Runs `f` and returns its result with the thread CPU time it took, in ms.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = thread_seconds();
    let out = f();
    (out, (thread_seconds() - start) * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let (sum, ms) = time_ms(|| (0..2_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(sum > 0);
        assert!(ms > 0.0, "thread clock did not advance");
        assert!(process_seconds() >= thread_seconds());
    }
}
