//! Per-thread CPU time, for honest scaling numbers on shared boxes.
//!
//! On CI runners and containers that expose fewer cores than the farm
//! has workers, wall time alone cannot tell a busy worker from one
//! that was time-sliced off its core. CPU time per worker can: the farm
//! sums it into [`crate::Farm::worker_busy_nanos`], which `perfbench`'s
//! `farm.worker_busy_frac` lane turns into the share of worker threads
//! that ran worlds. This module supplies the raw ingredient: cumulative
//! CPU nanoseconds consumed by the calling thread.

/// Cumulative CPU time consumed by the calling thread, in nanoseconds.
///
/// On Linux this reads `/proc/thread-self/schedstat` (nanosecond
/// resolution, maintained by the scheduler for every kernel config the
/// workspace targets) and falls back to `utime + stime` from
/// `/proc/thread-self/stat` (coarse 10 ms ticks) when schedstat is
/// absent. Returns `None` when neither source exists — callers fall
/// back to wall-clock deltas.
///
/// The scheduler only flushes a running thread's `sum_exec_runtime` on
/// scheduling events, so a thread that has monopolised its CPU since
/// the last tick reads a stale counter. Yielding first forces a pass
/// through the scheduler (`update_curr`), making the sample current —
/// one cheap syscall, paid only at sampling points.
pub fn thread_cpu_nanos() -> Option<u64> {
    std::thread::yield_now();
    imp::thread_cpu_nanos()
}

#[cfg(target_os = "linux")]
mod imp {
    pub(super) fn thread_cpu_nanos() -> Option<u64> {
        from_schedstat().or_else(from_stat)
    }

    /// `/proc/thread-self/schedstat`: "<run_ns> <wait_ns> <slices>".
    fn from_schedstat() -> Option<u64> {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        text.split_whitespace().next()?.parse().ok()
    }

    /// `/proc/thread-self/stat` fields 14 and 15 (utime, stime) in
    /// clock ticks. USER_HZ has been fixed at 100 on every Linux ABI
    /// this workspace builds for, so a tick is 10 ms.
    fn from_stat() -> Option<u64> {
        const NANOS_PER_TICK: u64 = 1_000_000_000 / 100;
        let text = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
        // The comm field is parenthesised and may contain spaces;
        // everything after the final ')' is safely space-separated.
        let after_comm = &text[text.rfind(')')? + 1..];
        let mut fields = after_comm.split_whitespace();
        // after_comm starts at field 3 (state); utime/stime are fields
        // 14/15 of the full line, i.e. indexes 11/12 here.
        let utime: u64 = fields.nth(11)?.parse().ok()?;
        let stime: u64 = fields.next()?.parse().ok()?;
        Some((utime + stime) * NANOS_PER_TICK)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub(super) fn thread_cpu_nanos() -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn cpu_time_is_monotone_and_advances_under_load() {
        let before = thread_cpu_nanos().expect("linux exposes thread CPU time");
        // Burn enough CPU to be visible at schedstat resolution.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let after = thread_cpu_nanos().expect("linux exposes thread CPU time");
        assert!(after >= before);
        assert!(after > 0);
    }
}
