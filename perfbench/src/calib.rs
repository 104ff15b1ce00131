//! Host clock calibration.
//!
//! The host this benchmark was written on changes its CPU clock in
//! steps of about 4% (up to 10% over a run) with the load of the whole
//! machine, over seconds to minutes: a drift that long moves even the
//! fast end of a run. So between ops the benchmark times a fixed chain
//! of dependent integer operations, which runs at a fixed number of
//! cycles per step: its time is the clock's period, as a cycle counter
//! would read it, and nothing the simulator does can change it. Timings
//! are scaled by how fast the chain ran (see [`Calibration::factor`]),
//! so they read as host time at the reference clock.
//!
//! The chain does not see what a neighbour does to the shared caches
//! and the core's other hardware thread; those slow-downs are left to
//! the fast-end reading of the timings (see
//! [`crate::workload::FAST_QUANTILE`]).

use std::hint::black_box;
use std::time::Instant;

use crate::stats::quantile;

/// Host nanoseconds of ops between two calibration laps.
pub const EVERY_NS: u64 = 10_000_000;

/// Host nanoseconds a calibration lap takes at the reference clock, a
/// round figure near the clocks of the 2-CPU Xeon host this benchmark
/// was written on (where a lap took 83 to 105 us).
pub const REFERENCE_LAP_NS: f64 = 100_000.0;

/// Where among the laps the calibration is read (as for the timings it
/// scales, near the fast end).
const FAST_QUANTILE: f64 = 0.02;

/// Steps of the chain per lap.
const STEPS: u32 = 50_000;

/// The chain: each step depends on the one before, so it takes a fixed
/// number of cycles whatever the core could otherwise overlap.
fn chain(seed: u64) -> u64 {
    (0..STEPS).fold(seed, |x, _| {
        (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9)
    })
}

/// Calibration laps taken during a drive.
#[derive(Clone, Debug, Default)]
pub struct Calibration {
    laps: Vec<u64>,
    owed_ns: u64,
}

impl Calibration {
    /// Accounts for `busy_ns` of ops and takes one lap for every
    /// [`EVERY_NS`] of ops since the last lap.
    pub fn after(&mut self, busy_ns: u64) {
        self.owed_ns += busy_ns;
        while self.owed_ns >= EVERY_NS {
            self.owed_ns -= EVERY_NS;
            self.lap();
        }
    }

    /// Takes one lap.
    pub fn lap(&mut self) {
        let seed = black_box(self.laps.len() as u64);
        let start = Instant::now();
        black_box(chain(seed));
        self.laps.push(start.elapsed().as_nanos() as u64);
    }

    /// Laps taken.
    pub fn laps(&self) -> usize {
        self.laps.len()
    }

    /// What a timing measured during these laps is multiplied by to read
    /// as at the reference clock: [`REFERENCE_LAP_NS`] over the laps'
    /// fast end, which is the reference clock's period over the period
    /// the laps ran at. 1.0 when no lap was taken.
    pub fn factor(&self) -> f64 {
        if self.laps.is_empty() {
            return 1.0;
        }
        let laps: Vec<f64> = self.laps.iter().map(|&ns| ns as f64).collect();
        REFERENCE_LAP_NS / quantile(&laps, FAST_QUANTILE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_follow_the_ops_and_set_the_factor() {
        let mut cal = Calibration::default();
        assert_eq!(cal.factor(), 1.0);
        cal.after(EVERY_NS - 1);
        assert_eq!(cal.laps(), 0);
        cal.after(2 * EVERY_NS + 1);
        assert_eq!(cal.laps(), 3);
        assert!(cal.factor() > 0.0 && cal.factor().is_finite());
    }
}
