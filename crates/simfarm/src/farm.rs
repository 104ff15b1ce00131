//! The worker pool: batch submit, in-order reap.
//!
//! `Farm` follows the FastFlow farm shape — an emitter (the caller,
//! via [`Farm::submit`]), N workers on dedicated OS threads, and a
//! collector (the caller again, via [`Farm::reap`]) — built on the
//! standard library only: one `mpsc` injector, a results channel, and
//! a reorder buffer keyed by ticket.
//!
//! Distribution is greedy, FastFlow's on-demand emitter: every worker
//! shares the one injector and an idle worker pulls the next job, so a
//! slow world never blocks the queue behind it.
//!
//! Each worker owns one [`Machine`] and recycles it between worlds
//! with [`Machine::reset_for_seed`]; a worker only rebuilds its
//! machine when a spec asks for a different [`MachineConfig`] (or
//! after a world panicked, since a half-run machine is unsalvageable).
//! Because every world runs through [`run_world_in`], the report for a
//! given spec is bit-identical whichever worker picks it up — order
//! and thread count can only change *when* a world runs, never
//! *what* it computes.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use simcell::{Machine, MachineConfig, SimError};

use crate::cputime::thread_cpu_nanos;
use crate::spec::{run_world_in, WorldOutput, WorldSpec};

/// Receipt for a submitted world; reports come back in ticket order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(u64);

impl Ticket {
    /// Zero-based submission index of the world.
    pub fn index(self) -> u64 {
        self.0
    }
}

/// A finished world, as reaped from the farm.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldReport {
    /// The ticket [`Farm::submit`] returned for this world.
    pub ticket: Ticket,
    /// The seed the world was submitted with.
    pub seed: u64,
    /// The world's output, or the error that stopped it. A panicking
    /// world surfaces as [`SimError::BadConfig`] with the panic text;
    /// it never takes the farm down.
    pub outcome: Result<WorldOutput, SimError>,
    /// Which worker ran the world (0-based). Informational only — the
    /// outcome is worker-independent.
    pub worker: usize,
}

struct Job {
    ticket: u64,
    spec: WorldSpec,
}

/// A fixed pool of OS threads executing [`WorldSpec`]s.
///
/// See the crate docs for the model and an example. Dropping the farm
/// closes the injector and joins every worker; undelivered reports are
/// discarded.
pub struct Farm {
    /// `None` only while dropping: closing it ends the workers' loops.
    injector: Option<Sender<Job>>,
    results: Receiver<(u64, WorldReport)>,
    workers: Vec<JoinHandle<()>>,
    busy_ns: Arc<Vec<AtomicU64>>,
    next_ticket: u64,
    next_reap: u64,
    pending: BTreeMap<u64, WorldReport>,
}

impl Farm {
    /// Spins up `threads` workers pulling greedily from one shared
    /// queue.
    ///
    /// # Errors
    ///
    /// Rejects a zero-thread farm.
    pub fn new(threads: usize) -> Result<Farm, SimError> {
        if threads == 0 {
            return Err(SimError::BadConfig {
                reason: "a farm needs at least one worker thread".into(),
            });
        }
        let (injector, jobs) = channel::<Job>();
        let jobs = Arc::new(Mutex::new(jobs));
        let (report_tx, results) = channel();
        let busy_ns: Arc<Vec<AtomicU64>> =
            Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
        let mut workers = Vec::with_capacity(threads);
        for index in 0..threads {
            let jobs = Arc::clone(&jobs);
            let report_tx: Sender<(u64, WorldReport)> = report_tx.clone();
            let busy_ns = Arc::clone(&busy_ns);
            let handle = std::thread::Builder::new()
                .name(format!("simfarm-{index}"))
                .spawn(move || worker_loop(index, &jobs, &report_tx, &busy_ns[index]))
                .map_err(|e| SimError::BadConfig {
                    reason: format!("failed to spawn farm worker: {e}"),
                })?;
            workers.push(handle);
        }
        Ok(Farm {
            injector: Some(injector),
            results,
            workers,
            busy_ns,
            next_ticket: 0,
            next_reap: 0,
            pending: BTreeMap::new(),
        })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Worlds submitted but not yet reaped.
    pub fn outstanding(&self) -> u64 {
        self.next_ticket - self.next_reap
    }

    /// Queues `spec` for execution and returns its ticket.
    pub fn submit(&mut self, spec: WorldSpec) -> Ticket {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.injector
            .as_ref()
            .expect("the injector lives until drop")
            .send(Job { ticket, spec })
            .expect("workers outlive the farm handle");
        Ticket(ticket)
    }

    /// Blocks until the next report *in submission order* is ready and
    /// returns it; `None` when every submitted world has been reaped.
    pub fn reap(&mut self) -> Option<WorldReport> {
        if self.next_reap == self.next_ticket {
            return None;
        }
        loop {
            if let Some(report) = self.pending.remove(&self.next_reap) {
                self.next_reap += 1;
                return Some(report);
            }
            let (ticket, report) = self
                .results
                .recv()
                .expect("workers outlive the farm handle");
            self.pending.insert(ticket, report);
        }
    }

    /// Reaps every outstanding world, in submission order.
    pub fn collect(&mut self) -> Vec<WorldReport> {
        let mut reports = Vec::new();
        while let Some(report) = self.reap() {
            reports.push(report);
        }
        reports
    }

    /// Cumulative CPU nanoseconds each worker has spent *executing
    /// worlds* (queue idling excluded), indexed by worker. Falls back
    /// to wall-clock deltas on platforms without per-thread CPU
    /// counters; see [`crate::cputime`]. `perfbench`'s
    /// `farm.worker_busy_frac` lane divides this by wall time times the
    /// worker count: the share of the farm's threads that ran worlds.
    pub fn worker_busy_nanos(&self) -> Vec<u64> {
        self.busy_ns
            .iter()
            .map(|ns| ns.load(Ordering::Relaxed))
            .collect()
    }
}

impl Drop for Farm {
    fn drop(&mut self) {
        // Closing the injector ends every worker's recv loop.
        self.injector = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(
    index: usize,
    jobs: &Mutex<Receiver<Job>>,
    reports: &Sender<(u64, WorldReport)>,
    busy_ns: &AtomicU64,
) {
    // The worker's arena: one machine, recycled between worlds.
    let mut slot: Option<Machine> = None;
    let mut slot_config: Option<MachineConfig> = None;
    loop {
        let next = jobs.lock().expect("a poisoned injector means a bug").recv();
        let Ok(job) = next else {
            return; // farm dropped; drain out
        };
        let cpu_before = thread_cpu_nanos();
        let wall_before = Instant::now();
        let outcome = run_job(&mut slot, &mut slot_config, &job.spec);
        let spent = match (cpu_before, thread_cpu_nanos()) {
            (Some(before), Some(after)) => after.saturating_sub(before),
            _ => wall_before.elapsed().as_nanos() as u64,
        };
        busy_ns.fetch_add(spent, Ordering::Relaxed);
        let report = WorldReport {
            ticket: Ticket(job.ticket),
            seed: job.spec.seed,
            outcome,
            worker: index,
        };
        if reports.send((job.ticket, report)).is_err() {
            return; // collector gone; no one to report to
        }
    }
}

fn run_job(
    slot: &mut Option<Machine>,
    slot_config: &mut Option<MachineConfig>,
    spec: &WorldSpec,
) -> Result<WorldOutput, SimError> {
    if slot.is_none() || *slot_config != Some(spec.config) {
        *slot = Some(Machine::new(spec.config)?);
        *slot_config = Some(spec.config);
    }
    let machine = slot.as_mut().expect("slot was just filled");
    let result = catch_unwind(AssertUnwindSafe(|| run_world_in(machine, spec)));
    match result {
        Ok(outcome) => outcome,
        Err(panic) => {
            // A panicked world leaves the machine in an unknown state;
            // throw the arena away so the next world starts clean.
            *slot = None;
            *slot_config = None;
            let text = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(SimError::BadConfig {
                reason: format!("world {} panicked: {text}", spec.seed),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::run_world;

    #[test]
    fn farm_reports_come_back_in_submission_order() {
        let mut farm = Farm::new(3).unwrap();
        let tickets: Vec<Ticket> = (0..16).map(|i| farm.submit(WorldSpec::quick(i))).collect();
        let reports = farm.collect();
        assert_eq!(reports.len(), 16);
        for (i, (ticket, report)) in tickets.iter().zip(&reports).enumerate() {
            assert_eq!(report.ticket, *ticket);
            assert_eq!(report.ticket.index(), i as u64);
            assert_eq!(report.seed, i as u64);
        }
    }

    #[test]
    fn farm_worlds_match_their_solo_twins() {
        let mut farm = Farm::new(2).unwrap();
        for seed in 0..8 {
            farm.submit(WorldSpec::quick(seed * 11));
        }
        for report in farm.collect() {
            let solo = run_world(&WorldSpec::quick(report.seed)).unwrap();
            assert_eq!(report.outcome.as_ref().unwrap(), &solo);
        }
    }

    #[test]
    fn reap_returns_none_when_drained() {
        let mut farm = Farm::new(1).unwrap();
        assert!(farm.reap().is_none());
        farm.submit(WorldSpec::quick(1));
        assert!(farm.reap().is_some());
        assert!(farm.reap().is_none());
    }

    #[test]
    fn zero_threads_is_rejected() {
        assert!(matches!(Farm::new(0), Err(SimError::BadConfig { .. })));
    }

    #[test]
    fn a_failing_world_does_not_poison_the_farm() {
        let mut farm = Farm::new(1).unwrap();
        let mut bad = WorldSpec::quick(1);
        // More lanes than the machine has accelerators: a clean error.
        if let crate::spec::WorldProgram::AiFrame { ref mut accels, .. } = bad.program {
            *accels = 5;
        }
        farm.submit(bad);
        farm.submit(WorldSpec::quick(2));
        let reports = farm.collect();
        assert!(reports[0].outcome.is_err());
        let good = reports[1].outcome.as_ref().unwrap();
        assert_eq!(
            good.world_hash,
            run_world(&WorldSpec::quick(2)).unwrap().world_hash
        );
    }

    #[test]
    fn workers_account_busy_time() {
        let mut farm = Farm::new(2).unwrap();
        for seed in 0..6 {
            farm.submit(WorldSpec::quick(seed));
        }
        farm.collect();
        let busy = farm.worker_busy_nanos();
        assert_eq!(busy.len(), 2);
        assert!(busy.iter().sum::<u64>() > 0);
    }
}
