//! Parallel scenario sweeps with deterministic, submission-ordered
//! results.
//!
//! Experiment harnesses on top of `simkit` spend almost all of their
//! wall-clock time running many *independent* scenarios — grid sweeps
//! over configurations, seeds, attack shapes. [`SweepRunner`] fans such a
//! grid out across a scoped worker pool ([`std::thread::scope`], so jobs
//! may borrow from the caller) and collects results **in submission
//! order**, regardless of which worker finished first.
//!
//! # Determinism contract
//!
//! Parallel execution must be *bit-identical* to serial execution. The
//! runner guarantees its half of the contract structurally: results come
//! back in submission order and workers share no state. The job's half is
//! that any randomness must derive from a stable `(seed, scenario_index)`
//! key — use [`scenario_stream`] (or [`scenario_seed`]) with the index the
//! runner passes to the job, never from a shared or thread-local stream:
//!
//! ```
//! use simkit::sweep::{scenario_stream, SweepRunner};
//!
//! let runner = SweepRunner::new(4);
//! let outputs = runner.run((0..8).collect(), |index, x: u64| {
//!     let mut rng = scenario_stream(42, index);
//!     x * 1000 + rng.next_u64() % 1000
//! });
//! let serial = SweepRunner::serial().run((0..8).collect(), |index, x: u64| {
//!     let mut rng = scenario_stream(42, index);
//!     x * 1000 + rng.next_u64() % 1000
//! });
//! assert_eq!(outputs, serial);
//! ```

use std::sync::Mutex;
use std::time::Instant;

use crate::rng::RngStream;
use crate::stats::ScenarioCost;

/// Derives the random stream for scenario `index` of a sweep under
/// `seed`.
///
/// This is *the* RNG derivation contract for sweeps: the stream depends
/// only on the stable `(seed, scenario_index)` key, so a scenario draws
/// the same numbers whether the sweep runs serially, on four workers, or
/// re-ordered — and adding scenarios never perturbs existing ones.
pub fn scenario_stream(seed: u64, index: usize) -> RngStream {
    RngStream::new(seed).fork_indexed("sweep-scenario", index)
}

/// A plain `u64` seed derived from the `(seed, scenario_index)` key, for
/// components that are reseeded by integer rather than by stream.
pub fn scenario_seed(seed: u64, index: usize) -> u64 {
    scenario_stream(seed, index).next_u64()
}

/// One sweep result together with its execution counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Metered<R> {
    /// The job's output.
    pub value: R,
    /// Wall-clock and steps-simulated counters for this scenario.
    pub cost: ScenarioCost,
}

/// Execution profile of one worker across a sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// How many scenarios this worker executed.
    pub scenarios: u64,
    /// Total time this worker spent running jobs.
    pub busy: std::time::Duration,
    /// Total time this worker spent depositing results into the
    /// submission-order slot table (mostly slot-lock acquisition).
    pub merge: std::time::Duration,
}

impl WorkerProfile {
    fn absorb_scenario(&mut self, cost: &ScenarioCost) {
        self.scenarios += 1;
        self.busy += cost.wall_clock;
        self.merge += cost.merge;
    }
}

/// Execution profile of a whole sweep: one entry per worker plus the
/// sweep's wall-clock span.
///
/// Profiles are bookkeeping, like [`ScenarioCost`] — they carry
/// wall-clock durations and are **not** part of the determinism
/// contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepProfile {
    /// Per-worker counters, indexed by spawn order.
    pub workers: Vec<WorkerProfile>,
    /// Wall-clock time from sweep start to the last worker joining.
    pub wall_clock: std::time::Duration,
}

impl SweepProfile {
    /// Sum of job-execution time across workers.
    pub fn total_busy(&self) -> std::time::Duration {
        self.workers.iter().map(|w| w.busy).sum()
    }

    /// Sum of result-merge time across workers.
    pub fn total_merge(&self) -> std::time::Duration {
        self.workers.iter().map(|w| w.merge).sum()
    }

    /// Total scenarios executed.
    pub fn scenarios(&self) -> u64 {
        self.workers.iter().map(|w| w.scenarios).sum()
    }

    /// Fraction of `workers × wall_clock` spent running jobs — 1.0 means
    /// perfectly load-balanced workers that never idled.
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall_clock.as_secs_f64() * self.workers.len() as f64;
        if capacity > 0.0 {
            self.total_busy().as_secs_f64() / capacity
        } else {
            0.0
        }
    }
}

/// A worker pool for scenario grids.
///
/// The pool is created per sweep call; `SweepRunner` itself only holds the
/// parallelism degree, so it is `Copy` and cheap to thread through
/// experiment APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// A runner with `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        SweepRunner { jobs: jobs.max(1) }
    }

    /// A single-worker runner: scenarios run inline, in order.
    pub fn serial() -> Self {
        SweepRunner { jobs: 1 }
    }

    /// A runner sized to the machine's available parallelism.
    pub fn from_available_parallelism() -> Self {
        SweepRunner::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `job` over every item, fanning out across the worker pool,
    /// and returns the results **in submission order**.
    ///
    /// The job receives `(scenario_index, item)`; derive any randomness
    /// from that index via [`scenario_stream`] so parallel and serial
    /// runs are bit-identical.
    ///
    /// # Panics
    ///
    /// If a job panics, the panic propagates to the caller once the pool
    /// has been joined (the remaining queued scenarios are abandoned).
    pub fn run<T, R, F>(&self, items: Vec<T>, job: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.run_metered(items, |index, item| (job(index, item), 0))
            .into_iter()
            .map(|metered| metered.value)
            .collect()
    }

    /// Like [`SweepRunner::run`], but the job also reports how many
    /// simulation steps it executed; the runner stamps each result with
    /// wall-clock and step counters ([`ScenarioCost`]).
    ///
    /// Only `value` participates in the determinism contract — `cost`
    /// carries wall-clock time, which naturally varies between runs.
    pub fn run_metered<T, R, F>(&self, items: Vec<T>, job: F) -> Vec<Metered<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> (R, u64) + Sync,
    {
        self.run_metered_profiled(items, job).0
    }

    /// Like [`SweepRunner::run_metered`], but also profiles the sweep
    /// itself: per-scenario queue wait and merge time land in each
    /// [`ScenarioCost`], and per-worker busy/merge totals come back as a
    /// [`SweepProfile`].
    ///
    /// Only each `Metered::value` participates in the determinism
    /// contract; costs and the profile carry wall-clock durations.
    pub fn run_metered_profiled<T, R, F>(
        &self,
        items: Vec<T>,
        job: F,
    ) -> (Vec<Metered<R>>, SweepProfile)
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> (R, u64) + Sync,
    {
        let sweep_started = Instant::now();
        let n = items.len();
        if self.jobs == 1 || n <= 1 {
            let mut worker = WorkerProfile::default();
            let results = items
                .into_iter()
                .enumerate()
                .map(|(index, item)| {
                    let claimed = Instant::now();
                    let (value, steps) = job(index, item);
                    let cost = ScenarioCost {
                        wall_clock: claimed.elapsed(),
                        steps,
                        queue_wait: claimed.duration_since(sweep_started),
                        merge: std::time::Duration::ZERO,
                    };
                    worker.absorb_scenario(&cost);
                    Metered { value, cost }
                })
                .collect();
            let profile = SweepProfile {
                workers: vec![worker],
                wall_clock: sweep_started.elapsed(),
            };
            return (results, profile);
        }
        let workers = self.jobs.min(n);
        let queue = Mutex::new(items.into_iter().enumerate());
        let slots: Vec<Mutex<Option<Metered<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let profiles: Vec<Mutex<WorkerProfile>> = (0..workers)
            .map(|_| Mutex::new(WorkerProfile::default()))
            .collect();
        std::thread::scope(|scope| {
            for profile_slot in &profiles {
                let queue = &queue;
                let slots = &slots;
                let job = &job;
                scope.spawn(move || {
                    let mut worker = WorkerProfile::default();
                    loop {
                        let next = queue
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .next();
                        match next {
                            Some((index, item)) => {
                                let claimed = Instant::now();
                                let (value, steps) = job(index, item);
                                let ran = claimed.elapsed();
                                let merge_started = Instant::now();
                                let mut slot = slots[index]
                                    .lock()
                                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                                let cost = ScenarioCost {
                                    wall_clock: ran,
                                    steps,
                                    queue_wait: claimed.duration_since(sweep_started),
                                    merge: merge_started.elapsed(),
                                };
                                worker.absorb_scenario(&cost);
                                *slot = Some(Metered { value, cost });
                            }
                            None => break,
                        }
                    }
                    *profile_slot
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = worker;
                });
            }
        });
        let results = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("scoped workers completed every claimed scenario")
            })
            .collect();
        let profile = SweepProfile {
            workers: profiles
                .into_iter()
                .map(|p| {
                    p.into_inner()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                })
                .collect(),
            wall_clock: sweep_started.elapsed(),
        };
        (results, profile)
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::from_available_parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let runner = SweepRunner::new(4);
        let items: Vec<u64> = (0..32).collect();
        // Make early scenarios the slowest so completion order inverts
        // submission order under any scheduling.
        let out = runner.run(items, |index, x| {
            if index < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x * 2
        });
        assert_eq!(out, (0..32).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let job = |index: usize, x: u64| {
            let mut rng = scenario_stream(7, index);
            (x, rng.next_u64(), rng.next_f64())
        };
        let serial = SweepRunner::serial().run((0..16).collect(), job);
        let parallel = SweepRunner::new(4).run((0..16).collect(), job);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn scenario_streams_are_independent_and_stable() {
        let mut a = scenario_stream(1, 0);
        let mut b = scenario_stream(1, 1);
        assert_ne!(a.next_u64(), b.next_u64());
        assert_eq!(scenario_seed(1, 5), scenario_seed(1, 5));
        assert_ne!(scenario_seed(1, 5), scenario_seed(2, 5));
    }

    #[test]
    fn empty_and_single_item_sweeps() {
        let runner = SweepRunner::new(8);
        let empty: Vec<u32> = runner.run(Vec::new(), |_, x: u32| x);
        assert!(empty.is_empty());
        assert_eq!(runner.run(vec![9], |i, x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn metered_run_counts_steps() {
        let out = SweepRunner::new(2).run_metered((0..4).collect(), |_, x: u64| (x, x * 10));
        assert_eq!(out.len(), 4);
        for (i, m) in out.iter().enumerate() {
            assert_eq!(m.value, i as u64);
            assert_eq!(m.cost.steps, i as u64 * 10);
        }
    }

    #[test]
    fn profiled_run_accounts_every_scenario() {
        for jobs in [1, 3] {
            let (out, profile) =
                SweepRunner::new(jobs).run_metered_profiled((0..10).collect(), |_, x: u64| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    (x, 1)
                });
            assert_eq!(out.len(), 10);
            assert_eq!(profile.workers.len(), jobs);
            assert_eq!(
                profile.scenarios(),
                10,
                "every scenario attributed to a worker"
            );
            assert!(profile.total_busy() >= std::time::Duration::from_millis(10));
            assert!(profile.wall_clock >= std::time::Duration::from_millis(1));
            let values: Vec<u64> = out.iter().map(|m| m.value).collect();
            assert_eq!(values, (0..10).collect::<Vec<u64>>(), "order preserved");
        }
    }

    #[test]
    fn profiled_matches_serial_values_bit_for_bit() {
        let job = |index: usize, x: u64| {
            let mut rng = scenario_stream(11, index);
            ((x, rng.next_u64()), 1)
        };
        let (serial, _) = SweepRunner::serial().run_metered_profiled((0..12).collect(), job);
        let (parallel, _) = SweepRunner::new(4).run_metered_profiled((0..12).collect(), job);
        let sv: Vec<_> = serial.into_iter().map(|m| m.value).collect();
        let pv: Vec<_> = parallel.into_iter().map(|m| m.value).collect();
        assert_eq!(sv, pv);
    }

    #[test]
    fn cost_accumulate_sums_profiling_spans() {
        let mut total = ScenarioCost::default();
        let cost = ScenarioCost {
            wall_clock: std::time::Duration::from_millis(5),
            steps: 100,
            queue_wait: std::time::Duration::from_millis(2),
            merge: std::time::Duration::from_micros(10),
        };
        total.accumulate(&cost);
        total.accumulate(&cost);
        assert_eq!(total.steps, 200);
        assert_eq!(total.queue_wait, std::time::Duration::from_millis(4));
        assert_eq!(total.merge, std::time::Duration::from_micros(20));
    }

    #[test]
    fn jobs_clamp_to_at_least_one() {
        assert_eq!(SweepRunner::new(0).jobs(), 1);
        assert!(SweepRunner::from_available_parallelism().jobs() >= 1);
    }
}
