//! `dcs-conc` — a bounded interleaving model checker.
//!
//! The workspace vendors no model-checking framework, so the concurrency
//! audit lane (DESIGN.md §15) uses this dependency-free explorer instead:
//! a model is a set of per-thread **operation sequences** over shared state
//! `S`; the checker enumerates **every** interleaving that respects each
//! thread's program order, replays each schedule from a fresh state, and
//! evaluates an invariant after every step. Operations execute atomically
//! with respect to each other — exactly the granularity of the methods
//! under audit: `SigCache::get`/`insert` hold a shard lock end-to-end, and
//! `Mempool` calls take `&mut self`. Races *between*
//! calls (check-then-act splits, counter drift, lost updates across a
//! get→verify→insert handoff) surface as an invariant failure with the
//! exact failing schedule attached.
//!
//! The exploration is exhaustive and fully deterministic: schedules are
//! enumerated in lexicographic thread order, there is no randomness and no
//! time, and the schedule count is the multinomial coefficient of the
//! thread lengths — a [`Model::check`] call refuses to run past
//! [`Model::max_schedules`] so tests stay bounded by construction.

use std::fmt;

/// One atomic operation applied to the shared state.
pub type Op<S> = Box<dyn Fn(&mut S)>;

/// A counterexample: the schedule and step where the invariant broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Thread index executed at each step, in order.
    pub schedule: Vec<usize>,
    /// Step (0-based, into `schedule`) after which the invariant failed;
    /// `schedule.len()` means the final-state check failed.
    pub step: usize,
    /// The invariant's error message.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant violated after step {} of schedule {:?}: {}",
            self.step, self.schedule, self.message
        )
    }
}

/// Exploration statistics for a passing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Explored {
    /// Interleavings executed.
    pub schedules: u64,
    /// Total operations executed across all schedules.
    pub steps: u64,
}

/// A model: per-thread operation sequences plus exploration bounds.
pub struct Model<S> {
    threads: Vec<Vec<Op<S>>>,
    max_schedules: u64,
}

impl<S> Default for Model<S> {
    fn default() -> Self {
        Model::new()
    }
}

impl<S> Model<S> {
    /// An empty model with the default schedule bound (2 million).
    pub fn new() -> Self {
        Model {
            threads: Vec::new(),
            max_schedules: 2_000_000,
        }
    }

    /// Adds a thread as an ordered operation sequence.
    pub fn thread(mut self, ops: Vec<Op<S>>) -> Self {
        self.threads.push(ops);
        self
    }

    /// Overrides the refuse-to-run schedule bound.
    pub fn max_schedules(mut self, max: u64) -> Self {
        self.max_schedules = max;
        self
    }

    /// Number of distinct interleavings this model generates: the
    /// multinomial coefficient of the thread lengths. Saturates at
    /// `u128::MAX`.
    pub fn schedule_count(&self) -> u128 {
        // Multiply incrementally as C(total, n_i) products to delay
        // overflow: total!/(n_1!…n_k!) = Π C(partial_total_i, n_i).
        let mut total: u128 = 0;
        let mut count: u128 = 1;
        for t in &self.threads {
            for j in 1..=t.len() as u128 {
                total += 1;
                count = count.saturating_mul(total).saturating_div(j.max(1));
            }
        }
        count
    }

    /// Explores every interleaving. Each schedule replays from a fresh
    /// `init()` state; `invariant` runs after every operation and once more
    /// on the final state. Returns the first counterexample, or exploration
    /// stats when every schedule passes.
    ///
    /// Errors with a synthetic violation (empty schedule) when the model
    /// exceeds [`Model::max_schedules`] — shrink the model instead of
    /// raising the bound.
    pub fn check<I, F>(&self, init: I, invariant: F) -> Result<Explored, Violation>
    where
        I: Fn() -> S,
        F: Fn(&S) -> Result<(), String>,
    {
        let count = self.schedule_count();
        if count > self.max_schedules as u128 {
            return Err(Violation {
                schedule: Vec::new(),
                step: 0,
                message: format!(
                    "model generates {count} schedules (> bound {}); shrink the model",
                    self.max_schedules
                ),
            });
        }
        let total_ops: usize = self.threads.iter().map(Vec::len).sum();
        let mut schedule: Vec<usize> = Vec::with_capacity(total_ops);
        let mut stats = Explored {
            schedules: 0,
            steps: 0,
        };
        self.enumerate(&init, &invariant, total_ops, &mut schedule, &mut stats)?;
        Ok(stats)
    }

    /// Depth-first enumeration over next-thread choices; replays the full
    /// schedule at each leaf.
    fn enumerate<I, F>(
        &self,
        init: &I,
        invariant: &F,
        remaining: usize,
        schedule: &mut Vec<usize>,
        stats: &mut Explored,
    ) -> Result<(), Violation>
    where
        I: Fn() -> S,
        F: Fn(&S) -> Result<(), String>,
    {
        if remaining == 0 {
            return self.replay(init, invariant, schedule, stats);
        }
        // Per-thread progress implied by the prefix.
        for t in 0..self.threads.len() {
            let done = schedule.iter().filter(|&&x| x == t).count();
            if done < self.threads[t].len() {
                schedule.push(t);
                self.enumerate(init, invariant, remaining - 1, schedule, stats)?;
                schedule.pop();
            }
        }
        Ok(())
    }

    fn replay<I, F>(
        &self,
        init: &I,
        invariant: &F,
        schedule: &[usize],
        stats: &mut Explored,
    ) -> Result<(), Violation>
    where
        I: Fn() -> S,
        F: Fn(&S) -> Result<(), String>,
    {
        let mut state = init();
        let mut progress = vec![0usize; self.threads.len()];
        stats.schedules += 1;
        for (step, &t) in schedule.iter().enumerate() {
            (self.threads[t][progress[t]])(&mut state);
            progress[t] += 1;
            stats.steps += 1;
            if let Err(message) = invariant(&state) {
                return Err(Violation {
                    schedule: schedule.to_vec(),
                    step,
                    message,
                });
            }
        }
        if let Err(message) = invariant(&state) {
            return Err(Violation {
                schedule: schedule.to_vec(),
                step: schedule.len(),
                message,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a thread from `n` repetitions of one closure.
    fn repeated<S: 'static>(n: usize, f: impl Fn(&mut S) + Clone + 'static) -> Vec<Op<S>> {
        (0..n)
            .map(|_| {
                let f = f.clone();
                Box::new(move |s: &mut S| f(s)) as Op<S>
            })
            .collect()
    }

    #[test]
    fn schedule_count_is_the_multinomial() {
        // 2+2 ops → C(4,2) = 6; 2+2+2 → 6!/(2!2!2!) = 90.
        let m: Model<()> = Model::new()
            .thread(repeated(2, |_| {}))
            .thread(repeated(2, |_| {}));
        assert_eq!(m.schedule_count(), 6);
        let m3: Model<()> = Model::new()
            .thread(repeated(2, |_| {}))
            .thread(repeated(2, |_| {}))
            .thread(repeated(2, |_| {}));
        assert_eq!(m3.schedule_count(), 90);
    }

    #[test]
    fn explores_every_interleaving_exactly_once() {
        // Count schedules via the stats; 3+2 ops → C(5,2) = 10 schedules,
        // each replaying 5 steps.
        let m: Model<u32> = Model::new()
            .thread(repeated(3, |s: &mut u32| *s += 1))
            .thread(repeated(2, |s: &mut u32| *s += 10));
        let explored = m.check(|| 0, |_| Ok(())).unwrap();
        assert_eq!(explored.schedules, 10);
        assert_eq!(explored.steps, 50);
    }

    #[test]
    fn atomic_increments_always_sum() {
        let m: Model<u64> = Model::new()
            .thread(repeated(4, |s: &mut u64| *s += 1))
            .thread(repeated(4, |s: &mut u64| *s += 1));
        // Final-state invariant only fires at quiescence via a step gate.
        let explored = m
            .check(
                || 0,
                |s| {
                    if *s <= 8 {
                        Ok(())
                    } else {
                        Err(format!("sum overshot: {s}"))
                    }
                },
            )
            .unwrap();
        assert_eq!(explored.schedules, 70); // C(8,4)
    }

    #[test]
    fn seeded_check_then_act_race_is_caught() {
        // The classic lost update: each "thread" reads the counter into a
        // local, then writes back read+1 as a *separate* operation. Some
        // interleaving loses an update, so the final count must be < 2 in
        // at least one schedule — the explorer must find it.
        #[derive(Default)]
        struct St {
            counter: u64,
            reads: Vec<u64>,
            done: usize,
        }
        let read = |tid: usize| {
            Box::new(move |s: &mut St| {
                while s.reads.len() <= tid {
                    s.reads.push(0);
                }
                s.reads[tid] = s.counter;
            }) as Op<St>
        };
        let write = |tid: usize| {
            Box::new(move |s: &mut St| {
                s.counter = s.reads[tid] + 1;
                s.done += 1;
            }) as Op<St>
        };
        let m: Model<St> = Model::new()
            .thread(vec![read(0), write(0)])
            .thread(vec![read(1), write(1)]);
        let violation = m
            .check(St::default, |s| {
                if s.done == 2 && s.counter != 2 {
                    Err(format!(
                        "lost update: counter={} after both writes",
                        s.counter
                    ))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(violation.message.contains("lost update"));
        assert_eq!(violation.schedule.len(), 4);
    }

    #[test]
    fn schedule_bound_refuses_oversized_models() {
        let m: Model<()> = Model::new()
            .thread(repeated(10, |_| {}))
            .thread(repeated(10, |_| {}))
            .max_schedules(100);
        let v = m.check(|| (), |_| Ok(())).unwrap_err();
        assert!(v.message.contains("shrink the model"));
    }

    #[test]
    fn violation_reports_the_exact_step() {
        let m: Model<i32> = Model::new().thread(repeated(3, |s: &mut i32| *s += 1));
        let v = m
            .check(
                || 0,
                |s| {
                    if *s >= 2 {
                        Err("hit two".to_string())
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap_err();
        assert_eq!(v.step, 1);
        assert_eq!(v.schedule, vec![0, 0, 0]);
    }
}
