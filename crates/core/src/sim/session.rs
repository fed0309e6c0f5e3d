//! Incremental replay of fixed-priority schedules: the evaluator of the
//! hindsight oracle's search.
//!
//! The search walks through bag permutations, and each proposal differs
//! from the walk's current schedule by one swap or relocate. A
//! [`ReplaySession`] keeps the current schedule's replay (its
//! [`RunResult`], the log of its rank-dependent decisions and up to
//! [`CHECKPOINTS`] checkpoints of its run) and answers a proposal with
//! the [`RunResult`] a fresh [`simulate_replayed`] of it would
//! return, bit for bit, usually without replaying all of it.
//!
//! ## Why the answer is exact
//!
//! A [`FixedPriority`] policy influences a run only through the bag its
//! `select` returns: it keeps no state, ignores the arrival and
//! completion notifications and takes the default replication
//! threshold. Everything else a replayed run does is a deterministic
//! function of the inputs, the recorded timeline and the sequence of
//! those answers. So two schedules produce the same run up to the first
//! `select` call they answer differently, and the same run throughout if
//! there is no such call.
//!
//! While it replays, the session logs every `select` call whose answer
//! could depend on the ranks (two or more dispatchable bags) as the
//! dispatchable set and the bag chosen. For a proposal it finds the first
//! logged call that the proposal's ranks answer differently:
//!
//! * **none** — the proposal's run *is* the current run, and the session
//!   returns the current [`RunResult`] without replaying anything;
//! * **call `k`** — both runs are identical up to call `k`, so every
//!   checkpoint taken before call `k` is a state the proposal's run also
//!   passes through. The session resumes from the last such checkpoint
//!   with the proposal's ranks and runs to the end.
//!
//! A checkpoint is a clone of the whole run state at an event boundary:
//! the simulator state with its RNG streams and indices, the replay
//! cursors and the engine's clock, counters and pending events. The
//! policy is not part of it; the resumed run installs the proposal's.
//!
//! Checkpoints are taken only here, by running the engine in segments
//! with its event budget as the stop: the forward simulator and
//! [`simulate_replayed`] run exactly as before. They sit at multiples of
//! a stride; when a run outgrows the budget the stride doubles and every
//! other checkpoint is dropped, so the checkpoints stay evenly spaced
//! over runs of any length. A replay takes checkpoints only while it
//! still follows the current run, so every checkpoint kept belongs to
//! the current run whether or not the proposal is accepted; accepting a
//! proposal drops the ones past its first changed call, and later
//! replays fill the gap in.

use super::config::SimConfig;
use super::driver::{check_replay, initial_state, Driver, SimState};
use super::events::Event;
use super::metrics::RunResult;
use super::observer::NullObserver;
use super::replay::{Cursors, ReplayState, TraceEnv};
use crate::policy::{BagSelection, View};
use dgsched_des::engine::{Engine, RunOutcome};
use dgsched_grid::Grid;
use dgsched_workload::{BotId, Workload};

#[cfg(doc)]
use super::driver::simulate_replayed;

/// Serve-order priorities frozen at construction: the bag at rank 0 is
/// always preferred when dispatchable, then rank 1, … — the oracle's
/// candidate schedule shape. Knowledge-free policies react to the run;
/// the hindsight search instead *picks the reaction sequence up front*,
/// which is exactly what makes it an offline optimizer.
#[derive(Debug)]
pub struct FixedPriority {
    /// `rank[bag] = position` — lower serves first.
    rank: Vec<u32>,
}

impl FixedPriority {
    /// From a search permutation: `perm[pos] = bag` served at priority
    /// `pos`.
    pub fn from_perm(perm: &[u32]) -> Self {
        let mut rank = vec![u32::MAX; perm.len()];
        for (pos, &bag) in perm.iter().enumerate() {
            rank[bag as usize] = pos as u32;
        }
        FixedPriority { rank }
    }

    /// The preferred bag among `bags`: the lowest rank, the first one on
    /// a tie.
    fn first_of(&self, bags: impl IntoIterator<Item = u32>) -> Option<u32> {
        bags.into_iter()
            .min_by_key(|&b| self.rank.get(b as usize).copied().unwrap_or(u32::MAX))
    }
}

impl BagSelection for FixedPriority {
    fn name(&self) -> &'static str {
        "Oracle-Fixed"
    }

    fn select(&mut self, view: &View<'_>) -> Option<BotId> {
        let dispatchable = view.active().iter().filter(|&&b| view.dispatchable(b));
        self.first_of(dispatchable.map(|b| b.0)).map(BotId)
    }
}

/// The `select` calls of one run whose answer depends on the ranks —
/// those with two or more dispatchable bags — in call order.
#[derive(Debug, Default)]
struct DecisionLog {
    /// Every logged call's dispatchable bags, concatenated.
    bags: Vec<u32>,
    /// Per logged call: the end of its bags in `bags`, and the bag chosen.
    calls: Vec<(usize, u32)>,
}

impl DecisionLog {
    /// The first logged call that `policy` answers differently.
    fn first_change(&self, policy: &FixedPriority) -> Option<usize> {
        let mut start = 0;
        self.calls.iter().position(|&(end, chosen)| {
            let answer = policy.first_of(self.bags[start..end].iter().copied());
            start = end;
            answer != Some(chosen)
        })
    }

    /// A copy of the first `calls` logged calls.
    fn prefix(&self, calls: usize) -> DecisionLog {
        let end = calls.checked_sub(1).map_or(0, |last| self.calls[last].0);
        DecisionLog {
            bags: self.bags[..end].to_vec(),
            calls: self.calls[..calls].to_vec(),
        }
    }
}

/// A [`FixedPriority`] that logs its rank-dependent decisions.
struct Logging<'p> {
    policy: &'p FixedPriority,
    log: &'p mut DecisionLog,
}

impl BagSelection for Logging<'_> {
    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn select(&mut self, view: &View<'_>) -> Option<BotId> {
        let log = &mut *self.log;
        let start = log.bags.len();
        let dispatchable = view.active().iter().filter(|&&b| view.dispatchable(b));
        log.bags.extend(dispatchable.map(|b| b.0));
        let chosen = self.policy.first_of(log.bags[start..].iter().copied());
        match chosen {
            Some(bag) if log.bags.len() - start >= 2 => log.calls.push((log.bags.len(), bag)),
            _ => log.bags.truncate(start),
        }
        chosen.map(BotId)
    }
}

/// Checkpoints the session keeps besides the start point. Each is a
/// copy of the whole run state, so this bounds the session's memory.
const CHECKPOINTS: usize = 6;

/// Events between checkpoints until a run outgrows [`CHECKPOINTS`].
const FIRST_STRIDE: u64 = 16;

/// A replay stopped at an event boundary: everything the rest of the run
/// depends on except the policy.
#[derive(Clone)]
struct Checkpoint {
    state: SimState,
    cursors: Cursors,
    engine: Engine<Event>,
    /// Logged decisions made before this point.
    calls: usize,
}

impl Checkpoint {
    /// Events processed before this point.
    fn at(&self) -> u64 {
        self.engine.processed()
    }
}

/// A schedule's finished replay.
struct Run {
    result: RunResult,
    log: DecisionLog,
}

/// How a session answered its evaluations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Answered with the current schedule's run: no logged decision
    /// changed.
    pub skipped: u64,
    /// Resumed from a checkpoint of the current schedule's run.
    pub resumed: u64,
    /// Replayed from the start.
    pub full: u64,
}

/// Replays fixed-priority schedules against one recorded timeline,
/// reusing the run of the walk's current schedule.
///
/// Two schedules share their run up to the first `select` call they
/// answer differently, because a [`FixedPriority`] policy acts on a run
/// through nothing else. The session logs the current run's
/// rank-dependent calls; a proposal that answers them all alike gets the
/// current run's result without a replay, and any other resumes from the
/// last checkpoint of the current run before its first changed call.
///
/// [`evaluate`](Self::evaluate) returns what [`simulate_replayed`] of a
/// [`FixedPriority`] over the same inputs returns;
/// [`accept`](Self::accept) makes the last evaluated schedule the
/// current one. A session is one search walk's and is not shared across
/// threads.
pub struct ReplaySession<'a> {
    workload: &'a Workload,
    cfg: SimConfig,
    env: &'a TraceEnv,
    /// The primed run before its first event, then checkpoints of the
    /// current schedule's run at ascending multiples of `stride` events.
    /// A multiple may be missing after an accept; the next replay that
    /// passes it while still following the current run fills it in.
    checkpoints: Vec<Checkpoint>,
    stride: u64,
    /// The walk's current schedule.
    current: Option<Run>,
    /// The last evaluated schedule's replay and its first logged call
    /// that differs from the current run (`usize::MAX` without a current
    /// run); `None` when it was answered with the current run.
    last: Option<(Run, usize)>,
    stats: SessionStats,
}

impl<'a> ReplaySession<'a> {
    /// A session replaying schedules of `workload` on `grid` against
    /// `env`.
    ///
    /// # Panics
    /// As [`simulate_replayed`]: when `env` does not fit `grid`, when
    /// `cfg` requests lazy availability, or when the horizon is infinite.
    pub fn new(grid: &Grid, workload: &'a Workload, cfg: &SimConfig, env: &'a TraceEnv) -> Self {
        check_replay(grid, cfg, env);
        let (state, mut engine) = initial_state(grid, workload, cfg, true);
        // Priming schedules events only; it never asks the policy.
        let mut unused = FixedPriority { rank: Vec::new() };
        let mut observer = NullObserver;
        let mut driver = Driver::new(
            state,
            &mut unused,
            workload,
            cfg,
            &mut observer,
            Some(ReplayState::new(env)),
        );
        driver.prime(&mut engine);
        let Driver { state, replay, .. } = driver;
        let start = Checkpoint {
            state,
            cursors: replay.expect("a replaying driver").cur,
            engine,
            calls: 0,
        };
        ReplaySession {
            workload,
            cfg: *cfg,
            env,
            checkpoints: vec![start],
            stride: FIRST_STRIDE,
            current: None,
            last: None,
            stats: SessionStats::default(),
        }
    }

    /// The run of the schedule `perm` (`perm[pos] = bag` served at
    /// priority `pos`), as [`simulate_replayed`] would return it.
    pub fn evaluate(&mut self, perm: &[u32]) -> &RunResult {
        let policy = FixedPriority::from_perm(perm);
        self.last = None;
        let change = self
            .current
            .as_ref()
            .map(|cur| cur.log.first_change(&policy));
        let diverge = match change {
            Some(None) => {
                self.stats.skipped += 1;
                return &self.current.as_ref().expect("a current run").result;
            }
            Some(Some(k)) => k,
            None => usize::MAX,
        };
        let (from, log) = match &self.current {
            // Every checkpoint taken before call `diverge` lies on both
            // runs; resume from the last one.
            Some(cur) => {
                let from = self.checkpoints.partition_point(|c| c.calls <= diverge) - 1;
                (from, cur.log.prefix(self.checkpoints[from].calls))
            }
            // Nothing to follow: replay from the start, and keep every
            // checkpoint of this run in case it is accepted.
            None => {
                self.checkpoints.truncate(1);
                self.stride = FIRST_STRIDE;
                (0, DecisionLog::default())
            }
        };
        if from > 0 {
            self.stats.resumed += 1;
        } else {
            self.stats.full += 1;
        }
        let run = self.replay(&policy, from, log, diverge);
        &self.last.insert((run, diverge)).0.result
    }

    /// Makes the last evaluated schedule the walk's current one.
    pub fn accept(&mut self) {
        if let Some((run, diverge)) = self.last.take() {
            // Checkpoints past the first changed call belong to the old run.
            self.checkpoints.retain(|c| c.calls <= diverge);
            self.current = Some(run);
        }
    }

    /// How the session answered its evaluations so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Runs `policy` from checkpoint `from` to the end of the run,
    /// extending `log`. Until the run makes logged call `diverge` it is
    /// still the current run, and it fills in the current run's missing
    /// checkpoints on the way; after that it takes none.
    fn replay(
        &mut self,
        policy: &FixedPriority,
        from: usize,
        mut log: DecisionLog,
        diverge: usize,
    ) -> Run {
        let (workload, env, cfg) = (self.workload, self.env, self.cfg);
        let limit = cfg.event_limit;
        let mut point = self.checkpoints[from].clone();
        loop {
            let Checkpoint {
                state,
                cursors,
                mut engine,
                ..
            } = point;
            let stop = if log.calls.len() <= diverge {
                (engine.processed() / self.stride + 1) * self.stride
            } else {
                limit
            };
            engine.set_event_limit(stop.min(limit));
            let mut logging = Logging {
                policy,
                log: &mut log,
            };
            let mut observer = NullObserver;
            let mut driver = Driver::new(
                state,
                &mut logging,
                workload,
                &cfg,
                &mut observer,
                Some(ReplayState::resume(env, cursors)),
            );
            let outcome = engine.run(&mut driver);
            if outcome != RunOutcome::EventLimit || engine.processed() >= limit {
                let (result, _) = driver.finish(&engine, outcome);
                return Run { result, log };
            }
            let Driver { state, replay, .. } = driver;
            point = Checkpoint {
                state,
                cursors: replay.expect("a replaying driver").cur,
                engine,
                calls: log.calls.len(),
            };
            if point.calls <= diverge {
                self.keep(&point);
            }
        }
    }

    /// Adds a checkpoint of the current run, halving the checkpoints'
    /// density when they exceed the budget.
    fn keep(&mut self, point: &Checkpoint) {
        let pos = self.checkpoints.partition_point(|c| c.at() < point.at());
        // Resuming starts past every checkpoint before the first changed
        // call, so the ones ahead all lie past it.
        debug_assert!(self
            .checkpoints
            .get(pos)
            .is_none_or(|c| c.at() > point.at()));
        self.checkpoints.insert(pos, point.clone());
        if self.checkpoints.len() > CHECKPOINTS + 1 {
            self.stride *= 2;
            let stride = self.stride;
            self.checkpoints.retain(|c| c.at() % stride == 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_priority_serves_lowest_rank_first() {
        // perm [2,0,1]: bag 2 has rank 0, bag 0 rank 1, bag 1 rank 2.
        let fp = FixedPriority::from_perm(&[2, 0, 1]);
        assert_eq!(fp.rank, vec![1, 2, 0]);
        assert_eq!(fp.first_of([0, 1, 2]), Some(2));
        assert_eq!(fp.first_of([1, 0]), Some(0));
        assert_eq!(fp.first_of([]), None);
    }

    #[test]
    fn decision_log_finds_the_first_changed_call() {
        let log = DecisionLog {
            bags: vec![0, 1, 1, 2, 0, 2],
            calls: vec![(2, 0), (4, 1), (6, 0)],
        };
        assert_eq!(
            log.first_change(&FixedPriority::from_perm(&[0, 1, 2])),
            None
        );
        // Bag 2 ahead of bag 1 flips the second call only.
        assert_eq!(
            log.first_change(&FixedPriority::from_perm(&[0, 2, 1])),
            Some(1)
        );
        assert_eq!(
            log.first_change(&FixedPriority::from_perm(&[1, 0, 2])),
            Some(0)
        );
        let head = log.prefix(2);
        assert_eq!(head.bags, vec![0, 1, 1, 2]);
        assert_eq!(head.calls, vec![(2, 0), (4, 1)]);
        assert!(log.prefix(0).bags.is_empty());
    }
}
