//! Per-policy regret against the hindsight oracle.
//!
//! The paper's knowledge-free policies are only ever compared to each
//! other; this module measures how far each one is from *optimal on the
//! realized trace*. For every replication it captures the environment
//! timeline (machine up/down transitions, correlated outages) of the
//! finished run, replays every candidate schedule against that exact
//! timeline through [`TraceEnv`], and reports
//!
//! ```text
//! regret = (policy turnaround − oracle turnaround) / oracle turnaround
//! ```
//!
//! with confidence intervals across replications.
//!
//! ## The oracle
//!
//! The oracle turnaround of a replication is the minimum over two
//! searches of the same replayed environment:
//!
//! * **the policy incumbents** — all seven knowledge-free policies
//!   replayed against the captured timeline (the environment streams are
//!   policy-independent, so these replays equal each policy's live run at
//!   the same seeds). Taking their minimum makes `oracle ≤ best observed`
//!   — and therefore `regret ≥ 0` — true *by construction*;
//! * **a penalty-function local search** (`dgsched-oracle`) over fixed
//!   bag-priority schedules: each candidate permutation is evaluated by
//!   replaying a [`FixedPriority`] policy against the same timeline, with
//!   infeasible candidates (saturated or incomplete replays) graded by a
//!   large penalty plus distance-to-feasible terms so the search can
//!   descend through them. Restarts are independent units on the
//!   work-stealing pool; results fold deterministically, so the oracle is
//!   byte-identical at any pool width.
//!
//! ## Incremental evaluation
//!
//! Each restart evaluates its proposals through a [`ReplaySession`],
//! which returns bit for bit the [`RunResult`] a fresh
//! [`simulate_replayed`] of the proposal would, with less work. A
//! fixed-priority policy acts on a run only through the bag each
//! `select` call returns, so two schedules share their run up to the
//! first call they answer differently. The session logs the current
//! schedule's rank-dependent calls (dispatchable set, chosen bag): a
//! proposal that answers all of them alike has the current run and its
//! cost, with no replay; any other resumes from the last checkpoint of
//! the current run before its first changed call. The kernel tells the
//! session which proposals the walk moves to through
//! [`Evaluator::accept`]. The search therefore visits exactly the
//! permutations and costs a full replay per proposal would, and
//! `evaluations` still counts every proposal.
//!
//! Scenarios sharing `(grid, workload, sim)` share their environment —
//! the oracle is computed once per environment group and attached to
//! every policy's [`ScenarioResult`] in the group.
//!
//! ## Journaled restarts
//!
//! [`run_matrix_regret_journaled`] makes each completed search restart
//! durable the moment it finishes, through the same journal store as the
//! replication journal (append + fsync, torn tails truncated on open),
//! keyed by `(environment digest, replication, restart)`. Because a
//! restart is a pure function of its key and [`fold`] is
//! order-insensitive, a resumed search is byte-identical to an
//! uninterrupted one. The base sweep is recomputed on resume, not
//! journaled.

use super::journal::{digest128_hex, oracle_fingerprint, JournalLine, JournalStats, JournalStore};
use super::runner::{replication_inputs, reportable_ci, run_replication_traced, ScenarioResult};
use super::scenario::Scenario;
use crate::policy::PolicyKind;
#[cfg(doc)]
use crate::sim::FixedPriority;
use crate::sim::{simulate_replayed, ReplaySession, RunResult, TraceEnv};
use dgsched_des::stats::{ConfidenceInterval, StoppingRule, Welford};
use dgsched_oracle::{fold, run_restart, Evaluator, RestartOutcome, SearchConfig, SplitMix64};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Knobs of the oracle computation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OracleConfig {
    /// Independent search restarts per replication.
    #[serde(default = "default_restarts")]
    pub restarts: u32,
    /// Move proposals per restart (each proposal is one evaluated
    /// schedule).
    #[serde(default = "default_iters")]
    pub iters: u32,
    /// Seed of the search streams (independent of the simulation seeds).
    #[serde(default)]
    pub seed: u64,
    /// Replications the oracle evaluates (a fixed count, not the sweep's
    /// stopping rule: every replay of replication `r` reuses the timeline
    /// captured at `r`, so the regret sample is paired by construction).
    #[serde(default = "default_replications")]
    pub replications: u64,
}

fn default_restarts() -> u32 {
    8
}

fn default_iters() -> u32 {
    120
}

fn default_replications() -> u64 {
    3
}

impl OracleConfig {
    /// Rejects knobs with nothing to measure: zero restarts leave the
    /// search nothing to fold, and zero replications would report a
    /// made-up 0 % regret over an empty sample.
    pub fn validate(&self) -> Result<(), String> {
        if self.restarts == 0 {
            return Err("oracle restarts must be non-zero".to_string());
        }
        if self.replications == 0 {
            return Err("oracle replications must be non-zero".to_string());
        }
        Ok(())
    }
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            restarts: default_restarts(),
            iters: default_iters(),
            seed: 0,
            replications: default_replications(),
        }
    }
}

/// The `regret` section of a [`ScenarioResult`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegretSection {
    /// Oracle turnaround across replications.
    pub oracle_turnaround: ConfidenceInterval,
    /// Relative regret `(policy − oracle) / oracle` across the
    /// replications where this policy completed its run.
    pub regret: ConfidenceInterval,
    /// Replications the oracle evaluated.
    pub replications: u64,
    /// Replications that contributed a regret observation (the policy's
    /// replay completed; saturated replications carry no turnaround).
    pub measured_replications: u64,
    /// Proposals the search evaluated, across restarts and replications
    /// (including each restart's start point and kicks).
    pub search_evaluations: u64,
    /// Search restarts per replication.
    pub restarts: u32,
    /// Move proposals per restart.
    pub iters: u32,
    /// Search seed.
    pub seed: u64,
}

/// Penalty base dwarfing any realizable turnaround, so every infeasible
/// candidate costs more than every feasible one.
const PENALTY_BASE: f64 = 1e12;

/// The search's objective: mean turnaround when the replay drains the
/// workload, otherwise a penalty graded by how many bags were left
/// incomplete (primary) and how late the run ended (secondary), so local
/// search can walk through infeasible space toward feasibility.
fn penalized_cost(r: &RunResult) -> f64 {
    let incomplete = r.total.saturating_sub(r.completed);
    if r.saturated || incomplete > 0 {
        PENALTY_BASE * (1.0 + incomplete as f64) + r.end_time
    } else {
        r.mean_turnaround()
    }
}

/// The search's objective over a replay session: [`penalized_cost`] of
/// each proposal's run.
struct Search<'a>(ReplaySession<'a>);

impl Evaluator for Search<'_> {
    fn cost(&mut self, perm: &[u32]) -> f64 {
        penalized_cost(self.0.evaluate(perm))
    }

    fn accept(&mut self) {
        self.0.accept();
    }
}

/// The oracle's view of one replication.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OracleReplication {
    /// Replication index.
    pub rep: u64,
    /// The oracle turnaround: `min(best search schedule, best replayed
    /// policy)` on this replication's timeline.
    pub oracle_turnaround: f64,
    /// `"search"` when the local search beat every policy incumbent, else
    /// the winning policy's paper name.
    pub incumbent: String,
    /// The search winner (cost is the penalized objective).
    pub search: RestartOutcome,
    /// Per-policy replayed mean turnaround; `None` when that policy's
    /// replay saturated or left bags incomplete.
    pub policy_turnarounds: Vec<(String, Option<f64>)>,
}

/// The per-replication search seed: one mix over `(seed, rep)` so
/// replications search independent streams.
fn rep_search_seed(seed: u64, rep: u64) -> u64 {
    SplitMix64::new(seed ^ rep.wrapping_mul(0x2545_F491_4F6C_DD1D)).next_u64()
}

/// Computes the oracle for one replication of a scenario's environment.
///
/// Captures the replication's trace (the donor policy is the scenario's
/// own — the extracted timeline is policy-independent), replays all seven
/// knowledge-free policies as incumbents, then runs the permutation
/// search. `journal` — when present — supplies already-journaled restart
/// outcomes and records fresh ones.
pub fn oracle_replication(
    scenario: &Scenario,
    base_seed: u64,
    rep: u64,
    ocfg: &OracleConfig,
) -> OracleReplication {
    oracle_replication_inner(scenario, base_seed, rep, ocfg, None)
}

fn oracle_replication_inner(
    scenario: &Scenario,
    base_seed: u64,
    rep: u64,
    ocfg: &OracleConfig,
    journal: Option<(&RestartJournal, &str)>,
) -> OracleReplication {
    let (_, trace) = run_replication_traced(scenario, base_seed, rep);
    let (grid, workload, cfg) = replication_inputs(scenario, base_seed, rep);
    let env = TraceEnv::from_trace(&trace.events, grid.len());

    let policy_turnarounds: Vec<(String, Option<f64>)> = PolicyKind::all_with_baselines()
        .into_iter()
        .map(|kind| {
            let r = simulate_replayed(&grid, &workload, kind.create_seeded(cfg.seed), &cfg, &env);
            let t = if r.saturated || r.completed < r.total {
                None
            } else {
                Some(r.mean_turnaround())
            };
            (kind.paper_name().to_string(), t)
        })
        .collect();

    let scfg = SearchConfig {
        restarts: ocfg.restarts,
        iters: ocfg.iters,
        seed: rep_search_seed(ocfg.seed, rep),
        stall_kick: 24,
    };
    // Restarts are the resumable unit: replay journaled ones, compute the
    // rest on the pool, journal fresh outcomes in restart order, fold.
    let outcomes: Vec<(RestartOutcome, bool)> = (0..scfg.restarts)
        .into_par_iter()
        .map(|r| {
            if let Some((j, env_key)) = journal {
                if let Some(done) = j.done.get(&(env_key.to_string(), rep, r)) {
                    return (done.clone(), true);
                }
            }
            let search = Search(ReplaySession::new(&grid, &workload, &cfg, &env));
            (run_restart(workload.len(), r, &scfg, search), false)
        })
        .collect();
    if let Some((j, env_key)) = journal {
        for (outcome, replayed) in &outcomes {
            if *replayed {
                j.store.note_replayed();
            } else {
                j.store.append(&OracleLine::Restart {
                    env: env_key.to_string(),
                    rep,
                    outcome: outcome.clone(),
                });
            }
        }
    }
    let search = fold(outcomes.into_iter().map(|(o, _)| o)).expect("restarts >= 1");

    let best_policy = policy_turnarounds
        .iter()
        .filter_map(|(name, t)| t.map(|t| (name.as_str(), t)))
        .min_by(|a, b| a.1.total_cmp(&b.1));
    // When nothing drained the workload on this timeline, the penalized
    // search objective is reported as-is; regret stays undefined (no
    // policy contributes a measured replication either).
    let search_feasible = search.cost < PENALTY_BASE;
    let (incumbent, oracle_turnaround) = match best_policy {
        Some((name, t)) if !search_feasible || t <= search.cost => (name.to_string(), t),
        _ => ("search".to_string(), search.cost),
    };

    OracleReplication {
        rep,
        oracle_turnaround,
        incumbent,
        search,
        policy_turnarounds,
    }
}

/// Canonical digest of a scenario's environment half: scenarios with
/// equal digests share grids, workloads, fault timelines — and therefore
/// oracle values — at every replication.
fn env_key(scenario: &Scenario) -> String {
    let bytes = serde_json::to_vec(&(&scenario.grid, &scenario.workload, &scenario.sim))
        .expect("scenario halves serialise");
    digest128_hex(&bytes)
}

/// Attaches a [`RegretSection`] to `result` from the environment group's
/// oracle replications.
fn attach_regret(
    result: &mut ScenarioResult,
    policy: &str,
    oracle_reps: &[OracleReplication],
    ocfg: &OracleConfig,
    level: f64,
) {
    if result.saturated {
        return; // an unmeasurable scenario reports no statistics at all
    }
    let mut oracle_w = Welford::new();
    let mut regret_w = Welford::new();
    let mut evaluations = 0u64;
    for orep in oracle_reps {
        oracle_w.push(orep.oracle_turnaround);
        evaluations += orep.search.evaluations;
        let mine = orep
            .policy_turnarounds
            .iter()
            .find(|(name, _)| name == policy)
            .and_then(|(_, t)| *t);
        if let Some(t) = mine {
            if orep.oracle_turnaround > 0.0 {
                regret_w.push((t - orep.oracle_turnaround) / orep.oracle_turnaround);
            }
        }
    }
    result.regret = Some(RegretSection {
        oracle_turnaround: reportable_ci(&oracle_w, level),
        regret: reportable_ci(&regret_w, level),
        replications: oracle_reps.len() as u64,
        measured_replications: regret_w.count(),
        search_evaluations: evaluations,
        restarts: ocfg.restarts,
        iters: ocfg.iters,
        seed: ocfg.seed,
    });
}

fn regret_pass(
    scenarios: &[Scenario],
    results: &mut [ScenarioResult],
    base_seed: u64,
    rule: &StoppingRule,
    ocfg: &OracleConfig,
    journal: Option<&RestartJournal>,
) {
    // Group scenarios by environment digest (BTreeMap: deterministic
    // iteration) so each timeline is captured and searched exactly once,
    // then shared by all policies in the group.
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, s) in scenarios.iter().enumerate() {
        groups.entry(env_key(s)).or_default().push(i);
    }
    for (key, members) in &groups {
        let donor = &scenarios[members[0]];
        let oracle_reps: Vec<OracleReplication> = (0..ocfg.replications)
            .map(|rep| {
                oracle_replication_inner(
                    donor,
                    base_seed,
                    rep,
                    ocfg,
                    journal.map(|j| (j, key.as_str())),
                )
            })
            .collect();
        for &i in members {
            let policy = results[i].policy.clone();
            attach_regret(&mut results[i], &policy, &oracle_reps, ocfg, rule.level);
        }
    }
}

/// [`run_matrix`](super::run_matrix) plus a [`RegretSection`] on every
/// non-saturated result. The base sweep is untouched — turnaround,
/// waiting, makespan and the stopping index are byte-identical to a plain
/// `run_matrix` of the same scenarios.
pub fn run_matrix_regret(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
    ocfg: &OracleConfig,
) -> Vec<ScenarioResult> {
    let mut results = super::runner::run_matrix(scenarios, base_seed, rule);
    regret_pass(scenarios, &mut results, base_seed, rule, ocfg, None);
    results
}

/// Oracle journal schema version, folded into the fingerprint.
const ORACLE_JOURNAL_VERSION: u32 = 1;

/// One line of the oracle restart journal.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub(super) enum OracleLine {
    Header {
        version: u32,
        fingerprint: String,
        code_version: String,
    },
    Restart {
        env: String,
        rep: u64,
        outcome: RestartOutcome,
    },
}

impl JournalLine for OracleLine {
    fn header(&self) -> Option<(u32, &str)> {
        match self {
            OracleLine::Header {
                version,
                fingerprint,
                ..
            } => Some((*version, fingerprint)),
            OracleLine::Restart { .. } => None,
        }
    }
}

/// The restart journal of a search in progress: the store, plus the
/// journaled restarts keyed by `(environment digest, replication,
/// restart)`.
struct RestartJournal {
    store: JournalStore<OracleLine>,
    done: BTreeMap<(String, u64, u32), RestartOutcome>,
}

/// [`run_matrix_regret`] with a crash-safe restart journal at `path`.
///
/// Every completed search restart is durable before it can influence a
/// published number; on `resume = true` journaled restarts are folded in
/// instead of recomputed (fingerprint mismatch is an error). Results are
/// byte-identical to the unjournaled run. The base sweep is recomputed,
/// not journaled.
pub fn run_matrix_regret_journaled(
    scenarios: &[Scenario],
    base_seed: u64,
    rule: &StoppingRule,
    ocfg: &OracleConfig,
    path: &Path,
    resume: bool,
) -> io::Result<(Vec<ScenarioResult>, JournalStats)> {
    let header = OracleLine::Header {
        version: ORACLE_JOURNAL_VERSION,
        fingerprint: oracle_fingerprint(scenarios, base_seed, rule, ocfg)?,
        code_version: env!("CARGO_PKG_VERSION").to_string(),
    };
    let (store, records) = JournalStore::open(path, &header, resume)?;
    let done = records
        .into_iter()
        .filter_map(|line| match line {
            OracleLine::Restart { env, rep, outcome } => {
                Some(((env, rep, outcome.restart), outcome))
            }
            OracleLine::Header { .. } => None,
        })
        .collect();
    let journal = RestartJournal { store, done };
    let mut results = super::runner::run_matrix(scenarios, base_seed, rule);
    regret_pass(
        scenarios,
        &mut results,
        base_seed,
        rule,
        ocfg,
        Some(&journal),
    );
    Ok((results, journal.store.finish()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::scenario::WorkloadKind;
    use crate::sim::SimConfig;
    use dgsched_grid::{Availability, GridConfig, Heterogeneity};
    use dgsched_workload::{BotType, Intensity, WorkloadSpec};

    fn small_scenario(policy: PolicyKind) -> Scenario {
        Scenario {
            name: format!("regret {policy}"),
            grid: GridConfig {
                total_power: 80.0,
                heterogeneity: Heterogeneity::HOM,
                availability: Availability::HIGH,
                checkpoint: Default::default(),
                outages: None,
            },
            workload: WorkloadKind::Single(WorkloadSpec {
                bot_type: BotType {
                    granularity: 2_000.0,
                    app_size: 16_000.0,
                    jitter: 0.5,
                },
                intensity: Intensity::Medium,
                count: 5,
            }),
            policy,
            sim: SimConfig::default(),
        }
    }

    fn tiny_oracle() -> OracleConfig {
        OracleConfig {
            restarts: 2,
            iters: 10,
            seed: 5,
            replications: 2,
        }
    }

    #[test]
    fn penalty_grades_by_incompleteness_then_end_time() {
        let mk = |completed: usize, saturated: bool, end_time: f64| RunResult {
            policy: "t".into(),
            bags: Vec::new(),
            machines: Vec::new(),
            completed,
            total: 4,
            saturated,
            end_time,
            events: 0,
            counters: Default::default(),
        };
        let clean = penalized_cost(&mk(4, false, 100.0));
        assert_eq!(clean, 0.0, "no measured bags -> welford mean 0");
        let one_missing = penalized_cost(&mk(3, false, 100.0));
        let two_missing = penalized_cost(&mk(2, false, 100.0));
        let two_missing_later = penalized_cost(&mk(2, false, 900.0));
        assert!(clean < one_missing);
        assert!(one_missing < two_missing);
        assert!(two_missing < two_missing_later);
        assert!(penalized_cost(&mk(4, true, 50.0)) >= PENALTY_BASE);
    }

    #[test]
    fn oracle_never_beats_is_beaten_by_best_policy() {
        let orep = oracle_replication(&small_scenario(PolicyKind::Rr), 2008, 0, &tiny_oracle());
        let best = orep
            .policy_turnarounds
            .iter()
            .filter_map(|(_, t)| *t)
            .fold(f64::INFINITY, f64::min);
        assert!(
            orep.oracle_turnaround <= best,
            "oracle {} > best policy {best}",
            orep.oracle_turnaround
        );
        assert!(orep.oracle_turnaround > 0.0);
    }

    #[test]
    fn env_groups_share_oracle_values() {
        let scenarios: Vec<Scenario> = [PolicyKind::Rr, PolicyKind::Sbf, PolicyKind::LongIdle]
            .into_iter()
            .map(small_scenario)
            .collect();
        let rule = StoppingRule {
            min_replications: 2,
            max_replications: 2,
            ..Default::default()
        };
        let results = run_matrix_regret(&scenarios, 2008, &rule, &tiny_oracle());
        let oracles: Vec<String> = results
            .iter()
            .map(|r| serde_json::to_string(&r.regret.as_ref().unwrap().oracle_turnaround).unwrap())
            .collect();
        assert_eq!(oracles[0], oracles[1]);
        assert_eq!(oracles[1], oracles[2]);
        for r in &results {
            let reg = r.regret.as_ref().unwrap();
            assert!(reg.regret.mean >= 0.0, "{}: {}", r.name, reg.regret.mean);
            assert_eq!(reg.replications, 2);
        }
    }

    #[test]
    fn regret_section_stays_off_the_wire_when_absent() {
        let rule = StoppingRule {
            min_replications: 2,
            max_replications: 2,
            ..Default::default()
        };
        let plain = super::super::runner::run_matrix(
            std::slice::from_ref(&small_scenario(PolicyKind::Rr)),
            2008,
            &rule,
        );
        let text = serde_json::to_string(&plain).unwrap();
        assert!(
            !text.contains("\"regret\":"),
            "absent regret must not change the wire format: {text}"
        );
        let back: Vec<ScenarioResult> = serde_json::from_str(&text).unwrap();
        assert!(back[0].regret.is_none());
    }

    #[test]
    fn journaled_regret_resumes_byte_identically() {
        let scenarios = vec![small_scenario(PolicyKind::Rr)];
        let rule = StoppingRule {
            min_replications: 2,
            max_replications: 2,
            ..Default::default()
        };
        let ocfg = tiny_oracle();
        let dir = std::env::temp_dir().join("dgsched-oracle-journal-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("resume-{}.jsonl", std::process::id()));

        let (first, stats1) =
            run_matrix_regret_journaled(&scenarios, 2008, &rule, &ocfg, &path, false).unwrap();
        assert_eq!(stats1.records_written, 2 * 2, "restarts × replications");
        assert_eq!(stats1.resumes, 0);

        let (second, stats2) =
            run_matrix_regret_journaled(&scenarios, 2008, &rule, &ocfg, &path, true).unwrap();
        assert_eq!(stats2.resumes, 1);
        assert_eq!(stats2.records_written, 0, "everything replayed");
        assert_eq!(stats2.records_replayed, 4);
        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap(),
            "resumed search must be byte-identical"
        );

        let plain = run_matrix_regret(&scenarios, 2008, &rule, &ocfg);
        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "journaling must not perturb results"
        );

        let wrong_seed =
            run_matrix_regret_journaled(&scenarios, 2009, &rule, &ocfg, &path, true).unwrap_err();
        assert!(wrong_seed.to_string().contains("fingerprint"));
        std::fs::remove_file(&path).ok();
    }
}
