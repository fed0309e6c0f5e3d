//! The `oracle` workload: `run_matrix_regret` over the seven policies on
//! one Het-LowAvail platform with fixed restarts, iterations and
//! replications.
//!
//! It uses the `sim` layer differently from `sweep`: thousands of
//! `simulate_replayed` calls against one captured trace per replication
//! instead of forward runs over freshly sampled availability. It also
//! covers trace capture (`obs`) and the search kernel (`crates/oracle`),
//! and bypasses `serve`, `codec` and `journal`.

use crate::common::{digest, median, middle_mean, quantile, secs, Sheet, Tracer};
use crate::layers::{self, transitions};
use crate::sweep::{pass_seed, SETUPS, WIDTH};
use crate::Size;
use dgsched_core::experiment::{
    oracle_replication, replication_inputs, run_matrix, run_matrix_regret, run_replication_traced,
    OracleConfig, Scenario, ScenarioResult, WorkloadKind,
};
use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::{simulate_replayed, SimConfig, TraceEnv};
use dgsched_des::stats::StoppingRule;
use dgsched_grid::{Availability, GridConfig, Heterogeneity};
use dgsched_workload::{BotType, Intensity, WorkloadSpec};
use std::time::Instant;

/// The regret matrix: one platform, seven policies.
pub fn matrix(size: Size) -> Vec<Scenario> {
    let bags = match size {
        Size::Full => 20,
        Size::Tiny => 5,
    };
    PolicyKind::all_with_baselines()
        .into_iter()
        .map(|p| Scenario {
            name: format!("Het-LowAvail {p}"),
            grid: GridConfig::paper(Heterogeneity::HET, Availability::LOW),
            workload: WorkloadKind::Single(WorkloadSpec {
                bot_type: BotType {
                    granularity: 5_000.0,
                    app_size: 200_000.0,
                    jitter: 0.5,
                },
                intensity: Intensity::Medium,
                count: bags,
            }),
            policy: p,
            sim: SimConfig::default(),
        })
        .collect()
}

/// The base sweep's rule: a fixed replication count.
fn rule(size: Size) -> StoppingRule {
    let n = match size {
        Size::Full => 3,
        Size::Tiny => 2,
    };
    StoppingRule {
        min_replications: n,
        max_replications: n,
        ..StoppingRule::default()
    }
}

/// The oracle's knobs; the search seed derives from the workload seed.
pub fn config(size: Size, seed: u64) -> OracleConfig {
    match size {
        Size::Full => OracleConfig {
            restarts: 8,
            iters: 60,
            seed,
            replications: 3,
        },
        Size::Tiny => OracleConfig {
            restarts: 2,
            iters: 10,
            seed,
            replications: 1,
        },
    }
}

/// Policy replays plus search proposals of one pass (kicks after a
/// stalled walk are extra evaluations the result does not expose, so
/// this is the exact count of the configured work, not of kicks).
fn replays(ocfg: &OracleConfig) -> u64 {
    ocfg.replications * (7 + u64::from(ocfg.restarts) * (u64::from(ocfg.iters) + 1))
}

/// Set-up: build the matrix, then warm up by capturing every oracle
/// replication's trace and replaying every policy on it once.
fn setup(size: Size, seed: u64) -> (Vec<Scenario>, f64) {
    let t0 = Instant::now();
    let scenarios = matrix(size);
    for s in &scenarios {
        s.validate().expect("the oracle matrix is valid");
    }
    for rep in 0..config(size, seed).replications {
        let (_, trace) = run_replication_traced(&scenarios[0], seed, rep);
        let (grid, workload, cfg) = replication_inputs(&scenarios[0], seed, rep);
        let env = TraceEnv::from_trace(&trace.events, grid.len());
        for kind in PolicyKind::all_with_baselines() {
            std::hint::black_box(simulate_replayed(
                &grid,
                &workload,
                kind.create_seeded(cfg.seed),
                &cfg,
                &env,
            ));
        }
    }
    (scenarios, secs(t0))
}

/// Checks a pass: every scenario carries a regret section with
/// non-negative regret, and the JSON is identical to the pass recorded in
/// `first` (recording this one when it is empty).
fn check_pass(sheet: &mut Sheet, results: &[ScenarioResult], first: &mut Option<String>) {
    let d = digest(&serde_json::to_vec(results).expect("results serialise"));
    match first {
        None => *first = Some(d),
        Some(f) => sheet.check(*f == d, || {
            format!("oracle: pass digest {d} differs from {f}")
        }),
    }
    for r in results {
        let ok = r
            .regret
            .as_ref()
            .is_some_and(|g| g.regret.mean >= -1e-12 && g.measured_replications > 0);
        sheet.check(!r.saturated && ok, || {
            format!("oracle: {} has no valid regret section", r.name)
        });
    }
}

/// One timed pass at base seed `seed` (inputs and search both derive
/// from it); returns the results and the pass time.
fn pass(scenarios: &[Scenario], seed: u64, size: Size) -> (Vec<ScenarioResult>, f64) {
    let t0 = Instant::now();
    let results = rayon::with_num_threads(WIDTH, || {
        run_matrix_regret(scenarios, seed, &rule(size), &config(size, seed))
    });
    (results, secs(t0))
}

pub fn run(sheet: &mut Sheet, seed: u64, seconds: f64, size: Size) {
    let setups: Vec<f64> = (0..SETUPS).map(|_| setup(size, seed).1).collect();
    let (scenarios, _) = setup(size, seed);
    let ocfg = config(size, seed);
    let mut first = None;
    let (mut walls, mut rates) = (vec![], vec![]);
    let t_run = Instant::now();
    while walls.is_empty() || secs(t_run) < seconds {
        // Each pass draws fresh inputs and search seeds, as in `sweep`.
        let i = walls.len() as u64;
        let (results, wall) = pass(&scenarios, pass_seed(seed, i), size);
        let mut fresh = None;
        check_pass(
            sheet,
            &results,
            if i == 0 { &mut first } else { &mut fresh },
        );
        let reps: u64 = results.iter().map(|r| r.replications).sum::<u64>() + ocfg.replications;
        sheet.attempted += reps + ocfg.replications * u64::from(ocfg.restarts);
        walls.push(wall);
        rates.push(reps as f64 / wall);
    }
    // Determinism: the first pass, repeated untimed, gives the same bytes.
    let (again, _) = pass(&scenarios, pass_seed(seed, 0), size);
    check_pass(sheet, &again, &mut first);
    eprintln!(
        "oracle: {} passes, pass time min {:.4} s median {:.4} s max {:.4} s",
        walls.len(),
        quantile(&walls, 0.0),
        median(&walls),
        quantile(&walls, 1.0),
    );
    // Averaged over passes less the fastest and slowest, as in `sweep`.
    sheet.put("setup_s", median(&setups), "s");
    sheet.put("wall_s", middle_mean(&walls), "s");
    sheet.put("reps_per_s", middle_mean(&rates), "replications/s");
    // Every scenario's regret arrives when the pass ends, so a pass's
    // time-to-result percentiles all equal its wall time.
    sheet.put("p50_ms", middle_mean(&walls) * 1e3, "ms");
    sheet.put("p99_ms", middle_mean(&walls) * 1e3, "ms");
    sheet.put(
        "capacity_rps",
        scenarios.len() as f64 / middle_mean(&walls),
        "1/s",
    );
}

/// The traced oracle pass, decomposed into its public calls: the base
/// `run_matrix`, then per replication the donor trace capture and the
/// `oracle_replication` (capture, seven incumbent replays, search).
/// `simulator` additionally re-runs the base sweep's replications for
/// the simulator-layer metrics (the `oracle` trace run); other trace
/// runs call this as a probe with `simulator` off.
pub fn trace(sheet: &mut Sheet, tracer: &Tracer, seed: u64, size: Size, simulator: bool) {
    let (scenarios, _) = setup(size, seed);
    let (rule, ocfg) = (rule(size), config(size, seed));
    let t0 = Instant::now();
    let plain =
        rayon::with_num_threads(WIDTH, || run_matrix_regret(&scenarios, seed, &rule, &ocfg));
    let plain_wall = secs(t0);
    let mut first = None;
    check_pass(sheet, &plain, &mut first);

    let t0 = Instant::now();
    let (results, base_wall) = tracer.span("runner.run_matrix", 0, 0, |_| {
        rayon::with_num_threads(WIDTH, || run_matrix(&scenarios, seed, &rule))
    });
    let (mut donor_s, mut orep_s) = (0.0, 0.0);
    for rep in 0..ocfg.replications {
        let (_, dt) = tracer.span("oracle.donor", 0, 0, |_| {
            run_replication_traced(&scenarios[0], seed, rep)
        });
        donor_s += dt;
        let (orep, dt) = tracer.span("oracle.replication", 0, 0, |_| {
            rayon::with_num_threads(WIDTH, || {
                oracle_replication(&scenarios[0], seed, rep, &ocfg)
            })
        });
        orep_s += dt;
        sheet.check(orep.oracle_turnaround > 0.0, || {
            format!("oracle: replication {rep} has no oracle turnaround")
        });
    }
    let traced_wall = secs(t0);
    sheet.attempted += ocfg.replications * (1 + u64::from(ocfg.restarts));
    sheet.put("oracle.replays", replays(&ocfg) as f64, "count");
    sheet.put("oracle.donor_s", donor_s, "s");
    sheet.put("oracle.search_s", orep_s - donor_s, "s");
    sheet.put(
        "oracle.restarts_per_s",
        (ocfg.replications * u64::from(ocfg.restarts)) as f64 / plain_wall,
        "restarts/s",
    );
    replay_probe(sheet, &scenarios[0], seed, ocfg.replications);
    if simulator {
        // A second untraced pass after the traced one, so drift in machine
        // speed during the run biases neither side.
        let t0 = Instant::now();
        let again =
            rayon::with_num_threads(WIDTH, || run_matrix_regret(&scenarios, seed, &rule, &ocfg));
        let plain_wall = 0.5 * (plain_wall + secs(t0));
        check_pass(sheet, &again, &mut first);
        sheet.put("trace.overhead", traced_wall / plain_wall, "ratio");
        let seeded: Vec<(Scenario, u64)> = scenarios.iter().cloned().map(|s| (s, seed)).collect();
        let l = layers::sim_layers(sheet, tracer, &seeded, &results);
        sheet.put(
            "runner.pool_efficiency",
            l.rep_s / (base_wall * WIDTH as f64),
            "ratio",
        );
        layers::des_hold_model(sheet, &l, seed);
        layers::policy_select(sheet, l.median_active_bags);
        layers::obs_capture(sheet, &seeded);
    }
}

/// `replay.ns_per_transition`: every policy replayed on each captured
/// timeline, timed per state transition.
fn replay_probe(sheet: &mut Sheet, donor: &Scenario, seed: u64, reps: u64) {
    let (mut busy, mut work) = (0.0, 0u64);
    for rep in 0..reps {
        let (_, trace) = run_replication_traced(donor, seed, rep);
        let (grid, workload, cfg) = replication_inputs(donor, seed, rep);
        let env = TraceEnv::from_trace(&trace.events, grid.len());
        for kind in PolicyKind::all_with_baselines() {
            let t0 = Instant::now();
            let r = simulate_replayed(&grid, &workload, kind.create_seeded(cfg.seed), &cfg, &env);
            busy += secs(t0);
            work += transitions(&r);
        }
    }
    sheet.put(
        "replay.ns_per_transition",
        busy * 1e9 / work.max(1) as f64,
        "ns",
    );
}

/// The pinned canary: a tiny regret matrix at a fixed seed whose JSON
/// digest is a constant of this benchmark.
pub fn canary(sheet: &mut Sheet) {
    const DIGEST: &str = "0f3e08542a40585a";
    let scenarios = matrix(Size::Tiny);
    let results = rayon::with_num_threads(WIDTH, || {
        run_matrix_regret(&scenarios, 2008, &rule(Size::Tiny), &config(Size::Tiny, 7))
    });
    let d = digest(&serde_json::to_vec(&results).expect("results serialise"));
    eprintln!("oracle canary: digest {d}");
    sheet.check(d == DIGEST, || {
        format!("oracle canary: regret digest {d}, pinned {DIGEST}")
    });
}
