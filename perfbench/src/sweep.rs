//! The `sweep` workload: a closed batch. One fixed scenario matrix runs
//! through `run_matrix` at pool width 1 under the paper's stopping rule
//! (95 % confidence, 2.5 % relative error, 5 to 30 replications).
//!
//! The matrix holds all seven policies on two of the paper's platforms
//! (Hom-HighAvail and Het-LowAvail, 100 machines of total power 1000),
//! an FCFS-Excl/FCFS-Share pair on 1000 machines (the replica-churn
//! regime, where FCFS-Excl launches ~40 replicas per task) and one
//! trace-realistic scenario (Pareto bag sizes, lognormal task jitter,
//! MMPP arrivals). Nearly all of its time is in `grid`, `workload`,
//! `sim`, `des`, `policy` and `runner`; `serve`, `journal` and `oracle`
//! are not on its path and `codec` only encodes the final result.

use crate::common::{digest, median, middle_mean, quantile, secs, Sheet, Tracer};
use crate::layers;
use crate::Size;
use dgsched_core::experiment::{
    run_matrix, run_matrix_with_progress, run_replication, Scenario, ScenarioResult, WorkloadKind,
};
use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::SimConfig;
use dgsched_des::stats::StoppingRule;
use dgsched_grid::{Availability, CheckpointConfig, GridConfig, Heterogeneity};
use dgsched_workload::{
    ArrivalModel, BotType, Intensity, RealisticSpec, SizeModel, TaskJitter, WorkloadSpec,
};
use std::sync::Mutex;
use std::time::Instant;

/// Pool width of every timed pass. One worker: on a shared host with two
/// cores a pass then waits on one core's speed, not on the slower of two.
pub const WIDTH: usize = 1;
/// Pool width of the traced run's `runner.pool_efficiency` pass.
const POOL_WIDTH: usize = 2;

fn scenario(name: String, grid: GridConfig, workload: WorkloadKind, p: PolicyKind) -> Scenario {
    Scenario {
        name,
        grid,
        workload,
        policy: p,
        sim: SimConfig {
            warmup_bags: 2,
            ..SimConfig::default()
        },
    }
}

/// The sweep matrix. Bag counts are the only knob `size` turns.
pub fn matrix(size: Size) -> Vec<Scenario> {
    let (paper_bags, het_bags, churn_bags, realistic_bags) = match size {
        Size::Full => (16, 12, 24, 40),
        Size::Tiny => (4, 4, 4, 6),
    };
    let mut out = Vec::new();
    for (label, grid, bags) in [
        (
            "Hom-HighAvail",
            GridConfig::paper(Heterogeneity::HOM, Availability::HIGH),
            paper_bags,
        ),
        (
            "Het-LowAvail",
            GridConfig::paper(Heterogeneity::HET, Availability::LOW),
            het_bags,
        ),
    ] {
        for p in PolicyKind::all_with_baselines() {
            let spec = WorkloadSpec {
                bot_type: BotType::paper(25_000.0),
                intensity: Intensity::Low,
                count: bags,
            };
            out.push(scenario(
                format!("{label} {p}"),
                grid,
                WorkloadKind::Single(spec),
                p,
            ));
        }
    }
    let churn_grid = GridConfig {
        total_power: 10_000.0,
        heterogeneity: Heterogeneity::HOM,
        availability: Availability::HIGH,
        checkpoint: CheckpointConfig::default(),
        outages: None,
    };
    for p in [PolicyKind::FcfsExcl, PolicyKind::FcfsShare] {
        let spec = WorkloadSpec {
            bot_type: BotType {
                granularity: 5_000.0,
                app_size: 250_000.0,
                jitter: 0.5,
            },
            intensity: Intensity::Low,
            count: churn_bags,
        };
        out.push(scenario(
            format!("1k-machines {p}"),
            churn_grid,
            WorkloadKind::Single(spec),
            p,
        ));
    }
    let realistic = RealisticSpec {
        granularity: 5_000.0,
        size: SizeModel::Pareto {
            alpha: 1.5,
            min: 250_000.0,
            cap: Some(10_000_000.0),
        },
        task_jitter: TaskJitter::Lognormal { sigma: 0.5 },
        arrivals: ArrivalModel::Mmpp {
            burst_ratio: 4.0,
            burst_frac: 0.2,
            burst_len: 5.0,
        },
        intensity: Intensity::Low,
        count: realistic_bags,
    };
    out.push(scenario(
        "Het-HighAvail realistic RR".to_string(),
        GridConfig::paper(Heterogeneity::HET, Availability::HIGH),
        WorkloadKind::Realistic(realistic),
        PolicyKind::Rr,
    ));
    out
}

/// The paper's stopping rule.
pub fn rule() -> StoppingRule {
    StoppingRule::default()
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 21;

/// Set-up: build and validate the matrix, then warm up by running
/// replication 0 of every scenario once.
fn setup(size: Size, seed: u64) -> (Vec<Scenario>, f64) {
    let t0 = Instant::now();
    let scenarios = matrix(size);
    for s in &scenarios {
        s.validate().expect("the sweep matrix is valid");
        std::hint::black_box(run_replication(s, seed, 0));
    }
    (scenarios, secs(t0))
}

/// One timed pass; returns the results, the pass time and each
/// scenario's time to result (seconds from the pass start).
fn pass(
    scenarios: &[Scenario],
    seed: u64,
    width: usize,
    tracer: &Tracer,
) -> (Vec<ScenarioResult>, f64, Vec<f64>) {
    let done = Mutex::new(Vec::with_capacity(scenarios.len()));
    let t0 = Instant::now();
    let (results, wall) = tracer.span("runner.run_matrix", 0, 0, |_| {
        rayon::with_num_threads(width, || {
            run_matrix_with_progress(scenarios, seed, &rule(), |_, _, _| {
                done.lock().expect("progress lock poisoned").push(secs(t0));
            })
        })
    });
    (
        results,
        wall,
        done.into_inner().expect("progress lock poisoned"),
    )
}

/// Checks a pass's results: no saturation or failure, and byte identity
/// with the pass recorded in `first` (recording this one when it is
/// empty).
fn check_pass(sheet: &mut Sheet, results: &[ScenarioResult], first: &mut Option<String>) {
    let d = digest(&serde_json::to_vec(results).expect("results serialise"));
    match first {
        None => *first = Some(d),
        Some(f) => sheet.check(*f == d, || {
            format!("sweep: pass digest {d} differs from {f}")
        }),
    }
    for r in results {
        sheet.check(!r.saturated && r.failed_replications == 0, || {
            format!("sweep: scenario {} saturated or failed", r.name)
        });
    }
}

/// Base seed of a run's `i`-th timed pass (a SplitMix64 mix of the two).
/// Every pass draws fresh inputs, so the stopping rule's seed-to-seed
/// spread in replication counts averages out over a run's passes instead
/// of scaling every pass of the run alike.
pub fn pass_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn run(sheet: &mut Sheet, seed: u64, seconds: f64, size: Size) {
    let setups: Vec<f64> = (0..SETUPS).map(|_| setup(size, seed).1).collect();
    let (scenarios, _) = setup(size, seed);
    let tracer = Tracer::new(false);
    let mut first = None;
    let (mut walls, mut rates, mut p50, mut p99) = (vec![], vec![], vec![], vec![]);
    let t_run = Instant::now();
    while walls.is_empty() || secs(t_run) < seconds {
        let i = walls.len() as u64;
        let (results, wall, done) = pass(&scenarios, pass_seed(seed, i), WIDTH, &tracer);
        let mut fresh = None;
        check_pass(
            sheet,
            &results,
            if i == 0 { &mut first } else { &mut fresh },
        );
        let reps: u64 = results.iter().map(|r| r.replications).sum();
        sheet.attempted += reps;
        sheet.failed += results.iter().map(|r| r.failed_replications).sum::<u64>();
        walls.push(wall);
        rates.push(reps as f64 / wall);
        p50.push(quantile(&done, 0.5) * 1e3);
        p99.push(quantile(&done, 0.99) * 1e3);
    }
    // Determinism: the first pass, repeated untimed, gives the same bytes.
    let (again, _, _) = pass(&scenarios, pass_seed(seed, 0), WIDTH, &tracer);
    check_pass(sheet, &again, &mut first);
    sheet.attempted += again.iter().map(|r| r.replications).sum::<u64>();
    eprintln!(
        "sweep: {} passes, pass time min {:.4} s median {:.4} s max {:.4} s",
        walls.len(),
        quantile(&walls, 0.0),
        median(&walls),
        quantile(&walls, 1.0),
    );
    // Per-pass figures are averaged over the run's passes (less the
    // fastest and slowest), so one stalled pass does not set them.
    sheet.put("setup_s", median(&setups), "s");
    sheet.put("wall_s", middle_mean(&walls), "s");
    sheet.put("reps_per_s", middle_mean(&rates), "replications/s");
    // Time to each scenario's result within a pass; the percentiles are
    // taken per pass (17 results each), so one slow pass does not set the
    // tail.
    sheet.put("p50_ms", middle_mean(&p50), "ms");
    sheet.put("p99_ms", middle_mean(&p99), "ms");
    sheet.put(
        "capacity_rps",
        scenarios.len() as f64 / middle_mean(&walls),
        "1/s",
    );
}

/// The traced sweep: an untraced and a traced pass (for the overhead),
/// then the simulator-layer probes on the traced pass's replications.
pub fn trace(sheet: &mut Sheet, tracer: &Tracer, seed: u64, size: Size) {
    let (scenarios, _) = setup(size, seed);
    let mut first = None;
    let (plain, plain_wall, _) = pass(&scenarios, seed, WIDTH, &Tracer::new(false));
    check_pass(sheet, &plain, &mut first);
    let (results, wall, _) = pass(&scenarios, seed, WIDTH, tracer);
    check_pass(sheet, &results, &mut first);
    // A second untraced pass after the traced one, so drift in machine
    // speed during the run biases neither side.
    let (again, again_wall, _) = pass(&scenarios, seed, WIDTH, &Tracer::new(false));
    check_pass(sheet, &again, &mut first);
    sheet.put(
        "trace.overhead",
        2.0 * wall / (plain_wall + again_wall),
        "ratio",
    );
    let reps: u64 = results.iter().map(|r| r.replications).sum();
    sheet.attempted += 3 * reps;
    let seeded: Vec<(Scenario, u64)> = scenarios.iter().cloned().map(|s| (s, seed)).collect();
    let l = layers::sim_layers(sheet, tracer, &seeded, &results);
    let (pooled, pool_wall, _) = pass(&scenarios, seed, POOL_WIDTH, &Tracer::new(false));
    check_pass(sheet, &pooled, &mut first);
    sheet.attempted += reps;
    sheet.put(
        "runner.pool_efficiency",
        l.rep_s / (pool_wall * POOL_WIDTH as f64),
        "ratio",
    );
    layers::des_hold_model(sheet, &l, seed);
    layers::policy_select(sheet, l.median_active_bags);
    layers::obs_capture(sheet, &seeded);
}

/// The pinned canary: a small fixed matrix at a fixed seed whose
/// `run_matrix` JSON digest and exact transition count are constants of
/// this benchmark. Any change to simulated statistics moves them.
pub fn canary(sheet: &mut Sheet) {
    const DIGEST: &str = "f6ec202bc5f156c9";
    const TRANSITIONS: u64 = 223_836;
    let scenarios = matrix(Size::Tiny);
    let rule = StoppingRule {
        min_replications: 2,
        max_replications: 2,
        ..StoppingRule::default()
    };
    let results = rayon::with_num_threads(WIDTH, || run_matrix(&scenarios, 2008, &rule));
    let d = digest(&serde_json::to_vec(&results).expect("results serialise"));
    let mut transitions = 0;
    for s in &scenarios {
        for rep in 0..2 {
            transitions += layers::transitions(&run_replication(s, 2008, rep));
        }
    }
    eprintln!("sweep canary: digest {d}, transitions {transitions}");
    sheet.check(d == DIGEST, || {
        format!("sweep canary: run_matrix digest {d}, pinned {DIGEST}")
    });
    sheet.check(transitions == TRANSITIONS, || {
        format!("sweep canary: {transitions} transitions, pinned {TRANSITIONS}")
    });
}
