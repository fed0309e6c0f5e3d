//! The replay session is an exact evaluator: along a fixed-seed search
//! walk, every proposal's [`RunResult`] from the session serialises to
//! the same bytes as a fresh `simulate_replayed` of the same
//! [`FixedPriority`] schedule, on the paper's four platforms plus one
//! grid with correlated outages and one with checkpointing. The walk
//! must also take both fast paths — answering a proposal without a
//! replay, and resuming one from a checkpoint — so a disabled fast path
//! fails here instead of passing silently.

use dgsched_core::experiment::{
    replication_inputs, run_replication_traced, Scenario, WorkloadKind,
};
use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::{
    simulate_replayed, FixedPriority, ReplaySession, RunResult, SessionStats, SimConfig, TraceEnv,
};
use dgsched_des::dist::DistConfig;
use dgsched_grid::{Availability, CheckpointConfig, GridConfig, Heterogeneity, OutageConfig};
use dgsched_oracle::SplitMix64;
use dgsched_workload::{BotType, Intensity, WorkloadSpec};

/// Proposals per walk.
const STEPS: usize = 120;

fn grid(heterogeneity: Heterogeneity, availability: Availability) -> GridConfig {
    GridConfig {
        total_power: 80.0,
        heterogeneity,
        availability,
        checkpoint: CheckpointConfig::disabled(),
        outages: None,
    }
}

/// Hom/Het × High/Low, then Het-Low with outages and with checkpointing.
fn grids() -> Vec<(&'static str, GridConfig)> {
    let het_low = grid(Heterogeneity::HET, Availability::LOW);
    vec![
        ("Hom-High", grid(Heterogeneity::HOM, Availability::HIGH)),
        ("Hom-Low", grid(Heterogeneity::HOM, Availability::LOW)),
        ("Het-High", grid(Heterogeneity::HET, Availability::HIGH)),
        ("Het-Low", het_low),
        (
            "Het-Low+outages",
            GridConfig {
                outages: Some(OutageConfig {
                    mtbo: 6_000.0,
                    duration: DistConfig::NormalTrunc {
                        mean: 1_200.0,
                        sd: 200.0,
                    },
                    fraction: 0.6,
                }),
                ..het_low
            },
        ),
        (
            "Het-Low+checkpoints",
            GridConfig {
                checkpoint: CheckpointConfig::default(),
                ..het_low
            },
        ),
    ]
}

fn json(r: &RunResult) -> String {
    serde_json::to_string(r).unwrap()
}

/// A random swap or relocate of `perm`, as the search proposes them.
fn propose(perm: &[u32], rng: &mut SplitMix64) -> Vec<u32> {
    let mut cand = perm.to_vec();
    let n = cand.len() as u64;
    let i = rng.below(n) as usize;
    let j = rng.below(n) as usize;
    if rng.below(2) == 0 {
        cand.swap(i, j);
    } else {
        let v = cand.remove(i);
        cand.insert(j.min(cand.len()), v);
    }
    cand
}

/// Walks one platform's replication 0, checking every proposal against a
/// fresh full replay; accepts about a third of the proposals.
fn walk(name: &str, grid_cfg: GridConfig, seed: u64) -> SessionStats {
    let scenario = Scenario {
        name: name.to_string(),
        grid: grid_cfg,
        workload: WorkloadKind::Single(WorkloadSpec {
            bot_type: BotType {
                granularity: 2_000.0,
                app_size: 40_000.0,
                jitter: 0.5,
            },
            intensity: Intensity::High,
            count: 8,
        }),
        policy: PolicyKind::Rr,
        sim: SimConfig::default(),
    };
    let (_, trace) = run_replication_traced(&scenario, 2008, 0);
    let (grid, workload, cfg) = replication_inputs(&scenario, 2008, 0);
    let env = TraceEnv::from_trace(&trace.events, grid.len());
    let full_replay = |perm: &[u32]| {
        let policy = Box::new(FixedPriority::from_perm(perm));
        json(&simulate_replayed(&grid, &workload, policy, &cfg, &env))
    };

    let mut session = ReplaySession::new(&grid, &workload, &cfg, &env);
    let mut rng = SplitMix64::new(seed);
    let mut cur: Vec<u32> = (0..workload.len() as u32).collect();
    assert_eq!(
        json(session.evaluate(&cur)),
        full_replay(&cur),
        "{name}: start"
    );
    session.accept();
    for step in 0..STEPS {
        let cand = propose(&cur, &mut rng);
        assert_eq!(
            json(session.evaluate(&cand)),
            full_replay(&cand),
            "{name}: proposal {step} {cand:?} from {cur:?}"
        );
        if rng.below(3) == 0 {
            session.accept();
            cur = cand;
        }
    }
    session.stats()
}

#[test]
fn session_runs_equal_full_replays_along_a_walk() {
    for (i, (name, grid_cfg)) in grids().into_iter().enumerate() {
        let stats = walk(name, grid_cfg, 11 + i as u64);
        eprintln!("{name}: {stats:?}");
        assert_eq!(
            stats.skipped + stats.resumed + stats.full,
            STEPS as u64 + 1,
            "{name}: every evaluation is counted once"
        );
        assert!(stats.skipped > 0, "{name}: no proposal skipped: {stats:?}");
        assert!(stats.resumed > 0, "{name}: no proposal resumed: {stats:?}");
    }
}
