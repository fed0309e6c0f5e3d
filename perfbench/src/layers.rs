//! Per-layer probes of the simulation stack: `grid`, `workload`, `sim`,
//! `des`, `policy`, `runner` and `obs`.
//!
//! [`sim_layers`] re-runs every replication a matrix pass absorbed,
//! through the same public per-replication entry points the runner uses,
//! with timers around each call. The re-run must reproduce the pass's own
//! per-replication statistics bit for bit, which doubles as a check that
//! the probe measured the same work the end-to-end run did.

use crate::common::{median, secs, Sheet, Tracer};
use dgsched_core::experiment::{run_replication, run_replication_traced, Scenario, ScenarioResult};
use dgsched_core::policy::{PolicyKind, View};
use dgsched_core::sim::{simulate, simulate_instrumented, NullObserver, RunResult, SimConfig};
use dgsched_core::state::BagRt;
use dgsched_des::queue::{BinaryHeapQueue, PendingEvents};
use dgsched_des::rng::StreamSeeder;
use dgsched_des::time::SimTime;
use dgsched_des::QueueOps;
use dgsched_workload::{BagOfTasks, BotId, TaskId, TaskSpec};
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The policy slugs used in metric names, in `all_with_baselines` order.
pub fn slug(kind: PolicyKind) -> &'static str {
    match kind {
        PolicyKind::FcfsExcl => "fcfs-excl",
        PolicyKind::FcfsShare => "fcfs-share",
        PolicyKind::Rr => "rr",
        PolicyKind::RrNrf => "rr-nrf",
        PolicyKind::LongIdle => "long-idle",
        PolicyKind::Random => "random",
        PolicyKind::Sbf => "sbf",
    }
}

/// State transitions of one run: DES events plus replica launches plus
/// replica kills (sibling and failure). Launches and kills are not DES
/// events, so events alone undercount replica-churn-heavy policies.
pub fn transitions(r: &RunResult) -> u64 {
    r.events
        + r.counters.replicas_launched
        + r.counters.replicas_killed_sibling
        + r.counters.replicas_killed_failure
}

#[derive(Default)]
struct PolicyWork {
    busy_s: f64,
    events: u64,
    transitions: u64,
}

/// Sim-stack measurements of one matrix, as [`sim_layers`] returns them.
pub struct SimLayers {
    /// Sum of per-replication times at width 1 (inputs + simulate).
    pub rep_s: f64,
    /// Median time-averaged active-bag count across replications.
    pub median_active_bags: usize,
    /// Highest pending-event count seen by the DES queue.
    pub max_pending: u64,
    /// Queue operation counts summed over the replications.
    pub queue: QueueOps,
    /// Simulate-only busy time.
    pub busy_s: f64,
}

/// Re-runs the absorbed replications of `results` (a pass over
/// `scenarios` at `base_seed`), records the `grid`, `workload`, `sim`,
/// `des` and `runner` metrics, and checks each re-run against the
/// pass's own replication means.
pub fn sim_layers(
    sheet: &mut Sheet,
    tracer: &Tracer,
    scenarios: &[(Scenario, u64)],
    results: &[ScenarioResult],
) -> SimLayers {
    let mut grid_us = Vec::new();
    let mut gen_us = Vec::new();
    let mut per_policy: BTreeMap<&'static str, PolicyWork> = BTreeMap::new();
    let (mut events, mut launches, mut kills, mut completions) = (0u64, 0u64, 0u64, 0u64);
    let mut calls = 0u64;
    let mut busy_s = 0.0;
    let mut rep_s = 0.0;
    let mut active = Vec::new();
    let mut queue = QueueOps::default();
    for ((scenario, base_seed), result) in scenarios.iter().zip(results) {
        for rep in 0..result.replications {
            calls += 1;
            // The runner's own seeding, step by step, so the grid and
            // workload builders can be timed on their own; the three
            // spans are children of the replication's span.
            let seeder = StreamSeeder::new(*base_seed).subdomain("rep", rep);
            let cfg = SimConfig {
                seed: seeder.stream_seed("sim", 0),
                ..scenario.sim
            };
            let ((grid, workload, r, dt), rep_dt) = tracer.span("runner.replication", 0, 0, |id| {
                let (grid, dt) = tracer.span("grid.build", id, 0, |_| {
                    scenario.grid.build(&mut seeder.stream("grid", 0))
                });
                grid_us.push(dt * 1e6);
                let (workload, dt) = tracer.span("workload.generate", id, 0, |_| {
                    scenario
                        .workload
                        .generate(&scenario.grid, &mut seeder.stream("workload", 0))
                });
                gen_us.push(dt * 1e6);
                let (r, dt) = tracer.span("sim.simulate", id, 0, |_| {
                    simulate(&grid, &workload, scenario.policy, &cfg)
                });
                (grid, workload, r, dt)
            });
            rep_s += rep_dt;
            busy_s += dt;
            let t = transitions(&r);
            let w = per_policy.entry(slug(scenario.policy)).or_default();
            w.busy_s += dt;
            w.events += r.events;
            w.transitions += t;
            events += r.events;
            launches += r.counters.replicas_launched;
            kills += r.counters.replicas_killed_sibling + r.counters.replicas_killed_failure;
            if !r.saturated {
                let want = result.replication_means.get(rep as usize).copied();
                sheet.check(want == Some(r.mean_turnaround()), || {
                    format!(
                        "{} rep {rep}: re-run turnaround {} differs from the pass's {want:?}",
                        scenario.name,
                        r.mean_turnaround()
                    )
                });
            }

            let mut null = NullObserver;
            let policy = scenario.policy.create_seeded(cfg.seed);
            let (ri, report) = simulate_instrumented(&grid, &workload, policy, &cfg, &mut null);
            sheet.check(ri.events == r.events, || {
                format!("{} rep {rep}: instrumented run diverged", scenario.name)
            });
            completions += report
                .metrics
                .counters
                .get("task_completions")
                .copied()
                .unwrap_or(0);
            if let Some(s) = report.metrics.series.get("active_bags") {
                active.push(s.time_average);
            }
            queue.scheduled += report.queue.scheduled;
            queue.cancelled += report.queue.cancelled;
            queue.popped += report.queue.popped;
            queue.max_pending = queue.max_pending.max(report.queue.max_pending);
        }
    }
    let transitions_total = events + launches + kills;
    sheet.put("grid.build_us", median(&grid_us), "us");
    sheet.put("workload.generate_us", median(&gen_us), "us");
    sheet.put("sim.calls", calls as f64, "count");
    sheet.put("sim.events", events as f64, "count");
    sheet.put("sim.launches", launches as f64, "count");
    sheet.put("sim.kills", kills as f64, "count");
    sheet.put("sim.transitions", transitions_total as f64, "count");
    sheet.put("sim.busy_s", busy_s, "s");
    sheet.put(
        "sim.ns_per_transition",
        busy_s * 1e9 / transitions_total.max(1) as f64,
        "ns",
    );
    for kind in PolicyKind::all_with_baselines() {
        let w = per_policy.get(slug(kind));
        let (ns_t, ns_e) = w.map_or((f64::NAN, f64::NAN), |w| {
            (
                w.busy_s * 1e9 / w.transitions.max(1) as f64,
                w.busy_s * 1e9 / w.events.max(1) as f64,
            )
        });
        sheet.put(format!("sim.ns_per_transition.{}", slug(kind)), ns_t, "ns");
        sheet.put(format!("sim.ns_per_event.{}", slug(kind)), ns_e, "ns");
    }
    sheet.put(
        "sim.useful_launch_frac",
        completions as f64 / launches.max(1) as f64,
        "ratio",
    );
    sheet.put("des.scheduled", queue.scheduled as f64, "count");
    sheet.put("des.cancelled", queue.cancelled as f64, "count");
    sheet.put("des.popped", queue.popped as f64, "count");
    sheet.put("des.max_pending", queue.max_pending as f64, "count");
    let reps: u64 = results.iter().map(|r| r.replications).sum();
    sheet.put("runner.reps", reps as f64, "count");
    SimLayers {
        rep_s,
        median_active_bags: median(&active).round().max(1.0) as usize,
        max_pending: queue.max_pending,
        queue,
        busy_s,
    }
}

/// `des.queue_ns_per_op`: a hold model on the engine's `BinaryHeapQueue`
/// at the measured high-water mark and op mix (each hold pops one event
/// and schedules one, and cancels in the measured proportion), plus the
/// computed `des.queue_share` of simulate time it implies.
pub fn des_hold_model(sheet: &mut Sheet, layers: &SimLayers, seed: u64) {
    let size = layers.max_pending.max(1) as usize;
    let q = &layers.queue;
    let cancel_every = q
        .scheduled
        .checked_div(q.cancelled)
        .map_or(u64::MAX, |every| every.max(1));
    // Pre-drawn time increments keep the RNG out of the timed loop.
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let deltas: Vec<f64> = (0..1 << 16).map(|_| rng.gen::<f64>() * 100.0).collect();
    let delta = |i: u64| deltas[(i as usize) & ((1 << 16) - 1)];
    let mut queue: BinaryHeapQueue<u32> = BinaryHeapQueue::with_capacity(size * 2);
    for i in 0..size {
        queue.schedule(SimTime::new(delta(i as u64)), i as u32);
    }
    let holds = 400_000u64;
    let mut ops = 0u64;
    let t0 = Instant::now();
    for i in 0..holds {
        let (now, _, payload) = queue.pop().expect("hold model keeps the queue full");
        let at = SimTime::new(now.as_secs() + delta(i));
        let id = queue.schedule(at, black_box(payload));
        ops += 2;
        if i % cancel_every == 0 {
            // Cancel-and-replace keeps the population constant.
            queue.cancel(id);
            queue.schedule(SimTime::new(now.as_secs() + delta(i + 7)), payload);
            ops += 2;
        }
    }
    let ns_per_op = secs(t0) * 1e9 / ops as f64;
    sheet.put("des.queue_ns_per_op", ns_per_op, "ns");
    let queue_ops = (q.scheduled + q.cancelled + q.popped) as f64;
    sheet.put(
        "des.queue_share",
        ns_per_op * queue_ops / (layers.busy_s * 1e9).max(1.0),
        "ratio",
    );
}

/// `n` bags in mixed states (every bag running, a third with pending
/// work, the rest in the replication regime), as a policy sees mid-run.
fn mixed_bags(n: usize) -> (Vec<BotId>, Vec<BagRt>) {
    let now = SimTime::new(0.0);
    let mut bags = Vec::with_capacity(n);
    let mut active = Vec::with_capacity(n);
    for i in 0..n {
        let tasks: Vec<TaskSpec> = (0..8)
            .map(|t| TaskSpec {
                id: TaskId(t),
                work: 10_000.0 + f64::from(t) * 500.0,
            })
            .collect();
        let bag = BagOfTasks {
            id: BotId(i as u32),
            arrival: SimTime::new(i as f64),
            tasks,
            granularity: 10_000.0,
        };
        let mut rt = BagRt::new(&bag, i * 8);
        let started = if i % 3 == 0 { 4 } else { 8 };
        for _ in 0..started {
            let t = rt.pop_pending().expect("fresh bag has pending tasks");
            rt.note_replica_started(t, now);
        }
        active.push(rt.id);
        bags.push(rt);
    }
    (active, bags)
}

/// `policy.select_ns.<policy>`: one `select` on a `View` holding the
/// workload's median active-bag count.
pub fn policy_select(sheet: &mut Sheet, active_bags: usize) {
    let (active, bags) = mixed_bags(active_bags);
    let iters = 200_000u32;
    for kind in PolicyKind::all_with_baselines() {
        let mut policy = kind.create_seeded(7);
        let view = View::new(SimTime::new(5_000.0), &active, &bags, 2);
        for _ in 0..1_000 {
            black_box(policy.select(black_box(&view)));
        }
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(policy.select(black_box(&view)));
        }
        sheet.put(
            format!("policy.select_ns.{}", slug(kind)),
            secs(t0) * 1e9 / f64::from(iters),
            "ns",
        );
    }
}

/// `obs.capture_ns_per_event`: traced minus plain replication time per
/// event. Each scenario's replication 0 runs plain and traced in
/// alternation; the fastest of each side is kept, which filters out
/// interference that a difference of two small times cannot absorb.
pub fn obs_capture(sheet: &mut Sheet, scenarios: &[(Scenario, u64)]) {
    let (mut plain_s, mut traced_s, mut events) = (0.0, 0.0, 0u64);
    for (scenario, base_seed) in scenarios {
        let (mut best_plain, mut best_traced, mut n) = (f64::INFINITY, f64::INFINITY, 0);
        for _ in 0..5 {
            let t0 = Instant::now();
            let plain = black_box(run_replication(scenario, *base_seed, 0));
            best_plain = best_plain.min(secs(t0));
            let t0 = Instant::now();
            let (traced, trace) = run_replication_traced(scenario, *base_seed, 0);
            best_traced = best_traced.min(secs(t0));
            black_box(trace);
            sheet.check(plain.events == traced.events, || {
                format!("{}: trace capture changed the run", scenario.name)
            });
            n = plain.events;
        }
        plain_s += best_plain;
        traced_s += best_traced;
        events += n;
    }
    sheet.put(
        "obs.capture_ns_per_event",
        (traced_s - plain_s) * 1e9 / events.max(1) as f64,
        "ns",
    );
}
