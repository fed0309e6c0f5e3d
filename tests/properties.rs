//! Property-based tests on the kernel data structures and the simulator's
//! global invariants.

use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::{simulate, SimConfig};
use dgsched_des::queue::{BTreeQueue, BinaryHeapQueue, PendingEvents};
use dgsched_des::stats::Welford;
use dgsched_des::time::SimTime;
use dgsched_grid::{Availability, CheckpointConfig, GridConfig, Heterogeneity};
use dgsched_workload::{BagOfTasks, BotId, TaskId, TaskSpec, Workload};
use proptest::prelude::*;

/// Operations a queue fuzzer can apply.
#[derive(Debug, Clone)]
enum Op {
    Schedule(f64),
    Pop,
    CancelNth(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0.0f64..1e6).prop_map(Op::Schedule),
        Just(Op::Pop),
        (0usize..64).prop_map(Op::CancelNth),
    ]
}

/// Replays ops against the heap, the BTree reference and a naive
/// sorted-vec reference, asserting identical observable behaviour.
fn check_queues(ops: Vec<Op>) {
    let mut heap = BinaryHeapQueue::new();
    let mut btree = BTreeQueue::new();
    // Reference holds live entries only: (time, seq, payload).
    let mut reference: Vec<(f64, u64, u64)> = Vec::new();
    let mut heap_ids = Vec::new();
    let mut btree_ids = Vec::new();
    let mut seq = 0u64;

    for op in ops {
        match op {
            Op::Schedule(t) => {
                heap_ids.push(heap.schedule(SimTime::new(t), seq));
                btree_ids.push(btree.schedule(SimTime::new(t), seq));
                reference.push((t, seq, seq));
                seq += 1;
            }
            Op::Pop => {
                // Reference pop: earliest (time, seq).
                let expected = reference
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("no NaN"))
                    .map(|(i, e)| (i, e.0, e.2));
                let h = heap.pop();
                let bt = btree.pop();
                match expected {
                    None => {
                        assert!(h.is_none(), "heap popped from empty");
                        assert!(bt.is_none(), "btree popped from empty");
                    }
                    Some((i, t, payload)) => {
                        let (ht, _, hp) = h.expect("heap must pop");
                        let (bt_t, _, bp) = bt.expect("btree must pop");
                        assert_eq!(ht.as_secs(), t);
                        assert_eq!(bt_t.as_secs(), t);
                        assert_eq!(hp, payload);
                        assert_eq!(bp, payload);
                        reference.remove(i);
                    }
                }
            }
            Op::CancelNth(n) => {
                if reference.is_empty() {
                    // Exercise the dead-handle path instead: cancelling a
                    // consumed or already-cancelled id must return false.
                    if let (Some(&hid), Some(&bid)) = (heap_ids.first(), btree_ids.first()) {
                        assert!(!heap.cancel(hid), "heap cancel of dead id");
                        assert!(!btree.cancel(bid), "btree cancel of dead id");
                    }
                    continue;
                }
                let idx = n % reference.len();
                let target_seq = reference[idx].1;
                let hid = heap_ids[target_seq as usize];
                let bid = btree_ids[target_seq as usize];
                assert!(heap.cancel(hid), "heap cancel of live id");
                assert!(btree.cancel(bid), "btree cancel of live id");
                // Double cancel must be a no-op.
                assert!(!heap.cancel(hid));
                assert!(!btree.cancel(bid));
                reference.remove(idx);
            }
        }
        assert_eq!(heap.len(), reference.len(), "heap live count");
        assert_eq!(btree.len(), reference.len(), "btree live count");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn queues_match_reference(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        check_queues(ops);
    }

    #[test]
    fn welford_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
        let w: Welford = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((w.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((w.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
        prop_assert_eq!(w.count(), xs.len() as u64);
    }

    #[test]
    fn welford_merge_any_split(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..100),
        split in 0usize..100,
    ) {
        let k = split % xs.len();
        let seq: Welford = xs.iter().copied().collect();
        let mut a: Welford = xs[..k].iter().copied().collect();
        let b: Welford = xs[k..].iter().copied().collect();
        a.merge(&b);
        prop_assert!((a.mean() - seq.mean()).abs() < 1e-9 * (1.0 + seq.mean().abs()));
        prop_assert!((a.variance() - seq.variance()).abs() < 1e-7 * (1.0 + seq.variance()));
    }

    /// The simulator conserves work and replicas for arbitrary small
    /// workloads on a failing grid.
    #[test]
    fn simulator_work_conservation(
        seed in 0u64..1000,
        n_bags in 1usize..5,
        tasks_per_bag in 1usize..6,
        work in 100.0f64..20_000.0,
        policy_idx in 0usize..5,
    ) {
        let grid_cfg = GridConfig {
            total_power: 60.0,
            heterogeneity: Heterogeneity::UniformRange { lo: 4.0, hi: 16.0 },
            availability: Availability::MED,
            checkpoint: CheckpointConfig::default(),
            outages: None,
        };
        let mut grid_rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let grid = grid_cfg.build(&mut grid_rng);
        let bags: Vec<BagOfTasks> = (0..n_bags)
            .map(|i| BagOfTasks {
                id: BotId(i as u32),
                arrival: SimTime::new(i as f64 * 500.0),
                tasks: (0..tasks_per_bag)
                    .map(|j| TaskSpec { id: TaskId(j as u32), work })
                    .collect(),
                granularity: work,
            })
            .collect();
        let workload = Workload { bags, lambda: 1.0, label: "prop".into() };
        let policy = PolicyKind::all()[policy_idx];
        let r = simulate(&grid, &workload, policy, &SimConfig::with_seed(seed));
        prop_assert_eq!(r.completed, n_bags, "all bags complete");
        prop_assert!(!r.saturated);
        let total_work = (n_bags * tasks_per_bag) as f64 * work;
        prop_assert!((r.counters.useful_work - total_work).abs() < 1e-6);
        prop_assert_eq!(
            r.counters.replicas_launched,
            (n_bags * tasks_per_bag) as u64
                + r.counters.replicas_killed_failure
                + r.counters.replicas_killed_sibling
        );
        prop_assert!(r.counters.killed_occupancy <= r.counters.busy_time + 1e-9);
        // Turnarounds decompose.
        for b in &r.bags {
            prop_assert!((b.turnaround - (b.waiting + b.makespan)).abs() < 1e-6);
            prop_assert!(b.waiting >= 0.0);
        }
    }
}
