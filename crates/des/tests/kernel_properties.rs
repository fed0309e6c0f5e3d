//! Property tests of the DES kernel: distributions honour their supports
//! and moments, the gamma implementation matches identities, the stream
//! seeder never collides on realistic inputs, and the engine preserves
//! causality for random event programs.

use dgsched_des::dist::{gamma, ln_gamma, weibull_scale_for_mean, DistConfig};
use dgsched_des::engine::{Control, Engine, Handler, Scheduler};
use dgsched_des::queue::{BinaryHeapQueue, PendingEvents};
use dgsched_des::rng::StreamSeeder;
use dgsched_des::stats::{Histogram, Welford};
use dgsched_des::time::SimTime;
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gamma_recurrence_holds(x in 0.5f64..20.0) {
        // Γ(x+1) = x·Γ(x)
        let lhs = gamma(x + 1.0);
        let rhs = x * gamma(x);
        prop_assert!((lhs - rhs).abs() <= 1e-8 * rhs.abs().max(1.0));
    }

    #[test]
    fn ln_gamma_is_log_of_gamma(x in 0.1f64..30.0) {
        prop_assert!((ln_gamma(x) - gamma(x).ln()).abs() < 1e-8);
    }

    #[test]
    fn weibull_scale_inverts_mean(shape in 0.2f64..8.0, mean in 1.0f64..1e6) {
        let scale = weibull_scale_for_mean(shape, mean);
        let cfg = DistConfig::Weibull { shape, scale };
        prop_assert!((cfg.mean() - mean).abs() / mean < 1e-9);
    }

    #[test]
    fn samplers_respect_support(
        seed in 0u64..1000,
        lo in 0.0f64..100.0,
        width in 0.1f64..100.0,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let uniform = DistConfig::Uniform { lo, hi: lo + width }.sampler();
        for _ in 0..100 {
            let x = uniform.sample(&mut rng);
            prop_assert!(x >= lo && x < lo + width);
        }
        let exp = DistConfig::Exponential { mean: 5.0 }.sampler();
        for _ in 0..100 {
            prop_assert!(exp.sample(&mut rng) >= 0.0);
        }
        let weib = DistConfig::Weibull { shape: 0.7, scale: 10.0 }.sampler();
        for _ in 0..100 {
            prop_assert!(weib.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn stream_seeds_do_not_collide(master in 0u64..u64::MAX, n in 2u64..64) {
        let s = StreamSeeder::new(master);
        let mut seen = std::collections::HashSet::new();
        for label in ["a", "b", "machine-avail", "workload"] {
            for i in 0..n {
                prop_assert!(
                    seen.insert(s.stream_seed(label, i)),
                    "collision at {label}/{i}"
                );
            }
        }
    }

    #[test]
    fn histogram_total_is_observation_count(
        xs in proptest::collection::vec(-10.0f64..110.0, 1..200)
    ) {
        let mut h = Histogram::new(0.0, 100.0, 20);
        for &x in &xs {
            h.record(x);
        }
        prop_assert_eq!(h.total(), xs.len() as u64);
        let (under, over) = h.outliers();
        let binned: u64 = h.counts().iter().sum();
        prop_assert_eq!(under + over + binned, xs.len() as u64);
    }

    #[test]
    fn welford_min_max_bound_mean(xs in proptest::collection::vec(-1e5f64..1e5, 1..100)) {
        let w: Welford = xs.iter().copied().collect();
        prop_assert!(w.min() <= w.mean() + 1e-9);
        prop_assert!(w.mean() <= w.max() + 1e-9);
    }
}

/// A random event program: each event may schedule up to two follow-ups at
/// random non-negative offsets. The engine must deliver every event at a
/// time ≥ its predecessor's.
#[derive(Debug, Clone)]
struct Program {
    offsets: Vec<(f64, f64)>,
    fanout_until: usize,
}

struct CausalityCheck {
    program: Program,
    handled: usize,
    last_time: SimTime,
    monotone: bool,
}

impl Handler<usize> for CausalityCheck {
    fn handle(&mut self, depth: usize, sched: &mut Scheduler<'_, usize>) -> Control {
        if sched.now() < self.last_time {
            self.monotone = false;
        }
        self.last_time = sched.now();
        self.handled += 1;
        if depth < self.program.fanout_until {
            let (a, b) = self.program.offsets[depth % self.program.offsets.len()];
            sched.schedule_in(a, depth + 1);
            sched.schedule_in(b, depth + 1);
        }
        Control::Continue
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn engine_delivers_monotone_time(
        offsets in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..8),
        fanout_until in 1usize..8,
    ) {
        let program = Program { offsets, fanout_until };
        let mut engine = Engine::new();
        engine.prime(SimTime::ZERO, 0usize);
        let mut check = CausalityCheck {
            program,
            handled: 0,
            last_time: SimTime::ZERO,
            monotone: true,
        };
        engine.run(&mut check);
        prop_assert!(check.monotone, "time went backwards");
        // Binary fan-out until depth d: 2^(d+1) − 1 events.
        prop_assert_eq!(check.handled as u64, (1u64 << (fanout_until + 1)) - 1);
        prop_assert_eq!(engine.processed(), check.handled as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine's queue must pop exactly the live events, in
    /// non-decreasing time order, even when event times span the whole fp
    /// horizon: ties at zero, dense clusters and events out to 1e305, with
    /// an arbitrary subset cancelled.
    #[test]
    fn heap_queue_survives_extreme_horizons(
        times in proptest::collection::vec(prop_oneof![
            Just(0.0f64),
            0.0f64..1e3,
            1e3f64..1e9,
            1e12f64..1e18,
            1e295f64..1e305,
        ], 1..48),
        cancel_mask in 0u64..u64::MAX,
    ) {
        let mut q = BinaryHeapQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::new(t), i as u32))
            .collect();
        let mut live: Vec<f64> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if (cancel_mask >> (i % 64)) & 1 == 1 {
                prop_assert!(q.cancel(*id));
            } else {
                live.push(times[i]);
            }
        }
        prop_assert_eq!(q.len(), live.len());
        let mut popped = Vec::new();
        while let Some((t, _, _)) = q.pop() {
            popped.push(t.as_secs());
        }
        live.sort_by(|a, b| a.total_cmp(b));
        prop_assert_eq!(&popped, &live, "pop order must equal sorted live times");
        prop_assert!(q.pop().is_none());
    }
}
