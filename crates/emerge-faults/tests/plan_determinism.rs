//! Property tests for the fault plane's core guarantee: every decision
//! an armed [`FaultInjector`] makes is a pure function of the plan seed,
//! the world seed, and the query coordinates — never of query order,
//! shard layout, or wall clock. Two injectors armed the same way must
//! answer every question identically, in any order, any number of times.

use emerge_faults::{FaultEvent, FaultKind, FaultPlan, Scenario};
use emerge_sim::time::SimTime;
use proptest::collection::vec as pvec;
use proptest::prelude::*;

fn plan(seed: u64, loss_ppm: u32, crash_ppm: u32) -> FaultPlan {
    let window = |kind| FaultEvent {
        from: SimTime::from_ticks(100),
        to: SimTime::from_ticks(2_000),
        kind,
    };
    FaultPlan::new(
        seed,
        vec![
            window(FaultKind::LossBurst { loss_ppm }),
            window(FaultKind::CrashRestart { crash_ppm }),
            window(FaultKind::ChurnStorm { churn_ppm: 300_000 }),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same (plan seed, world seed) → the same answer to every fault
    /// question, replayed in a different order on a separate injector.
    #[test]
    fn same_seeds_replay_the_same_fault_sequence(
        plan_seed in any::<u64>(),
        world_seed in any::<u64>(),
        loss_ppm in 0u32..1_000_000,
        crash_ppm in 0u32..1_000_000,
        slots in pvec(0usize..64, 1..24),
        ticks in pvec(0u64..2_500, 1..24),
    ) {
        let p = plan(plan_seed, loss_ppm, crash_ppm);
        let forward = p.arm(world_seed);
        let backward = p.arm(world_seed);
        let mut seen = Vec::new();
        for (&slot, &tick) in slots.iter().zip(&ticks) {
            let t = SimTime::from_ticks(tick);
            seen.push((
                forward.unreachable_at(slot, t),
                forward.holder_disrupted(slot, t),
                forward.ghost_index(slot, t, 64),
            ));
        }
        // Replay in reverse on the second injector: decisions must be
        // order-independent, not merely repeatable.
        for ((&slot, &tick), expected) in
            slots.iter().zip(&ticks).rev().zip(seen.iter().rev())
        {
            let t = SimTime::from_ticks(tick);
            prop_assert_eq!(backward.unreachable_at(slot, t), expected.0);
            prop_assert_eq!(backward.holder_disrupted(slot, t), expected.1);
            prop_assert_eq!(backward.ghost_index(slot, t, 64), expected.2);
        }
    }

    /// Different world seeds decorrelate the decisions (at full fault
    /// intensity the outcome is forced, so probe at 50%): over enough
    /// coordinates, two worlds must not produce identical loss patterns.
    #[test]
    fn world_seed_decorrelates_decisions(plan_seed in any::<u64>()) {
        let p = plan(plan_seed, 500_000, 500_000);
        let a = p.arm(1);
        let b = p.arm(2);
        let t = SimTime::from_ticks(1_000);
        let differs = (0..256).any(|slot| {
            a.holder_disrupted(slot, t) != b.holder_disrupted(slot, t)
        });
        prop_assert!(differs, "256 slots produced identical patterns across worlds");
    }

    /// Scenario compilation is pure: the same (intensity, horizon, seed)
    /// triple yields the same schedule, and the schedule stays inside the
    /// horizon's middle 80%.
    #[test]
    fn scenario_plans_are_pure_and_windowed(
        intensity in 1u32..1_000_000,
        horizon in 100u64..1_000_000,
        seed in any::<u64>(),
        scenario_idx in 0usize..Scenario::all().len(),
    ) {
        let scenario = Scenario::all()[scenario_idx];
        let a = scenario.plan(intensity, horizon, seed);
        let b = scenario.plan(intensity, horizon, seed);
        prop_assert_eq!(a.seed(), b.seed());
        prop_assert_eq!(a.events(), b.events());
        for event in a.events() {
            prop_assert!(event.from.ticks() >= horizon / 10);
            prop_assert!(event.to.ticks() <= horizon - horizon / 10);
            prop_assert!(event.from < event.to);
        }
    }
}
