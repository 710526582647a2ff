//! Fault events, windows and the seeded [`FaultPlan`].
//!
//! A plan is a *schedule*: a list of [`FaultEvent`]s, each a fault kind
//! active over a half-open window `[from, to)` of substrate time. Plans
//! carry no mutable state and make no decisions themselves — arming a
//! plan against a trial's world seed yields a
//! [`FaultInjector`], and every per-call
//! decision the injector takes is a pure hash of the armed seed and the
//! operation's operands. Probabilities are expressed in integer parts per
//! million ([`PPM_SCALE`]) so decisions are exact and platform-independent.

use emerge_sim::shard::mix64;
use emerge_sim::time::SimTime;

use crate::injector::FaultInjector;

/// The probability denominator: fault intensities are parts per million,
/// so `1_000_000` means "always" and `0` means "never".
pub const PPM_SCALE: u32 = 1_000_000;

/// One kind of injected fault, with its intensity.
///
/// Every probabilistic field is an integer in `[0, PPM_SCALE]` parts per
/// million — exact, hashable, platform-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Message-loss burst: any single holder contact (a hop hand-off in
    /// the executor) is lost with probability `loss_ppm`, independently
    /// per `(slot, tick)` pair. Uncorrelated, fine-grained loss.
    LossBurst {
        /// Per-contact loss probability in parts per million.
        loss_ppm: u32,
    },
    /// Correlated slot outage: every slot congruent to `residue` modulo
    /// `modulus` is unreachable for the whole window; nothing about the
    /// outage set is random.
    SlotOutage {
        /// The outage stride (`0` or `1` takes the whole population out).
        modulus: usize,
        /// Which residue class is out.
        residue: usize,
    },
    /// Crash + restart with state loss: each slot flips one seeded coin
    /// at `crash_ppm` for the window. A crashed slot's holder is
    /// unreachable for the entire window.
    CrashRestart {
        /// Per-slot crash probability in parts per million.
        crash_ppm: u32,
    },
    /// Churn storm: a mass join/leave wave. Each slot flips one seeded
    /// coin at `churn_ppm`; a churned slot's tenant is gone for the whole
    /// window, so every hand-off contact with it is lost.
    ChurnStorm {
        /// Per-slot churn probability in parts per million.
        churn_ppm: u32,
    },
    /// Block-clock skew (contract substrate): each holder slot flips one
    /// seeded coin at `skew_ppm`; a skewed holder believes the reveal
    /// window opens `blocks` later than it does and misses it when the
    /// skew exceeds the window length.
    ClockSkew {
        /// Per-holder skew probability in parts per million.
        skew_ppm: u32,
        /// Clock error in blocks.
        blocks: u64,
    },
}

/// One scheduled fault: a kind active over the half-open window
/// `[from, to)` of substrate time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub to: SimTime,
    /// What goes wrong while the window is open.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Whether the window is open at `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        self.from <= t && t < self.to
    }
}

/// A deterministic, seeded schedule of fault events.
///
/// The plan seed does **not** vary per trial — it identifies the
/// scenario. Per-trial variation comes from [`FaultPlan::arm`], which
/// mixes the plan seed with the trial's world seed; because world seeds
/// are a pure function of the global trial index, the same plan replays
/// bit-identically at any shard count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no events, and injectors armed from it answer
    /// "no fault" to everything via a single branch.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// A plan over an explicit event schedule.
    pub fn new(seed: u64, events: Vec<FaultEvent>) -> Self {
        FaultPlan { seed, events }
    }

    /// The plan's scenario seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, in schedule order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Arms the plan for one trial world: decisions taken by the returned
    /// injector are pure functions of `(plan seed, world_seed)` and the
    /// queried operands, so re-arming with the same pair replays the
    /// exact same fault stream.
    pub fn arm(&self, world_seed: u64) -> FaultInjector {
        let arm_seed = mix64(self.seed ^ mix64(world_seed ^ 0xFA17_ED5E_EDF0_0D5E));
        FaultInjector::new(self.events.clone(), arm_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(from: u64, to: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            from: SimTime::from_ticks(from),
            to: SimTime::from_ticks(to),
            kind,
        }
    }

    #[test]
    fn windows_are_half_open() {
        let e = window(10, 20, FaultKind::LossBurst { loss_ppm: 1 });
        assert!(!e.active_at(SimTime::from_ticks(9)));
        assert!(e.active_at(SimTime::from_ticks(10)));
        assert!(e.active_at(SimTime::from_ticks(19)));
        assert!(!e.active_at(SimTime::from_ticks(20)));
    }

    #[test]
    fn empty_plan_arms_to_an_empty_injector() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(plan.arm(42).is_empty());
    }

    #[test]
    fn arming_is_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::new(
            7,
            vec![window(
                0,
                100,
                FaultKind::CrashRestart { crash_ppm: 500_000 },
            )],
        );
        let a = plan.arm(1);
        let b = plan.arm(1);
        let c = plan.arm(2);
        let t = SimTime::from_ticks(50);
        let a_hits: Vec<bool> = (0..64).map(|s| a.holder_disrupted(s, t)).collect();
        let b_hits: Vec<bool> = (0..64).map(|s| b.holder_disrupted(s, t)).collect();
        let c_hits: Vec<bool> = (0..64).map(|s| c.holder_disrupted(s, t)).collect();
        assert_eq!(a_hits, b_hits, "same world seed, same decisions");
        assert_ne!(a_hits, c_hits, "different world seed, different stream");
    }
}
