//! The armed fault injector: per-world decisions plus fault statistics.
//!
//! A [`FaultInjector`] is what a [`FaultPlan`](crate::plan::FaultPlan)
//! becomes once armed against one trial's world seed. Every decision it
//! takes — is this holder contact lost, is this slot crashed, how many
//! blocks is this holder's clock off — is a **pure hash** of the armed
//! seed, a per-operation tag and the operands (`slot`, tick). No decision
//! consumes mutable RNG state, so callers may ask in any order, any
//! number of times, from any shard, and always get the same answer: the
//! property that keeps sharded Monte-Carlo exactly mergeable under
//! faults.
//!
//! The injector also tallies what it did (disruptions and recoveries)
//! into interior-mutability counters readable via
//! [`FaultInjector::stats`], and mirrors them into `emerge-obs` counters
//! — free no-ops unless a collector is installed.

use std::cell::Cell;

use emerge_obs::metrics::CounterId;
use emerge_sim::shard::mix64;
use emerge_sim::time::SimTime;

use crate::plan::{FaultEvent, FaultKind, PPM_SCALE};

/// Fault contacts injected (lost hops, crashed holders, outage hits).
pub static FAULTS_INJECTED: CounterId = CounterId::new("faults.injected");
/// Disruptions absorbed by the protocol.
pub static FAULTS_RECOVERED: CounterId = CounterId::new("faults.recovered");
/// Trials that released despite at least one injected disruption.
pub static DEGRADED_SUCCESS: CounterId = CounterId::new("faults.degraded_success");

// Per-operation hash domain tags (arbitrary odd constants).
const TAG_LOSS: u64 = 0x1ED5;
const TAG_CRASH: u64 = 0x3C4A;
const TAG_CHURN: u64 = 0x4C07;
const TAG_SKEW: u64 = 0x6B3D;
const TAG_GHOST: u64 = 0x9057;

/// Counters of what an injector actually did during one trial.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Holder contacts disrupted (lost, crashed, in outage or skewed).
    pub disruptions: u64,
    /// Disruptions the protocol absorbed.
    pub recoveries: u64,
}

impl FaultStats {
    /// Whether the trial saw any injected disruption at all.
    pub fn disrupted(&self) -> bool {
        self.disruptions > 0
    }

    /// Digest of the statistics keyed by a global trial index: FNV-1a
    /// over the index and every counter, combined across trials by
    /// wrapping addition exactly like the Monte-Carlo engines' protocol
    /// fingerprints. Lets sharded fault streams be checked bit for bit.
    pub fn digest(&self, trial_idx: u64) -> u64 {
        let mut d = emerge_sim::shard::TrialDigest::new();
        d.eat(&trial_idx.to_le_bytes());
        // The five zeros stand where the retired lookup counters (retries,
        // timeouts, tampered, redirects, virtual latency) were digested,
        // so the byte stream, and with it every pinned fault fingerprint
        // (`FRONTIER_GOLDEN`, `CLOCK_SKEW_GOLDEN`, the ledger's
        // `faults_share_8x3` golden), stays unchanged.
        for v in [self.disruptions, self.recoveries, 0, 0, 0, 0, 0] {
            d.eat(&v.to_le_bytes());
        }
        d.finish()
    }
}

/// A fault plan armed against one trial world.
///
/// See the [module docs](self) for the determinism contract. All query
/// methods take `&self`; statistics accumulate through [`Cell`]s so the
/// injector can sit inside substrate wrappers whose trait surface is
/// `&self` for reads.
#[derive(Debug)]
pub struct FaultInjector {
    events: Vec<FaultEvent>,
    arm_seed: u64,
    disruptions: Cell<u64>,
    recoveries: Cell<u64>,
}

impl FaultInjector {
    /// Arms `events` under `arm_seed`. Use
    /// [`FaultPlan::arm`](crate::plan::FaultPlan::arm) rather than calling
    /// this directly.
    pub fn new(events: Vec<FaultEvent>, arm_seed: u64) -> Self {
        FaultInjector {
            events,
            arm_seed,
            disruptions: Cell::new(0),
            recoveries: Cell::new(0),
        }
    }

    /// Whether the injector has no events: the fast path every hook
    /// checks first, so an empty plan costs one branch per call.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The armed events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Pure decision hash: `(arm seed, tag, a, b)` → uniform `u64`.
    fn roll(&self, tag: u64, a: u64, b: u64) -> u64 {
        mix64(mix64(mix64(self.arm_seed ^ tag) ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ b)
    }

    fn hits(roll: u64, ppm: u32) -> bool {
        roll % u64::from(PPM_SCALE) < u64::from(ppm)
    }

    /// Whether `slot` is unreachable at `t` through a correlated outage
    /// or a crash window — the coarse, whole-window disruptions.
    pub fn unreachable_at(&self, slot: usize, t: SimTime) -> bool {
        self.events.iter().enumerate().any(|(idx, ev)| {
            ev.active_at(t)
                && match ev.kind {
                    FaultKind::SlotOutage { modulus, residue } => {
                        slot % modulus.max(1) == residue % modulus.max(1)
                    }
                    FaultKind::CrashRestart { crash_ppm } => {
                        Self::hits(self.roll(TAG_CRASH, idx as u64, slot as u64), crash_ppm)
                    }
                    _ => false,
                }
        })
    }

    /// Whether the single holder contact `(slot, t)` is disrupted: the
    /// slot is unreachable, a loss burst eats this specific contact, or a
    /// churn storm replaced the slot's tenant for the window. Counts a
    /// disruption when it fires.
    pub fn holder_disrupted(&self, slot: usize, t: SimTime) -> bool {
        if self.is_empty() {
            return false;
        }
        let hit = self.unreachable_at(slot, t)
            || self.events.iter().enumerate().any(|(idx, ev)| {
                ev.active_at(t)
                    && match ev.kind {
                        FaultKind::LossBurst { loss_ppm } => {
                            Self::hits(self.roll(TAG_LOSS, slot as u64, t.ticks()), loss_ppm)
                        }
                        // A churned slot's tenant is gone for the whole
                        // window: one slot-stable roll per event.
                        FaultKind::ChurnStorm { churn_ppm } => {
                            Self::hits(self.roll(TAG_CHURN, idx as u64, slot as u64), churn_ppm)
                        }
                        _ => false,
                    }
            });
        if hit {
            self.note_disruption();
        }
        hit
    }

    /// Uniform selector in `[0, pool)` for ghost-tenant identities, keyed
    /// by the exact contact so arrival and departure of the same hop pick
    /// different ghosts (up to a `1/pool` collision).
    pub fn ghost_index(&self, slot: usize, t: SimTime, pool: usize) -> usize {
        (self.roll(TAG_GHOST, slot as u64, t.ticks()) % pool.max(1) as u64) as usize
    }

    /// How many blocks `slot`'s view of the chain lags at `t` (the
    /// contract-substrate clock-skew fault; `0` means an accurate clock).
    /// Counts a disruption when non-zero.
    pub fn clock_skew_blocks(&self, slot: usize, t: SimTime) -> u64 {
        let skew = self
            .events
            .iter()
            .enumerate()
            .filter_map(|(idx, ev)| {
                if !ev.active_at(t) {
                    return None;
                }
                let FaultKind::ClockSkew { skew_ppm, blocks } = ev.kind else {
                    return None;
                };
                Self::hits(self.roll(TAG_SKEW, idx as u64, slot as u64), skew_ppm).then_some(blocks)
            })
            .max()
            .unwrap_or(0);
        if skew > 0 {
            self.note_disruption();
        }
        skew
    }

    /// Records one injected disruption.
    pub fn note_disruption(&self) {
        self.disruptions.set(self.disruptions.get() + 1);
        FAULTS_INJECTED.incr();
    }

    /// Records one disruption the protocol absorbed.
    pub fn note_recovery(&self) {
        self.recoveries.set(self.recoveries.get() + 1);
        FAULTS_RECOVERED.incr();
    }

    /// A snapshot of everything the injector did so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            disruptions: self.disruptions.get(),
            recoveries: self.recoveries.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;

    fn event(from: u64, to: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            from: SimTime::from_ticks(from),
            to: SimTime::from_ticks(to),
            kind,
        }
    }

    #[test]
    fn outage_is_exact_and_windowed() {
        let plan = FaultPlan::new(
            1,
            vec![event(
                100,
                200,
                FaultKind::SlotOutage {
                    modulus: 4,
                    residue: 1,
                },
            )],
        );
        let inj = plan.arm(9);
        let inside = SimTime::from_ticks(150);
        let outside = SimTime::from_ticks(250);
        for slot in 0..32 {
            assert_eq!(
                inj.unreachable_at(slot, inside),
                slot % 4 == 1,
                "slot {slot}"
            );
            assert!(!inj.unreachable_at(slot, outside));
        }
    }

    #[test]
    fn loss_rate_tracks_intensity() {
        let plan = FaultPlan::new(
            2,
            vec![event(
                0,
                1_000_000,
                FaultKind::LossBurst { loss_ppm: 250_000 },
            )],
        );
        let inj = plan.arm(3);
        let t = SimTime::from_ticks(10);
        let lost = (0..10_000usize)
            .filter(|&slot| inj.holder_disrupted(slot, t))
            .count();
        let rate = lost as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "loss rate {rate}");
        assert_eq!(inj.stats().disruptions, lost as u64);
    }

    #[test]
    fn decisions_are_stateless_and_repeatable() {
        let plan = FaultPlan::new(
            3,
            vec![event(
                0,
                1_000,
                FaultKind::CrashRestart { crash_ppm: 400_000 },
            )],
        );
        let inj = plan.arm(5);
        let t = SimTime::from_ticks(7);
        let first: Vec<bool> = (0..100).map(|s| inj.unreachable_at(s, t)).collect();
        let again: Vec<bool> = (0..100).map(|s| inj.unreachable_at(s, t)).collect();
        assert_eq!(first, again);
        assert!(first.iter().any(|&b| b) && first.iter().any(|&b| !b));
    }

    #[test]
    fn stats_accumulate() {
        let plan = FaultPlan::new(
            4,
            vec![event(
                0,
                100,
                FaultKind::SlotOutage {
                    modulus: 1,
                    residue: 0,
                },
            )],
        );
        let inj = plan.arm(1);
        assert!(inj.holder_disrupted(42, SimTime::from_ticks(1)));
        inj.note_recovery();
        let s = inj.stats();
        assert_eq!(s.disruptions, 1);
        assert_eq!(s.recoveries, 1);
        assert!(s.disrupted());
    }

    #[test]
    fn clock_skew_applies_to_a_fraction_of_holders() {
        let plan = FaultPlan::new(
            5,
            vec![event(
                0,
                10_000,
                FaultKind::ClockSkew {
                    skew_ppm: 500_000,
                    blocks: 3,
                },
            )],
        );
        let inj = plan.arm(8);
        let t = SimTime::from_ticks(500);
        let skewed = (0..1000)
            .filter(|&s| inj.clock_skew_blocks(s, t) == 3)
            .count();
        assert!((300..700).contains(&skewed), "skewed {skewed}/1000");
        assert!(inj.stats().disruptions >= skewed as u64);
    }

    #[test]
    fn empty_injector_answers_no_to_everything() {
        let inj = FaultPlan::none().arm(1);
        let t = SimTime::from_ticks(1);
        assert!(inj.is_empty());
        assert!(!inj.holder_disrupted(0, t));
        assert!(!inj.unreachable_at(0, t));
        assert_eq!(inj.clock_skew_blocks(0, t), 0);
        assert_eq!(inj.stats(), FaultStats::default());
    }
}
