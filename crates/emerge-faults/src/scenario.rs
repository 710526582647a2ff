//! The named scenario catalog behind the fault frontier, which
//! `tests/failure_injection.rs` pins value for value.
//!
//! A [`Scenario`] compiles `(intensity, horizon, seed)` into a concrete
//! [`FaultPlan`] with pure integer arithmetic, so the same name and knobs
//! always produce the same schedule. Scenarios place their fault windows
//! over the middle 80% of the horizon: protocols get a clean start, the
//! fault bites while shares are in flight, and trials whose emergence
//! lands late still exercise the tail.

use emerge_sim::time::SimTime;

use crate::plan::{FaultEvent, FaultKind, FaultPlan};

/// A named fault scenario from the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Uncorrelated per-contact message loss at `intensity_ppm`.
    LossBurst,
    /// Correlated outage: a fixed residue class of slots goes dark. The
    /// intensity selects the stride — `intensity_ppm` per million slots
    /// are out (e.g. `250_000` takes out every 4th slot).
    CorrelatedOutage,
    /// Crash + restart with state loss at `intensity_ppm` per slot.
    CrashStorm,
    /// Mass join/leave wave replacing the tenants of `intensity_ppm` of
    /// slots for the window.
    ChurnStorm,
    /// Contract block-clock skew on `intensity_ppm` of holders.
    ClockSkew,
}

impl Scenario {
    /// Every catalogued scenario, in stable order.
    pub fn all() -> &'static [Scenario] {
        &[
            Scenario::LossBurst,
            Scenario::CorrelatedOutage,
            Scenario::CrashStorm,
            Scenario::ChurnStorm,
            Scenario::ClockSkew,
        ]
    }

    /// The scenario's stable report name.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::LossBurst => "loss_burst",
            Scenario::CorrelatedOutage => "correlated_outage",
            Scenario::CrashStorm => "crash_storm",
            Scenario::ChurnStorm => "churn_storm",
            Scenario::ClockSkew => "clock_skew",
        }
    }

    /// Compiles the scenario into a plan: one window over the middle 80%
    /// of `[0, horizon_ticks)` at the given intensity. Deterministic in
    /// all three arguments.
    pub fn plan(&self, intensity_ppm: u32, horizon_ticks: u64, seed: u64) -> FaultPlan {
        let from = SimTime::from_ticks(horizon_ticks / 10);
        let to = SimTime::from_ticks(horizon_ticks - horizon_ticks / 10);
        let kind = match self {
            Scenario::LossBurst => FaultKind::LossBurst {
                loss_ppm: intensity_ppm,
            },
            Scenario::CorrelatedOutage => {
                // Pick the stride whose outage fraction best matches the
                // requested intensity: 1/modulus ~= intensity_ppm / 1e6.
                let modulus = if intensity_ppm == 0 {
                    usize::MAX
                } else {
                    (1_000_000usize / (intensity_ppm as usize).max(1)).max(2)
                };
                FaultKind::SlotOutage {
                    modulus,
                    residue: 1,
                }
            }
            Scenario::CrashStorm => FaultKind::CrashRestart {
                crash_ppm: intensity_ppm,
            },
            Scenario::ChurnStorm => FaultKind::ChurnStorm {
                churn_ppm: intensity_ppm,
            },
            Scenario::ClockSkew => FaultKind::ClockSkew {
                skew_ppm: intensity_ppm,
                blocks: 64,
            },
        };
        FaultPlan::new(seed, vec![FaultEvent { from, to, kind }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let all = Scenario::all();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let a = Scenario::CrashStorm.plan(100_000, 1_000_000, 7);
        let b = Scenario::CrashStorm.plan(100_000, 1_000_000, 7);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 1);
        assert_eq!(a.events()[0].from, SimTime::from_ticks(100_000));
        assert_eq!(a.events()[0].to, SimTime::from_ticks(900_000));
    }

    #[test]
    fn outage_stride_tracks_intensity() {
        let quarter = Scenario::CorrelatedOutage.plan(250_000, 1_000, 1);
        let FaultKind::SlotOutage { modulus, .. } = quarter.events()[0].kind else {
            panic!("wrong kind");
        };
        assert_eq!(modulus, 4);
    }
}
