//! The fault-outcome taxonomy of a faulted Monte-Carlo batch, shared by
//! every engine.
//!
//! * **clean success** — the key emerged and the trial saw *zero*
//!   injected disruptions;
//! * **degraded success** — the key emerged despite at least one
//!   disruption (absorbed by m-of-n share slack or an in-window reveal);
//! * **failure** — the key never emerged.
//!
//! `degraded` is reported separately from `clean_of_faults` precisely so
//! resilience claims can distinguish "nothing went wrong" from "things
//! went wrong and the protocol absorbed them".

use crate::injector::{FaultStats, DEGRADED_SUCCESS};
use crate::plan::FaultPlan;
use emerge_sim::metrics::{Rate, Summary};
use emerge_sim::shard::Merge;

/// Aggregated outcomes of a fault-plane Monte-Carlo batch: an engine's
/// plain results `B` as measured *under* the plan, plus the fault-outcome
/// taxonomy. The engine records `base` itself and folds the rest in with
/// [`FaultyResults::record`], the one step both engines share.
#[derive(Debug, Clone, Default)]
pub struct FaultyResults<B> {
    /// The engine's plain results (rates, fingerprint, ...) measured
    /// under the fault plan.
    pub base: B,
    /// Fraction of trials that released despite at least one injected
    /// disruption — absorbed by m-of-n slack or an in-window reveal.
    pub degraded: Rate,
    /// Fraction of trials that released having seen no disruption at all.
    pub clean_of_faults: Rate,
    /// Fraction of trials that saw at least one injected disruption.
    pub disrupted: Rate,
    /// Per-trial injected-disruption counts.
    pub disruptions: Summary,
    /// Index-keyed digest over every trial's fault statistics
    /// ([`FaultStats::digest`]); merges by wrapping addition exactly like
    /// the protocol fingerprint, so sharded fault streams are checked bit
    /// for bit, not just in aggregate.
    pub fault_fingerprint: u64,
}

impl<B> FaultyResults<B> {
    /// Folds one faulted trial's outcome into the taxonomy: whether it
    /// `released`, and what the injector armed from `plan` did to it.
    /// Counts a degraded success on the `faults.degraded_success`
    /// counter as well as in [`FaultyResults::degraded`].
    pub fn record(
        &mut self,
        trial_idx: usize,
        released: bool,
        stats: &FaultStats,
        plan: &FaultPlan,
    ) {
        let disrupted = stats.disrupted();
        if released && disrupted {
            DEGRADED_SUCCESS.incr();
        }
        self.degraded.record(released && disrupted);
        self.clean_of_faults.record(released && !disrupted);
        self.disrupted.record(disrupted);
        self.disruptions.record(stats.disruptions as f64);
        // An empty plan leaves the fault fingerprint at zero so faultless
        // runs are trivially distinguishable from all-quiet faulted runs.
        if !plan.is_empty() {
            self.fault_fingerprint = self
                .fault_fingerprint
                .wrapping_add(stats.digest(trial_idx as u64));
        }
    }
}

impl<B: Merge> FaultyResults<B> {
    /// Merges a disjoint batch. Counter-valued fields and both
    /// fingerprints merge exactly; the floating-point summary moments use
    /// the parallel Welford update.
    pub fn merge(&mut self, other: &FaultyResults<B>) {
        self.base.merge(&other.base);
        self.degraded.merge(&other.degraded);
        self.clean_of_faults.merge(&other.clean_of_faults);
        self.disrupted.merge(&other.disrupted);
        self.disruptions.merge(&other.disruptions);
        self.fault_fingerprint = self.fault_fingerprint.wrapping_add(other.fault_fingerprint);
    }
}

impl<B: Merge> Merge for FaultyResults<B> {
    fn merge(&mut self, other: &Self) {
        FaultyResults::merge(self, other);
    }
}
