//! Recovery policies: bounded retry with deterministic backoff,
//! per-attempt deadlines, and hedged redundant dispatch.
//!
//! Policies are plain `Copy` configuration. Their one consumer is the
//! sweep coordinator (`emerge_sweep::coordinator`), which applies them to
//! work-unit dispatch: `timeout.per_attempt_ticks` is the per-dispatch
//! deadline in milliseconds, `retry` bounds and spaces re-dispatches of a
//! failed unit, and `hedge.fanout` caps the concurrent copies of a
//! straggling unit. No trial reads them; the fault-plane runner keeps a
//! `RecoveryPolicy` argument only for signature stability.

/// Bounded retry with deterministic exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per unit, including the first (`0` acts as `1`).
    pub max_attempts: u32,
    /// Backoff before the first retry, in ticks.
    pub base_backoff_ticks: u64,
    /// Multiplier applied per further retry (`2` doubles each time).
    pub multiplier: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ticks: 8,
            multiplier: 2,
        }
    }
}

impl RetryPolicy {
    /// The backoff waited before retry number `retry` (1-based; `0`
    /// — the initial attempt — waits nothing). Saturates instead of
    /// overflowing so absurd policies stay well-defined.
    pub fn backoff_ticks(&self, retry: u32) -> u64 {
        if retry == 0 {
            return 0;
        }
        let factor = u64::from(self.multiplier).saturating_pow(retry - 1);
        self.base_backoff_ticks.saturating_mul(factor)
    }

    /// Total attempts, never less than one.
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }
}

/// Per-attempt deadline.
///
/// An attempt that outlives the budget is abandoned and counted as a
/// failure; the retry policy decides whether another attempt follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeoutPolicy {
    /// Budget per attempt, in ticks (milliseconds in the sweep).
    pub per_attempt_ticks: u64,
}

impl Default for TimeoutPolicy {
    fn default() -> Self {
        TimeoutPolicy {
            per_attempt_ticks: 200,
        }
    }
}

/// Hedged redundant dispatch.
///
/// A straggling attempt is raced by further copies, up to `fanout`
/// concurrent copies in all; the first valid result wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgePolicy {
    /// Concurrent copies allowed, including the first.
    pub fanout: usize,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy { fanout: 3 }
    }
}

/// The complete recovery stance of a dispatcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retry/backoff behaviour.
    pub retry: RetryPolicy,
    /// Per-attempt deadline.
    pub timeout: TimeoutPolicy,
    /// Hedged redundancy.
    pub hedge: HedgePolicy,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_saturates() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff_ticks: 10,
            multiplier: 3,
        };
        assert_eq!(p.backoff_ticks(0), 0);
        assert_eq!(p.backoff_ticks(1), 10);
        assert_eq!(p.backoff_ticks(2), 30);
        assert_eq!(p.backoff_ticks(3), 90);
        let huge = RetryPolicy {
            max_attempts: 200,
            base_backoff_ticks: u64::MAX / 2,
            multiplier: u32::MAX,
        };
        assert_eq!(huge.backoff_ticks(100), u64::MAX);
    }

    #[test]
    fn zero_attempts_still_tries_once() {
        let p = RetryPolicy {
            max_attempts: 0,
            base_backoff_ticks: 1,
            multiplier: 2,
        };
        assert_eq!(p.attempts(), 1);
    }
}
