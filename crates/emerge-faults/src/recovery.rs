//! Recovery policies: bounded retry with deterministic backoff,
//! per-attempt timeouts, and hedged redundant lookups.
//!
//! Policies are plain `Copy` configuration — the machinery that applies
//! them (retry loops in `find_value`, hedges over `closest_slots`) lives
//! in the substrate wrappers. Keeping policy and mechanism apart lets the
//! same policy drive the analytic, contract and cloud paths.

/// Bounded retry with deterministic exponential backoff.
///
/// Backoff is *virtual*: attempts are re-rolled immediately, but the
/// configured wait is accounted as virtual latency so degraded runs
/// report how long recovery would have stalled a real deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per lookup, including the first (`0` acts as `1`).
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

/// Per-attempt lookup timeout.
///
/// An attempt whose virtual latency (base plus slow-node inflation)
/// exceeds the budget is abandoned and counted as a timeout; the retry
/// policy decides whether another attempt follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeoutPolicy {
    /// Latency budget per attempt, in ticks.
    pub per_attempt_ticks: u64,
}

impl Default for TimeoutPolicy {
    fn default() -> Self {
        TimeoutPolicy {
            per_attempt_ticks: 200,
        }
    }
}

/// Hedged redundant lookups over the `fanout` closest slots.
///
/// When the primary slot is unreachable, resolution and retrieval fall
/// through the next-closest replicas in deterministic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgePolicy {
    /// How many closest slots to consider, including the primary.
    pub fanout: usize,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy { fanout: 3 }
    }
}

/// The complete recovery stance of a faulty substrate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retry/backoff behaviour for lookups.
    pub retry: RetryPolicy,
    /// Per-attempt timeout.
    pub timeout: TimeoutPolicy,
    /// Hedged redundancy for resolution and retrieval.
    pub hedge: HedgePolicy,
}

impl RecoveryPolicy {
    /// A policy that never retries, never hedges and never times out —
    /// faults land at full force. Useful as an experimental control.
    pub fn brittle() -> Self {
        RecoveryPolicy {
            retry: RetryPolicy {
                max_attempts: 1,
                base_backoff_ticks: 0,
                multiplier: 1,
            },
            timeout: TimeoutPolicy {
                per_attempt_ticks: u64::MAX,
            },
            hedge: HedgePolicy { fanout: 1 },
        }
    }
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

    #[test]
    fn brittle_policy_disables_recovery() {
        let p = RecoveryPolicy::brittle();
        assert_eq!(p.retry.attempts(), 1);
        assert_eq!(p.hedge.fanout, 1);
        assert_eq!(p.timeout.per_attempt_ticks, u64::MAX);
    }
}
