//! The one wall-clock helper the bench binaries share.
//!
//! Every `trials_per_sec` / `seconds` figure in the repo used to come
//! from its own `Instant::now()` pair; [`Stopwatch`] centralizes the
//! pattern so elapsed-time bookkeeping has a single source of truth.

use std::time::Instant;

/// A started wall-clock timer.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch now.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Seconds elapsed since the start (monotonic, fractional).
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_secs();
        let b = sw.elapsed_secs();
        assert!(a >= 0.0 && b >= a);
    }
}
