//! Parameter grids and idempotent work units.
//!
//! A [`SweepGrid`] is a named list of Monte-Carlo cells (scheme × attack
//! × world size) with a trial budget per cell. [`SweepGrid::units`]
//! partitions each cell's trial range into contiguous [`UnitSpec`]s —
//! the sweep's unit of dispatch, retry, hedging and journaling. A unit
//! digests everything that determines its outcome, so the digest doubles
//! as the idempotency key: replayed journals, duplicated worker output
//! and hedged twins all collapse onto the same unit.

use emerge_core::config::SchemeParams;
use emerge_core::montecarlo::ProtocolTrialSpec;
use emerge_core::protocol::AttackMode;
use emerge_dht::overlay::OverlayConfig;
use emerge_sim::shard::TrialDigest;
use emerge_sim::time::SimDuration;

use crate::error::SweepError;

/// One Monte-Carlo cell of a sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Human-readable cell label (stable: part of the unit digest).
    pub name: String,
    /// The protocol cell to run.
    pub spec: ProtocolTrialSpec,
    /// Trials budgeted for this cell.
    pub trials: usize,
}

/// A named parameter grid: the static description of one full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Grid name (e.g. `share_8x3`).
    pub name: String,
    /// Population slots of every trial world.
    pub population: usize,
    /// Base Monte-Carlo seed shared by every cell.
    pub seed: u64,
    /// The cells, in canonical order.
    pub cells: Vec<CellSpec>,
}

/// The world every sweep trial runs in: the paper's churn/adversary
/// setup at a configurable population. The benchmark ledger's in-process
/// workloads build their worlds with it too, so sweep numbers compare
/// directly with the single-process ones.
pub fn world_config(population: usize) -> OverlayConfig {
    OverlayConfig {
        n_nodes: population,
        malicious_fraction: 0.2,
        mean_lifetime: Some(40_000),
        horizon: 200_000,
    }
}

impl SweepGrid {
    /// Looks up a built-in grid by name.
    ///
    /// * `share_8x3` — the (8, 3) share scheme under release-ahead and
    ///   drop attacks (the CI smoke grid).
    /// * `schemes_2x3` — all four schemes at small shapes under
    ///   release-ahead, the cross-scheme comparison sweep.
    ///
    /// # Errors
    ///
    /// [`SweepError::Config`] for an unknown name.
    pub fn builtin(name: &str) -> Result<SweepGrid, SweepError> {
        let share_8x3 = SchemeParams::Share {
            k: 2,
            l: 3,
            n: 8,
            m: vec![4, 4],
        };
        let period = SimDuration::from_ticks(8_000);
        match name {
            "share_8x3" => Ok(SweepGrid {
                name: name.to_string(),
                population: 1_000,
                seed: 0xB45E,
                cells: vec![
                    CellSpec {
                        name: "share_8x3_release_ahead".to_string(),
                        spec: ProtocolTrialSpec {
                            params: share_8x3.clone(),
                            emerging_period: period,
                            attack: AttackMode::ReleaseAhead,
                        },
                        trials: 120,
                    },
                    CellSpec {
                        name: "share_8x3_drop".to_string(),
                        spec: ProtocolTrialSpec {
                            params: share_8x3,
                            emerging_period: period,
                            attack: AttackMode::Drop,
                        },
                        trials: 120,
                    },
                ],
            }),
            "schemes_2x3" => {
                let shapes: Vec<(&str, SchemeParams)> = vec![
                    ("central", SchemeParams::Central),
                    ("disjoint_2x3", SchemeParams::Disjoint { k: 2, l: 3 }),
                    ("joint_2x3", SchemeParams::Joint { k: 2, l: 3 }),
                    (
                        "share_5x3",
                        SchemeParams::Share {
                            k: 2,
                            l: 3,
                            n: 5,
                            m: vec![3, 3],
                        },
                    ),
                ];
                Ok(SweepGrid {
                    name: name.to_string(),
                    population: 1_000,
                    seed: 0xB45E,
                    cells: shapes
                        .into_iter()
                        .map(|(label, params)| CellSpec {
                            name: format!("{label}_release_ahead"),
                            spec: ProtocolTrialSpec {
                                params,
                                emerging_period: period,
                                attack: AttackMode::ReleaseAhead,
                            },
                            trials: 80,
                        })
                        .collect(),
                })
            }
            other => Err(SweepError::Config(format!(
                "unknown grid {other:?} (try share_8x3 or schemes_2x3)"
            ))),
        }
    }

    /// Scales every cell's trial budget (`--trials` override).
    pub fn with_trials_per_cell(mut self, trials: usize) -> SweepGrid {
        for cell in &mut self.cells {
            cell.trials = trials;
        }
        self
    }

    /// Partitions the grid into work units of at most `unit_trials`
    /// trials each, in canonical order (cells in grid order, ranges
    /// ascending). `unit_trials == 0` is treated as 1.
    pub fn units(&self, unit_trials: usize) -> Vec<UnitSpec> {
        let unit_trials = unit_trials.max(1);
        let mut units = Vec::new();
        for (cell_index, cell) in self.cells.iter().enumerate() {
            let mut first_trial = 0;
            while first_trial < cell.trials {
                let count = unit_trials.min(cell.trials - first_trial);
                units.push(UnitSpec {
                    unit_index: units.len(),
                    cell_index,
                    cell: cell.name.clone(),
                    spec: cell.spec.clone(),
                    population: self.population,
                    seed: self.seed,
                    first_trial,
                    count,
                });
                first_trial += count;
            }
        }
        units
    }
}

/// One idempotent work unit: a contiguous trial range of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitSpec {
    /// Position in the grid's canonical unit order (the merge order).
    pub unit_index: usize,
    /// Index of the cell this unit belongs to.
    pub cell_index: usize,
    /// Cell label.
    pub cell: String,
    /// The protocol cell to run.
    pub spec: ProtocolTrialSpec,
    /// Population slots of the trial worlds.
    pub population: usize,
    /// Base Monte-Carlo seed (trial streams are keyed by global trial
    /// index under this seed, so range runs merge bit-identically).
    pub seed: u64,
    /// First global trial index of the range.
    pub first_trial: usize,
    /// Number of trials in the range.
    pub count: usize,
}

impl UnitSpec {
    /// The unit's identity digest: a [`TrialDigest`] over every field
    /// that determines the unit's outcome (cell label, scheme shape,
    /// attack, emerging period, population, seed and the trial range).
    /// This is the key for journal replay, first-result-wins dedup of
    /// hedged twins, and duplicate rejection.
    pub fn digest(&self) -> u64 {
        let mut d = TrialDigest::new();
        d.eat(self.cell.as_bytes());
        d.eat(&[0]);
        match &self.spec.params {
            SchemeParams::Central => d.eat(&[1]),
            SchemeParams::Disjoint { k, l } => {
                d.eat(&[2]);
                d.eat(&(*k as u64).to_le_bytes());
                d.eat(&(*l as u64).to_le_bytes());
            }
            SchemeParams::Joint { k, l } => {
                d.eat(&[3]);
                d.eat(&(*k as u64).to_le_bytes());
                d.eat(&(*l as u64).to_le_bytes());
            }
            SchemeParams::Share { k, l, n, m } => {
                d.eat(&[4]);
                d.eat(&(*k as u64).to_le_bytes());
                d.eat(&(*l as u64).to_le_bytes());
                d.eat(&(*n as u64).to_le_bytes());
                d.eat(&(m.len() as u64).to_le_bytes());
                for &th in m {
                    d.eat(&(th as u64).to_le_bytes());
                }
            }
        }
        d.eat(&[match self.spec.attack {
            AttackMode::Passive => 1,
            AttackMode::ReleaseAhead => 2,
            AttackMode::Drop => 3,
        }]);
        d.eat(&self.spec.emerging_period.ticks().to_le_bytes());
        d.eat(&(self.population as u64).to_le_bytes());
        d.eat(&self.seed.to_le_bytes());
        d.eat(&(self.first_trial as u64).to_le_bytes());
        d.eat(&(self.count as u64).to_le_bytes());
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_partition_each_cell_contiguously() {
        let grid = SweepGrid::builtin("share_8x3").unwrap();
        let units = grid.units(25);
        assert_eq!(units.len(), 10, "two cells of 120 trials in units of 25");
        for cell in &grid.cells {
            let mut next = 0;
            for u in units.iter().filter(|u| u.cell == cell.name) {
                assert_eq!(u.first_trial, next);
                next += u.count;
            }
            assert_eq!(next, cell.trials);
        }
        // Canonical order is the vec order.
        for (i, u) in units.iter().enumerate() {
            assert_eq!(u.unit_index, i);
        }
    }

    #[test]
    fn unit_digests_are_distinct_and_stable() {
        let grid = SweepGrid::builtin("share_8x3").unwrap();
        let units = grid.units(25);
        let digests: Vec<u64> = units.iter().map(UnitSpec::digest).collect();
        let mut sorted = digests.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), digests.len(), "digests must be unique");
        // Stable across recomputation and sensitive to the trial range.
        assert_eq!(units[0].digest(), grid.units(25)[0].digest());
        let mut moved = units[0].clone();
        moved.first_trial += 1;
        assert_ne!(moved.digest(), units[0].digest());
    }

    #[test]
    fn unknown_grid_is_a_config_error() {
        assert!(matches!(
            SweepGrid::builtin("nope"),
            Err(SweepError::Config(_))
        ));
    }

    #[test]
    fn zero_unit_trials_is_clamped() {
        let grid = SweepGrid::builtin("share_8x3")
            .unwrap()
            .with_trials_per_cell(2);
        assert_eq!(grid.units(0).len(), 4, "unit size 0 acts as 1");
    }
}
