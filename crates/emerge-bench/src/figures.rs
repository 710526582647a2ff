//! The paper's figures as reusable experiment functions.
//!
//! Every function mirrors one evaluation figure: it performs the same
//! parameter selection the paper's sender would (Section III solvers),
//! measures resilience by Monte-Carlo over the same population/trial
//! scale, and returns a [`SeriesTable`] whose columns match the figure's
//! plotted series. [`fig6`], [`fig7`] and [`fig8`] hold each figure's
//! panel list and seeds, once, for the `fig6`/`fig7`/`fig8` and
//! `all_figures` binaries.
//!
//! The x-axis is walked in order and every cell runs through
//! [`run_cell`], the one Monte-Carlo driver over the model's range call,
//! so a table is the same at any `EMERGE_MC_THREADS`.

use crate::mc_threads;
use emerge_core::analysis;
use emerge_core::config::SchemeParams;
use emerge_core::error::EmergeError;
use emerge_core::montecarlo::{run_model_trial_range, McResults, TrialSpec};
use emerge_sim::metrics::SeriesTable;
use emerge_sim::shard::run_sharded;

/// Target resilience the sender aims for when sizing structures; the
/// paper's joint scheme "keeps R > 0.99 before p = 0.34" at 10000 nodes,
/// which is this target hitting the node budget.
pub const TARGET_R: f64 = 0.99;

/// Runs one figure cell: `trials` model trials of `spec` from `seed`,
/// sharded over [`mc_threads`] workers by
/// [`emerge_sim::shard::run_sharded`].
///
/// # Errors
///
/// Propagates [`run_model_trial_range`]'s rejection of `spec`.
pub fn run_cell(spec: &TrialSpec, trials: usize, seed: u64) -> Result<McResults, EmergeError> {
    run_sharded(trials, mc_threads(), |first, count| {
        run_model_trial_range(spec, first, count, seed)
    })
}

/// One table of a figure: the stem of its `results/<name>.dat` file, a
/// heading, and the table.
#[derive(Debug, Clone)]
pub struct Panel {
    /// File stem, e.g. `fig6a`.
    pub name: String,
    /// What the panel plots.
    pub title: String,
    /// The measured series.
    pub table: SeriesTable,
}

/// Figure 6: attack resilience (panels a, c) and required nodes (b, d)
/// at 10,000 and 100 nodes.
///
/// # Errors
///
/// Propagates a cell's [`EmergeError`].
pub fn fig6(ps: &[f64], trials: usize) -> Result<Vec<Panel>, EmergeError> {
    let mut panels = Vec::new();
    for (population, tag_r, tag_c) in [(10_000usize, "fig6a", "fig6b"), (100, "fig6c", "fig6d")] {
        let (r, c) = fig6_attack_and_cost(population, ps, trials, 0x6A)?;
        panels.push(Panel {
            name: tag_r.into(),
            title: format!("attack resilience R, {population} nodes"),
            table: r,
        });
        panels.push(Panel {
            name: tag_c.into(),
            title: format!("required nodes C, {population} nodes (log scale)"),
            table: c,
        });
    }
    Ok(panels)
}

/// Figure 7: churn resilience of all four schemes for `α ∈ {1, 2, 3, 5}`
/// (panels a–d), 10,000 nodes.
///
/// # Errors
///
/// Propagates a cell's [`EmergeError`].
pub fn fig7(ps: &[f64], trials: usize) -> Result<Vec<Panel>, EmergeError> {
    [("a", 1.0f64), ("b", 2.0), ("c", 3.0), ("d", 5.0)]
        .into_iter()
        .map(|(panel, alpha)| {
            Ok(Panel {
                name: format!("fig7{panel}"),
                title: format!("churn resilience, α = {alpha}"),
                table: fig7_churn_resilience(10_000, alpha, ps, trials, 0x70 + alpha as u64)?,
            })
        })
        .collect()
}

/// Figure 8: the share scheme's resilience when the nodes available for
/// path construction shrink to 10,000, 5,000, 1,000 and 100 of a
/// 10,000-node DHT, `α = 3`.
///
/// # Errors
///
/// Propagates a cell's [`EmergeError`].
pub fn fig8(ps: &[f64], trials: usize) -> Result<Vec<Panel>, EmergeError> {
    Ok(vec![Panel {
        name: "fig8".into(),
        title: "share-scheme resilience per path budget, α = 3".into(),
        table: fig8_share_cost(10_000, &[100, 1_000, 5_000, 10_000], 3.0, ps, trials, 0x80)?,
    }])
}

/// Figure 6(a)/(c): measured attack resilience `R` vs `p` for the
/// centralized, node-disjoint and node-joint schemes, and Figure 6(b)/(d):
/// the required node counts `C` of the solved structures.
///
/// Returns `(resilience_table, cost_table)` with columns
/// `p, central, disjoint, joint`.
///
/// # Errors
///
/// Propagates a cell's [`EmergeError`].
pub fn fig6_attack_and_cost(
    population: usize,
    ps: &[f64],
    trials: usize,
    seed: u64,
) -> Result<(SeriesTable, SeriesTable), EmergeError> {
    let mut r_table = SeriesTable::new("p", &["central", "disjoint", "joint"]);
    let mut c_table = SeriesTable::new("p", &["central", "disjoint", "joint"]);
    for &p in ps {
        let run = |params: SchemeParams, salt: u64| {
            let spec = TrialSpec::new(params, population, p);
            Ok::<_, EmergeError>(run_cell(&spec, trials, seed ^ salt)?.r_min())
        };
        let disjoint = analysis::solve_disjoint(p, TARGET_R, population).params;
        let joint = analysis::solve_joint(p, TARGET_R, population).params;
        let costs = [1.0, disjoint.node_cost() as f64, joint.node_cost() as f64];
        let resilience = [
            run(SchemeParams::Central, 0x01)?,
            run(disjoint, 0x02)?,
            run(joint, 0x03)?,
        ];
        r_table.push_row(p, &resilience);
        c_table.push_row(p, &costs);
    }
    Ok((r_table, c_table))
}

/// Figure 7: churn resilience for a given `α = T / tlife`, all four
/// schemes. Columns: `p, central, disjoint, joint, share`.
///
/// # Errors
///
/// Propagates a cell's [`EmergeError`].
pub fn fig7_churn_resilience(
    population: usize,
    alpha: f64,
    ps: &[f64],
    trials: usize,
    seed: u64,
) -> Result<SeriesTable, EmergeError> {
    let mut table = SeriesTable::new("p", &["central", "disjoint", "joint", "share"]);
    for &p in ps {
        let run = |params: SchemeParams, salt: u64| {
            let spec = TrialSpec {
                alpha: Some(alpha),
                ..TrialSpec::new(params, population, p)
            };
            Ok::<_, EmergeError>(run_cell(&spec, trials, seed ^ salt)?.r_min())
        };
        let row = [
            run(SchemeParams::Central, 0x11)?,
            run(
                analysis::solve_disjoint(p, TARGET_R, population).params,
                0x12,
            )?,
            run(analysis::solve_joint(p, TARGET_R, population).params, 0x13)?,
            run(
                analysis::solve_share(p, TARGET_R, population, alpha).params,
                0x14,
            )?,
        ];
        table.push_row(p, &row);
    }
    Ok(table)
}

/// Figure 8: the share scheme's cost/benefit — resilience vs `p` when the
/// number of nodes available for path construction shrinks. `α = 3` as in
/// the paper. Columns: `p` plus one series per budget.
///
/// # Errors
///
/// Propagates a cell's [`EmergeError`].
pub fn fig8_share_cost(
    population: usize,
    budgets: &[usize],
    alpha: f64,
    ps: &[f64],
    trials: usize,
    seed: u64,
) -> Result<SeriesTable, EmergeError> {
    let labels: Vec<String> = budgets.iter().map(|b| b.to_string()).collect();
    let label_refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
    let mut table = SeriesTable::new("p", &label_refs);
    for &p in ps {
        let mut values = Vec::with_capacity(budgets.len());
        for (i, &budget) in budgets.iter().enumerate() {
            let spec = TrialSpec {
                alpha: Some(alpha),
                ..TrialSpec::new(
                    analysis::solve_share(p, TARGET_R, budget, alpha).params,
                    population,
                    p,
                )
            };
            values.push(run_cell(&spec, trials, seed ^ (0x20 + i as u64))?.r_min());
        }
        table.push_row(p, &values);
    }
    Ok(table)
}

/// Writes a table to `results/<name>.dat` (best effort) and returns the
/// rendered text.
pub fn render_and_save(table: &SeriesTable, name: &str) -> String {
    let text = table.to_string();
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write(format!("results/{name}.dat"), format!("{text}\n"));
    text
}

/// Saves every panel with [`render_and_save`] and prints it under its
/// name and title.
pub fn save_and_print(panels: &[Panel]) {
    for panel in panels {
        println!();
        println!("## {}: {}", panel.name, panel.title);
        println!("{}", render_and_save(&panel.table, &panel.name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Small-scale smoke tests; the real scale runs in the binaries.

    #[test]
    fn fig6_tables_have_expected_shape() {
        let ps = [0.0, 0.2, 0.4];
        let (r, c) = fig6_attack_and_cost(500, &ps, 60, 1).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(c.len(), 3);
        // p = 0: everything is perfectly resilient and cheap.
        let row0 = r.row_at(0.0).unwrap();
        assert_eq!(&row0[1..], &[1.0, 1.0, 1.0]);
        let cost0 = c.row_at(0.0).unwrap();
        assert_eq!(cost0[1], 1.0);
        // Central matches 1 - p at p = 0.4.
        let row = r.row_at(0.4).unwrap();
        assert!((row[1] - 0.6).abs() < 0.15);
        // Joint must dominate central everywhere.
        for row in r.iter() {
            assert!(
                row[3] >= row[1] - 0.05,
                "joint under central at p={}",
                row[0]
            );
        }
    }

    #[test]
    fn fig6_costs_grow_with_p() {
        let ps = [0.1, 0.3];
        let (_, c) = fig6_attack_and_cost(2000, &ps, 10, 2).unwrap();
        let c1 = c.row_at(0.1).unwrap()[3];
        let c3 = c.row_at(0.3).unwrap()[3];
        assert!(c3 > c1, "joint cost must grow with p: {c1} -> {c3}");
    }

    #[test]
    fn fig7_share_beats_keyed_under_heavy_churn() {
        let ps = [0.2];
        let table = fig7_churn_resilience(2000, 3.0, &ps, 80, 3).unwrap();
        let row = table.row_at(0.2).unwrap();
        let (joint, share) = (row[3], row[4]);
        assert!(
            share > joint + 0.05,
            "share must beat joint at α=3, p=0.2: share={share} joint={joint}"
        );
        assert!(share > 0.9, "share should stay high: {share}");
    }

    #[test]
    fn fig8_budget_ordering() {
        let ps = [0.2];
        let table = fig8_share_cost(2000, &[100, 2000], 3.0, &ps, 80, 4).unwrap();
        let row = table.row_at(0.2).unwrap();
        assert!(
            row[2] >= row[1] - 0.05,
            "bigger budgets must not hurt: {} vs {}",
            row[1],
            row[2]
        );
    }

    #[test]
    fn panel_lists_name_every_results_file() {
        let names = |panels: Vec<Panel>| -> Vec<String> {
            panels.into_iter().map(|panel| panel.name).collect()
        };
        let ps = [0.1];
        assert_eq!(
            names(fig6(&ps, 1).unwrap()),
            ["fig6a", "fig6b", "fig6c", "fig6d"]
        );
        assert_eq!(
            names(fig7(&ps, 1).unwrap()),
            ["fig7a", "fig7b", "fig7c", "fig7d"]
        );
        assert_eq!(names(fig8(&ps, 1).unwrap()), ["fig8"]);
    }
}
