//! Parallel sweep driver: run (workload, paradigm) grids across threads.
//!
//! Every grid cell is an independent deterministic simulation, so the
//! sweep fans out over [`run_cells`]; results are re-assembled in job
//! order, making the table byte-identical at any thread count (see
//! DESIGN.md §10, "Sequential runs, parallel sweeps").

use crate::runner::run_cells;
use pms_sim::{Paradigm, SimParams, SimStats};
use pms_workloads::Workload;

/// One completed grid cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Row key (e.g. message size).
    pub row: u64,
    /// Column label (paradigm).
    pub col: String,
    /// Simulation results.
    pub stats: SimStats,
    /// Wall-clock time this cell's simulation took on its sweep lane
    /// (ns), measured inside the worker around the simulation only — no
    /// queueing time. Lives on the cell, not in [`SimStats`], so
    /// simulator outputs stay byte-comparable across runs.
    pub wall_ns: u64,
}

/// A rows x columns result table for one figure.
#[derive(Debug, Clone, Default)]
pub struct FigureTable {
    /// All cells, sorted by (row, col).
    pub cells: Vec<Cell>,
    /// Lanes the sweep ran on.
    pub threads: usize,
    /// End-to-end wall-clock of the whole sweep (ns), as opposed to the
    /// summed per-cell CPU time in [`total_wall_ns`](Self::total_wall_ns).
    pub elapsed_ns: u64,
}

impl FigureTable {
    /// The efficiency value at (row, col), if present.
    pub fn efficiency(&self, row: u64, col: &str, rate: f64) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.row == row && c.col == col)
            .map(|c| c.stats.efficiency(rate))
    }

    /// Distinct row keys, ascending.
    pub fn rows(&self) -> Vec<u64> {
        let mut rows: Vec<u64> = self.cells.iter().map(|c| c.row).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Distinct column labels, in first-seen order.
    pub fn cols(&self) -> Vec<String> {
        let mut cols = Vec::new();
        for c in &self.cells {
            if !cols.iter().any(|x| x == &c.col) {
                cols.push(c.col.clone());
            }
        }
        cols
    }

    /// Total per-cell CPU time across all cells (ns) — sweep cost at a
    /// glance, independent of how many lanes it was spread over.
    pub fn total_wall_ns(&self) -> u64 {
        self.cells.iter().map(|c| c.wall_ns).sum()
    }

    /// Renders per-cell wall-clock in milliseconds, same layout as
    /// [`render`](Self::render) — the criterion-free view of where a
    /// sweep's time goes (e.g. which paradigm/row dominates a figure run).
    ///
    /// The footer separates the summed per-cell CPU time from the
    /// end-to-end wall-clock: their ratio is the sweep's parallel
    /// speedup on the recorded lane count.
    pub fn render_wall(&self, row_header: &str) -> String {
        let cols = self.cols();
        let mut out = String::new();
        out.push_str(&format!("{row_header:>10}"));
        for c in &cols {
            out.push_str(&format!(" {c:>14}"));
        }
        out.push('\n');
        for row in self.rows() {
            out.push_str(&format!("{row:>10}"));
            for c in &cols {
                let cell = self.cells.iter().find(|x| x.row == row && &x.col == c);
                match cell {
                    Some(x) => {
                        out.push_str(&format!(" {:>12.2}ms", x.wall_ns as f64 / 1e6));
                    }
                    None => out.push_str(&format!(" {:>14}", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{:>10} total-cpu {:.2}ms, wall {:.2}ms, {} thread{}\n",
            "",
            self.total_wall_ns() as f64 / 1e6,
            self.elapsed_ns as f64 / 1e6,
            self.threads,
            if self.threads == 1 { "" } else { "s" }
        ));
        out
    }

    /// Renders the table with efficiencies in percent.
    pub fn render(&self, row_header: &str, rate: f64) -> String {
        let cols = self.cols();
        let mut out = String::new();
        out.push_str(&format!("{row_header:>10}"));
        for c in &cols {
            out.push_str(&format!(" {c:>14}"));
        }
        out.push('\n');
        for row in self.rows() {
            out.push_str(&format!("{row:>10}"));
            for c in &cols {
                match self.efficiency(row, c, rate) {
                    Some(e) => out.push_str(&format!(" {:>13.1}%", e * 100.0)),
                    None => out.push_str(&format!(" {:>14}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Runs the grid on `threads` lanes. The table is
/// byte-identical at any lane count: cells are timed inside their
/// worker, returned in job order, and finally sorted by `(row, col)`.
pub fn run_grid_threads(
    jobs: Vec<(u64, Workload, Paradigm)>,
    params: &SimParams,
    threads: usize,
) -> FigureTable {
    let threads = threads.max(1);
    let t0 = std::time::Instant::now();
    let mut cells = run_cells(threads, jobs, |_, (row, workload, paradigm)| {
        let p = params.clone().with_ports(workload.ports);
        let t0 = std::time::Instant::now();
        let stats = paradigm.run(&workload, &p);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        Cell {
            row,
            col: paradigm.label(),
            stats,
            wall_ns,
        }
    });
    cells.sort_by(|a, b| (a.row, &a.col).cmp(&(b.row, &b.col)));
    FigureTable {
        cells,
        threads,
        elapsed_ns: t0.elapsed().as_nanos() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_sim::PredictorKind;
    use pms_workloads::scatter;

    fn grid_jobs() -> Vec<(u64, Workload, Paradigm)> {
        [8u64, 64]
            .iter()
            .flat_map(|&b| {
                [
                    Paradigm::Wormhole,
                    Paradigm::DynamicTdm(PredictorKind::Drop),
                ]
                .into_iter()
                .map(move |p| (b, scatter(8, b as u32), p))
            })
            .collect()
    }

    #[test]
    fn grid_runs_all_cells_in_parallel() {
        let table = run_grid_threads(grid_jobs(), &SimParams::default().with_ports(8), 2);
        assert_eq!(table.cells.len(), 4);
        assert_eq!(table.rows(), vec![8, 64]);
        assert_eq!(table.cols().len(), 2);
        assert!(table.efficiency(64, "wormhole", 0.8).unwrap() > 0.0);
        let rendered = table.render("bytes", 0.8);
        assert!(rendered.contains("wormhole"));
        assert!(rendered.contains('%'));
        let wall = table.render_wall("bytes");
        assert!(wall.contains("ms"), "{wall}");
        assert!(wall.contains("total"), "{wall}");
        assert!(wall.contains("thread"), "{wall}");
        assert!(table.total_wall_ns() > 0);
        assert!(table.elapsed_ns > 0);
        assert!(table.threads >= 1);
    }

    #[test]
    fn grid_stats_identical_across_thread_counts() {
        let params = SimParams::default().with_ports(8);
        let base = run_grid_threads(grid_jobs(), &params, 1);
        for threads in [2, 4] {
            let t = run_grid_threads(grid_jobs(), &params, threads);
            assert_eq!(t.threads, threads);
            assert_eq!(t.cells.len(), base.cells.len());
            for (a, b) in base.cells.iter().zip(&t.cells) {
                assert_eq!(a.row, b.row);
                assert_eq!(a.col, b.col);
                assert_eq!(
                    format!("{:?}", a.stats),
                    format!("{:?}", b.stats),
                    "stats diverged at {} threads",
                    threads
                );
            }
        }
    }
}
