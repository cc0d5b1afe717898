//! Sweep output does not depend on `--threads`.
//!
//! A single simulation is sequential; sweeps fan their independent cells
//! over threads and reassemble them in job order (DESIGN.md §10). These
//! tests rerun the `--quick` grids of `fig4`, `fig5` and `schedopt`
//! through the library at 1 and 2 threads and require the documents the
//! binaries write under `results/` to match byte for byte.

use pms_bench::figures::{fig4, fig5, SchedoptGrid};
use pms_trace::Json;

#[test]
fn fig4_quick_grid_identical_at_1_and_2_threads() {
    let one = fig4(true, 1).to_json().render_pretty();
    assert_eq!(one, fig4(true, 2).to_json().render_pretty());
}

#[test]
fn fig5_quick_grid_identical_at_1_and_2_threads() {
    let one = fig5(true, 1).to_json().render_pretty();
    assert_eq!(one, fig5(true, 2).to_json().render_pretty());
}

#[test]
fn schedopt_quick_grid_identical_at_1_and_2_threads() {
    let grid = SchedoptGrid::new(true);
    let cells = |threads| {
        let cells = grid.run(threads).into_iter().map(|c| c.json).collect();
        Json::Array(cells).render_pretty()
    };
    assert_eq!(cells(1), cells(2));
}
