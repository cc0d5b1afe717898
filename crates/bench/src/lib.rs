//! Experiment harness for regenerating every table and figure of the
//! paper's evaluation (§5).
//!
//! Binaries:
//!
//! * `table3` — the scheduler-latency table (structural timing model);
//! * `fig4` — efficiency vs message size for the four switching paradigms
//!   on Scatter, Random Mesh, Ordered Mesh, and Two-Phase;
//! * `fig5` — the hybrid preload/dynamic determinism sweep;
//! * `table_logic` — Tables 1 and 2 (the scheduling logic truth tables);
//! * `ablate` — ablations: coloring algorithms, predictor policies,
//!   priority rotation;
//! * `degradation` — graceful-degradation sweep: efficiency vs fault
//!   duty cycle under the `pms-faults` blackout plan.
//!
//! The library part holds the shared sweep driver so binaries stay thin.

#![forbid(unsafe_code)]

pub mod degradation;
pub mod figures;
pub mod naive;
pub mod reporting;
pub mod runner;
pub mod sweep;

pub use degradation::{
    blackout_plan, degradation_sweep, degradation_timeseries, degradation_timeseries_csv,
    render_degradation, DegradationRow, DegradationWindow,
};
pub use reporting::{finish, write_report_file, write_results, write_trace_file, TraceFlags};
pub use runner::run_cells;
pub use sweep::{run_grid_threads, Cell, FigureTable};
