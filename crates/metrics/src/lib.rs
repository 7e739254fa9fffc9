//! Convergence traces and the derived statistics behind the paper's
//! Figures 3–5 and the §4.2 speedup summary.
//!
//! * [`Trace`] — one algorithm run: a series of per-epoch
//!   (epoch, wall-clock, objective, RMSE, error-rate) points.
//! * [`trace::best_error_curve`] — the monotone "error rate is updated
//!   once a better result is obtained" transformation the paper applies.
//! * [`interpolate::time_to_error`] — linearly interpolated wall-clock (or
//!   epoch) cost of reaching a target error, the primitive behind the
//!   Fig. 5 speedup slices and the Fig. 4 optimum markers.
//! * [`traces_to_json`] / [`traces_from_json`] — the JSON trace caches
//!   the experiment binaries write and reuse.
//! * [`speedup`] — speedup curves/summaries of one trace over another.
//! * [`table`] — fixed-width text tables for the experiment binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod interpolate;
pub mod speedup;
pub mod table;
pub mod trace;

pub use interpolate::{time_to_error, time_to_objective};
pub use speedup::{speedup_curve, SpeedupSummary};
pub use table::TextTable;
pub use trace::{traces_from_json, traces_to_json, Trace, TracePoint};
