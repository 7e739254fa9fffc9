//! Figure 5 — error-rate → absolute-speedup slices of IS-ASGD over ASGD
//! and over SGD, per concurrency level.
//!
//! Derived from the Figure-4 traces exactly as the paper derives Fig. 5
//! from Fig. 4: for each error level on the x-axis, the z-axis is the
//! ratio of (linearly interpolated) wall-clock times to first reach it.

use crate::common::{error_grid, Ctx};
use isasgd_metrics::speedup::speedup_curve;
use isasgd_metrics::table::{fmt_num, TextTable};
use isasgd_metrics::{traces_from_json, Trace};

/// Loads fig4 traces from disk, or reruns fig4 when absent.
fn fig4_traces(ctx: &mut Ctx) -> Vec<Trace> {
    let path = ctx.settings.out_dir.join("fig4_traces.json");
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(traces) = traces_from_json(&text) {
            eprintln!("[fig5] reusing {}", path.display());
            return traces;
        }
    }
    eprintln!("[fig5] no fig4 traces found — running fig4 first");
    super::fig4::run(ctx)
}

/// Runs the Figure-5 slice computation.
pub fn run(ctx: &mut Ctx) {
    println!("\n=== Figure 5: error-rate → speedup slices ===\n");
    let traces = fig4_traces(ctx);
    let mut table = TextTable::new(vec![
        "dataset",
        "threads",
        "target_err",
        "speedup_vs_ASGD",
        "speedup_vs_SGD",
    ]);
    let mut csv = String::from("dataset,threads,target_err,speedup_vs_asgd,speedup_vs_sgd\n");

    // Group traces by (dataset, concurrency).
    let datasets: std::collections::BTreeSet<String> =
        traces.iter().map(|t| t.dataset.clone()).collect();
    for ds in &datasets {
        let sgd = traces
            .iter()
            .find(|t| &t.dataset == ds && t.algorithm == "SGD");
        let concs: std::collections::BTreeSet<usize> = traces
            .iter()
            .filter(|t| &t.dataset == ds && t.algorithm == "IS-ASGD")
            .map(|t| t.concurrency)
            .collect();
        for &k in &concs {
            let asgd = traces
                .iter()
                .find(|t| &t.dataset == ds && t.algorithm == "ASGD" && t.concurrency == k);
            let is_asgd = traces
                .iter()
                .find(|t| &t.dataset == ds && t.algorithm == "IS-ASGD" && t.concurrency == k);
            let (Some(asgd), Some(is_asgd)) = (asgd, is_asgd) else {
                continue;
            };
            let best = asgd.best_error().unwrap_or(0.0);
            let first = asgd.points.first().map_or(1.0, |p| p.error_rate);
            let grid = error_grid(best, first.max(best + 1e-9), 8);
            let vs_asgd = speedup_curve(asgd, is_asgd, &grid);
            let vs_sgd = sgd.map(|s| speedup_curve(s, is_asgd, &grid));
            for (i, &(e, s_a)) in vs_asgd.iter().enumerate() {
                let s_s = vs_sgd.as_ref().and_then(|v| v[i].1);
                table.row(vec![
                    ds.clone(),
                    k.to_string(),
                    fmt_num(e),
                    s_a.map_or("-".into(), fmt_num),
                    s_s.map_or("-".into(), fmt_num),
                ]);
                csv.push_str(&format!(
                    "{},{},{},{},{}\n",
                    ds,
                    k,
                    e,
                    s_a.map_or(f64::NAN, |x| x),
                    s_s.map_or(f64::NAN, |x| x)
                ));
            }
        }
    }

    let rendered = table.render();
    println!("{rendered}");
    println!(
        "Expected shape (paper Fig. 5): speedups over ASGD are largest early in\n\
         the trajectory, dip mid-way, and (on the large low-ψ profiles) rise\n\
         again near the optimum; speedup over SGD scales with thread count.\n"
    );
    ctx.write("fig5.txt", &rendered);
    ctx.write("fig5.csv", &csv);
}
