//! §4.2 summary — the headline speedup numbers.
//!
//! The paper reports: average IS-ASGD-over-ASGD speedups of 1.26–1.97×,
//! optimum speedups of 1.13–1.54×, and IS setup overhead of 1.1–7.7%.
//! This command aggregates the Figure-4 traces into the same statistics.

use crate::common::Ctx;
use isasgd_metrics::speedup::SpeedupSummary;
use isasgd_metrics::table::{fmt_num, TextTable};
use isasgd_metrics::{traces_from_json, Trace};

/// Runs the summary aggregation.
pub fn run(ctx: &mut Ctx) {
    println!("\n=== §4.2 summary: IS-ASGD speedup statistics ===\n");
    let path = ctx.settings.out_dir.join("fig4_traces.json");
    let traces: Vec<Trace> = match std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| traces_from_json(&text).ok())
    {
        Some(t) => t,
        None => {
            eprintln!("[summary] no fig4 traces found — running fig4 first");
            super::fig4::run(ctx)
        }
    };

    let mut table = TextTable::new(vec![
        "dataset",
        "threads",
        "avg_speedup",
        "optimum_speedup",
        "max",
        "min",
    ]);
    let mut avg_lo = f64::INFINITY;
    let mut avg_hi = f64::NEG_INFINITY;
    let mut opt_lo = f64::INFINITY;
    let mut opt_hi = f64::NEG_INFINITY;
    let datasets: std::collections::BTreeSet<String> =
        traces.iter().map(|t| t.dataset.clone()).collect();
    for ds in &datasets {
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
            if let Some(s) = SpeedupSummary::compute(asgd, is_asgd, 12) {
                avg_lo = avg_lo.min(s.average);
                avg_hi = avg_hi.max(s.average);
                if let Some(o) = s.at_optimum {
                    opt_lo = opt_lo.min(o);
                    opt_hi = opt_hi.max(o);
                }
                table.row(vec![
                    ds.clone(),
                    k.to_string(),
                    fmt_num(s.average),
                    s.at_optimum.map_or("-".into(), fmt_num),
                    fmt_num(s.max),
                    fmt_num(s.min),
                ]);
            }
        }
    }
    let rendered = table.render();
    println!("{rendered}");
    if avg_lo.is_finite() {
        print!("measured: average speedups {avg_lo:.2}–{avg_hi:.2}x");
        if opt_lo.is_finite() && opt_hi.is_finite() {
            println!(", optimum speedups {opt_lo:.2}–{opt_hi:.2}x");
        } else {
            println!(" (optimum unreachable in at least one run)");
        }
    }
    println!("paper §4.2: average 1.26–1.97x, optimum 1.13–1.54x\n");
    ctx.write("summary.txt", &rendered);
    ctx.write("summary.csv", &table.to_csv());
}
