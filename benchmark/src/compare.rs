//! `--compare A.json B.json`: per workload and end-to-end metric, both
//! medians and quartiles, how much worse B is than A against the metric's
//! bound, and `unresolved` where the spread is wider than the bound.
//!
//! Two result files of the same `--seed` ran the same sub-seeds in the same
//! order, so their samples pair up: the delta is then the median of the
//! per-pair deltas, which cancels the seed's own luck.

use std::path::Path;

use crate::json::{self, Value};
use crate::spec::{Better, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workloads::Workload;

/// Per-layer metrics that are a pure function of the seed: on the same code
/// they must repeat exactly. (So must `test_accuracy`, among the gated
/// ones.)
const DETERMINISTIC: [&str; 6] = [
    "fl.sim_time_to_target",
    "fl.final_loss",
    "fl.uplink_kb_per_round",
    "online.rounds_to_target",
    "online.k_mean",
    "online.k_final",
];

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The untraced or the traced run of `workload` in a result file.
fn find_run(results: &Value, workload: Workload, trace: bool) -> Option<&Value> {
    results.as_array().iter().find(|run| {
        run.get("workload").and_then(Value::as_str) == Some(workload.name())
            && run.get("trace").and_then(Value::as_f64) == Some(f64::from(u8::from(trace)))
    })
}

fn samples(run: &Value, metric: &str) -> Vec<f64> {
    run.get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("samples"))
        .map(|s| s.as_array().iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// How much worse `b` is than `a`, in percent of `a`; negative is better.
fn worse_pct(a: f64, b: f64, better: Better) -> f64 {
    let change = (b - a) / a * 100.0;
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Prints the comparison; false if any metric regressed beyond its bound or
/// a file could not be read.
pub fn run(a_path: &Path, b_path: &Path) -> bool {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for error in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{error}");
            }
            return false;
        }
    };
    println!(
        "{:<22} {:<20} {:<10} {:>34} {:>34} {:>9} {:>17} {:>7}  verdict",
        "workload",
        "metric",
        "unit",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "worse %",
        "[q1, q3]",
        "bound %"
    );
    let mut ok = true;
    for workload in Workload::ALL {
        let (Some(run_a), Some(run_b)) =
            (find_run(&a, workload, false), find_run(&b, workload, false))
        else {
            println!("{:<22} missing from one of the files", workload.name());
            ok = false;
            continue;
        };
        let paired = run_a.get("seed") == run_b.get("seed");
        for spec in &END_TO_END {
            let name = spec.metric.name;
            let (sa, sb) = (samples(run_a, name), samples(run_b, name));
            if sa.is_empty() || sb.is_empty() {
                println!(
                    "{:<22} {:<20} missing from one of the files",
                    workload.name(),
                    name
                );
                ok = false;
                continue;
            }
            let (ma, mb) = (median(&sa), median(&sb));
            let (qa, qb) = (quartiles(&sa), quartiles(&sb));
            let bound = spec.bound * 100.0;
            // Paired: the spread is that of the per-pair deltas. Unpaired:
            // the wider of the two files' own spreads.
            let (delta, spread, q, all_better) = if paired && sa.len() == sb.len() {
                let deltas: Vec<f64> = sa
                    .iter()
                    .zip(&sb)
                    .map(|(&x, &y)| worse_pct(x, y, spec.metric.better))
                    .collect();
                let q = quartiles(&deltas);
                (
                    median(&deltas),
                    q.1 - q.0,
                    q,
                    deltas.iter().all(|&d| d < 0.0),
                )
            } else {
                let rel = |q: (f64, f64), m: f64| (q.1 - q.0) / m * 100.0;
                let delta = worse_pct(ma, mb, spec.metric.better);
                let spread = rel(qa, ma).max(rel(qb, mb));
                (delta, spread, (delta, delta), false)
            };
            let mut verdict = if delta > bound {
                ok = false;
                "REGRESSION"
            } else if spread > bound && !all_better {
                "unresolved"
            } else {
                "ok"
            }
            .to_string();
            if name == "test_accuracy" && paired {
                verdict.push_str(if sa == sb { ", identical" } else { ", differs" });
            }
            println!(
                "{:<22} {:<20} {:<10} {:>34} {:>34} {:>+9.2} {:>17} {:>7.1}  {}",
                workload.name(),
                name,
                spec.metric.unit,
                format!("{ma:.4} [{:.4}, {:.4}]", qa.0, qa.1),
                format!("{mb:.4} [{:.4}, {:.4}]", qb.0, qb.1),
                delta,
                format!("[{:+.2}, {:+.2}]", q.0, q.1),
                bound,
                verdict
            );
        }
    }
    println!("\nseed-determined per-layer metrics (traced run):");
    for workload in Workload::ALL {
        let (Some(run_a), Some(run_b)) =
            (find_run(&a, workload, true), find_run(&b, workload, true))
        else {
            continue;
        };
        if run_a.get("seed") != run_b.get("seed") {
            println!("{:<22} different seeds, not comparable", workload.name());
            continue;
        }
        for name in DETERMINISTIC {
            let (sa, sb) = (samples(run_a, name), samples(run_b, name));
            println!(
                "{:<22} {:<24} {:>18} {:>18}  {}",
                workload.name(),
                name,
                sa.first().map_or("-".into(), f64::to_string),
                sb.first().map_or("-".into(), f64::to_string),
                if sa == sb { "identical" } else { "differs" }
            );
        }
    }
    ok
}
