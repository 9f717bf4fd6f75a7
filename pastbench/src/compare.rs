//! Folding repeated runs into medians and quartiles, and `--compare`: the
//! verdict on two `result.json` files.
//!
//! Between two results of one seed and size, every modelled metric,
//! end-to-end or per-layer, must be *equal* (the simulation is
//! deterministic; a difference is a change of behaviour that has to be
//! declared), and a host metric may be worse by at most its bound. Where
//! the runs' noise gauge (`harness.segment_cv`, and the run-to-run spread
//! of repeated runs) exceeds the bound or is missing, a host metric is
//! reported `unresolved`, not `ok`.

use crate::clock::{median_f64, quartiles};
use crate::json::{self, Value};
use crate::metrics::{self, Better, Kind, END_TO_END, PER_LAYER};
use std::path::Path;

fn metric_value(run: &Value, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Folds the result objects of repeated runs of one workload into one:
/// per metric the median, and with two runs or more the quartiles.
pub fn merge_runs(runs: &[Value]) -> Value {
    let Some(first) = runs.first() else {
        return Value::Null;
    };
    let all = |key: &str| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| r.get(key).and_then(Value::as_f64))
            .collect()
    };
    let metrics = first
        .get("metrics")
        .map_or(&[][..], Value::as_obj)
        .iter()
        .map(|(name, m)| {
            let values: Vec<f64> = runs.iter().filter_map(|r| metric_value(r, name)).collect();
            let mut fields = vec![
                ("value".to_string(), Value::Num(median_f64(&values))),
                (
                    "unit".to_string(),
                    m.get("unit").cloned().unwrap_or(Value::Null),
                ),
            ];
            if let Some((q1, q3)) = quartiles(&values) {
                fields.push(("q1".into(), Value::Num(q1)));
                fields.push(("q3".into(), Value::Num(q3)));
            }
            (name.clone(), Value::Obj(fields))
        })
        .collect();
    Value::obj([
        (
            "correct",
            Value::Bool(
                runs.iter()
                    .all(|r| r.get("correct").and_then(Value::as_bool) == Some(true)),
            ),
        ),
        ("attempted", Value::Num(median_f64(&all("attempted")))),
        (
            "failed",
            Value::Num(all("failed").into_iter().fold(0.0, f64::max)),
        ),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// Prints a merged workload: one metric per line, by name, with its unit.
pub fn print_merged(merged: &Value) {
    for (name, m) in merged.get("metrics").map_or(&[][..], Value::as_obj) {
        let f = |k: &str| m.get(k).and_then(Value::as_f64);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        let spread = match (f("q1"), f("q3")) {
            (Some(q1), Some(q3)) => format!("  [{q1:.4} .. {q3:.4}]"),
            _ => String::new(),
        };
        println!(
            "  {name:<34} {:>16.4} {unit}{spread}",
            f("value").unwrap_or(0.0)
        );
    }
}

/// The verdict on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// A modelled metric differs between two runs of the same operations.
    Changed,
    /// A metric is worse by more than its bound.
    Regression,
    /// The runs are too noisy to tell, or carry no noise gauge.
    Unresolved,
}

/// Judges `after` against `before` for the metric `def`. `exact` says the
/// two results ran the same operations, so modelled metrics must agree to
/// the last digit; `noise` is the runs' noise gauge ([`noise`]), `None`
/// when they carry none.
pub fn judge(
    def: &metrics::Def,
    before: f64,
    after: f64,
    exact: bool,
    noise: Option<f64>,
) -> Verdict {
    if def.kind == Kind::Model && exact {
        return if before == after {
            Verdict::Ok
        } else {
            Verdict::Changed
        };
    }
    let worse = match def.better {
        Better::Lower => after - before,
        Better::Higher => before - after,
    };
    if worse > def.bound * before.abs() {
        Verdict::Regression
    } else if def.kind == Kind::Host && noise.is_none_or(|n| n > def.bound) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The noise gauge of the metric `name` in one merged workload: the larger
/// of the run's `harness.segment_cv` (absent from a `--trace 0` result)
/// and, where runs were repeated, the metric's quartile distance ÷ median.
fn noise(workload: &Value, name: &str) -> Option<f64> {
    let m = workload.get("metrics")?.get(name)?;
    let f = |k: &str| m.get(k).and_then(Value::as_f64);
    let spread = match (f("q1"), f("q3"), f("value")) {
        (Some(q1), Some(q3), Some(v)) if v != 0.0 => Some((q3 - q1) / v.abs()),
        _ => None,
    };
    let cv = metric_value(workload, "harness.segment_cv");
    match (spread, cv) {
        (Some(s), Some(c)) => Some(s.max(c)),
        (s, c) => s.or(c),
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(Value::as_str) != Some("pastbench/v1") {
        return Err(format!("{} is not a pastbench result", path.display()));
    }
    Ok(doc)
}

/// `--compare A B`: prints a verdict per workload for every end-to-end
/// metric and, when both results ran the same operations, for every
/// modelled per-layer metric; lists the other per-layer metrics that moved
/// by more than a tenth; and answers whether B is free of regressions,
/// undeclared changes and unresolved metrics.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (da, db) = (load(a)?, load(b)?);
    let same_inputs = ["seed", "seconds", "smoke"]
        .iter()
        .all(|k| da.get(k) == db.get(k));
    let mut clean = true;
    for (name, wa) in da.get("workloads").map_or(&[][..], Value::as_obj) {
        let Some(wb) = db.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name}: missing from {}", b.display());
            clean = false;
            continue;
        };
        // The operations of a run are a function of the seed and the
        // size: equal inputs and equal counts are the same operations.
        let exact = same_inputs && wa.get("attempted") == wb.get("attempted");
        println!(
            "{name}  ({})",
            if exact {
                "same operations: modelled metrics must be equal"
            } else {
                "different operations: end-to-end metrics judged by their bounds"
            }
        );
        if wb.get("correct").and_then(Value::as_bool) != Some(true) {
            println!("  output checks failed in {}", b.display());
            clean = false;
        }
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let (Some(va), Some(vb)) = (metric_value(wa, def.name), metric_value(wb, def.name))
            else {
                continue;
            };
            let change = (vb - va) / va.abs().max(f64::MIN_POSITIVE) * 100.0;
            let judged = def.bound > 0.0 || (def.kind == Kind::Model && exact);
            if judged {
                let noise = match (noise(wa, def.name), noise(wb, def.name)) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    _ => None,
                };
                let verdict = judge(def, va, vb, exact, noise);
                clean &= verdict == Verdict::Ok;
                // Of the per-layer metrics only the offenders are printed.
                if def.bound > 0.0 || verdict != Verdict::Ok {
                    println!(
                        "  {:<34} {va:>14.4} -> {vb:>14.4} {:<6} {change:+7.2}%  {verdict:?}",
                        def.name, def.unit,
                    );
                }
            } else if change.abs() > 10.0 {
                println!(
                    "    {:<34} {va:>14.4} -> {vb:>14.4}  (not judged)",
                    def.name
                );
            }
        }
    }
    println!(
        "{}",
        if clean {
            "no regression"
        } else {
            "REGRESSION, change or unresolved metric (see above)"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(values: &[(&str, f64)]) -> Value {
        Value::obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Num(10.0)),
            ("failed", Value::Num(0.0)),
            (
                "metrics",
                Value::obj(values.iter().map(|(n, v)| {
                    (
                        *n,
                        Value::obj([("value", Value::Num(*v)), ("unit", Value::Str("x".into()))]),
                    )
                })),
            ),
        ])
    }

    #[test]
    fn merge_takes_medians_and_quartiles() {
        let runs: Vec<Value> = (1..=10)
            .map(|i| run_with(&[("ops_per_s", f64::from(i))]))
            .collect();
        let m = merge_runs(&runs);
        let ops = m
            .get("metrics")
            .and_then(|x| x.get("ops_per_s"))
            .expect("ops");
        assert_eq!(ops.get("value").and_then(Value::as_f64), Some(5.5));
        assert_eq!(ops.get("q1").and_then(Value::as_f64), Some(2.75));
        assert_eq!(ops.get("q3").and_then(Value::as_f64), Some(8.25));
        assert_eq!(m.get("correct").and_then(Value::as_bool), Some(true));
        // A single run has no quartiles.
        let one = merge_runs(&runs[..1]);
        let ops = one
            .get("metrics")
            .and_then(|x| x.get("ops_per_s"))
            .expect("ops");
        assert!(ops.get("q1").is_none());
    }

    #[test]
    fn verdicts() {
        let host = metrics::find("ops_per_s").expect("defined");
        let model = metrics::find("msgs_per_op").expect("defined");
        assert_eq!(host.better, Better::Higher);
        let b = host.bound;
        let quiet = Some(0.0);
        assert_eq!(
            judge(host, 100.0, 100.0 * (1.0 - b / 2.0), true, quiet),
            Verdict::Ok
        );
        assert_eq!(
            judge(host, 100.0, 100.0 * (1.0 - 2.0 * b), true, quiet),
            Verdict::Regression
        );
        // Better by any amount is never a regression.
        assert_eq!(judge(host, 100.0, 300.0, true, quiet), Verdict::Ok);
        // A noisy pair of runs cannot vouch for "unchanged", and neither
        // can a pair without a noise gauge.
        assert_eq!(
            judge(host, 100.0, 100.0, true, Some(2.0 * b)),
            Verdict::Unresolved
        );
        assert_eq!(judge(host, 100.0, 100.0, true, None), Verdict::Unresolved);
        // Modelled metrics: exact on the same operations, bounded otherwise.
        assert_eq!(judge(model, 4.0, 4.0, true, None), Verdict::Ok);
        assert_eq!(judge(model, 4.0, 4.000_001, true, quiet), Verdict::Changed);
        assert_eq!(judge(model, 4.0, 4.000_001, false, quiet), Verdict::Ok);
        assert_eq!(judge(model, 4.0, 8.0, false, quiet), Verdict::Regression);
        // A modelled per-layer metric has no bound, only equality.
        let layer = metrics::find("core.cache_hit_ratio").expect("defined");
        assert_eq!(judge(layer, 0.5, 0.5, true, None), Verdict::Ok);
        assert_eq!(judge(layer, 0.5, 0.6, true, None), Verdict::Changed);
    }

    #[test]
    fn noise_is_the_larger_of_segment_cv_and_run_to_run_spread() {
        let one = merge_runs(&[run_with(&[("ops_per_s", 10.0)])]);
        assert_eq!(noise(&one, "ops_per_s"), None);
        let one = merge_runs(&[run_with(&[
            ("ops_per_s", 10.0),
            ("harness.segment_cv", 0.04),
        ])]);
        assert_eq!(noise(&one, "ops_per_s"), Some(0.04));
        let runs: Vec<Value> = (1..=10)
            .map(|i| run_with(&[("ops_per_s", f64::from(i)), ("harness.segment_cv", 0.04)]))
            .collect();
        // Quartiles 2.75 and 8.25 around a median of 5.5.
        assert_eq!(noise(&merge_runs(&runs), "ops_per_s"), Some(1.0));
    }
}
