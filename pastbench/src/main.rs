//! `pastbench` — five PAST workloads, the end-to-end metrics a user of the
//! system sees, and a per-layer ledger, behind one command.
//!
//! ```text
//! pastbench                                   every workload, both passes
//! pastbench --workload W --seed N --seconds S --trace 0|1     one pass
//! pastbench --smoke | --repeat N
//! pastbench --compare A.json B.json
//! ```
//!
//! See `README.md` beside this package for what is measured and why.

mod bench;
mod clock;
mod compare;
mod json;
mod layers;
mod metrics;
mod overlay;
mod past;
mod spans;
mod tally;

use bench::{Bench, Report};
use json::Value;
use metrics::{Def, END_TO_END, PER_LAYER};
use overlay::{OverlayRun, OverlaySpec};
use past::{PastRun, PastSpec};
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use tally::drive;

/// The workloads, in reporting order.
pub const WORKLOADS: [&str; 5] = [
    "signed_archive",
    "zipf_read",
    "fill_churn",
    "overlay_churn",
    "lossy_churn",
];

const USAGE: &str = "usage: pastbench [--workload NAME|all] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--repeat N] | --compare A.json B.json";

/// Where `result.json` and `trace_<workload>.jsonl` are written.
const OUT_DIR: &str = "target/pastbench";

/// Parsed command line.
#[derive(Clone, Debug)]
struct Options {
    workload: String,
    seed: u64,
    /// What a timed section is sized for: its chunk count is this times
    /// the workload's chunks per second. `None` picks 10 s, or 0.3 s with
    /// `--smoke`.
    seconds: Option<f64>,
    /// `Some(false)`: untraced pass only; `Some(true)`: traced pass only;
    /// `None`: both.
    trace: Option<bool>,
    smoke: bool,
    repeat: usize,
    compare: Option<(PathBuf, PathBuf)>,
}

impl Options {
    fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut o = Options {
            workload: "all".into(),
            seed: 2001,
            seconds: None,
            trace: None,
            smoke: false,
            repeat: 1,
            compare: None,
        };
        let mut args = args;
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => o.workload = value()?,
                "--seed" => o.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                    if !(s > 0.0 && s <= 3_600.0) {
                        return Err("--seconds must be in (0, 3600]".into());
                    }
                    o.seconds = Some(s);
                }
                "--trace" => {
                    o.trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                "--smoke" => o.smoke = true,
                "--repeat" => {
                    o.repeat = value()?.parse().map_err(|_| "--repeat needs an integer")?;
                    if o.repeat == 0 {
                        return Err("--repeat must be at least 1".into());
                    }
                }
                "--compare" => o.compare = Some((value()?.into(), value()?.into())),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if o.workload != "all" && !WORKLOADS.contains(&o.workload.as_str()) {
            return Err(format!(
                "unknown workload {}; one of {WORKLOADS:?} or all",
                o.workload
            ));
        }
        Ok(o)
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 0.3 } else { 10.0 })
    }
}

/// Measures one workload in this process.
fn measure<W: Bench>(spec: &W::Spec, o: &Options) -> Report {
    let chunks = W::chunks(spec, o.seconds());
    match o.trace {
        Some(false) => bench::untraced::<W>(spec, o.seed, chunks).0,
        Some(true) => {
            // Half the chunks untraced as the reference, then the same
            // chunks traced.
            let chunks = chunks.div_ceil(2);
            let mut w = W::build(spec, o.seed);
            let reference = drive(&mut w, chunks, &mut Spans::new(false));
            drop(w);
            bench::traced::<W>(spec, o.seed, chunks, &reference)
        }
        None => {
            let (mut report, timed) = bench::untraced::<W>(spec, o.seed, chunks);
            let t = bench::traced::<W>(spec, o.seed, chunks, &timed);
            report.problems.extend(t.problems);
            report.per_layer = t.per_layer;
            report.trace_jsonl = t.trace_jsonl;
            report
        }
    }
}

fn measure_named(o: &Options) -> Report {
    let past = |spec: PastSpec| {
        let spec = if o.smoke { spec.smoke() } else { spec };
        measure::<PastRun>(&spec, o)
    };
    match o.workload.as_str() {
        "signed_archive" => past(PastSpec::signed_archive()),
        "zipf_read" => past(PastSpec::zipf_read()),
        "fill_churn" => past(PastSpec::fill_churn()),
        "lossy_churn" => past(PastSpec::lossy_churn()),
        _ => {
            let spec = OverlaySpec::overlay_churn();
            let spec = if o.smoke { spec.smoke() } else { spec };
            measure::<OverlayRun>(&spec, o)
        }
    }
}

/// `{name: {"value": v, "unit": u}}` for every metric of `table`, in table
/// order; a metric the workload has no value for reads 0.
fn metrics_json(table: &[Def], values: &[(&'static str, f64)]) -> Vec<(String, Value)> {
    table
        .iter()
        .map(|d| {
            let v = values
                .iter()
                .find(|(n, _)| *n == d.name)
                .map_or(0.0, |(_, v)| *v);
            let m = Value::obj([
                ("value", Value::Num(v)),
                ("unit", Value::Str(d.unit.into())),
            ]);
            (d.name.to_string(), m)
        })
        .collect()
}

/// The result object a run ends with: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
fn result_json(report: &Report, trace: Option<bool>) -> Value {
    let mut metrics = Vec::new();
    if trace != Some(true) {
        metrics.extend(metrics_json(END_TO_END, &report.end_to_end));
    }
    if trace != Some(false) {
        metrics.extend(metrics_json(PER_LAYER, &report.per_layer));
    }
    Value::obj([
        ("correct", Value::Bool(report.problems.is_empty())),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

fn print_metrics(result: &Value) {
    for (name, m) in result.get("metrics").map_or(&[][..], Value::as_obj) {
        let v = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("  {name:<34} {v:>16.4} {unit}");
    }
}

fn write_file(name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(name);
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// One workload in this process; the result object is the last line.
fn run_leaf(o: &Options) -> Result<bool, String> {
    let report = measure_named(o);
    for p in &report.problems {
        eprintln!("pastbench: {}: check failed: {p}", o.workload);
    }
    if let Some(trace) = &report.trace_jsonl {
        write_file(&format!("trace_{}.jsonl", o.workload), trace)?;
    }
    let result = result_json(&report, o.trace);
    println!(
        "{} (seed {}, sized for {} s)",
        o.workload,
        o.seed,
        o.seconds()
    );
    for line in &report.timings {
        println!("  {line}");
    }
    print_metrics(&result);
    println!("{}", result.to_json());
    Ok(report.problems.is_empty())
}

/// Runs `workload` in a process of its own (peak memory is per process)
/// and returns the result object it printed last.
fn run_child(o: &Options, workload: &str) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating pastbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds().to_string()])
        .stdout(Stdio::piped());
    if o.smoke {
        cmd.arg("--smoke");
    }
    if let Some(t) = o.trace {
        cmd.args(["--trace", if t { "1" } else { "0" }]);
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    json::parse(last).map_err(|e| format!("{workload} printed no result ({e}); {}", out.status))
}

/// The `result.json` document: the run's inputs and, per workload, the
/// merged result objects.
fn result_doc(o: &Options, workloads: Vec<(String, Value)>) -> Value {
    Value::obj([
        ("schema", Value::Str("pastbench/v1".into())),
        ("seed", Value::Num(o.seed as f64)),
        ("seconds", Value::Num(o.seconds())),
        ("smoke", Value::Bool(o.smoke)),
        ("runs", Value::Num(o.repeat as f64)),
        ("workloads", Value::Obj(workloads)),
    ])
}

/// Every requested workload, each run `repeat` times in child processes;
/// prints the metrics (median and quartiles when repeated) and writes
/// `result.json`.
fn run_parent(o: &Options) -> Result<bool, String> {
    let names: Vec<&str> = if o.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![o.workload.as_str()]
    };
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in names {
        let mut runs = Vec::new();
        for _ in 0..o.repeat {
            runs.push(run_child(o, name)?);
        }
        let merged = compare::merge_runs(&runs);
        let correct = merged.get("correct").and_then(Value::as_bool) == Some(true);
        all_correct &= correct;
        println!(
            "{name} (seed {}, sized for {} s, {} run{}){}",
            o.seed,
            o.seconds(),
            o.repeat,
            if o.repeat == 1 {
                ""
            } else {
                "s: median [q1 .. q3]"
            },
            if correct { "" } else { "  ** CHECKS FAILED **" },
        );
        compare::print_merged(&merged);
        workloads.push((name.to_string(), merged));
    }
    let doc = result_doc(o, workloads);
    write_file("result.json", &format!("{}\n", doc.to_json()))?;
    println!("wrote {OUT_DIR}/result.json");
    Ok(all_correct)
}

fn main() -> ExitCode {
    let o = match Options::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pastbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &o.compare {
        compare::run(a, b)
    } else if o.workload != "all" && o.repeat == 1 {
        run_leaf(&o)
    } else {
        run_parent(&o)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pastbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
