//! Tests that drive the shrunk (`--smoke`) workloads end to end.

use super::*;
use crate::tally::Workload;

fn options(workload: &str, seed: u64) -> Options {
    let mut o = Options::parse(
        ["--workload", workload, "--smoke"]
            .into_iter()
            .map(String::from),
    )
    .expect("valid options");
    o.seed = seed;
    o
}

fn past_specs() -> Vec<PastSpec> {
    vec![
        PastSpec::signed_archive().smoke(),
        PastSpec::zipf_read().smoke(),
        PastSpec::fill_churn().smoke(),
        PastSpec::lossy_churn().smoke(),
    ]
}

#[test]
fn options_reject_nonsense() {
    let parse = |args: &[&str]| Options::parse(args.iter().map(|s| s.to_string()));
    assert!(parse(&["--workload", "nope"]).is_err());
    assert!(parse(&["--seconds", "0"]).is_err());
    assert!(parse(&["--trace", "2"]).is_err());
    assert!(parse(&["--repeat", "0"]).is_err());
    assert!(parse(&["--bogus"]).is_err());
    assert!(parse(&["--seed"]).is_err());
    let o = parse(&[
        "--workload",
        "zipf_read",
        "--seed",
        "7",
        "--seconds",
        "3",
        "--trace",
        "1",
    ])
    .expect("the driver's arguments");
    assert_eq!((o.seed, o.seconds(), o.trace), (7, 3.0, Some(true)));
}

#[test]
fn same_seed_same_operations_other_seed_other_operations() {
    for spec in past_specs() {
        let chunk = |seed| {
            let mut w = PastRun::setup(&spec, seed);
            w.next_chunk();
            w.chunk_ops().to_vec()
        };
        let a = chunk(11);
        assert!(!a.is_empty());
        assert_eq!(a, chunk(11), "{}: same seed, same operations", spec.name);
        assert_ne!(
            a,
            chunk(12),
            "{}: another seed, other operations",
            spec.name
        );
    }
    let spec = OverlaySpec::overlay_churn().smoke();
    let chunk = |seed| {
        let mut w = OverlayRun::setup(&spec, seed);
        w.next_chunk();
        w.chunk_routes().to_vec()
    };
    assert_eq!(chunk(11), chunk(11));
    assert_ne!(chunk(11), chunk(12));
}

#[test]
fn same_seed_same_modelled_metrics() {
    let spec = PastSpec::fill_churn().smoke();
    let model = |seed| bench::untraced::<PastRun>(&spec, seed, 6).1.model;
    let a = model(21);
    assert_eq!(a, model(21));
    assert_ne!(a, model(22));
}

/// The node coalesces a client's duplicate lookups and the harness matches
/// a batch's answers by client: no client twice in one batch.
#[test]
fn zipf_read_batches_have_distinct_clients() {
    let spec = PastSpec::zipf_read().smoke();
    let mut w = PastRun::setup(&spec, 5);
    w.next_chunk();
    let ops = w.chunk_ops();
    assert_eq!(ops.len(), spec.rounds_per_chunk * spec.lookups);
    for batch in ops.chunks(spec.in_flight) {
        let mut clients: Vec<u32> = batch
            .iter()
            .map(|op| match op {
                past::Op::Lookup { client, .. } => *client,
                other => panic!("zipf_read issues lookups only, not {other:?}"),
            })
            .collect();
        clients.sort_unstable();
        clients.dedup();
        assert_eq!(clients.len(), batch.len());
    }
}

/// Every workload, shrunk: both passes run, every output check holds
/// (among them: the traced and the untraced pass model the same system),
/// and the result names every metric `BENCHMARK.json` names.
#[test]
fn smoke_runs_are_correct_and_complete() {
    let mut workloads = Vec::new();
    for name in WORKLOADS {
        let o = options(name, 31);
        let report = measure_named(&o);
        assert_eq!(report.problems, Vec::<String>::new(), "{name}");
        assert_eq!(report.failed, 0, "{name}");
        assert!(report.attempted > 0, "{name}");
        for (metric, _) in report.end_to_end.iter().chain(&report.per_layer) {
            assert!(
                metrics::find(metric).is_some(),
                "{metric} is not in the tables"
            );
        }
        for (metric, v) in &report.end_to_end {
            assert!(
                *v > 0.0,
                "{name}: end-to-end metric {metric} must never be 0"
            );
        }
        let trace = report.trace_jsonl.as_deref().expect("the traced pass ran");
        for line in trace.lines().take(50) {
            json::parse(line).expect("a trace line is a JSON object");
        }
        let result = result_json(&report, None);
        workloads.push((name.to_string(), compare::merge_runs(&[result])));
    }
    let text = result_doc(&options("all", 31), workloads).to_json();
    past_trace::json::validate(&text).expect("result.json is valid JSON");
    let doc = json::parse(&text).expect("and parses back");
    let listed = json::parse(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    for name in WORKLOADS {
        let metrics = doc
            .get("workloads")
            .and_then(|w| w.get(name))
            .and_then(|w| w.get("metrics"))
            .expect("metrics");
        for key in ["end_to_end", "per_layer"] {
            for m in listed.get(key).expect(key).as_arr() {
                let metric = m.get("name").and_then(Value::as_str).expect("name");
                assert!(metrics.get(metric).is_some(), "{name} lacks {metric}");
            }
        }
    }
}

/// With `--trace 0` the result holds exactly the end-to-end metrics, with
/// `--trace 1` exactly the per-layer ones.
#[test]
fn trace_flag_selects_the_metric_set() {
    for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
        let mut o = options("zipf_read", 41);
        o.trace = Some(trace);
        let result = result_json(&measure_named(&o), o.trace);
        let keys: Vec<&str> = result.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        let names: Vec<&str> = result
            .get("metrics")
            .expect("metrics")
            .as_obj()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let expected: Vec<&str> = table.iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
    }
}
