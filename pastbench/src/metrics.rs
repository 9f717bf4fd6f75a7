//! The benchmark's metrics by name: unit, direction, regression bound.
//!
//! `BENCHMARK.json` at the repository root states the same tables for the
//! driver; a test keeps the two equal.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What a value is a property of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host time or memory: differs from run to run.
    Host,
    /// The modelled system: a function of the seed and the chunk count,
    /// equal between two runs of one seed or a declared semantic change.
    Model,
}

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only; 0 for per-layer metrics).
    pub bound: f64,
    pub kind: Kind,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    kind: Kind,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        kind,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
        kind,
    }
}

use Better::{Higher, Lower};
use Kind::{Host, Model};

/// What a user of the system sees; every workload reports every one, with
/// tracing off. On `overlay_churn` a lookup is a bare route to a key.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Lower, 0.25, Host),
    e2e("ops_per_s", "op/s", Higher, 0.25, Host),
    e2e("sim_msgs_per_s", "msg/s", Higher, 0.25, Host),
    e2e("rss_kb_per_node", "KiB", Lower, 0.25, Host),
    e2e("msgs_per_op", "msg", Lower, 0.2, Model),
    e2e("sim_lookup_ms_p50", "ms", Lower, 0.15, Model),
    e2e("sim_lookup_ms_p99", "ms", Lower, 0.15, Model),
];

/// Single layers, from the traced pass; every workload reports every one
/// (0 where a layer is not on the workload's path).
pub const PER_LAYER: &[Def] = &[
    // past-crypto
    layer("crypto.sign_ns", "ns", Lower, Host),
    layer("crypto.verify_ns", "ns", Lower, Host),
    layer("crypto.keygen_ns", "ns", Lower, Host),
    layer("crypto.sha256_ns_per_kib", "ns", Lower, Host),
    layer("crypto.signs_per_insert", "count", Lower, Model),
    layer("crypto.sign_share", "ratio", Lower, Host),
    layer("crypto.verify_share", "ratio", Lower, Host),
    layer("crypto.est_verifies_per_insert", "count", Lower, Host),
    layer("crypto.est_verifies_per_lookup", "count", Lower, Host),
    // past-wire and the codecs
    layer("wire.pastry_encoded_len_ns", "ns", Lower, Host),
    layer("wire.past_encoded_len_ns", "ns", Lower, Host),
    layer("wire.pastry_encode_ns", "ns", Lower, Host),
    layer("wire.pastry_decode_ns", "ns", Lower, Host),
    layer("wire.past_encode_ns", "ns", Lower, Host),
    layer("wire.past_decode_ns", "ns", Lower, Host),
    layer("wire.bytes_per_msg", "B", Lower, Model),
    layer("wire.bytes_per_op", "B", Lower, Model),
    layer("wire.encoded_len_share", "ratio", Lower, Host),
    // past-netsim
    layer("netsim.event_ns", "ns", Lower, Host),
    layer("netsim.wheel_push_pop_ns", "ns", Lower, Host),
    layer("netsim.arena_insert_take_ns", "ns", Lower, Host),
    layer("netsim.topology_delay_ns", "ns", Lower, Host),
    layer("netsim.queue_depth_max", "count", Lower, Model),
    layer("netsim.in_flight_max", "count", Lower, Model),
    layer("netsim.events_per_op", "count", Lower, Model),
    layer("netsim.step_events_per_op", "count", Lower, Model),
    layer("netsim.dropped", "count", Lower, Model),
    layer("netsim.duplicated", "count", Lower, Model),
    layer("netsim.failed_sends", "count", Lower, Model),
    layer("netsim.dispatch_share", "ratio", Lower, Host),
    // past-pastry
    layer("pastry.next_hop_ns", "ns", Lower, Host),
    layer("pastry.step_route_ns", "ns", Lower, Host),
    layer("pastry.step_heartbeat_ns", "ns", Lower, Host),
    layer("pastry.hops_mean", "count", Lower, Model),
    layer("pastry.hops_p99", "count", Lower, Model),
    layer("pastry.route_msgs_per_op", "msg", Lower, Model),
    layer("pastry.maint_msgs_per_node", "msg", Lower, Model),
    layer("pastry.leafset_insert_ns", "ns", Lower, Host),
    layer("pastry.table_insert_ns", "ns", Lower, Host),
    layer("pastry.join_us_p50", "us", Lower, Host),
    layer("pastry.stabilize_ms", "ms", Lower, Host),
    layer("pastry.repair_msgs", "count", Lower, Model),
    layer("pastry.suspicions", "count", Lower, Model),
    layer("pastry.misrouted", "count", Lower, Model),
    layer("pastry.static_build_s", "s", Lower, Host),
    layer("pastry.route_share", "ratio", Lower, Host),
    layer("pastry.maint_share", "ratio", Lower, Host),
    // past-core
    layer("core.store_insert_ns", "ns", Lower, Host),
    layer("core.store_remove_ns", "ns", Lower, Host),
    layer("core.cache_lookup_ns", "ns", Lower, Host),
    layer("core.cache_offer_ns", "ns", Lower, Host),
    layer("core.cache_evict_ns", "ns", Lower, Host),
    layer("core.cert_issue_ns", "ns", Lower, Host),
    layer("core.cert_verify_ns", "ns", Lower, Host),
    layer("core.card_issue_us", "us", Lower, Host),
    layer("core.replicas_stored", "count", Lower, Model),
    layer("core.replica_diversions", "count", Lower, Model),
    layer("core.file_diversions", "count", Lower, Model),
    layer("core.cache_hits", "count", Higher, Model),
    layer("core.cache_admissions", "count", Lower, Model),
    layer("core.cache_evictions", "count", Lower, Model),
    layer("core.cache_entries_p99", "count", Lower, Model),
    layer("core.cache_hit_ratio", "ratio", Higher, Model),
    layer("core.utilization", "ratio", Higher, Model),
    layer("core.reject_ratio", "ratio", Lower, Model),
    layer("core.retries", "count", Lower, Model),
    layer("core.storage_share", "ratio", Lower, Host),
    // past-trace
    layer("trace.overhead_ratio", "ratio", Lower, Host),
    layer("trace.series_bump_ns", "ns", Lower, Host),
    layer("trace.metrics_hook_ns", "ns", Lower, Host),
    // past-workload and the harness
    layer("workload.gen_ns_per_op", "ns", Lower, Host),
    layer("harness.lookup_us_p50", "us", Lower, Host),
    layer("harness.insert_us_p50", "us", Lower, Host),
    layer("harness.insert_us_p99", "us", Lower, Host),
    layer("harness.lookup_us_p99", "us", Lower, Host),
    layer("harness.reclaim_us_p50", "us", Lower, Host),
    layer("harness.sim_insert_ms_p50", "ms", Lower, Model),
    layer("harness.fail_ratio", "ratio", Lower, Model),
    layer("harness.segment_cv", "ratio", Lower, Host),
    layer("harness.self_share", "ratio", Lower, Host),
    layer("harness.unattributed_share", "ratio", Lower, Host),
    layer("harness.span_count", "count", Lower, Host),
];

/// The definition of `name`, end-to-end or per-layer.
#[cfg(test)]
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} is defined twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    /// `BENCHMARK.json` names the same metrics, units, directions and
    /// bounds, and the same workloads, as this program.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let check = |key: &str, table: &[Def], bounded: bool| {
            let listed = doc.get(key).expect(key).as_arr();
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (j, d) in listed.iter().zip(table) {
                let s = |k: &str| j.get(k).and_then(Value::as_str);
                assert_eq!(s("name"), Some(d.name));
                assert_eq!(s("unit"), Some(d.unit), "{}", d.name);
                assert_eq!(s("better"), Some(d.better.label()), "{}", d.name);
                let bound = j.get("bound").and_then(Value::as_f64);
                assert_eq!(bound, bounded.then_some(d.bound), "{}", d.name);
            }
        };
        check("end_to_end", END_TO_END, true);
        check("per_layer", PER_LAYER, false);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .expect("workloads")
            .as_arr()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
