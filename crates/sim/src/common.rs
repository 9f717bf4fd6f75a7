//! Shared builders for the experiment suite.

use past_core::{BuildMode, PastConfig, PastNetwork};
use past_crypto::rng::Rng;
use past_netsim::Sphere;
use past_pastry::{random_ids, static_build, Config, Id, NullApp, PastrySim};

/// Generates `n` distinct node ids from `seed`.
pub fn ids(n: usize, seed: u64) -> Vec<Id> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x4944);
    random_ids(n, &mut rng)
}

/// A routing-only Pastry network built statically on a sphere.
pub fn pastry_static(
    n: usize,
    seed: u64,
    cfg: Config,
    locality_samples: usize,
) -> PastrySim<NullApp, Sphere> {
    let ids = ids(n, seed);
    static_build(
        Sphere::new(n, seed),
        cfg,
        seed,
        &ids,
        |_| NullApp,
        locality_samples,
    )
}

/// A routing-only Pastry network built by sequential protocol joins.
pub fn pastry_joined(n: usize, seed: u64, cfg: Config) -> PastrySim<NullApp, Sphere> {
    let ids = ids(n, seed);
    let mut sim = PastrySim::new(Sphere::new(n, seed), cfg, seed);
    sim.build_by_joins(&ids, |_| NullApp, 16);
    sim
}

/// A full PAST network on a sphere with uniform capacities and quotas.
pub fn past_network(
    n: usize,
    seed: u64,
    pastry_cfg: Config,
    past_cfg: PastConfig,
    capacity: u64,
    quota: u64,
    mode: BuildMode,
) -> PastNetwork<Sphere> {
    let ids = ids(n, seed);
    PastNetwork::build(
        Sphere::new(n, seed),
        pastry_cfg,
        past_cfg,
        seed,
        &ids,
        &vec![capacity; n],
        &vec![quota; n],
        mode,
    )
}

/// A full PAST network with per-node capacities.
pub fn past_network_caps(
    n: usize,
    seed: u64,
    pastry_cfg: Config,
    past_cfg: PastConfig,
    capacities: &[u64],
    quota: u64,
    mode: BuildMode,
) -> PastNetwork<Sphere> {
    let ids = ids(n, seed);
    PastNetwork::build(
        Sphere::new(n, seed),
        pastry_cfg,
        past_cfg,
        seed,
        &ids,
        capacities,
        &vec![quota; n],
        mode,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_and_deterministic() {
        let a = ids(100, 7);
        let b = ids(100, 7);
        assert_eq!(a, b);
        let set: std::collections::BTreeSet<u128> = a.iter().map(|i| i.0).collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn builders_produce_working_networks() {
        let mut s = pastry_static(200, 1, Config::default(), 2);
        s.route(0, Id(42), ());
        assert_eq!(s.drain_deliveries().len(), 1);
    }
}
