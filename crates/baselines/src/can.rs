//! CAN baseline (Ratnasamy et al., SIGCOMM 2001).
//!
//! The PAST paper: "CAN routes messages in a d-dimensional space, where
//! each node maintains a routing table with O(d) entries and any node can
//! be reached in O(d·N^(1/d)) routing hops. Unlike Pastry, the routing
//! table does not grow with the network size, but the number of routing
//! hops grows faster than log N." This module implements CAN's zone
//! splitting and greedy torus routing on the shared simulator (E11).

// No wildcard arms: a new variant must be named wherever messages are
// matched, or it silently escapes the codec, kind ids and trace attribution.
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]

use past_netsim::{Addr, Engine, SimTime, Topology};
use past_pastry::Id;
use past_wire::{Input, Machine, StepIo};

/// A CAN key: a point in the d-dimensional unit torus.
pub type Point = Vec<f64>;

/// Maps a 128-bit id to a point in `[0,1)^d` (16 bits per coordinate).
pub fn id_to_point(id: &Id, d: usize) -> Point {
    assert!((1..=8).contains(&d), "1..=8 dimensions supported");
    (0..d)
        .map(|i| {
            let chunk = (id.0 >> (128 - 16 * (i + 1))) & 0xffff;
            chunk as f64 / 65536.0
        })
        .collect()
}

/// One-dimensional torus distance.
fn torus_1d(a: f64, b: f64) -> f64 {
    let d = (a - b).abs();
    d.min(1.0 - d)
}

/// A rectangular zone of the torus.
#[derive(Clone, Debug, PartialEq)]
pub struct Zone {
    /// Inclusive lower corner.
    pub lo: Point,
    /// Exclusive upper corner.
    pub hi: Point,
}

impl Zone {
    /// The full torus in `d` dimensions.
    fn full(d: usize) -> Zone {
        Zone {
            lo: vec![0.0; d],
            hi: vec![1.0; d],
        }
    }

    /// True if `p` lies within the zone.
    pub fn contains(&self, p: &[f64]) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(p)
            .all(|((lo, hi), x)| x >= lo && x < hi)
    }

    /// Torus distance from `p` to the nearest point of the zone.
    pub fn dist_to(&self, p: &[f64]) -> f64 {
        let mut acc = 0.0;
        for ((&x, &lo), &hi) in p.iter().zip(&self.lo).zip(&self.hi) {
            // Closest coordinate of the box to x on the circle.
            if x >= lo && x < hi {
                continue;
            }
            let d = torus_1d(x, lo).min(torus_1d(x, hi));
            acc += d * d;
        }
        acc.sqrt()
    }

    /// True if the zones abut in exactly one dimension and overlap in all
    /// others (torus adjacency).
    pub fn adjacent(&self, other: &Zone) -> bool {
        let d = self.lo.len();
        let mut abut = 0;
        for i in 0..d {
            let overlap = self.lo[i] < other.hi[i] && other.lo[i] < self.hi[i];
            let touch = (self.hi[i] - other.lo[i]).abs() < 1e-12
                || (other.hi[i] - self.lo[i]).abs() < 1e-12
                // Torus wrap: 0 and 1 touch.
                || ((self.hi[i] - 1.0).abs() < 1e-12 && other.lo[i].abs() < 1e-12)
                || ((other.hi[i] - 1.0).abs() < 1e-12 && self.lo[i].abs() < 1e-12);
            if overlap {
                continue;
            }
            if touch {
                abut += 1;
            } else {
                return false;
            }
        }
        abut == 1
    }
}

/// A CAN lookup in flight.
#[derive(Clone, Debug)]
pub struct CanLookup {
    /// The target point.
    pub target: Point,
    /// The originating node.
    pub origin: Addr,
    /// Hops so far.
    pub hops: u32,
    /// Accumulated path delay (µs).
    pub path_us: u64,
}

/// CAN wire messages; the codec and kind table are `crate::wire`.
#[derive(Clone, Debug)]
pub enum CanMsg {
    /// A greedy-routed lookup.
    Lookup(CanLookup),
}

/// A delivered CAN lookup.
#[derive(Clone, Debug)]
pub struct CanDelivery {
    /// The originating node.
    pub origin: Addr,
    /// The zone owner that received the lookup.
    pub delivered_at: Addr,
    /// Overlay hops.
    pub hops: u32,
    /// Total path delay (µs).
    pub path_us: u64,
    /// Completion time.
    pub at: SimTime,
}

/// One CAN node: its zone and neighbor set.
pub struct CanNode {
    /// The owned zone.
    pub zone: Zone,
    /// Adjacent zones and their owners.
    pub neighbors: Vec<(Zone, Addr)>,
}

impl Machine for CanNode {
    type Msg = CanMsg;
    type Out = CanDelivery;

    fn step(&mut self, input: Input<CanMsg>, io: &mut StepIo<'_, CanMsg, CanDelivery>) {
        let Input::Message {
            msg: CanMsg::Lookup(mut lk),
            ..
        } = input
        else {
            // The overlay is static and arms no timers; a lookup that
            // bounces off a dead node ends there.
            return;
        };
        // Greedy: forward to the neighbor whose zone is closest to the
        // target (ties broken by address for determinism).
        let next = if self.zone.contains(&lk.target) || lk.hops > 10_000 {
            None
        } else {
            self.neighbors
                .iter()
                .min_by(|(za, aa), (zb, ab)| {
                    // total_cmp: a total order even on NaN, so the winner
                    // never depends on iteration order (rule D4).
                    za.dist_to(&lk.target)
                        .total_cmp(&zb.dist_to(&lk.target))
                        .then(aa.cmp(ab))
                })
                .map(|(_, a)| *a)
        };
        match next {
            Some(next) => {
                lk.hops += 1;
                lk.path_us += io.delay_to(next);
                io.send(next, CanMsg::Lookup(lk));
            }
            // The zone owner, the end of the hop budget, or a
            // single-node network: deliver here.
            None => io.emit(CanDelivery {
                origin: lk.origin,
                delivered_at: io.me(),
                hops: lk.hops,
                path_us: lk.path_us,
                at: SimTime::from_micros(io.now_us()),
            }),
        }
    }
}

/// A CAN overlay bound to the simulator engine.
pub struct CanSim<T: Topology> {
    /// The underlying engine.
    pub engine: Engine<CanNode, T>,
    dims: usize,
}

impl<T: Topology> CanSim<T> {
    /// Builds a CAN by sequential random-point joins: node `i`'s join
    /// point is derived from `ids[i]`, and it splits the zone that
    /// contains it (longest-dimension split, as in the CAN paper).
    pub fn build(topo: T, seed: u64, ids: &[Id], dims: usize) -> CanSim<T> {
        let n = ids.len();
        assert!(n > 0);
        // Zones and adjacency maintained incrementally during splits.
        let mut zones: Vec<Zone> = vec![Zone::full(dims)];
        let mut neigh: Vec<Vec<usize>> = vec![vec![]];
        for (i, id) in ids.iter().enumerate().skip(1) {
            let p = id_to_point(id, dims);
            let owner = zones
                .iter()
                .position(|z| z.contains(&p))
                .expect("zones tile the torus");
            // Split the widest dimension of the owner's zone.
            let z = zones[owner].clone();
            let split_dim = (0..dims)
                .max_by(|&a, &b| (z.hi[a] - z.lo[a]).total_cmp(&(z.hi[b] - z.lo[b])))
                .expect("dims >= 1");
            let mid = (z.lo[split_dim] + z.hi[split_dim]) / 2.0;
            let mut lower = z.clone();
            lower.hi[split_dim] = mid;
            let mut upper = z.clone();
            upper.lo[split_dim] = mid;
            // The old owner keeps the half containing... CAN gives the
            // joiner the half with the join point; we follow that.
            let (keep, give) = if upper.contains(&p) {
                (lower, upper)
            } else {
                (upper, lower)
            };
            zones[owner] = keep;
            zones.push(give);
            neigh.push(Vec::new());
            let new_idx = i;
            // Re-link only the edges that the split could have changed:
            // owner↔old-neighbors, newcomer↔old-neighbors, owner↔newcomer.
            // Old-neighbor↔old-neighbor edges are untouched by the split.
            let old_neighbors = std::mem::take(&mut neigh[owner]);
            for &x in &old_neighbors {
                neigh[x].retain(|&y| y != owner);
            }
            for &x in &old_neighbors {
                if zones[owner].adjacent(&zones[x]) {
                    neigh[owner].push(x);
                    neigh[x].push(owner);
                }
                if zones[new_idx].adjacent(&zones[x]) {
                    neigh[new_idx].push(x);
                    neigh[x].push(new_idx);
                }
            }
            if zones[owner].adjacent(&zones[new_idx]) {
                neigh[owner].push(new_idx);
                neigh[new_idx].push(owner);
            }
        }
        let nodes: Vec<CanNode> = (0..n)
            .map(|i| CanNode {
                zone: zones[i].clone(),
                neighbors: neigh[i].iter().map(|&j| (zones[j].clone(), j)).collect(),
            })
            .collect();
        CanSim {
            engine: Engine::new(topo, nodes, seed),
            dims,
        }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Starts a lookup for `key` from node `from`.
    pub fn lookup(&mut self, from: Addr, key: Id) {
        let target = id_to_point(&key, self.dims);
        self.engine.inject(
            from,
            from,
            CanMsg::Lookup(CanLookup {
                target,
                origin: from,
                hops: 0,
                path_us: 0,
            }),
            0,
        );
    }

    /// Runs to quiescence and returns deliveries.
    pub fn drain(&mut self) -> Vec<CanDelivery> {
        self.engine.run_until_quiet(10_000_000);
        self.engine
            .drain_outputs()
            .into_iter()
            .map(|(_, _, d)| d)
            .collect()
    }

    /// Ground truth: the owner of the zone containing `key`'s point.
    pub fn true_owner(&self, key: &Id) -> Addr {
        let p = id_to_point(key, self.dims);
        (0..self.engine.len())
            .find(|&a| self.engine.node(a).zone.contains(&p))
            .expect("zones tile the torus")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use past_crypto::rng::Rng;
    use past_netsim::Sphere;
    use past_pastry::random_ids;

    fn build(n: usize, d: usize, seed: u64) -> CanSim<Sphere> {
        let mut rng = Rng::seed_from_u64(seed);
        let ids = random_ids(n, &mut rng);
        CanSim::build(Sphere::new(n, seed), seed, &ids, d)
    }

    #[test]
    fn zones_tile_the_torus() {
        let sim = build(200, 2, 1);
        // Total area must be 1.
        let area: f64 = (0..200)
            .map(|a| {
                let z = &sim.engine.node(a).zone;
                (z.hi[0] - z.lo[0]) * (z.hi[1] - z.lo[1])
            })
            .sum();
        assert!((area - 1.0).abs() < 1e-9, "area = {area}");
        // Every node has at least one neighbor.
        for a in 0..200 {
            assert!(!sim.engine.node(a).neighbors.is_empty());
        }
    }

    #[test]
    fn lookups_reach_the_zone_owner() {
        let mut sim = build(150, 2, 2);
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..100 {
            let key = Id(rng.random());
            let from = rng.random_range(0..150);
            sim.lookup(from, key);
            let recs = sim.drain();
            assert_eq!(recs.len(), 1);
            assert_eq!(recs[0].delivered_at, sim.true_owner(&key));
        }
    }

    #[test]
    fn adjacency_is_symmetric() {
        let sim = build(100, 3, 3);
        for a in 0..100 {
            for (zb, b) in &sim.engine.node(a).neighbors {
                assert!(sim.engine.node(a).zone.adjacent(zb));
                assert!(
                    sim.engine
                        .node(*b)
                        .neighbors
                        .iter()
                        .any(|(_, back)| *back == a),
                    "node {b} should link back to {a}"
                );
            }
        }
    }

    #[test]
    fn hops_grow_faster_than_pastry_log() {
        // d=2: expected hops ~ sqrt(N)/2 per dimension pair; at N = 1024
        // that's well above Pastry's log16(1024) = 2.5.
        let mut sim = build(1024, 2, 4);
        let mut rng = Rng::seed_from_u64(7);
        let mut hops = 0u64;
        let trials = 200;
        for _ in 0..trials {
            let key = Id(rng.random());
            let from = rng.random_range(0..1024);
            sim.lookup(from, key);
            hops += sim.drain()[0].hops as u64;
        }
        let avg = hops as f64 / trials as f64;
        assert!(avg > 5.0, "CAN hops should exceed Pastry's ~2.5: {avg}");
        assert!(avg < 200.0, "sanity upper bound: {avg}");
    }

    #[test]
    fn point_mapping_in_unit_cube() {
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..100 {
            let id = Id(rng.random());
            for d in 1..=8 {
                let p = id_to_point(&id, d);
                assert_eq!(p.len(), d);
                assert!(p.iter().all(|x| (0.0..1.0).contains(x)));
            }
        }
    }

    #[test]
    fn zone_distance_handles_wrap() {
        let z = Zone {
            lo: vec![0.9, 0.0],
            hi: vec![1.0, 1.0],
        };
        // A point at x=0.05 is 0.05 away across the wrap, not 0.85.
        let d = z.dist_to(&[0.05, 0.5]);
        assert!(d < 0.06, "wrap distance {d}");
    }
}
