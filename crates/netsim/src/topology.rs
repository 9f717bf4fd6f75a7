//! Network topologies and the proximity metric.
//!
//! The PAST paper defines network proximity as "a scalar metric, such as the
//! number of IP hops, geographic distance, or a combination". Every topology
//! here exposes a one-way delay in microseconds between any two node
//! addresses; Pastry uses the same number as its proximity metric.
//!
//! The sphere model ([`Sphere`]) is the one used for the locality
//! experiments in the companion Pastry paper: nodes are uniform random
//! points on a sphere and the distance between two nodes is their
//! great-circle distance.
//!
//! A topology is plain immutable data, `Send + Sync`: each delay is
//! computed from the layout on every call, with no cache behind it.

use past_crypto::rng::Rng;

/// A node address: an index into the topology.
pub type Addr = usize;

/// A source of pairwise one-way delays (the proximity metric).
pub trait Topology {
    /// Number of node slots in the topology.
    fn len(&self) -> usize;

    /// One-way delay between `a` and `b` in microseconds.
    ///
    /// Must be symmetric and zero iff `a == b`.
    fn delay_us(&self, a: Addr, b: Addr) -> u64;

    /// Appends `delay_us(a, b)` for every `b` in `to` to `out`, in order.
    ///
    /// One call per batch lets a topology overlap the memory loads of
    /// many pairs; the values are exactly those of [`Topology::delay_us`].
    fn delays_us(&self, a: Addr, to: &[Addr], out: &mut Vec<u64>) {
        out.extend(to.iter().map(|&b| self.delay_us(a, b)));
    }

    /// Returns true if the topology has no node slots.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Uniform random points on a unit sphere; delay = great-circle distance.
///
/// Antipodal points are 120 ms apart, a round-the-world one-way path.
#[derive(Clone)]
pub struct Sphere {
    points: Vec<[f64; 3]>,
    /// Minimum inter-node delay: geometric delays clamp up to this.
    /// Zero (the default) leaves the geometry untouched.
    floor_us: u64,
}

/// The delay between antipodal points on a [`Sphere`].
const MAX_DELAY_US: u64 = 120_000;

impl Sphere {
    /// Samples `n` uniform points on the sphere.
    pub fn new(n: usize, seed: u64) -> Sphere {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5048_4552_u64);
        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            // Marsaglia: uniform on the sphere via normalized Gaussians
            // approximated with rejection sampling on the cube.
            loop {
                let x: f64 = rng.random_range(-1.0..=1.0);
                let y: f64 = rng.random_range(-1.0..=1.0);
                let z: f64 = rng.random_range(-1.0..=1.0);
                let norm2 = x * x + y * y + z * z;
                if norm2 > 1e-9 && norm2 <= 1.0 {
                    let norm = norm2.sqrt();
                    points.push([x / norm, y / norm, z / norm]);
                    break;
                }
            }
        }
        Sphere {
            points,
            floor_us: 0,
        }
    }

    /// Samples `n` points whose pairwise delays are clamped up to
    /// `floor_us`: the layout is identical to [`Sphere::new`] with the
    /// same seed, but no two distinct nodes are closer than the floor.
    ///
    /// At large `n` the closest sphere pair is only microseconds apart;
    /// a floor models the reality that even nearby hosts pay a LAN
    /// round-trip. The lossy-churn invariant scenario and the overlay
    /// replay suite run on a 2 ms floor, and their goldens were
    /// recorded there.
    pub fn with_delay_floor(n: usize, seed: u64, floor_us: u64) -> Sphere {
        let mut s = Sphere::new(n, seed);
        s.floor_us = floor_us;
        s
    }

    /// The dot product of the points at `a` and `b` (the cosine of their
    /// angle); symmetric bit for bit, since each product commutes.
    fn dot(&self, a: Addr, b: Addr) -> f64 {
        let pa = self.points[a];
        let pb = self.points[b];
        pa[0] * pb[0] + pa[1] * pb[1] + pa[2] * pb[2]
    }

    /// The delay between two distinct points whose dot product is `dot`.
    fn delay_of_dot(&self, dot: f64) -> u64 {
        let angle = dot.clamp(-1.0, 1.0).acos(); // in [0, pi]
        let frac = angle / std::f64::consts::PI;
        // Add 1 to keep distinct nodes at non-zero delay.
        ((frac * MAX_DELAY_US as f64) as u64 + 1).max(self.floor_us)
    }
}

impl Topology for Sphere {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn delay_us(&self, a: Addr, b: Addr) -> u64 {
        if a == b {
            return 0;
        }
        self.delay_of_dot(self.dot(a, b))
    }

    /// Two passes: every dot product first, so the random loads of
    /// `points[b]` overlap instead of each waiting behind an `acos`, then
    /// the `acos` pass.
    fn delays_us(&self, a: Addr, to: &[Addr], out: &mut Vec<u64>) {
        let start = out.len();
        // The first pass parks each dot product's bits in its output slot.
        out.extend(to.iter().map(|&b| self.dot(a, b).to_bits()));
        for (d, &b) in out[start..].iter_mut().zip(to) {
            *d = if a == b {
                0
            } else {
                self.delay_of_dot(f64::from_bits(*d))
            };
        }
    }
}

/// Uniform random points on the unit square; delay = Euclidean distance.
#[derive(Clone)]
pub struct Plane {
    points: Vec<[f64; 2]>,
    scale_us: f64,
}

impl Plane {
    /// Samples `n` points; `diag_delay_us` is the corner-to-corner delay.
    pub fn new(n: usize, seed: u64, diag_delay_us: u64) -> Plane {
        let mut rng = Rng::seed_from_u64(seed ^ 0x504c_414e_u64);
        let points = (0..n)
            .map(|_| [rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)])
            .collect();
        Plane {
            points,
            scale_us: diag_delay_us as f64 / std::f64::consts::SQRT_2,
        }
    }
}

impl Topology for Plane {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn delay_us(&self, a: Addr, b: Addr) -> u64 {
        if a == b {
            return 0;
        }
        let pa = self.points[a];
        let pb = self.points[b];
        let d = ((pa[0] - pb[0]).powi(2) + (pa[1] - pb[1]).powi(2)).sqrt();
        (d * self.scale_us) as u64 + 1
    }
}

/// A hierarchical transit-stub-like topology.
///
/// Nodes attach to stub domains; stub domains attach to transit routers
/// placed on the unit square. The delay between two nodes decomposes into
/// LAN hop + stub uplink + transit-to-transit distance, mimicking the
/// Georgia-Tech transit-stub graphs used in 2001-era overlay evaluations.
#[derive(Clone)]
pub struct TransitStub {
    /// (transit index, stub index within transit) per node.
    attachment: Vec<(usize, usize)>,
    /// Positions of transit routers on the unit square.
    transit_pos: Vec<[f64; 2]>,
    lan_us: u64,
    stub_us: u64,
    transit_scale_us: f64,
}

impl TransitStub {
    /// Builds a topology with `n` nodes spread over `transits` transit
    /// domains of `stubs_per_transit` stub domains each.
    pub fn new(n: usize, seed: u64, transits: usize, stubs_per_transit: usize) -> TransitStub {
        assert!(transits > 0 && stubs_per_transit > 0);
        let mut rng = Rng::seed_from_u64(seed ^ 0x5453_5442_u64);
        let transit_pos = (0..transits)
            .map(|_| [rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)])
            .collect();
        let attachment = (0..n)
            .map(|_| {
                (
                    rng.random_range(0..transits),
                    rng.random_range(0..stubs_per_transit),
                )
            })
            .collect();
        TransitStub {
            attachment,
            transit_pos,
            lan_us: 500,
            stub_us: 4_000,
            transit_scale_us: 40_000.0,
        }
    }
}

impl Topology for TransitStub {
    fn len(&self) -> usize {
        self.attachment.len()
    }

    fn delay_us(&self, a: Addr, b: Addr) -> u64 {
        if a == b {
            return 0;
        }
        let (ta, sa) = self.attachment[a];
        let (tb, sb) = self.attachment[b];
        if ta == tb && sa == sb {
            return self.lan_us;
        }
        if ta == tb {
            return self.lan_us + 2 * self.stub_us;
        }
        let pa = self.transit_pos[ta];
        let pb = self.transit_pos[tb];
        let d = ((pa[0] - pb[0]).powi(2) + (pa[1] - pb[1]).powi(2)).sqrt();
        self.lan_us + 2 * self.stub_us + (d * self.transit_scale_us) as u64 + 1
    }
}

/// Symmetric pseudo-random pairwise delays in `[min_us, max_us]`.
///
/// Delays are derived from a mixing function of the unordered pair, so no
/// O(n²) matrix is stored. This serves as the "no geometry" control: any
/// locality an overlay achieves on it is accidental.
#[derive(Clone)]
pub struct UniformRandom {
    n: usize,
    seed: u64,
    min_us: u64,
    max_us: u64,
}

impl UniformRandom {
    /// Creates `n` slots with delays uniform in `[min_us, max_us]`.
    pub fn new(n: usize, seed: u64, min_us: u64, max_us: u64) -> UniformRandom {
        assert!(min_us > 0 && max_us >= min_us);
        UniformRandom {
            n,
            seed,
            min_us,
            max_us,
        }
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Topology for UniformRandom {
    fn len(&self) -> usize {
        self.n
    }

    fn delay_us(&self, a: Addr, b: Addr) -> u64 {
        if a == b {
            return 0;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let h = mix64(self.seed ^ mix64((lo as u64) << 32 | hi as u64));
        self.min_us + h % (self.max_us - self.min_us + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_metric<T: Topology>(t: &T) {
        let n = t.len();
        for a in 0..n.min(12) {
            assert_eq!(t.delay_us(a, a), 0, "self-delay must be zero");
            for b in 0..n.min(12) {
                assert_eq!(t.delay_us(a, b), t.delay_us(b, a), "symmetry");
                if a != b {
                    assert!(t.delay_us(a, b) > 0, "distinct nodes at distance > 0");
                }
            }
        }
    }

    #[test]
    fn sphere_is_a_metric_like_delay() {
        check_metric(&Sphere::new(50, 1));
    }

    #[test]
    fn sphere_bounded_by_antipodal() {
        let s = Sphere::new(100, 7);
        for a in 0..100 {
            for b in 0..100 {
                assert!(s.delay_us(a, b) <= MAX_DELAY_US + 1);
            }
        }
    }

    #[test]
    fn plane_is_symmetric() {
        check_metric(&Plane::new(50, 2, 60_000));
    }

    #[test]
    fn transit_stub_hierarchy_orders_delays() {
        let t = TransitStub::new(200, 3, 4, 4);
        check_metric(&t);
        // Same-LAN pairs (if any) must be the cheapest class.
        let mut same_lan = None;
        let mut cross_transit = None;
        for a in 0..200 {
            for b in (a + 1)..200 {
                let (ta, sa) = t.attachment[a];
                let (tb, sb) = t.attachment[b];
                if ta == tb && sa == sb {
                    same_lan = Some(t.delay_us(a, b));
                } else if ta != tb {
                    cross_transit = Some(t.delay_us(a, b));
                }
            }
        }
        if let (Some(l), Some(x)) = (same_lan, cross_transit) {
            assert!(l < x, "LAN delay {l} should undercut cross-transit {x}");
        }
    }

    #[test]
    fn uniform_random_in_bounds_and_deterministic() {
        let u = UniformRandom::new(64, 9, 1_000, 50_000);
        check_metric(&u);
        for a in 0..64 {
            for b in 0..64 {
                if a != b {
                    let d = u.delay_us(a, b);
                    assert!((1_000..=50_000).contains(&d));
                }
            }
        }
        let u2 = UniformRandom::new(64, 9, 1_000, 50_000);
        assert_eq!(u.delay_us(3, 40), u2.delay_us(3, 40));
    }

    #[test]
    fn sphere_delay_floor_clamps_without_moving_points() {
        let plain = Sphere::new(80, 5);
        let floored = Sphere::with_delay_floor(80, 5, 3_000);
        for a in 0..80 {
            assert_eq!(floored.delay_us(a, a), 0, "self-delay stays zero");
            for b in 0..80 {
                if a == b {
                    continue;
                }
                let raw = plain.delay_us(a, b);
                let clamped = floored.delay_us(a, b);
                assert_eq!(clamped, raw.max(3_000), "floor must clamp, not remap");
            }
        }
        check_metric(&floored);
    }

    /// `delays_us` appends exactly what `delay_us` answers, pair by pair:
    /// `a` itself (zero), repeated targets, and a far address included.
    fn check_batch<T: Topology>(t: &T) {
        let n = t.len();
        for a in [0, 1, n / 2, n - 1] {
            let to = [a, 0, n - 1, 3, 3, a, n / 2, 1, 7];
            let mut out = vec![11, 22];
            t.delays_us(a, &to, &mut out);
            let want: Vec<u64> = [11, 22]
                .into_iter()
                .chain(to.iter().map(|&b| t.delay_us(a, b)))
                .collect();
            assert_eq!(out, want, "batch from {a}");
        }
    }

    #[test]
    fn batched_delays_match_single_queries() {
        check_batch(&Sphere::new(64, 1));
        check_batch(&Sphere::with_delay_floor(64, 1, 40_000));
        check_batch(&Plane::new(64, 2, 60_000));
        check_batch(&TransitStub::new(64, 3, 4, 4));
        check_batch(&UniformRandom::new(64, 4, 1_000, 50_000));
    }

    /// Topologies are plain data: no interior cache, so a layout can be
    /// shared across threads. The check is the type bound: a topology
    /// that is not `Send + Sync` fails to compile here.
    #[test]
    fn topologies_are_send_and_sync() {
        fn plain_data<T: Send + Sync>() {}
        plain_data::<Sphere>();
        plain_data::<Plane>();
        plain_data::<TransitStub>();
        plain_data::<UniformRandom>();
    }

    #[test]
    fn seeds_change_sphere_layout() {
        let a = Sphere::new(10, 1);
        let b = Sphere::new(10, 2);
        let same = (0..10)
            .flat_map(|x| (0..10).map(move |y| (x, y)))
            .all(|(x, y)| a.delay_us(x, y) == b.delay_us(x, y));
        assert!(!same);
    }
}
