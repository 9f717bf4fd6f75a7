//! The Pastry leaf set.
//!
//! "Each node maintains IP addresses for the nodes in its leaf set, i.e.,
//! the set of nodes with the l/2 numerically closest larger nodeIds, and the
//! l/2 nodes with numerically closest smaller nodeIds, relative to the
//! present node's nodeId."

use crate::handle::NodeHandle;
use crate::id::Id;
use past_wire::Addr;

/// Which half of the leaf set a node falls in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    /// Numerically smaller ids (counter-clockwise neighbors).
    Smaller,
    /// Numerically larger ids (clockwise neighbors).
    Larger,
}

/// The outcome of offering a node to the leaf set.
///
/// `evicted` reports the member displaced when a nearer node filled an
/// already-full half; the caller must not silently forget it — the
/// displaced node is still live and belongs in the routing table.
#[derive(Clone, Copy, Debug, Default)]
pub struct LeafInsert {
    /// True if the set changed (the offered node was admitted).
    pub changed: bool,
    /// The member displaced to make room, if any.
    pub evicted: Option<NodeHandle>,
}

/// The leaf set of one node: up to `l/2` ring neighbors on each side,
/// each half sorted nearest-first.
#[derive(Clone, Debug)]
pub struct LeafSet {
    own: Id,
    half: usize,
    smaller: Vec<NodeHandle>,
    larger: Vec<NodeHandle>,
}

impl LeafSet {
    /// Creates an empty leaf set for `own` with `leaf_len` total capacity.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_len` is odd or zero.
    pub fn new(own: Id, leaf_len: usize) -> LeafSet {
        assert!(leaf_len >= 2 && leaf_len.is_multiple_of(2));
        let half = leaf_len / 2;
        // One spare slot: `insert` at a full half pushes, then pops.
        LeafSet {
            own,
            half,
            smaller: Vec::with_capacity(half + 1),
            larger: Vec::with_capacity(half + 1),
        }
    }

    /// The side of the ring `id` falls on relative to the owner.
    pub fn side_of(&self, id: &Id) -> Side {
        let cw = self.own.cw_dist(id);
        let ccw = id.cw_dist(&self.own);
        if cw <= ccw {
            Side::Larger
        } else {
            Side::Smaller
        }
    }

    /// Offers a node for membership.
    ///
    /// Duplicates are rejected by address *and* by id: two handles with
    /// the same id but different addresses cannot both be ring members,
    /// and admitting the second would desynchronize the set from the
    /// global ring (invariant I2).
    ///
    /// When a nearer node displaces the farthest member of a full half,
    /// the displaced handle is returned in [`LeafInsert::evicted`] so the
    /// caller can demote it to the routing table instead of forgetting a
    /// live node.
    pub fn insert(&mut self, h: NodeHandle) -> LeafInsert {
        if h.id == self.own || self.contains_addr(h.addr) || self.contains_id(&h.id) {
            return LeafInsert::default();
        }
        let own = self.own;
        let half = self.half;
        #[expect(
            clippy::type_complexity,
            reason = "a side's members beside its distance key, bound once and used only here"
        )]
        let (vec, key): (&mut Vec<NodeHandle>, fn(&Id, &Id) -> u128) = match self.side_of(&h.id) {
            Side::Larger => (&mut self.larger, |own, id| own.cw_dist(id)),
            Side::Smaller => (&mut self.smaller, |own, id| id.cw_dist(own)),
        };
        let pos = vec
            .iter()
            .position(|m| key(&own, &m.id) > key(&own, &h.id))
            .unwrap_or(vec.len());
        if pos >= half {
            return LeafInsert::default();
        }
        vec.insert(pos, h);
        let evicted = if vec.len() > half { vec.pop() } else { None };
        LeafInsert {
            changed: true,
            evicted,
        }
    }

    /// Removes the member at `addr`, returning it.
    pub fn remove_addr(&mut self, addr: Addr) -> Option<NodeHandle> {
        for vec in [&mut self.smaller, &mut self.larger] {
            if let Some(pos) = vec.iter().position(|m| m.addr == addr) {
                return Some(vec.remove(pos));
            }
        }
        None
    }

    /// True if `addr` is a member.
    pub fn contains_addr(&self, addr: Addr) -> bool {
        self.smaller
            .iter()
            .chain(&self.larger)
            .any(|m| m.addr == addr)
    }

    /// True if a member carries `id`.
    pub fn contains_id(&self, id: &Id) -> bool {
        self.smaller.iter().chain(&self.larger).any(|m| m.id == *id)
    }

    /// Members per half (`l/2`).
    pub fn half(&self) -> usize {
        self.half
    }

    /// All members, smaller side first (each half nearest-first).
    pub fn members(&self) -> impl Iterator<Item = &NodeHandle> {
        self.smaller.iter().chain(self.larger.iter())
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.smaller.len() + self.larger.len()
    }

    /// True if the leaf set is empty (a brand-new or solitary node).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if either half has spare capacity.
    ///
    /// An under-full leaf set means the node knows every ring neighbor it
    /// has, so the leaf set covers the entire id space.
    pub fn underfull(&self) -> bool {
        self.smaller.len() < self.half || self.larger.len() < self.half
    }

    /// The farthest member on `side`, if any (used for leaf-set repair:
    /// "contact the live node with the largest index on the side of the
    /// failed node").
    pub fn extreme(&self, side: Side) -> Option<NodeHandle> {
        match side {
            Side::Smaller => self.smaller.last().copied(),
            Side::Larger => self.larger.last().copied(),
        }
    }

    /// Members on `side`, nearest first.
    pub fn side_members(&self, side: Side) -> &[NodeHandle] {
        match side {
            Side::Smaller => &self.smaller,
            Side::Larger => &self.larger,
        }
    }

    /// Bytes of heap both halves hold (capacity, not population).
    pub fn heap_bytes(&self) -> usize {
        (self.smaller.capacity() + self.larger.capacity()) * std::mem::size_of::<NodeHandle>()
    }

    /// True if `key` falls within the id segment covered by the leaf set.
    ///
    /// While underfull the leaf set covers everything (the node knows all
    /// its ring neighbors).
    pub fn covers(&self, key: &Id) -> bool {
        match (self.smaller.last(), self.larger.last()) {
            (Some(lo), Some(hi)) if !self.underfull() => key.on_cw_arc(&lo.id, &hi.id),
            // Underfull (or a side is empty): the node knows its whole
            // neighborhood, so it covers the entire segment.
            _ => true,
        }
    }

    /// The member numerically closest to `key` (ties broken by smaller id),
    /// or `None` if the set is empty.
    pub fn closest_to(&self, key: &Id) -> Option<NodeHandle> {
        self.members()
            .copied()
            .min_by_key(|m| (m.id.ring_dist(key), m.id.0))
    }

    /// Members sorted by ring distance to `key`, nearest first (used to
    /// choose the k replica holders around a fileId).
    pub fn sorted_by_dist(&self, key: &Id) -> Vec<NodeHandle> {
        let mut v: Vec<NodeHandle> = self.members().copied().collect();
        v.sort_by_key(|m| (m.id.ring_dist(key), m.id.0));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(id: u128, addr: Addr) -> NodeHandle {
        NodeHandle::new(Id(id), addr)
    }

    fn set() -> LeafSet {
        LeafSet::new(Id(1000), 4) // half = 2
    }

    #[test]
    fn sides_and_insertion_order() {
        let mut ls = set();
        assert!(ls.insert(h(1010, 1)).changed);
        assert!(ls.insert(h(1005, 2)).changed);
        assert!(ls.insert(h(995, 3)).changed);
        assert!(ls.insert(h(990, 4)).changed);
        assert_eq!(
            ls.side_members(Side::Larger)
                .iter()
                .map(|m| m.addr)
                .collect::<Vec<_>>(),
            vec![2, 1]
        );
        assert_eq!(
            ls.side_members(Side::Smaller)
                .iter()
                .map(|m| m.addr)
                .collect::<Vec<_>>(),
            vec![3, 4]
        );
    }

    #[test]
    fn capacity_keeps_nearest() {
        let mut ls = set();
        ls.insert(h(1010, 1));
        ls.insert(h(1020, 2));
        // Nearer node displaces the farthest once the half is full.
        assert!(ls.insert(h(1005, 3)).changed);
        let addrs: Vec<Addr> = ls
            .side_members(Side::Larger)
            .iter()
            .map(|m| m.addr)
            .collect();
        assert_eq!(addrs, vec![3, 1]);
        // The displaced node (1020) is gone and a farther node is
        // rejected outright.
        assert!(!ls.insert(h(1030, 4)).changed);
        assert_eq!(ls.len(), 2);
    }

    #[test]
    fn displaced_member_is_returned_not_dropped() {
        // Regression: `insert` used to truncate the half silently, losing
        // the displaced live node.
        let mut ls = set();
        ls.insert(h(1010, 1));
        ls.insert(h(1020, 2));
        let out = ls.insert(h(1005, 3));
        assert!(out.changed);
        let evicted = out.evicted.expect("full half must report the evictee");
        assert_eq!(evicted.addr, 2);
        assert_eq!(evicted.id, Id(1020));
        // No eviction while a half has room.
        let mut ls = set();
        assert!(ls.insert(h(1010, 1)).evicted.is_none());
        assert!(ls.insert(h(1005, 2)).evicted.is_none());
    }

    #[test]
    fn rejects_own_id_and_duplicates() {
        let mut ls = set();
        assert!(!ls.insert(h(1000, 9)).changed);
        assert!(ls.insert(h(1001, 1)).changed);
        assert!(!ls.insert(h(1001, 1)).changed);
        assert_eq!(ls.len(), 1);
    }

    #[test]
    fn rejects_duplicate_id_with_different_addr() {
        // Regression: dedup was by addr only, so two handles with the
        // same id but different addrs could coexist in one half.
        let mut ls = set();
        assert!(ls.insert(h(1001, 1)).changed);
        assert!(!ls.insert(h(1001, 2)).changed, "same id, new addr");
        assert_eq!(ls.len(), 1);
        assert_eq!(ls.side_members(Side::Larger)[0].addr, 1);
    }

    #[test]
    fn coverage_requires_full_halves() {
        let mut ls = set();
        // Underfull: covers everything.
        assert!(ls.covers(&Id(55)));
        ls.insert(h(1010, 1));
        ls.insert(h(1020, 2));
        ls.insert(h(990, 3));
        ls.insert(h(980, 4));
        assert!(!ls.underfull());
        assert!(ls.covers(&Id(1000)));
        assert!(ls.covers(&Id(985)));
        assert!(ls.covers(&Id(1020)));
        assert!(!ls.covers(&Id(55)));
        assert!(!ls.covers(&Id(2000)));
    }

    #[test]
    fn coverage_wraps_around_zero() {
        let mut ls = LeafSet::new(Id(5), 4);
        ls.insert(h(10, 1));
        ls.insert(h(20, 2));
        ls.insert(h(u128::MAX - 2, 3));
        ls.insert(h(u128::MAX - 10, 4));
        assert!(ls.covers(&Id(0)));
        assert!(ls.covers(&Id(u128::MAX - 5)));
        assert!(!ls.covers(&Id(1 << 100)));
    }

    #[test]
    fn closest_to_prefers_ring_distance() {
        let mut ls = set();
        ls.insert(h(1010, 1));
        ls.insert(h(990, 2));
        assert_eq!(ls.closest_to(&Id(1009)).unwrap().addr, 1);
        assert_eq!(ls.closest_to(&Id(991)).unwrap().addr, 2);
        assert!(set().closest_to(&Id(0)).is_none());
    }

    #[test]
    fn remove_and_extremes() {
        let mut ls = set();
        ls.insert(h(1010, 1));
        ls.insert(h(1005, 2));
        assert_eq!(ls.extreme(Side::Larger).unwrap().addr, 1);
        assert_eq!(ls.remove_addr(1).unwrap().addr, 1);
        assert_eq!(ls.extreme(Side::Larger).unwrap().addr, 2);
        assert!(ls.remove_addr(99).is_none());
        assert!(ls.extreme(Side::Smaller).is_none());
    }

    #[test]
    fn sorted_by_dist_orders_members() {
        let mut ls = set();
        ls.insert(h(1010, 1));
        ls.insert(h(1005, 2));
        ls.insert(h(995, 3));
        let order: Vec<Addr> = ls
            .sorted_by_dist(&Id(1006))
            .iter()
            .map(|m| m.addr)
            .collect();
        assert_eq!(order, vec![2, 1, 3]);
    }

    #[test]
    fn full_halves_hold_one_spare_slot_each() {
        // The insert-then-pop at a full half needs one slot of headroom;
        // anything more is `Vec` doubling (16 per half at l = 16).
        let own = 1u128 << 100;
        let mut ls = LeafSet::new(Id(own), 16);
        // Nearer and nearer nodes on both sides: every insert past the
        // eighth on a side displaces a member.
        for i in 0..64u128 {
            assert!(ls.insert(h(own + 1000 - i, i as Addr)).changed);
            assert!(ls.insert(h(own - 1000 + i, 100 + i as Addr)).changed);
        }
        assert_eq!(ls.len(), 16);
        assert_eq!(ls.heap_bytes(), 2 * 9 * std::mem::size_of::<NodeHandle>());
    }
}
