//! The Pastry neighborhood set.
//!
//! The set of `M` nodes closest to the present node according to the
//! proximity metric. It is not used for routing, but seeds locality during
//! node joins ("X then obtains ... the neighborhood set from A").

use crate::handle::NodeHandle;
use crate::table::{pack_addr, Slot};
use past_wire::Addr;

/// The proximity-nearest set of one node.
#[derive(Clone, Debug)]
pub struct NeighborhoodSet {
    cap: usize,
    /// Entries sorted by proximity, nearest first; every slot populated.
    /// Allocated once with room for the insert-then-truncate at a full
    /// set.
    entries: Vec<Slot>,
}

impl NeighborhoodSet {
    /// Creates an empty set holding up to `cap` nodes.
    pub fn new(cap: usize) -> NeighborhoodSet {
        NeighborhoodSet {
            cap,
            entries: Vec::with_capacity(cap + 1),
        }
    }

    /// Offers a node at measured proximity; keeps the `cap` nearest. A
    /// handle whose address the packed entry cannot hold is not admitted.
    /// Returns true if the set changed.
    pub fn consider(&mut self, h: NodeHandle, proximity_us: u64) -> bool {
        let Some(candidate) = Slot::pack(h, proximity_us) else {
            return false;
        };
        if self.entries.iter().any(|m| m.addr() == candidate.addr()) {
            return false;
        }
        let pos = self
            .entries
            .iter()
            .position(|m| m.proximity_us() > candidate.proximity_us())
            .unwrap_or(self.entries.len());
        if pos >= self.cap {
            return false;
        }
        self.entries.insert(pos, candidate);
        self.entries.truncate(self.cap);
        true
    }

    /// Removes the member at `addr`.
    pub fn remove_addr(&mut self, addr: Addr) -> Option<NodeHandle> {
        self.take(addr)?.1.handle()
    }

    /// Removes the member at `addr`, returning its position and entry for
    /// [`Self::put_back`].
    pub(crate) fn take(&mut self, addr: Addr) -> Option<(usize, Slot)> {
        let addr = pack_addr(addr)?;
        let pos = self.entries.iter().position(|m| m.addr() == addr)?;
        Some((pos, self.entries.remove(pos)))
    }

    /// Puts back what [`Self::take`] removed, at its old position.
    pub(crate) fn put_back(&mut self, (pos, slot): (usize, Slot)) {
        self.entries.insert(pos, slot);
    }

    /// Members, nearest first.
    pub fn members(&self) -> impl Iterator<Item = NodeHandle> + '_ {
        self.entries.iter().filter_map(Slot::handle)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes of heap this set holds (capacity, not population).
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Slot>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Id;

    fn h(addr: Addr) -> NodeHandle {
        NodeHandle::new(Id(addr as u128), addr)
    }

    #[test]
    fn keeps_nearest() {
        let mut ns = NeighborhoodSet::new(2);
        assert!(ns.consider(h(1), 100));
        assert!(ns.consider(h(2), 50));
        assert!(ns.consider(h(3), 10));
        let order: Vec<Addr> = ns.members().map(|m| m.addr).collect();
        assert_eq!(order, vec![3, 2]);
        assert!(!ns.consider(h(4), 500));
        assert_eq!(ns.len(), 2);
    }

    #[test]
    fn rejects_duplicates() {
        let mut ns = NeighborhoodSet::new(4);
        assert!(ns.consider(h(1), 100));
        assert!(!ns.consider(h(1), 5));
        assert_eq!(ns.len(), 1);
    }

    #[test]
    fn remove() {
        let mut ns = NeighborhoodSet::new(4);
        ns.consider(h(1), 100);
        assert_eq!(ns.remove_addr(1).unwrap().addr, 1);
        assert!(ns.remove_addr(1).is_none());
        assert!(ns.is_empty());
    }

    #[test]
    fn address_that_does_not_fit_is_not_admitted() {
        for addr in [usize::MAX, u32::MAX as usize, (1 << 32) + 1] {
            let mut ns = NeighborhoodSet::new(4);
            assert!(ns.consider(h(1), 100));
            assert!(!ns.consider(NodeHandle::new(Id(7), addr), 1));
            assert!(ns.remove_addr(addr).is_none());
            assert_eq!(ns.members().collect::<Vec<_>>(), vec![h(1)]);
        }
        let mut ns = NeighborhoodSet::new(4);
        let last = u32::MAX as usize - 1;
        assert!(ns.consider(h(last), 1));
        assert_eq!(ns.remove_addr(last), Some(h(last)));
    }

    /// The representation the packed set replaced, kept as the reference
    /// the packed one is compared against.
    struct Pairs {
        cap: usize,
        entries: Vec<(NodeHandle, u64)>,
    }

    impl Pairs {
        fn consider(&mut self, h: NodeHandle, proximity_us: u64) -> bool {
            if self.entries.iter().any(|(m, _)| m.addr == h.addr) {
                return false;
            }
            let pos = self
                .entries
                .iter()
                .position(|(_, p)| *p > proximity_us)
                .unwrap_or(self.entries.len());
            if pos >= self.cap {
                return false;
            }
            self.entries.insert(pos, (h, proximity_us));
            self.entries.truncate(self.cap);
            true
        }

        fn remove_addr(&mut self, addr: Addr) -> Option<NodeHandle> {
            let pos = self.entries.iter().position(|(m, _)| m.addr == addr)?;
            Some(self.entries.remove(pos).0)
        }
    }

    #[test]
    fn packed_set_matches_pairs() {
        use past_crypto::rng::Rng;
        for cap in [0usize, 1, 4, 16, 32] {
            let mut rng = Rng::seed_from_u64(0x9e16 + cap as u64);
            let mut packed = NeighborhoodSet::new(cap);
            let mut reference = Pairs {
                cap,
                entries: Vec::new(),
            };
            let heap = packed.heap_bytes();
            assert_eq!(heap, (cap + 1) * 24);
            for step in 0..20_000 {
                let addr = rng.random_range(0..3 * cap.max(2));
                if rng.random_range(0..4u32) == 0 {
                    assert_eq!(
                        packed.remove_addr(addr),
                        reference.remove_addr(addr),
                        "cap={cap} step {step}: remove_addr({addr})"
                    );
                } else {
                    // Few distinct proximities, so ties are common.
                    let prox = match rng.random_range(0..8u32) {
                        0 => u64::MAX,
                        _ => rng.random_range(0..12u64) * 1_000,
                    };
                    let hd = NodeHandle::new(Id(rng.random()), addr);
                    assert_eq!(
                        packed.consider(hd, prox),
                        reference.consider(hd, prox),
                        "cap={cap} step {step}: consider({hd:?}, {prox})"
                    );
                }
                assert!(
                    packed.members().eq(reference.entries.iter().map(|e| e.0)),
                    "cap={cap} step {step}"
                );
                assert_eq!(packed.len(), reference.entries.len());
                assert_eq!(packed.heap_bytes(), heap, "the one allocation never grows");
            }
        }
    }
}
