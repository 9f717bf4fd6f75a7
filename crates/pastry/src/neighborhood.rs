//! The Pastry neighborhood set.
//!
//! The set of `M` nodes closest to the present node according to the
//! proximity metric. It is not used for routing, but seeds locality during
//! node joins ("X then obtains ... the neighborhood set from A").

use crate::handle::NodeHandle;
use past_wire::Addr;

/// The proximity-nearest set of one node.
#[derive(Clone, Debug)]
pub struct NeighborhoodSet {
    cap: usize,
    /// Entries sorted by proximity, nearest first.
    entries: Vec<(NodeHandle, u64)>,
}

impl NeighborhoodSet {
    /// Creates an empty set holding up to `cap` nodes.
    pub fn new(cap: usize) -> NeighborhoodSet {
        NeighborhoodSet {
            cap,
            entries: Vec::new(),
        }
    }

    /// Offers a node at measured proximity; keeps the `cap` nearest.
    /// Returns true if the set changed.
    pub fn consider(&mut self, h: NodeHandle, proximity_us: u64) -> bool {
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

    /// Removes the member at `addr`.
    pub fn remove_addr(&mut self, addr: Addr) -> Option<NodeHandle> {
        if let Some(pos) = self.entries.iter().position(|(m, _)| m.addr == addr) {
            return Some(self.entries.remove(pos).0);
        }
        None
    }

    /// Members, nearest first.
    pub fn members(&self) -> impl Iterator<Item = &NodeHandle> {
        self.entries.iter().map(|(m, _)| m)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
}
