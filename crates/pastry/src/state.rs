//! The complete routing state of one Pastry node.

use crate::handle::NodeHandle;
use crate::id::Config;
use crate::leafset::{LeafSet, Side};
use crate::neighborhood::NeighborhoodSet;
use crate::table::RoutingTable;
use past_wire::Addr;

/// The three routing structures of a node: routing table, leaf set and
/// neighborhood set.
#[derive(Clone, Debug)]
pub struct PastryState {
    /// Protocol parameters.
    pub cfg: Config,
    /// This node's own handle.
    pub me: NodeHandle,
    /// The prefix-routing table.
    pub table: RoutingTable,
    /// The leaf set (ring neighbors).
    pub leaf: LeafSet,
    /// The proximity-nearest set.
    pub neighborhood: NeighborhoodSet,
}

/// What changed when a node was removed from the state.
#[derive(Debug, Default)]
pub struct Removal {
    /// If the node was a leaf member, the side it occupied.
    pub leaf_side: Option<Side>,
    /// The removed leaf handle, if any.
    pub leaf_handle: Option<NodeHandle>,
    /// Routing-table slots vacated.
    pub table_slots: Vec<(usize, usize)>,
}

impl PastryState {
    /// Creates empty state for node `me`.
    pub fn new(cfg: Config, me: NodeHandle) -> PastryState {
        cfg.validate();
        PastryState {
            cfg,
            me,
            table: RoutingTable::new(me.id, &cfg),
            leaf: LeafSet::new(me.id, cfg.leaf_len),
            neighborhood: NeighborhoodSet::new(cfg.neighborhood_len),
        }
    }

    /// Learns about a node: offers it to all three structures.
    ///
    /// Returns true if the *leaf set* changed (the signal the application
    /// layer cares about for replica management).
    pub fn add_node(&mut self, h: NodeHandle, proximity_us: u64) -> bool {
        if h.addr == self.me.addr || h.id == self.me.id {
            return false;
        }
        self.table.consider(h, proximity_us);
        self.neighborhood.consider(h, proximity_us);
        let outcome = self.leaf.insert(h);
        if let Some(evicted) = outcome.evicted {
            // The displaced member is still a live ring neighbor: demote
            // it to the routing table rather than forgetting it. Its
            // proximity is unknown here, so it only fills an empty slot
            // (any measured candidate will replace it later).
            self.table.consider(evicted, u64::MAX);
        }
        outcome.changed
    }

    /// Forgets a (presumed failed) node everywhere.
    pub fn remove_addr(&mut self, addr: Addr) -> Removal {
        let mut removal = Removal {
            table_slots: self.table.remove_addr(addr),
            ..Removal::default()
        };
        if let Some(h) = self.leaf.remove_addr(addr) {
            removal.leaf_side = Some(self.leaf.side_of(&h.id));
            removal.leaf_handle = Some(h);
        }
        self.neighborhood.remove_addr(addr);
        removal
    }

    /// Iterates every node this one currently knows, in leaf-set, then
    /// routing-table, then neighborhood order, *without* deduplication —
    /// an address present in several structures appears once per
    /// occurrence (always as the same handle). Routing walks this
    /// directly to avoid materializing a candidate list per step.
    pub fn known_nodes_iter(&self) -> impl Iterator<Item = NodeHandle> + '_ {
        self.leaf
            .members()
            .copied()
            .chain(self.table.entries())
            .chain(self.neighborhood.members())
    }

    /// Every node this one currently knows (deduplicated by address,
    /// first occurrence wins).
    pub fn known_nodes(&self) -> Vec<NodeHandle> {
        // The state holds tens of entries, so a linear-scan dedup beats a
        // hash set and keeps the exact first-occurrence order.
        let mut out: Vec<NodeHandle> = Vec::with_capacity(self.state_size());
        for h in self.known_nodes_iter() {
            if !out.iter().any(|s| s.addr == h.addr) {
                out.push(h);
            }
        }
        out
    }

    /// Bytes of heap the three structures hold (capacity × entry size;
    /// the `PastryState` struct itself is not counted).
    pub fn heap_bytes(&self) -> usize {
        self.table.heap_bytes() + self.leaf.heap_bytes() + self.neighborhood.heap_bytes()
    }

    /// Total populated entries across the three structures (the paper's
    /// state-size bound is `(2^b − 1)·⌈log_2^b N⌉ + 2l`).
    pub fn state_size(&self) -> usize {
        self.table.populated() + self.leaf.len() + self.neighborhood.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Id;

    fn st() -> PastryState {
        PastryState::new(
            Config {
                leaf_len: 4,
                neighborhood_len: 4,
                ..Config::default()
            },
            NodeHandle::new(Id(1 << 100), 0),
        )
    }

    fn h(id: u128, addr: Addr) -> NodeHandle {
        NodeHandle::new(Id(id), addr)
    }

    #[test]
    fn add_feeds_all_structures() {
        let mut s = st();
        let other = h(2 << 100, 1);
        assert!(s.add_node(other, 50));
        assert_eq!(s.leaf.len(), 1);
        assert_eq!(s.neighborhood.len(), 1);
        assert_eq!(s.table.populated(), 1);
        assert_eq!(s.state_size(), 3);
    }

    #[test]
    fn add_rejects_self() {
        let mut s = st();
        assert!(!s.add_node(h(1 << 100, 0), 0));
        assert_eq!(s.state_size(), 0);
    }

    #[test]
    fn remove_reports_leaf_side() {
        let mut s = st();
        let other = h((1 << 100) + 5, 1);
        s.add_node(other, 50);
        let r = s.remove_addr(1);
        assert_eq!(r.leaf_side, Some(Side::Larger));
        assert_eq!(r.leaf_handle.unwrap().addr, 1);
        assert!(!r.table_slots.is_empty());
        assert_eq!(s.state_size(), 0);
    }

    #[test]
    fn evicted_leaf_member_is_demoted_to_the_table() {
        // Regression: a nearer node displacing a full leaf-set half used
        // to drop the displaced member on the floor; it must be offered
        // back to the routing table.
        let mut s = st(); // leaf half = 2
        let far = h((1 << 100) + 20, 2);
        s.add_node(h((1 << 100) + 10, 1), 50);
        s.add_node(far, 50);
        // Vacate the far node's table slot so only the demotion path can
        // re-install it.
        let (row, col) = s.table.slot_for(&far.id).expect("far has a slot");
        s.table.remove_addr(2);
        assert!(s.table.get(row, col).is_none());
        // A nearer node evicts `far` from the full larger half.
        s.add_node(h((1 << 100) + 5, 3), 50);
        assert!(
            !s.leaf.contains_addr(2),
            "far was evicted from the leaf set"
        );
        assert_eq!(
            s.table.get(row, col).map(|e| e.addr),
            Some(2),
            "evicted member demoted into its routing-table slot"
        );
    }

    #[test]
    fn known_nodes_dedup() {
        let mut s = st();
        s.add_node(h(2 << 100, 1), 50);
        s.add_node(h(3 << 100, 2), 60);
        let known = s.known_nodes();
        assert_eq!(known.len(), 2);
    }
}
