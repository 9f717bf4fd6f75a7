//! The Pastry routing table.
//!
//! "A node's routing table is organized into ⌈log_2^b N⌉ levels with 2^b − 1
//! entries each. The 2^b − 1 entries at level n ... each refer to a node
//! whose nodeId matches the present node's nodeId in the first n digits, but
//! whose n+1-th digit has one of the 2^b − 1 possible values other than the
//! n+1-th digit in the present node's id. ... Among such nodes, the one
//! closest to the present node, according to the proximity metric, is chosen
//! in practice."

use crate::handle::NodeHandle;
use crate::id::{Config, Id};
use past_wire::Addr;

/// One routing-table slot: the chosen node and its measured proximity.
#[derive(Clone, Copy, Debug)]
struct Slot {
    handle: NodeHandle,
    proximity_us: u64,
}

/// The prefix-indexed routing table of one node.
///
/// Rows are allocated lazily: "the uniform distribution of nodeIds ensures
/// an even population of the nodeId space; thus, only ⌈log_2^b N⌉ levels
/// are populated in the routing table", so a node in a 100 000-node network
/// touches only ~5 of its 32 potential rows.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    own: Id,
    b: u8,
    max_rows: usize,
    cols: usize,
    rows: Vec<Vec<Option<Slot>>>,
}

impl RoutingTable {
    /// Creates an empty table for a node with id `own`.
    pub fn new(own: Id, cfg: &Config) -> RoutingTable {
        RoutingTable {
            own,
            b: cfg.b,
            max_rows: cfg.digits(),
            cols: cfg.cols(),
            rows: Vec::new(),
        }
    }

    /// Ensures row `row` is allocated.
    fn grow_to(&mut self, row: usize) {
        debug_assert!(row < self.max_rows);
        while self.rows.len() <= row {
            self.rows.push(vec![None; self.cols]);
        }
    }

    /// The entry at (row, col), if populated.
    pub fn get(&self, row: usize, col: usize) -> Option<NodeHandle> {
        self.rows
            .get(row)
            .and_then(|r| r.get(col))
            .and_then(|s| s.map(|s| s.handle))
    }

    /// The slot a given id would occupy: `(row, col)`, or `None` for our own
    /// id (all digits shared).
    pub fn slot_for(&self, id: &Id) -> Option<(usize, usize)> {
        let row = self.own.prefix_len(id, self.b);
        if row == self.max_rows {
            return None;
        }
        Some((row, id.digit(row, self.b) as usize))
    }

    /// Offers a candidate for inclusion; it is installed if its slot is
    /// empty or if it is strictly closer (by proximity) than the incumbent.
    ///
    /// Returns true if the table changed.
    pub fn consider(&mut self, handle: NodeHandle, proximity_us: u64) -> bool {
        let Some((row, col)) = self.slot_for(&handle.id) else {
            return false;
        };
        self.grow_to(row);
        let slot = &mut self.rows[row][col];
        match slot {
            Some(existing) if existing.handle.addr == handle.addr => false,
            Some(existing) if existing.proximity_us <= proximity_us => false,
            _ => {
                *slot = Some(Slot {
                    handle,
                    proximity_us,
                });
                true
            }
        }
    }

    /// Removes any entry referring to `addr`; returns the slots vacated.
    pub fn remove_addr(&mut self, addr: Addr) -> Vec<(usize, usize)> {
        let mut vacated = Vec::new();
        for (r, row) in self.rows.iter_mut().enumerate() {
            for (c, slot) in row.iter_mut().enumerate() {
                if slot.map(|s| s.handle.addr) == Some(addr) {
                    *slot = None;
                    vacated.push((r, c));
                }
            }
        }
        vacated
    }

    /// All populated slots as `(row, col, entry)` (snapshot/invariant
    /// support).
    pub fn slots(&self) -> impl Iterator<Item = (usize, usize, NodeHandle)> + '_ {
        self.rows.iter().enumerate().flat_map(|(r, row)| {
            row.iter()
                .enumerate()
                .filter_map(move |(c, s)| s.map(|s| (r, c, s.handle)))
        })
    }

    /// All populated entries.
    pub fn entries(&self) -> impl Iterator<Item = NodeHandle> + '_ {
        self.rows
            .iter()
            .flatten()
            .filter_map(|s| s.map(|s| s.handle))
    }

    /// The populated entries of one row (used by the join protocol: "the
    /// i-th row of the routing table from the i-th node encountered along
    /// the route").
    pub fn row_entries(&self, row: usize) -> Vec<NodeHandle> {
        self.rows
            .get(row)
            .map(|r| r.iter().filter_map(|s| s.map(|s| s.handle)).collect())
            .unwrap_or_default()
    }

    /// Number of populated entries (for the E2 state-size experiment).
    pub fn populated(&self) -> usize {
        self.rows.iter().flatten().filter(|s| s.is_some()).count()
    }

    /// Number of rows with at least one entry.
    pub fn populated_rows(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.iter().any(|s| s.is_some()))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::default()
    }

    fn h(id: u128, addr: Addr) -> NodeHandle {
        NodeHandle::new(Id(id), addr)
    }

    const OWN: u128 = 0xabcd_0000_0000_0000_0000_0000_0000_0000;

    #[test]
    fn slot_assignment_follows_prefix() {
        let t = RoutingTable::new(Id(OWN), &cfg());
        // Differs in first digit (0x1 vs 0xa) -> row 0, col 1.
        let other = Id(0x1bcd_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(t.slot_for(&other), Some((0, 1)));
        // Shares 3 digits, 4th digit is 0xe -> row 3, col 0xe.
        let other = Id(0xabce_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(t.slot_for(&other), Some((3, 0xe)));
        // Own id has no slot.
        assert_eq!(t.slot_for(&Id(OWN)), None);
    }

    #[test]
    fn consider_prefers_closer_nodes() {
        let mut t = RoutingTable::new(Id(OWN), &cfg());
        let far = h(0x1bcd_0000_0000_0000_0000_0000_0000_0000, 1);
        let near = h(0x1fff_0000_0000_0000_0000_0000_0000_0000, 2);
        assert!(t.consider(far, 900));
        assert_eq!(t.get(0, 1).unwrap().addr, 1);
        // A closer candidate for the same slot replaces the incumbent.
        assert!(t.consider(near, 100));
        assert_eq!(t.get(0, 1).unwrap().addr, 2);
        // A farther candidate does not.
        assert!(!t.consider(far, 900));
        assert_eq!(t.get(0, 1).unwrap().addr, 2);
    }

    #[test]
    fn consider_ignores_own_id() {
        let mut t = RoutingTable::new(Id(OWN), &cfg());
        assert!(!t.consider(h(OWN, 9), 1));
        assert_eq!(t.populated(), 0);
    }

    #[test]
    fn remove_addr_vacates_slots() {
        let mut t = RoutingTable::new(Id(OWN), &cfg());
        t.consider(h(0x1bcd_0000_0000_0000_0000_0000_0000_0000, 1), 10);
        t.consider(h(0xabce_0000_0000_0000_0000_0000_0000_0000, 1), 10);
        let vacated = t.remove_addr(1);
        assert_eq!(vacated.len(), 2);
        assert_eq!(t.populated(), 0);
    }

    #[test]
    fn row_entries_and_counts() {
        let mut t = RoutingTable::new(Id(OWN), &cfg());
        t.consider(h(0x1bcd_0000_0000_0000_0000_0000_0000_0000, 1), 10);
        t.consider(h(0x2bcd_0000_0000_0000_0000_0000_0000_0000, 2), 10);
        t.consider(h(0xabce_0000_0000_0000_0000_0000_0000_0000, 3), 10);
        assert_eq!(t.row_entries(0).len(), 2);
        assert_eq!(t.row_entries(3).len(), 1);
        assert_eq!(t.populated(), 3);
        assert_eq!(t.populated_rows(), 2);
        assert_eq!(t.entries().count(), 3);
    }
}
