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

/// The address of a vacant [`Slot`]. No node can hold it: the engine
/// refuses an address space of `u32::MAX` slots or more.
const VACANT_ADDR: u32 = u32::MAX;

/// One packed entry of routing state: a node, its address narrowed to
/// `u32` and its measured proximity saturated at `u32::MAX` µs (71
/// minutes one way). 24 bytes at alignment 8, where
/// `Option<(NodeHandle, u64)>` is 64 at alignment 16 — the id travels
/// as two halves so no field asks for 16.
///
/// Shared with [`crate::neighborhood`], which stores the same pair.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot {
    id_hi: u64,
    id_lo: u64,
    addr: u32,
    proximity_us: u32,
}

/// `addr` as a slot stores it, or `None` if it does not fit: addresses
/// are 8 bytes on the wire, and truncating one would alias another
/// node's.
pub(crate) fn pack_addr(addr: Addr) -> Option<u32> {
    u32::try_from(addr).ok().filter(|&a| a != VACANT_ADDR)
}

impl Slot {
    const VACANT: Slot = Slot {
        id_hi: 0,
        id_lo: 0,
        addr: VACANT_ADDR,
        proximity_us: 0,
    };

    /// Packs an entry, or `None` if the handle's address does not fit
    /// (see [`pack_addr`]).
    pub(crate) fn pack(h: NodeHandle, proximity_us: u64) -> Option<Slot> {
        Some(Slot {
            id_hi: (h.id.0 >> 64) as u64,
            id_lo: h.id.0 as u64,
            addr: pack_addr(h.addr)?,
            proximity_us: u32::try_from(proximity_us).unwrap_or(u32::MAX),
        })
    }

    /// The stored handle, if the slot is populated.
    pub(crate) fn handle(&self) -> Option<NodeHandle> {
        (self.addr != VACANT_ADDR).then(|| {
            NodeHandle::new(
                Id((self.id_hi as u128) << 64 | self.id_lo as u128),
                self.addr as Addr,
            )
        })
    }

    /// The stored address ([`pack_addr`] form).
    pub(crate) fn addr(&self) -> u32 {
        self.addr
    }

    /// The stored (saturated) proximity.
    pub(crate) fn proximity_us(&self) -> u32 {
        self.proximity_us
    }
}

/// The prefix-indexed routing table of one node.
///
/// Rows are allocated lazily: "the uniform distribution of nodeIds ensures
/// an even population of the nodeId space; thus, only ⌈log_2^b N⌉ levels
/// are populated in the routing table", so a node in a 100 000-node network
/// touches only ~5 of its 32 potential rows. The allocated rows share one
/// row-major buffer, grown exactly a row at a time.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    own: Id,
    b: u8,
    max_rows: u8,
    cols: u16,
    /// Rows `0..slots.len() / cols`, row-major.
    slots: Vec<Slot>,
}

impl RoutingTable {
    /// Creates an empty table for a node with id `own`. `cfg` is taken
    /// as validated ([`Config::validate`] bounds `b` at 8, which is what
    /// lets the row and column counts narrow).
    pub fn new(own: Id, cfg: &Config) -> RoutingTable {
        debug_assert!(cfg.b <= 8);
        RoutingTable {
            own,
            b: cfg.b,
            max_rows: cfg.digits() as u8,
            cols: cfg.cols() as u16,
            slots: Vec::new(),
        }
    }

    fn cols(&self) -> usize {
        self.cols as usize
    }

    /// Ensures row `row` is allocated.
    fn grow_to(&mut self, row: usize) {
        debug_assert!(row < self.max_rows as usize);
        let want = (row + 1) * self.cols();
        if want > self.slots.len() {
            self.slots.reserve_exact(want - self.slots.len());
            self.slots.resize(want, Slot::VACANT);
        }
    }

    /// The slots of row `row` (empty if the row is not allocated).
    fn row(&self, row: usize) -> &[Slot] {
        self.slots.chunks_exact(self.cols()).nth(row).unwrap_or(&[])
    }

    /// The entry at (row, col), if populated.
    pub fn get(&self, row: usize, col: usize) -> Option<NodeHandle> {
        // Through the row slice: a flat `row * cols + col` would read a
        // column past the row's end out of the next row.
        self.row(row).get(col).and_then(Slot::handle)
    }

    /// The slot a given id would occupy: `(row, col)`, or `None` for our own
    /// id (all digits shared).
    pub fn slot_for(&self, id: &Id) -> Option<(usize, usize)> {
        let row = self.own.prefix_len(id, self.b);
        if row == self.max_rows as usize {
            return None;
        }
        Some((row, id.digit(row, self.b) as usize))
    }

    /// Offers a candidate for inclusion; it is installed if its slot is
    /// empty or if it is strictly closer (by proximity) than the incumbent.
    /// A handle whose address the packed slot cannot hold is not admitted.
    ///
    /// Returns true if the table changed.
    pub fn consider(&mut self, handle: NodeHandle, proximity_us: u64) -> bool {
        let Some((row, col)) = self.slot_for(&handle.id) else {
            return false;
        };
        let Some(candidate) = Slot::pack(handle, proximity_us) else {
            return false;
        };
        self.grow_to(row);
        let at = row * self.cols() + col;
        let slot = &mut self.slots[at];
        if slot.addr != VACANT_ADDR
            && (slot.addr == candidate.addr || slot.proximity_us <= candidate.proximity_us)
        {
            return false;
        }
        *slot = candidate;
        true
    }

    /// Removes any entry referring to `addr`; returns the slots vacated.
    pub fn remove_addr(&mut self, addr: Addr) -> Vec<(usize, usize)> {
        let mut vacated = Vec::new();
        let Some(addr) = pack_addr(addr) else {
            return vacated;
        };
        let cols = self.cols();
        let mut from = 0;
        while let Some(hit) = self.slots[from..].iter().position(|s| s.addr == addr) {
            let at = from + hit;
            self.slots[at] = Slot::VACANT;
            vacated.push((at / cols, at % cols));
            from = at + 1;
        }
        vacated
    }

    /// Vacates the first slot holding `addr`, returning where it was and
    /// what it held, for [`Self::put_back`].
    pub(crate) fn take(&mut self, addr: Addr) -> Option<(usize, Slot)> {
        let addr = pack_addr(addr)?;
        let at = self.slots.iter().position(|s| s.addr == addr)?;
        Some((at, std::mem::replace(&mut self.slots[at], Slot::VACANT)))
    }

    /// Puts back what [`Self::take`] vacated.
    pub(crate) fn put_back(&mut self, (at, slot): (usize, Slot)) {
        self.slots[at] = slot;
    }

    /// All populated slots as `(row, col, entry)` (snapshot/invariant
    /// support).
    pub fn slots(&self) -> impl Iterator<Item = (usize, usize, NodeHandle)> + '_ {
        let cols = self.cols();
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| s.handle().map(|h| (i / cols, i % cols, h)))
    }

    /// All populated entries.
    pub fn entries(&self) -> impl Iterator<Item = NodeHandle> + '_ {
        self.slots.iter().filter_map(Slot::handle)
    }

    /// The populated entries of one row (used by the join protocol: "the
    /// i-th row of the routing table from the i-th node encountered along
    /// the route").
    pub fn row_entries(&self, row: usize) -> Vec<NodeHandle> {
        self.row(row).iter().filter_map(Slot::handle).collect()
    }

    /// Number of populated entries (for the E2 state-size experiment).
    pub fn populated(&self) -> usize {
        self.slots.iter().filter(|s| s.addr != VACANT_ADDR).count()
    }

    /// Number of rows with at least one entry.
    pub fn populated_rows(&self) -> usize {
        self.slots
            .chunks_exact(self.cols())
            .filter(|r| r.iter().any(|s| s.addr != VACANT_ADDR))
            .count()
    }

    /// Bytes of heap this table holds (capacity, not population).
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
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

    #[test]
    fn slot_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 24);
    }

    #[test]
    fn column_past_the_row_end_is_none() {
        // RepairRequest carries (row, col) as u16 off the wire: a column
        // past the row's end must not read into the next row.
        let mut t = RoutingTable::new(Id(OWN), &cfg());
        t.consider(h(0x1bcd_0000_0000_0000_0000_0000_0000_0000, 1), 10);
        t.consider(h(0xa0cd_0000_0000_0000_0000_0000_0000_0000, 2), 10);
        assert_eq!(t.get(1, 0).map(|e| e.addr), Some(2));
        assert!(t.get(0, 16).is_none(), "(0, cols) is not (1, 0)");
        assert!(t.get(0, 17).is_none());
        assert!(t.get(0, usize::MAX).is_none());
        assert!(t.get(2, 0).is_none(), "unallocated row");
        assert!(t.get(usize::MAX, 0).is_none());
        assert!(t.get(usize::MAX, usize::MAX).is_none());
        assert!(t.row_entries(usize::MAX).is_empty());
    }

    #[test]
    fn address_that_does_not_fit_is_not_admitted() {
        let id = 0x1bcd_0000_0000_0000_0000_0000_0000_0000;
        for addr in [usize::MAX, u32::MAX as usize, (1 << 32) + 1] {
            let mut t = RoutingTable::new(Id(OWN), &cfg());
            assert!(t.consider(h(id, 1), 10));
            let before: Vec<_> = t.slots().collect();
            // Neither into an empty slot nor over a farther incumbent.
            assert!(!t.consider(h(id, addr), 1));
            assert!(!t.consider(h(0x2bcd_0000_0000_0000_0000_0000_0000_0000, addr), 1));
            assert_eq!(t.slots().collect::<Vec<_>>(), before);
            // Removing it is not removing the address it truncates to.
            assert!(t.remove_addr(addr).is_empty());
            assert_eq!(t.slots().collect::<Vec<_>>(), before);
        }
        // The largest address the engine can hand out still fits.
        let mut t = RoutingTable::new(Id(OWN), &cfg());
        let last = u32::MAX as usize - 1;
        assert!(t.consider(h(id, last), 10));
        assert_eq!(t.get(0, 1), Some(h(id, last)));
        assert_eq!(t.remove_addr(last), vec![(0, 1)]);
    }

    #[test]
    fn proximity_saturates_and_unknown_still_loses() {
        let a = h(0x1bcd_0000_0000_0000_0000_0000_0000_0000, 1);
        let b = h(0x1fff_0000_0000_0000_0000_0000_0000_0000, 2);
        let mut t = RoutingTable::new(Id(OWN), &cfg());
        // The "unknown" sentinel fills an empty slot...
        assert!(t.consider(a, u64::MAX));
        // ...does not replace an equal incumbent...
        assert!(!t.consider(b, u64::MAX));
        assert_eq!(t.get(0, 1), Some(a));
        // ...and loses to any measured candidate, however far.
        assert!(t.consider(b, u32::MAX as u64 - 1));
        assert_eq!(t.get(0, 1), Some(b));
        assert!(!t.consider(a, u64::MAX));
        assert!(
            !t.consider(a, u32::MAX as u64 + 7),
            "saturates, no wrap to 6"
        );
        assert_eq!(t.get(0, 1), Some(b));
    }

    /// The representation the packed table replaced — one `Vec` per row
    /// of 64-byte `Option<(NodeHandle, u64)>` — kept as the reference
    /// the packed one is compared against.
    struct RowsOfOptions {
        own: Id,
        b: u8,
        max_rows: usize,
        cols: usize,
        rows: Vec<Vec<Option<(NodeHandle, u64)>>>,
    }

    impl RowsOfOptions {
        fn new(own: Id, cfg: &Config) -> RowsOfOptions {
            RowsOfOptions {
                own,
                b: cfg.b,
                max_rows: cfg.digits(),
                cols: cfg.cols(),
                rows: Vec::new(),
            }
        }

        fn get(&self, row: usize, col: usize) -> Option<NodeHandle> {
            self.rows
                .get(row)
                .and_then(|r| r.get(col))
                .and_then(|s| s.map(|s| s.0))
        }

        fn consider(&mut self, handle: NodeHandle, proximity_us: u64) -> bool {
            let row = self.own.prefix_len(&handle.id, self.b);
            if row == self.max_rows {
                return false;
            }
            let col = handle.id.digit(row, self.b) as usize;
            while self.rows.len() <= row {
                self.rows.push(vec![None; self.cols]);
            }
            let slot = &mut self.rows[row][col];
            match slot {
                Some(existing) if existing.0.addr == handle.addr => false,
                Some(existing) if existing.1 <= proximity_us => false,
                _ => {
                    *slot = Some((handle, proximity_us));
                    true
                }
            }
        }

        fn remove_addr(&mut self, addr: Addr) -> Vec<(usize, usize)> {
            let mut vacated = Vec::new();
            for (r, row) in self.rows.iter_mut().enumerate() {
                for (c, slot) in row.iter_mut().enumerate() {
                    if slot.map(|s| s.0.addr) == Some(addr) {
                        *slot = None;
                        vacated.push((r, c));
                    }
                }
            }
            vacated
        }

        fn slots(&self) -> Vec<(usize, usize, NodeHandle)> {
            let mut out = Vec::new();
            for (r, row) in self.rows.iter().enumerate() {
                for (c, s) in row.iter().enumerate() {
                    if let Some((h, _)) = s {
                        out.push((r, c, *h));
                    }
                }
            }
            out
        }

        fn row_entries(&self, row: usize) -> Vec<NodeHandle> {
            self.rows
                .get(row)
                .map(|r| r.iter().filter_map(|s| s.map(|s| s.0)).collect())
                .unwrap_or_default()
        }
    }

    #[test]
    fn packed_table_matches_rows_of_options() {
        use past_crypto::rng::Rng;
        const OPS: usize = 20_000;
        for b in [1u8, 2, 4, 8] {
            let cfg = Config { b, ..cfg() };
            let (rows, cols) = (cfg.digits(), cfg.cols());
            let mut rng = Rng::seed_from_u64(0x7ab1e + b as u64);
            let own = Id(rng.random());
            let mut packed = RoutingTable::new(own, &cfg);
            let mut reference = RowsOfOptions::new(own, &cfg);
            for step in 0..OPS {
                let what = rng.random_range(0..8u32);
                // A small address pool, so the same-address rule and
                // `remove_addr` both find incumbents.
                let addr = rng.random_range(0..48usize);
                let row = rng.random_range(0..rows + 2);
                let col = rng.random_range(0..cols + 2);
                match what {
                    0 => assert_eq!(
                        packed.remove_addr(addr),
                        reference.remove_addr(addr),
                        "b={b} step {step}: remove_addr({addr})"
                    ),
                    1 => assert_eq!(
                        packed.get(row, col),
                        reference.get(row, col),
                        "b={b} step {step}: get({row}, {col})"
                    ),
                    2 => assert_eq!(
                        packed.row_entries(row),
                        reference.row_entries(row),
                        "b={b} step {step}: row_entries({row})"
                    ),
                    _ => {
                        // Share a random-length prefix with `own` (down
                        // to all 128 bits: the own-id case), so every
                        // row sees traffic.
                        let keep = rng.random_range(0..=128u32);
                        let noise: u128 = rng.random();
                        let id = Id(own.0 ^ noise.checked_shr(keep).unwrap_or(0));
                        let prox = match rng.random_range(0..8u32) {
                            0 => u64::MAX,
                            1 => rng.random_range(0..4u64),
                            _ => rng.random_range(0..200_000u64),
                        };
                        let hd = NodeHandle::new(id, addr);
                        assert_eq!(
                            packed.consider(hd, prox),
                            reference.consider(hd, prox),
                            "b={b} step {step}: consider({hd:?}, {prox})"
                        );
                    }
                }
                let want = reference.slots();
                assert_eq!(
                    packed.slots().collect::<Vec<_>>(),
                    want,
                    "b={b} step {step}"
                );
                assert_eq!(packed.populated(), want.len());
                assert!(packed.entries().eq(want.iter().map(|&(_, _, h)| h)));
                let mut populated_rows: Vec<usize> = want.iter().map(|&(r, _, _)| r).collect();
                populated_rows.dedup();
                assert_eq!(packed.populated_rows(), populated_rows.len());
            }
            assert!(
                packed.populated() > 0,
                "b={b}: the walk never filled a slot"
            );
            assert_eq!(
                packed.heap_bytes(),
                reference.rows.len() * cols * 24,
                "b={b}: exactly the allocated rows, no doubling"
            );
        }
    }
}
