//! Struct-of-arrays node storage for the engine.
//!
//! At 100k+ nodes the engine's per-event working set is what decides
//! throughput. The hot loop touches, for every event: the destination's
//! liveness, its logic state, and two traffic counters. Keeping those
//! as parallel arrays instead of one array of fat structs means the
//! liveness check reads a bit from a 1-bit-per-node bitset (a 1M-node
//! overlay's entire liveness fits in 122 KiB — L2-resident), and the
//! counters live in their own dense arrays instead of padding every
//! node record.

use crate::topology::Addr;

/// Per-node send/receive counters, returned by
/// [`Engine::node_io`](crate::Engine::node_io).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeIo {
    /// Messages this node sent (including ones later lost or failed).
    pub sent: u64,
    /// Messages this node received and processed.
    pub recv: u64,
}

/// Struct-of-arrays storage: node logic, liveness bitset, IO counters.
pub(crate) struct NodeSlots<N> {
    logic: Vec<N>,
    /// Liveness, 64 nodes per word.
    alive: Vec<u64>,
    sent: Vec<u64>,
    recv: Vec<u64>,
}

impl<N> NodeSlots<N> {
    /// Empty storage.
    pub fn new() -> NodeSlots<N> {
        NodeSlots {
            logic: Vec::new(),
            alive: Vec::new(),
            sent: Vec::new(),
            recv: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.logic.len()
    }

    /// Appends a node (alive); returns its address.
    pub fn push(&mut self, node: N) -> Addr {
        let a = self.logic.len();
        self.logic.push(node);
        if a.is_multiple_of(64) {
            self.alive.push(0);
        }
        self.alive[a / 64] |= 1 << (a % 64);
        self.sent.push(0);
        self.recv.push(0);
        a
    }

    /// Reserves room for `extra` more nodes.
    pub fn reserve(&mut self, extra: usize) {
        self.logic.reserve(extra);
        self.sent.reserve(extra);
        self.recv.reserve(extra);
    }

    /// The nodes' logic states, in address order.
    pub fn iter(&self) -> impl Iterator<Item = &N> {
        self.logic.iter()
    }

    /// Bytes the logic array holds (`size_of::<N>()` per reserved slot).
    pub fn inline_bytes(&self) -> usize {
        self.logic.capacity() * std::mem::size_of::<N>()
    }

    /// Bytes the liveness and counter columns hold.
    pub fn column_bytes(&self) -> usize {
        (self.alive.capacity() + self.sent.capacity() + self.recv.capacity())
            * std::mem::size_of::<u64>()
    }

    /// Liveness of node `a`.
    #[inline]
    pub fn is_alive(&self, a: Addr) -> bool {
        (self.alive[a / 64] >> (a % 64)) & 1 != 0
    }

    /// Sets node `a` dead or alive.
    pub fn set_alive(&mut self, a: Addr, alive: bool) {
        assert!(a < self.logic.len(), "no node at address {a}");
        let (w, b) = (a / 64, 1u64 << (a % 64));
        if alive {
            self.alive[w] |= b;
        } else {
            self.alive[w] &= !b;
        }
    }

    /// The logic state of node `a`.
    #[inline]
    pub fn logic(&self, a: Addr) -> &N {
        &self.logic[a]
    }

    /// Mutable logic state of node `a`.
    #[inline]
    pub fn logic_mut(&mut self, a: Addr) -> &mut N {
        &mut self.logic[a]
    }

    /// Bumps node `a`'s sent counter.
    #[inline]
    pub fn note_sent(&mut self, a: Addr) {
        self.sent[a] += 1;
    }

    /// Bumps node `a`'s received counter.
    #[inline]
    pub fn note_recv(&mut self, a: Addr) {
        self.recv[a] += 1;
    }

    /// Per-node IO counters.
    pub fn io(&self, a: Addr) -> NodeIo {
        NodeIo {
            sent: self.sent[a],
            recv: self.recv[a],
        }
    }

    /// Addresses of all live nodes, ascending.
    pub fn live_addrs(&self) -> Vec<Addr> {
        let mut out = Vec::new();
        for (w, &bits) in self.alive.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(w * 64 + b);
                bits &= bits - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pushed(n: usize) -> NodeSlots<usize> {
        let mut s = NodeSlots::new();
        for i in 0..n {
            s.push(i);
        }
        s
    }

    #[test]
    fn push_and_liveness() {
        let mut s = NodeSlots::new();
        for i in 0..130 {
            assert_eq!(s.push(i), i);
        }
        assert!(s.is_alive(0) && s.is_alive(64) && s.is_alive(129));
        s.set_alive(64, false);
        assert!(!s.is_alive(64));
        assert!(s.is_alive(63) && s.is_alive(65), "neighbors untouched");
        s.set_alive(64, true);
        assert!(s.is_alive(64));
    }

    #[test]
    fn live_addrs_matches_bitset() {
        let mut s = pushed(200);
        for a in [0usize, 63, 64, 127, 199] {
            s.set_alive(a, false);
        }
        let live = s.live_addrs();
        assert_eq!(live.len(), 195);
        for a in [0usize, 63, 64, 127, 199] {
            assert!(!live.contains(&a));
        }
        assert!(live.windows(2).all(|w| w[0] < w[1]), "ascending");
    }

    #[test]
    fn pushes_leave_no_phantom_tail() {
        assert_eq!(pushed(70).live_addrs().len(), 70);
    }

    #[test]
    fn io_counters() {
        let mut s = pushed(3);
        s.note_sent(1);
        s.note_sent(1);
        s.note_recv(2);
        assert_eq!(s.io(1), NodeIo { sent: 2, recv: 0 });
        assert_eq!(s.io(2), NodeIo { sent: 0, recv: 1 });
        assert_eq!(s.io(0), NodeIo::default());
    }
}
