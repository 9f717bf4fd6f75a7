//! Node handles: the (nodeId, network address) pairs stored in routing
//! state.
//!
//! In the paper "each entry maps a nodeId to the associated node's IP
//! address"; in the simulator the address is a topology slot index.

use crate::id::Id;
use past_wire::Addr;
use std::fmt;

/// A reference to a remote node: its id and simulator address.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeHandle {
    /// The node's 128-bit identifier.
    pub id: Id,
    /// The node's network address.
    pub addr: Addr,
}

impl NodeHandle {
    /// Creates a handle.
    pub fn new(id: Id, addr: Addr) -> NodeHandle {
        NodeHandle { id, addr }
    }
}

impl fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.id, self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_format() {
        let h = NodeHandle::new(Id(0xff), 3);
        assert_eq!(format!("{h:?}"), format!("{}@3", Id(0xff)));
    }
}
