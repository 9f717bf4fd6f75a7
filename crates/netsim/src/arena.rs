//! A slab arena for in-flight message payloads.
//!
//! The engine's event queue used to carry each event's message inline,
//! so every push moved a full `Msg` (for Pastry, a fat enum) through
//! the queue and every queue growth re-copied them all. The arena
//! decouples payload storage from scheduling: messages park in a slab
//! slot, the queue carries a fixed-size record holding the slot index,
//! and freed slots are recycled through a free list — after warm-up,
//! the steady-state event loop allocates nothing per event.
//!
//! Indices are `u32` below [`MAX_SLOTS`]: two billion simultaneously
//! in-flight messages is beyond any simulation this engine can hold in
//! memory anyway, and halving the index width keeps event records
//! small. Only messages that carry fields park here: the engine keeps a
//! fieldless message's kind id in the event record instead
//! (`engine/core.rs`), so a stabilize round's heartbeats take no slot.

/// Handles stay below this bound: the engine's event record spends the
/// top bit of its `u32` message field on tagging a fieldless message's
/// kind id.
pub const MAX_SLOTS: u32 = 1 << 31;

/// A recycling slab of `T` addressed by dense `u32` handles.
pub struct Arena<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Arena<T> {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// An empty arena with room for `cap` values before reallocating.
    pub fn with_capacity(cap: usize) -> Arena<T> {
        Arena {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Parks a value; returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed [`MAX_SLOTS`] slots.
    pub fn insert(&mut self, value: T) -> u32 {
        self.live += 1;
        if let Some(i) = self.free.pop() {
            debug_assert!(self.slots[i as usize].is_none());
            self.slots[i as usize] = Some(value);
            return i;
        }
        let i = self.slots.len();
        assert!(
            i < MAX_SLOTS as usize,
            "arena exhausted its MAX_SLOTS (2^31) handles"
        );
        self.slots.push(Some(value));
        i as u32
    }

    /// Borrows the value at `handle` without freeing the slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn get(&self, handle: u32) -> &T {
        self.slots[handle as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("arena slot {handle} is vacant"))
    }

    /// Removes and returns the value at `handle`, recycling the slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant (a double-take is an engine bug).
    pub fn take(&mut self, handle: u32) -> T {
        let v = self.slots[handle as usize]
            .take()
            .unwrap_or_else(|| panic!("arena slot {handle} taken twice"));
        self.free.push(handle);
        self.live -= 1;
        v
    }

    /// Number of live (parked) values.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever allocated (live + recyclable).
    pub fn capacity_slots(&self) -> usize {
        self.slots.len()
    }

    /// Bytes of heap the arena holds: slot and free-list capacity (what
    /// a parked value owns on the heap itself is not counted).
    pub fn capacity_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<T>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_roundtrip() {
        let mut a = Arena::new();
        let h1 = a.insert("x");
        let h2 = a.insert("y");
        assert_eq!(a.len(), 2);
        assert_eq!(a.take(h1), "x");
        assert_eq!(a.take(h2), "y");
        assert!(a.is_empty());
    }

    #[test]
    fn slots_are_recycled() {
        let mut a = Arena::new();
        let h1 = a.insert(1u32);
        assert_eq!(a.take(h1), 1);
        let h2 = a.insert(2u32);
        assert_eq!(h2, h1, "freed slot must be reused");
        assert_eq!(a.capacity_slots(), 1, "no growth while recycling");
        assert_eq!(a.take(h2), 2);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn double_take_panics() {
        let mut a = Arena::new();
        let h = a.insert(7u8);
        let _ = a.take(h);
        let _ = a.take(h);
    }
}
