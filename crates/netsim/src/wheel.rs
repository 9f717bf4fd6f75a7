//! A hierarchical timer wheel: the O(1) event queue behind the engine.
//!
//! A discrete-event simulation of a large overlay is dominated by a
//! *timer storm*: every node arms heartbeat/stabilize timers every few
//! hundred milliseconds, so at 100k+ nodes the pending-event set is
//! huge and almost entirely near-future. A binary heap pays `O(log n)`
//! per push/pop with poor locality; the wheel pays `O(1)` amortized by
//! hashing each event into a slot indexed by its expiry time.
//!
//! ## Layout
//!
//! [`LEVELS`] levels of [`SLOTS`] slots each. Level `k` has slot width
//! `64^k` microseconds, so level 0 resolves single ticks and the top
//! level spans the entire `u64` tick range — there is no overflow list
//! and no horizon. An event at time `t` is filed at the level of the
//! highest bit in which `t` differs from the wheel's current time
//! (`t ^ now`), i.e. the coarsest level at which it is distinguishable
//! from "now". As time advances, higher-level slots are *cascaded*:
//! drained and re-filed relative to the new now, falling one or more
//! levels each time until they reach level 0 and finally the
//! current-tick buffer.
//!
//! ## Ordering contract
//!
//! Events pop in ascending `(time, tie)` order, exactly like a totally
//! ordered priority queue. Level-0 slots are one tick wide, so every
//! event in a slot shares an exact time; a drained slot is sorted by
//! `tie` before delivery, and same-tick pushes that happen *while the
//! tick is being drained* (a handler scheduling a zero-delay event)
//! are inserted into the live buffer at their sorted position. Callers
//! supply the tie key: the engine uses `(source node, per-source seq)`
//! so the order is a property of the events, not of when they were
//! pushed. The binary heap the wheel replaced survives as the reference of the
//! differential test at the bottom of this file.
//!
//! ## Clocks: delivery floor vs. cascade position
//!
//! The wheel tracks two times. The *floor* is the time of the last
//! delivered event: pushing below it is a caller bug (simulated time
//! is monotone) and panics. The *cascade position* (`now`) is where
//! the slot bookkeeping has advanced to — [`peek_time`] may push it
//! all the way to the earliest pending event, which can sit far in
//! the future. A push between the floor and the cascade position is
//! legitimate and lands, sorted, in the current buffer: the engine's
//! `run_until` stops short of a distant timer after peeking at it, and
//! a message the harness injects next may land before that timer.
//!
//! [`peek_time`]: TimerWheel::peek_time

/// Slots per level (64 = one 6-bit digit of the tick counter).
const SLOTS: usize = 64;
/// Bits per level.
const BITS: u32 = 6;
/// Levels; `ceil(64 / 6) = 11` covers the full `u64` tick range.
const LEVELS: usize = 11;
/// A drained slot whose buffer has room for more entries than this
/// gives the buffer back to the allocator; a smaller one keeps it for
/// the next event filed there. So a burst's coarse slots (tens of
/// thousands of entries each) cost their memory only while they hold
/// it, and the slots retain at most `LEVELS * SLOTS` buffers of this
/// many entries however large the burst was. The current-tick buffer
/// is not bounded on its own: it is given back only when a burst slot
/// is drained after it (a round's timers, armed at one instant, fill
/// both). Timers armed at one instant whose follow-up events all fall
/// into small buckets leave it at its high-water size, which
/// [`TimerWheel::capacity_bytes`] counts.
const KEEP_ENTRIES: usize = 1024;

/// One pending event. The tie is held as two `u64` halves, compared
/// `(time, hi, lo)` — the `(time, tie)` order — because a `u128` field
/// would align the entry to 16 bytes: around the engine's 16-byte event
/// record, 48 bytes instead of 40.
struct Entry<E> {
    time: u64,
    hi: u64,
    lo: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn new(time: u64, tie: u128, payload: E) -> Entry<E> {
        Entry {
            time,
            hi: (tie >> 64) as u64,
            lo: tie as u64,
            payload,
        }
    }

    fn key(&self) -> (u64, u64, u64) {
        (self.time, self.hi, self.lo)
    }

    fn into_parts(self) -> (u64, u128, E) {
        let tie = (u128::from(self.hi) << 64) | u128::from(self.lo);
        (self.time, tie, self.payload)
    }
}

/// A hierarchical timer wheel delivering events in `(time, tie)` order.
pub struct TimerWheel<E> {
    /// Cascade position: how far slot bookkeeping has advanced. Always
    /// `>= floor`; may run ahead of it after a peek (see module docs).
    now: u64,
    /// Delivery floor: the time of the most recently popped event.
    floor: u64,
    /// `LEVELS * SLOTS` buckets, row-major by level.
    slots: Vec<Vec<Entry<E>>>,
    /// Per-level occupancy bitmap (bit `s` = slot `s` non-empty).
    occ: [u64; LEVELS],
    /// Events at or before the cascade position, ascending by
    /// `(time, tie)`; consumed from the front. `VecDeque` so the hot
    /// path (drain a slot, pop it dry) is O(1) per event while
    /// mid-drain same-tick inserts stay possible.
    current: std::collections::VecDeque<Entry<E>>,
    /// Scratch buffer reused across cascades.
    scratch: Vec<Entry<E>>,
    /// Total pending events (slots + current).
    len: usize,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// An empty wheel at time zero.
    pub fn new() -> TimerWheel<E> {
        TimerWheel {
            now: 0,
            floor: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            current: std::collections::VecDeque::new(),
            scratch: Vec::new(),
            len: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of heap the wheel holds: the capacity of every slot buffer,
    /// the current-tick buffer and the cascade scratch.
    pub fn capacity_bytes(&self) -> usize {
        let entries = self.slots.iter().map(Vec::capacity).sum::<usize>()
            + self.scratch.capacity()
            + self.current.capacity();
        entries * std::mem::size_of::<Entry<E>>()
            + self.slots.capacity() * std::mem::size_of::<Vec<Entry<E>>>()
    }

    /// The wheel's current time (last delivered tick).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedules `payload` at `time` with tie-break key `tie`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last delivered event:
    /// simulated time is monotone and a past-dated event would be
    /// silently misordered.
    pub fn push(&mut self, time: u64, tie: u128, payload: E) {
        assert!(
            time >= self.floor,
            "event scheduled in the past ({time} < delivered {floor})",
            floor = self.floor
        );
        self.len += 1;
        let e = Entry::new(time, tie, payload);
        if time <= self.now {
            // At or before the cascade position (same tick as the one
            // being delivered, or behind a peek that ran ahead):
            // insert at the sorted position among the not-yet-delivered
            // entries. For keys that only grow within a tick this is
            // always the back, i.e. O(1).
            self.insert_current(e);
            return;
        }
        self.file(e);
    }

    /// Inserts into the current-tick buffer at `e`'s sorted position.
    fn insert_current(&mut self, e: Entry<E>) {
        let at = self.current.partition_point(|c| c.key() < e.key());
        self.current.insert(at, e);
    }

    /// Files an entry with `time > now` into its slot.
    fn file(&mut self, e: Entry<E>) {
        let x = e.time ^ self.now;
        debug_assert!(x != 0);
        let level = ((63 - x.leading_zeros()) / BITS) as usize;
        let slot = ((e.time >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.occ[level] |= 1 << slot;
        self.slots[level * SLOTS + slot].push(e);
    }

    /// Advances until the next pending events sit in the current-tick
    /// buffer (cascading coarse slots down as needed). After this,
    /// either `current` is non-empty and `now` is the exact time of
    /// its entries, or the wheel is empty.
    fn advance(&mut self) {
        while self.current.is_empty() && self.len > 0 {
            // The earliest occupied slot across all levels, by the
            // absolute time its slot begins at. An occupied slot's
            // start is always <= every event inside it, and no event
            // outside it can be earlier (finer levels hold strictly
            // nearer times, coarser ones strictly later slots).
            let mut best: Option<(u64, usize, usize)> = None; // (start, level, slot)
            for level in 0..LEVELS {
                if self.occ[level] == 0 {
                    continue;
                }
                let shift = BITS * level as u32;
                let pos = ((self.now >> shift) & (SLOTS as u64 - 1)) as usize;
                // All live slots at this level sit at indices >= pos
                // within now's frame (events are filed at the level of
                // their highest differing bit, so their slot index
                // exceeds now's; cascading preserves this).
                let ahead = self.occ[level] >> pos;
                debug_assert!(ahead != 0, "occupied slot behind current time");
                let slot = pos + ahead.trailing_zeros() as usize;
                let start = frame_base(self.now, level) | ((slot as u64) << shift);
                if best.map(|(bs, _, _)| start < bs).unwrap_or(true) {
                    best = Some((start, level, slot));
                }
            }
            let Some((start, level, slot)) = best else {
                debug_assert!(false, "len > 0 but no occupied slot");
                return;
            };
            // Drain the slot and re-file its entries relative to the
            // slot's start time. Entries exactly at `start` land in
            // `current`; later ones fall to a finer level (their
            // differing bits against `start` are strictly below this
            // level's width, so cascading terminates).
            self.now = self.now.max(start);
            self.occ[level] &= !(1 << slot);
            let bucket = &mut self.slots[level * SLOTS + slot];
            let keep = bucket.capacity() <= KEEP_ENTRIES;
            let mut batch = if keep {
                // Steady state: move the entries into the reused
                // scratch buffer, so neither side allocates.
                let mut scratch = std::mem::take(&mut self.scratch);
                debug_assert!(scratch.is_empty());
                scratch.append(bucket);
                scratch
            } else {
                // A burst's bucket: re-file straight out of it and let
                // it drop (see `KEEP_ENTRIES`). So with the current-tick
                // buffer, empty here, if the instant that armed the
                // burst left it burst-sized; checking on this path
                // keeps the steady state free of the test.
                if self.current.capacity() > KEEP_ENTRIES {
                    self.current = std::collections::VecDeque::new();
                }
                std::mem::take(bucket)
            };
            // Sorting here keeps `current` insertion linear: entries
            // arrive in ascending tie order and append at the back.
            batch.sort_unstable_by_key(Entry::key);
            for e in batch.drain(..) {
                if e.time == self.now {
                    self.insert_current(e);
                } else {
                    self.file(e);
                }
            }
            if keep {
                self.scratch = batch;
            }
        }
    }

    /// Removes and returns the earliest event as `(time, tie, payload)`.
    pub fn pop(&mut self) -> Option<(u64, u128, E)> {
        self.advance();
        let e = self.current.pop_front()?;
        self.len -= 1;
        self.floor = e.time;
        Some(e.into_parts())
    }

    /// The exact time of the earliest pending event.
    ///
    /// Takes `&mut self`: answering may cascade coarse slots down to
    /// tick resolution (pure bookkeeping — delivery order and results
    /// are unchanged).
    pub fn peek_time(&mut self) -> Option<u64> {
        self.advance();
        self.current.front().map(|e| e.time)
    }
}

/// The base time of `now`'s frame at `level`: `now` with everything at
/// or below the level's digit cleared.
fn frame_base(now: u64, level: usize) -> u64 {
    let shift = BITS * (level as u32 + 1);
    if shift >= 64 {
        0
    } else {
        (now >> shift) << shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use past_crypto::rng::Rng;

    #[test]
    fn pops_in_time_order() {
        let mut w = TimerWheel::new();
        w.push(30, 0, "c");
        w.push(10, 1, "a");
        w.push(20, 2, "b");
        assert_eq!(w.pop(), Some((10, 1, "a")));
        assert_eq!(w.pop(), Some((20, 2, "b")));
        assert_eq!(w.pop(), Some((30, 0, "c")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn ties_resolve_by_tie_key() {
        let mut w = TimerWheel::new();
        for i in (0..100u128).rev() {
            w.push(5, i, i);
        }
        for i in 0..100u128 {
            assert_eq!(w.pop(), Some((5, i, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut w = TimerWheel::new();
        w.push(7, 0, ());
        assert_eq!(w.peek_time(), Some(7));
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
    }

    #[test]
    fn same_tick_insert_while_draining() {
        // A handler popping at t=5 schedules another t=5 event with a
        // higher tie: it must come out before the t=6 event.
        let mut w = TimerWheel::new();
        w.push(5, 0, "first");
        w.push(6, 1, "later");
        assert_eq!(w.pop(), Some((5, 0, "first")));
        w.push(5, 2, "echo");
        assert_eq!(w.pop(), Some((5, 2, "echo")));
        assert_eq!(w.pop(), Some((6, 1, "later")));
    }

    #[test]
    fn same_tick_insert_sorts_below_pending() {
        // Engine tie keys are (src, seq): a mid-tick insert can sort
        // *before* an already pending same-tick entry.
        let mut w = TimerWheel::new();
        w.push(5, 10, "a");
        w.push(5, 30, "c");
        assert_eq!(w.pop(), Some((5, 10, "a")));
        w.push(5, 20, "b");
        assert_eq!(w.pop(), Some((5, 20, "b")));
        assert_eq!(w.pop(), Some((5, 30, "c")));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_push_panics() {
        let mut w = TimerWheel::new();
        w.push(100, 0, ());
        let _ = w.pop();
        w.push(99, 1, ());
    }

    /// Events exactly at wheel-rollover ticks: slot boundaries at every
    /// level (64, 64², 64³, ...), one below, one above, and the far
    /// end of the u64 range. These are the off-by-one hot spots of the
    /// cascade logic.
    #[test]
    fn cascade_boundary_times() {
        let mut times = vec![0u64, 1, 63, u64::MAX - 1, u64::MAX];
        for k in 1..LEVELS as u32 {
            let b = 1u64 << (BITS * k);
            times.extend_from_slice(&[b - 1, b, b + 1]);
            if let Some(m) = b.checked_mul(63) {
                times.extend_from_slice(&[m - 1, m, m + 1]);
            }
        }
        let mut w = TimerWheel::new();
        for (i, &t) in times.iter().enumerate() {
            w.push(t, i as u128, t);
        }
        let mut expect: Vec<(u64, u128)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u128))
            .collect();
        expect.sort_unstable();
        for (t, tie) in expect {
            assert_eq!(w.pop(), Some((t, tie, t)), "boundary event misordered");
        }
        assert_eq!(w.pop(), None);
    }

    /// Property test: against a sorted reference, with pushes
    /// interleaved into pops, clustered around random rollover
    /// boundaries. Seeded, hermetic.
    #[test]
    fn randomized_against_reference() {
        for round in 0..50u64 {
            let mut rng = Rng::seed_from_u64(0x57ee1 + round);
            let mut w = TimerWheel::new();
            let mut reference: Vec<(u64, u128)> = Vec::new();
            let mut seq = 0u128;
            let mut now = 0u64;
            let push = |w: &mut TimerWheel<u128>,
                        reference: &mut Vec<(u64, u128)>,
                        rng: &mut Rng,
                        now: u64,
                        seq: &mut u128| {
                // Mix near-future ticks with cascade-boundary-straddling
                // far jumps.
                let t = match rng.random_range(0..4u32) {
                    0 => now + rng.random_range(0..4u64),
                    1 => now + rng.random_range(0..200u64),
                    2 => {
                        let level = rng.random_range(1..6u32);
                        let b = 1u64 << (BITS * level);
                        let base = (now / b + 1) * b;
                        base.saturating_add(rng.random_range(0..3u64))
                            .saturating_sub(1)
                    }
                    _ => now + rng.random_range(0..1_000_000u64),
                };
                let tie = *seq;
                *seq += 1;
                w.push(t, tie, tie);
                reference.push((t, tie));
            };
            for _ in 0..100 {
                push(&mut w, &mut reference, &mut rng, now, &mut seq);
            }
            reference.sort_unstable();
            let mut i = 0;
            while i < reference.len() {
                let (t, tie) = reference[i];
                let got = w.pop().expect("wheel ran dry early");
                assert_eq!(got, (t, tie, tie), "divergence at pop {i}");
                now = t;
                i += 1;
                // Occasionally push more from the popped time.
                if rng.random_range(0..8u32) == 0 && i < 400 {
                    push(&mut w, &mut reference, &mut rng, now, &mut seq);
                    reference[i..].sort_unstable();
                }
            }
            assert_eq!(w.pop(), None);
        }
    }

    /// Differential test: wheel vs. the binary heap it replaced, through
    /// an identical seeded schedule of interleaved pushes and pops,
    /// including ties and cascade-boundary times. Any order divergence
    /// fails.
    #[test]
    fn wheel_matches_reference_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        for round in 0..20u64 {
            let mut rng = Rng::seed_from_u64(0xd1ff + round);
            let mut wheel = TimerWheel::new();
            let mut heap = BinaryHeap::new();
            let mut now = 0u64;
            let mut n = 0u128;
            for step in 0..600u32 {
                if step % 3 != 2 {
                    // Mix ties, near times, and boundary-straddling
                    // far jumps.
                    let t = match rng.random_range(0..4u32) {
                        0 => now,
                        1 => now + rng.random_range(0..10u64),
                        2 => (now / 64 + 1) * 64 + rng.random_range(0..2u64),
                        _ => now + rng.random_range(0..100_000u64),
                    };
                    wheel.push(t, n, n);
                    heap.push(Reverse((t, n)));
                    n += 1;
                } else {
                    let expect = heap.pop().map(|Reverse((t, k))| (t, k, k));
                    assert_eq!(wheel.pop(), expect, "wheel diverged from heap");
                    now = expect.map_or(now, |(t, _, _)| t);
                }
            }
            while let Some(Reverse((t, k))) = heap.pop() {
                assert_eq!(wheel.pop(), Some((t, k, k)), "wheel diverged from heap");
            }
            assert_eq!(wheel.pop(), None);
        }
    }

    /// A peek may cascade the wheel's internal position far into the
    /// future (to a distant first event); a later push *behind* that
    /// position but ahead of everything delivered is legitimate and
    /// must pop first, in order. This is the engine's inline case of a
    /// `run_until` that stops short of a distant timer, followed by an
    /// injected message landing before it.
    #[test]
    fn push_behind_cascade_position_after_peek() {
        let mut w = TimerWheel::new();
        w.push(50_000, 5, "far");
        assert_eq!(w.peek_time(), Some(50_000)); // cascades now to 50_000
        w.push(7_000, 1, "near");
        w.push(6_844, 2, "nearer");
        w.push(7_000, 0, "near-low-tie");
        assert_eq!(w.peek_time(), Some(6_844));
        assert_eq!(w.pop(), Some((6_844, 2, "nearer")));
        assert_eq!(w.pop(), Some((7_000, 0, "near-low-tie")));
        assert_eq!(w.pop(), Some((7_000, 1, "near")));
        assert_eq!(w.pop(), Some((50_000, 5, "far")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn skip_ahead_over_sparse_horizon() {
        // One event 19 hours out (past the 6-level horizon of a
        // conventional wheel): peek must report its exact time.
        let mut w = TimerWheel::new();
        let far = 70_000_000_000u64; // ~19.4 sim-hours in microseconds
        w.push(far, 0, "far");
        assert_eq!(w.peek_time(), Some(far));
        assert_eq!(w.pop(), Some((far, 0, "far")));
    }

    /// A burst the size of a 100k-node stabilize round, then the
    /// one-route-in-flight steady state, against the buffer policy of
    /// [`KEEP_ENTRIES`].
    #[test]
    fn burst_buffers_are_given_back_and_small_ones_kept() {
        // 16 bytes, like the engine's event record.
        type Payload = [u32; 4];
        assert_eq!(std::mem::size_of::<Entry<Payload>>(), 40);
        let mut rng = Rng::seed_from_u64(0xb0757);
        let mut w: TimerWheel<Payload> = TimerWheel::new();
        let mut tie = 0u128;
        // The round's timers, armed at one instant...
        for _ in 0..100_000 {
            w.push(0, tie, [0; 4]);
            tie += 1;
        }
        // ...and the messages they send.
        for _ in 0..1_000_000 {
            w.push(rng.random_range(1..=120_000u64), tie, [0; 4]);
            tie += 1;
        }
        let mut now = 0;
        while let Some((t, _, _)) = w.pop() {
            assert!(t >= now);
            now = t;
        }
        // 40 MB of entries went through; each coarse slot they sat in
        // would otherwise keep its doubled buffer (> 100 MB in all).
        let retained = w.capacity_bytes();
        assert!(retained <= 16 << 20, "retained {retained} bytes");
        assert!(w.current.capacity() <= KEEP_ENTRIES);

        let caps = |w: &TimerWheel<Payload>| -> Vec<usize> {
            w.slots
                .iter()
                .map(Vec::capacity)
                .chain([w.scratch.capacity(), w.current.capacity()])
                .collect()
        };
        let before = caps(&w);
        for _ in 0..100_000 {
            now += rng.random_range(1..=120_000u64);
            w.push(now, tie, [0; 4]);
            tie += 1;
            assert_eq!(w.pop().map(|(t, _, _)| t), Some(now));
        }
        // The steady state allocates nothing per event: no buffer
        // shrank (a small one is never dropped) and none grew, except
        // that a slot with no buffer — given back after the burst, or
        // never reached by the clock before — takes `Vec`'s first
        // four entries once.
        for (i, (b, a)) in before.iter().zip(caps(&w)).enumerate() {
            assert!(a == *b || (*b == 0 && a == 4), "buffer {i}: {b} -> {a}");
        }
    }
}
