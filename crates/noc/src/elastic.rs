//! Elastic (skid) buffers: the register boundaries of the MemPool
//! interconnect.

/// Slot count of the inline ring, and therefore the largest capacity an
/// [`ElasticBuffer`] can be built with. The interconnect only uses depth 2.
const SLOTS: usize = 4;

/// A register stage with elastic-buffer flow control.
///
/// This models the register + elastic buffer pairs of
/// Michelogiannakis et al. ("Elastic-buffer flow control for on-chip
/// networks", HPCA 2009), which the MemPool paper inserts "at each output of
/// the switch … to break any combinational paths crossing the switch".
///
/// The buffer separates *arrivals* (pushed during the current cycle) from
/// *stored* items: a value pushed at cycle *t* only becomes visible at the
/// head from cycle *t + 1*, after [`ElasticBuffer::commit`] is called at the
/// end of the cycle. Pops during cycle *t* free space that same cycle, so a
/// full-throughput pipeline needs capacity 2 (the classic two-slot skid
/// buffer): one slot holds the in-flight item, the second absorbs the push
/// that was already decided when backpressure arrived.
///
/// Storage is one inline ring of [`MAX_CAPACITY`](ElasticBuffer::MAX_CAPACITY)
/// slots — stored items first, staged arrivals right behind them — so no
/// operation touches the heap and `commit` only moves a boundary.
///
/// # Examples
///
/// ```
/// use mempool_noc::ElasticBuffer;
///
/// let mut reg = ElasticBuffer::new(2);
/// reg.push(7u32);
/// assert_eq!(reg.head(), None); // not visible until commit
/// reg.commit();
/// assert_eq!(reg.head(), Some(&7));
/// assert_eq!(reg.pop(), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct ElasticBuffer<T> {
    /// Ring storage: `stored` visible items from `head`, then `staged`
    /// arrivals; every other slot is `None`.
    slots: [Option<T>; SLOTS],
    head: u8,
    stored: u8,
    staged: u8,
    capacity: u8,
    /// Fault-injection gate: while set, the register neither presents a
    /// head nor accepts pushes (valid/ready forced low), modeling a
    /// transient link stall. Contents are preserved.
    stalled: bool,
    /// Lifetime count of accepted pushes — the per-link traffic counter of
    /// the observability layer. Deterministic (one increment per accepted
    /// push) and part of the checkpointed state.
    pushes: u64,
}

impl<T> ElasticBuffer<T> {
    /// The largest supported capacity (the inline ring's slot count).
    pub const MAX_CAPACITY: usize = SLOTS;

    /// Creates a buffer holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds
    /// [`MAX_CAPACITY`](ElasticBuffer::MAX_CAPACITY).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "elastic buffer capacity must be nonzero");
        assert!(
            capacity <= SLOTS,
            "elastic buffer capacity exceeds {SLOTS} slots"
        );
        ElasticBuffer {
            slots: std::array::from_fn(|_| None),
            head: 0,
            stored: 0,
            staged: 0,
            capacity: capacity as u8,
            stalled: false,
            pushes: 0,
        }
    }

    /// Ring slot of the `offset`-th item counted from the head.
    fn slot(&self, offset: u8) -> usize {
        (self.head + offset) as usize % SLOTS
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Number of items currently stored or staged.
    pub fn len(&self) -> usize {
        (self.stored + self.staged) as usize
    }

    /// Number of items staged this cycle and not yet committed.
    pub fn staged(&self) -> usize {
        self.staged as usize
    }

    /// Whether the buffer holds no items at all (stored or staged).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a push would be accepted this cycle.
    pub fn can_push(&self) -> bool {
        !self.stalled && self.stored + self.staged < self.capacity
    }

    /// Stages an item for arrival; it becomes visible after [`commit`].
    ///
    /// [`commit`]: ElasticBuffer::commit
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full ([`can_push`] is `false`) — callers must
    /// check readiness first, as a hardware producer would sample `ready`.
    ///
    /// [`can_push`]: ElasticBuffer::can_push
    pub fn push(&mut self, item: T) {
        assert!(self.can_push(), "push into full elastic buffer");
        self.pushes += 1;
        self.stage(item);
    }

    /// Writes `item` behind the last staged arrival (room already checked).
    fn stage(&mut self, item: T) {
        let slot = self.slot(self.stored + self.staged);
        self.slots[slot] = Some(item);
        self.staged += 1;
    }

    /// Lifetime count of accepted pushes (the observability layer's
    /// per-link traffic counter). Survives [`clear`](ElasticBuffer::clear).
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Restores the push counter from a checkpoint.
    pub fn set_pushes(&mut self, pushes: u64) {
        self.pushes = pushes;
    }

    /// The oldest *visible* item, if any (`None` while stalled).
    pub fn head(&self) -> Option<&T> {
        if self.stalled || self.stored == 0 {
            return None;
        }
        self.slots[self.head as usize].as_ref()
    }

    /// Removes and returns the oldest visible item (`None` while stalled).
    pub fn pop(&mut self) -> Option<T> {
        if self.stalled {
            return None;
        }
        self.drop_head()
    }

    /// Fault injection: gates the register's valid/ready handshake for the
    /// current cycle. Re-assert or clear every cycle; contents survive.
    pub fn set_stalled(&mut self, stalled: bool) {
        self.stalled = stalled;
    }

    /// Whether the register is currently stall-gated.
    pub fn is_stalled(&self) -> bool {
        self.stalled
    }

    /// Fault injection: silently discards the oldest stored item (a lost
    /// flit), bypassing the stall gate. Returns the dropped item.
    pub fn drop_head(&mut self) -> Option<T> {
        if self.stored == 0 {
            return None;
        }
        let item = self.slots[self.head as usize].take();
        self.head = self.slot(1) as u8;
        self.stored -= 1;
        item
    }

    /// Fault injection: mutable access to the oldest stored item, for
    /// payload corruption. Bypasses the stall gate.
    pub fn head_mut(&mut self) -> Option<&mut T> {
        if self.stored == 0 {
            return None;
        }
        self.slots[self.head as usize].as_mut()
    }

    /// End-of-cycle commit: staged arrivals become visible.
    pub fn commit(&mut self) {
        self.stored += self.staged;
        self.staged = 0;
    }

    /// Drops all contents (stored and staged) and clears any stall gate.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        (self.head, self.stored, self.staged) = (0, 0, 0);
        self.stalled = false;
    }

    /// The `count` items starting `first` positions behind the head.
    fn run(&self, first: u8, count: u8) -> impl Iterator<Item = &T> {
        (first..first + count).map(|i| self.slots[self.slot(i)].as_ref().expect("occupied slot"))
    }

    /// Iterates over the visible items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.run(0, self.stored)
    }

    /// Iterates over the staged (pushed-but-uncommitted) items, oldest
    /// first (checkpointing).
    pub fn iter_arrivals(&self) -> impl Iterator<Item = &T> {
        self.run(self.stored, self.staged)
    }

    /// Restores the full buffer state from a checkpoint: stored items,
    /// staged arrivals, and the stall gate. The capacity is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the combined item count exceeds the capacity.
    pub fn load(
        &mut self,
        stored: impl IntoIterator<Item = T>,
        arrivals: impl IntoIterator<Item = T>,
        stalled: bool,
    ) {
        self.clear();
        let stage = |buf: &mut Self, item: T| {
            assert!(
                buf.len() < buf.capacity(),
                "loaded state exceeds buffer capacity"
            );
            buf.stage(item);
        };
        stored.into_iter().for_each(|item| stage(self, item));
        self.commit();
        arrivals.into_iter().for_each(|item| stage(self, item));
        self.stalled = stalled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_invisible_until_commit() {
        let mut b = ElasticBuffer::new(2);
        b.push(1);
        assert!(b.head().is_none());
        assert_eq!(b.len(), 1);
        b.commit();
        assert_eq!(b.head(), Some(&1));
    }

    #[test]
    fn fifo_order() {
        let mut b = ElasticBuffer::new(4);
        b.push(1);
        b.push(2);
        b.commit();
        b.push(3);
        b.commit();
        assert_eq!(b.pop(), Some(1));
        assert_eq!(b.pop(), Some(2));
        assert_eq!(b.pop(), Some(3));
        assert_eq!(b.pop(), None);
    }

    #[test]
    fn capacity_counts_staged_items() {
        let mut b = ElasticBuffer::new(2);
        b.push(1);
        b.push(2);
        assert!(!b.can_push());
        b.commit();
        assert!(!b.can_push());
        b.pop();
        assert!(b.can_push());
    }

    #[test]
    fn full_throughput_with_same_cycle_drain() {
        // Depth-2 buffer sustains one item per cycle when drained every
        // cycle: pop happens before push within a cycle.
        let mut b = ElasticBuffer::new(2);
        b.push(0u32);
        b.commit();
        for i in 1..100u32 {
            let got = b.pop().expect("one item per cycle");
            assert_eq!(got, i - 1);
            assert!(b.can_push());
            b.push(i);
            b.commit();
        }
    }

    #[test]
    #[should_panic(expected = "full elastic buffer")]
    fn push_when_full_panics() {
        let mut b = ElasticBuffer::new(1);
        b.push(1);
        b.push(2);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        let _ = ElasticBuffer::<u32>::new(0);
    }

    #[test]
    fn push_counter_is_cumulative() {
        let mut b = ElasticBuffer::new(2);
        assert_eq!(b.pushes(), 0);
        b.push(1);
        b.commit();
        b.pop();
        b.push(2);
        b.clear();
        b.push(3);
        assert_eq!(b.pushes(), 3, "clear must not reset the traffic counter");
        b.set_pushes(7);
        assert_eq!(b.pushes(), 7);
    }

    #[test]
    fn clear_empties_everything() {
        let mut b = ElasticBuffer::new(2);
        b.push(1);
        b.commit();
        b.push(2);
        b.clear();
        assert!(b.is_empty());
        b.commit();
        assert!(b.pop().is_none());
    }
}
