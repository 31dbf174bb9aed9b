//! Round-robin arbitration, as used at every switch output of the MemPool
//! interconnect.

/// A round-robin arbiter over `n` request lines.
///
/// The pointer marks the highest-priority requester; after a successful
/// grant it moves to the line *after* the winner, giving each requester a
/// bounded wait (work-conserving, starvation-free).
///
/// # Examples
///
/// ```
/// use mempool_noc::RoundRobin;
///
/// let mut arb = RoundRobin::new(4);
/// assert_eq!(arb.peek(&[1, 3]), Some(1));
/// arb.advance_past(1);
/// assert_eq!(arb.peek(&[1, 3]), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobin {
    pointer: usize,
    n: usize,
    /// Lifetime count of committed grants (pointer advances) — the
    /// observability layer's per-arbiter utilization counter. Part of the
    /// checkpointed state.
    grants: u64,
}

impl RoundRobin {
    /// Creates an arbiter over `n` request lines with the pointer at line 0.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one request line");
        RoundRobin {
            pointer: 0,
            n,
            grants: 0,
        }
    }

    /// Number of request lines.
    pub fn lines(&self) -> usize {
        self.n
    }

    /// Selects the winner among `requests` (sorted or not) without moving
    /// the pointer. Returns `None` when `requests` is empty.
    ///
    /// # Panics
    ///
    /// Panics if any request line is out of range.
    pub fn peek(&self, requests: &[usize]) -> Option<usize> {
        requests
            .iter()
            .copied()
            .min_by_key(|&line| self.distance(line))
    }

    /// [`peek`](RoundRobin::peek) over a request mask: bit `line % 64` of
    /// `mask[line / 64]` is set for every requesting line. This is how a
    /// [`Fabric`](crate::Fabric) arbitrates — one rotate and one
    /// `trailing_zeros` when the lines fit a word, a scan from the
    /// pointer's word otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is not `lines().div_ceil(64)` words; a bit set at or
    /// past `lines()` is a caller bug (debug-asserted).
    #[inline]
    pub fn pick(&self, mask: &[u64]) -> Option<usize> {
        assert_eq!(mask.len(), self.n.div_ceil(64), "request mask width");
        debug_assert!(
            self.n.is_multiple_of(64) || mask[self.n / 64] >> (self.n % 64) == 0,
            "request line out of range"
        );
        if let [word] = *mask {
            // Rotating the pointer's bit to position 0 puts the lines in
            // priority order (those below the pointer wrap to the top).
            let rotated = word.rotate_right(self.pointer as u32);
            return (word != 0).then(|| (self.pointer + rotated.trailing_zeros() as usize) % 64);
        }
        let (first, bit) = (self.pointer / 64, self.pointer % 64);
        let at_or_past = mask[first] & (!0 << bit);
        if at_or_past != 0 {
            return Some(first * 64 + at_or_past.trailing_zeros() as usize);
        }
        // Nothing at or past the pointer in its own word: the next set bit
        // in word order wins, wrapping around to the pointer's word.
        let wrapped = (first + 1..mask.len()).chain(0..=first);
        wrapped
            .map(|w| (w, mask[w]))
            .find(|&(_, word)| word != 0)
            .map(|(w, word)| w * 64 + word.trailing_zeros() as usize)
    }

    /// How many lines `line` sits past the pointer, wrapping around: the
    /// requester with the smallest distance wins the next grant.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    #[inline]
    pub fn distance(&self, line: usize) -> usize {
        assert!(line < self.n, "request line {line} out of range");
        if line >= self.pointer {
            line - self.pointer
        } else {
            line + self.n - self.pointer
        }
    }

    /// Moves the pointer to the line after `winner` (called on a completed
    /// transfer).
    ///
    /// # Panics
    ///
    /// Panics if `winner` is out of range.
    #[inline]
    pub fn advance_past(&mut self, winner: usize) {
        assert!(winner < self.n, "winner line {winner} out of range");
        self.pointer = if winner + 1 == self.n { 0 } else { winner + 1 };
        self.grants += 1;
    }

    /// Lifetime count of committed grants (observability counter).
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Restores the grant counter from a checkpoint.
    pub fn set_grants(&mut self, grants: u64) {
        self.grants = grants;
    }

    /// Combined [`peek`](RoundRobin::peek) + pointer advance.
    pub fn grant(&mut self, requests: &[usize]) -> Option<usize> {
        let winner = self.peek(requests)?;
        self.advance_past(winner);
        Some(winner)
    }

    /// The current highest-priority line (checkpointing).
    pub fn pointer(&self) -> usize {
        self.pointer
    }

    /// Restores a previously saved pointer position.
    ///
    /// # Panics
    ///
    /// Panics if `pointer` is out of range.
    pub fn set_pointer(&mut self, pointer: usize) {
        assert!(pointer < self.n, "pointer {pointer} out of range");
        self.pointer = pointer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_requester_always_wins() {
        let mut arb = RoundRobin::new(4);
        for _ in 0..8 {
            assert_eq!(arb.grant(&[2]), Some(2));
        }
    }

    #[test]
    fn fair_rotation_under_full_load() {
        let mut arb = RoundRobin::new(3);
        let all = [0, 1, 2];
        let seq: Vec<usize> = (0..6).map(|_| arb.grant(&all).unwrap()).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn pointer_wraps() {
        let mut arb = RoundRobin::new(4);
        arb.advance_past(3);
        assert_eq!(arb.peek(&[0, 3]), Some(0));
    }

    #[test]
    fn empty_requests_yield_none() {
        let mut arb = RoundRobin::new(2);
        assert_eq!(arb.grant(&[]), None);
    }

    #[test]
    fn no_starvation_under_asymmetric_load() {
        // Line 0 requests every cycle, line 1 every cycle too: each must win
        // exactly half the grants over any long window.
        let mut arb = RoundRobin::new(8);
        let mut wins = [0u32; 2];
        for _ in 0..100 {
            let w = arb.grant(&[0, 1]).unwrap();
            wins[w] += 1;
        }
        assert_eq!(wins[0], 50);
        assert_eq!(wins[1], 50);
    }

    #[test]
    fn grants_count_committed_transfers() {
        let mut arb = RoundRobin::new(4);
        assert_eq!(arb.grants(), 0);
        let _ = arb.peek(&[0, 1]); // peeking commits nothing
        assert_eq!(arb.grants(), 0);
        arb.grant(&[0, 1]);
        arb.advance_past(2);
        assert_eq!(arb.grants(), 2);
        arb.set_grants(9);
        assert_eq!(arb.grants(), 9);
    }

    #[test]
    fn pick_over_a_mask_is_peek_over_its_lines() {
        use mempool_rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0x9e3779b97f4a7c15);
        // One word, a full word, and masks of two, three and four words.
        for n in [1usize, 5, 16, 63, 64, 65, 130, 256] {
            let mut arb = RoundRobin::new(n);
            for pointer in 0..n {
                arb.set_pointer(pointer);
                for case in 0..40 {
                    // From a lone requester to all of them.
                    let density = [1, n.div_ceil(8), n.div_ceil(2), n][case % 4];
                    let lines: Vec<usize> =
                        (0..n).filter(|_| rng.gen_range(0..n) < density).collect();
                    let mut mask = vec![0u64; n.div_ceil(64)];
                    for &line in &lines {
                        mask[line / 64] |= 1 << (line % 64);
                    }
                    assert_eq!(
                        arb.pick(&mask),
                        arb.peek(&lines),
                        "{n} lines, pointer {pointer}, requests {lines:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_request_panics() {
        let arb = RoundRobin::new(2);
        let _ = arb.peek(&[5]);
    }
}
