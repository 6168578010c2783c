//! The hierarchy's event queue: a timing wheel keyed by cycle.
//!
//! Every delay the hierarchy schedules is a small configured constant (a
//! cache latency, a NoC trip, a one-cycle retry), so an event's cycle is
//! its own index: the wheel keeps one FIFO bucket per cycle over a
//! power-of-two window `[base, base + span)` and a bitmap of the occupied
//! buckets, and the few events that fall outside the window — a contended
//! atomic far ahead, an event for a cycle already stepped — wait in a
//! short list sorted by `(cycle, seq)`.
//!
//! Events leave in `(cycle, seq)` order, `seq` being the order they were
//! scheduled in — exactly what a `BinaryHeap<Reverse<(cycle, seq, T)>>`
//! pops, which is the model the tests below hold the wheel to. Four
//! things make that so:
//!
//! 1. a bucket holds one cycle's events and is FIFO, and `seq` only grows,
//!    so a bucket is in `seq` order;
//! 2. an event scheduled for the cycle being drained lands at the back of
//!    that cycle's bucket and fires in the same drain, after everything
//!    already queued;
//! 3. an event for a cycle before the window (already stepped) goes to the
//!    front part of the spill and fires first on the next drain — no
//!    bucket can hold anything older, buckets behind `base` are empty;
//! 4. `base` only moves forward while a bucket is occupied, so once the
//!    window covers a cycle it covers it until that cycle is drained:
//!    every spilled event for a cycle was scheduled before every bucketed
//!    event for it, and the drain takes the spill first on a tie.

use std::collections::VecDeque;

/// Smallest and largest window, in cycles. A configuration whose delays
/// exceed the largest still runs, through the spill.
const MIN_SPAN: u64 = 64;
const MAX_SPAN: u64 = 4096;

/// A queue of `T`s ordered by `(cycle, scheduling order)`.
#[derive(Debug)]
pub(crate) struct Wheel<T> {
    /// `buckets[c & mask]` holds `(seq, event)` for cycle `c` of the
    /// window, in `seq` order.
    buckets: Vec<VecDeque<(u64, T)>>,
    /// One bit per bucket: whether it holds anything.
    occupied: Vec<u64>,
    mask: u64,
    /// First cycle of the window; no bucket holds an earlier cycle.
    base: u64,
    /// Events in buckets.
    in_wheel: usize,
    /// Cycle of the earliest occupied bucket (`u64::MAX`: none).
    wheel_next: u64,
    /// `(cycle, seq, event)` outside the window when scheduled, sorted.
    spill: VecDeque<(u64, u64, T)>,
    /// Cycle of the spill's first event (`u64::MAX`: none).
    spill_next: u64,
    /// Events scheduled so far; the next one gets `seq + 1`.
    pub seq: u64,
    /// Cycle of the earliest event anywhere (`u64::MAX`: none).
    due: u64,
}

impl<T: Copy> Wheel<T> {
    /// A wheel whose window covers delays up to `max_delay` cycles.
    pub(crate) fn new(max_delay: u64) -> Self {
        let span = (max_delay.saturating_add(1))
            .clamp(MIN_SPAN, MAX_SPAN)
            .next_power_of_two();
        Wheel {
            buckets: (0..span).map(|_| VecDeque::new()).collect(),
            occupied: vec![0; (span / 64) as usize],
            mask: span - 1,
            base: 0,
            in_wheel: 0,
            wheel_next: u64::MAX,
            spill: VecDeque::new(),
            spill_next: u64::MAX,
            seq: 0,
            due: u64::MAX,
        }
    }

    /// Schedules `event` for `cycle`, at time `now` (`cycle >= now` except
    /// for zero-delay events raised after `now` was stepped).
    pub(crate) fn schedule(&mut self, now: u64, cycle: u64, event: T) {
        if self.in_wheel == 0 {
            // Nothing pins the window: bring it to the present, so the
            // first event after an idle stretch lands in a bucket.
            self.base = now;
        }
        self.seq += 1;
        self.insert(cycle, self.seq, event);
    }

    /// Queues an event under a `seq` it already has (restore).
    pub(crate) fn insert(&mut self, cycle: u64, seq: u64, event: T) {
        if cycle.wrapping_sub(self.base) <= self.mask {
            let slot = (cycle & self.mask) as usize;
            self.buckets[slot].push_back((seq, event));
            self.occupied[slot / 64] |= 1 << (slot % 64);
            self.in_wheel += 1;
            self.wheel_next = self.wheel_next.min(cycle);
        } else {
            let at = self
                .spill
                .partition_point(|&(c, s, _)| (c, s) <= (cycle, seq));
            self.spill.insert(at, (cycle, seq, event));
            self.spill_next = self.spill_next.min(cycle);
        }
        self.due = self.due.min(cycle);
    }

    /// Cycle of the earliest queued event, `u64::MAX` when empty. A drain
    /// at any earlier cycle pops nothing.
    pub(crate) fn due(&self) -> u64 {
        self.due
    }

    /// Removes the next event due at or before `now`.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<T> {
        if self.due > now {
            return None;
        }
        // The spill goes first on a tie: what it holds for a cycle was
        // scheduled before anything bucketed for it.
        let event = if self.spill_next <= self.wheel_next {
            let (_, _, event) = self.spill.pop_front()?;
            self.spill_next = self.spill.front().map_or(u64::MAX, |e| e.0);
            event
        } else {
            let cycle = self.wheel_next;
            self.base = cycle;
            let slot = (cycle & self.mask) as usize;
            let (_, event) = self.buckets[slot].pop_front()?;
            self.in_wheel -= 1;
            if self.buckets[slot].is_empty() {
                self.occupied[slot / 64] &= !(1 << (slot % 64));
                self.wheel_next = self.next_occupied(cycle + 1);
            }
            event
        };
        self.due = self.wheel_next.min(self.spill_next);
        Some(event)
    }

    /// Moves the window up to `now` once [`Self::pop_due`] has returned
    /// `None` for it (so every bucketed event lies after `now`).
    pub(crate) fn advance(&mut self, now: u64) {
        debug_assert!(self.wheel_next > now, "advance past a due event");
        self.base = self.base.max(now);
    }

    /// Cycle of the first occupied bucket at or after `from`, which no
    /// bucketed event precedes; `u64::MAX` with no event bucketed.
    fn next_occupied(&self, from: u64) -> u64 {
        if self.in_wheel == 0 {
            return u64::MAX;
        }
        // The rest of `from`'s bitmap word, then whole words, round the
        // wheel to the low bits of the first: some bit is set.
        let mut cycle = from;
        loop {
            let slot = (cycle & self.mask) as usize;
            let rest = self.occupied[slot / 64] >> (slot % 64);
            if rest != 0 {
                return cycle + u64::from(rest.trailing_zeros());
            }
            cycle += 64 - (slot % 64) as u64;
        }
    }

    /// Queued events.
    pub(crate) fn len(&self) -> usize {
        self.in_wheel + self.spill.len()
    }

    /// Drops every event and returns the window to cycle 0; the sequence
    /// counter is left alone.
    pub(crate) fn clear(&mut self) {
        self.buckets.iter_mut().for_each(VecDeque::clear);
        self.occupied.fill(0);
        self.spill.clear();
        (self.base, self.in_wheel) = (0, 0);
        (self.wheel_next, self.spill_next, self.due) = (u64::MAX, u64::MAX, u64::MAX);
    }

    /// Calls `f(cycle, seq, event)` for every queued event in the order
    /// they would be popped.
    pub(crate) fn for_each(&self, mut f: impl FnMut(u64, u64, &T)) {
        let mut spill = self.spill.iter().peekable();
        let (mut cycle, mut left) = (self.wheel_next, self.in_wheel);
        while left > 0 {
            while let Some((c, seq, event)) = spill.next_if(|e| e.0 <= cycle) {
                f(*c, *seq, event);
            }
            let bucket = &self.buckets[(cycle & self.mask) as usize];
            for (seq, event) in bucket {
                f(cycle, *seq, event);
            }
            left -= bucket.len();
            if left > 0 {
                cycle = self.next_occupied(cycle + 1);
            }
        }
        for (c, seq, event) in spill {
            f(*c, *seq, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::TestRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The queue the wheel replaced, kept as the definition of the order.
    #[derive(Default)]
    struct HeapModel {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
    }

    impl HeapModel {
        fn schedule(&mut self, cycle: u64, event: u32) {
            self.seq += 1;
            self.heap.push(Reverse((cycle, self.seq, event)));
        }

        fn pop_due(&mut self, now: u64) -> Option<u32> {
            let &Reverse((cycle, _, event)) = self.heap.peek()?;
            (cycle <= now).then(|| {
                self.heap.pop();
                event
            })
        }

        fn sorted(&self) -> Vec<(u64, u64, u32)> {
            let mut all: Vec<_> = self.heap.iter().map(|Reverse(t)| *t).collect();
            all.sort_unstable();
            all
        }
    }

    fn listed(w: &Wheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut all = Vec::new();
        w.for_each(|c, s, e| all.push((c, s, *e)));
        all
    }

    /// Random schedules with delays from zero to four windows (so the
    /// spill carries its share), events raised while a cycle is draining
    /// — for that cycle, for later ones, and for cycles already stepped —
    /// and `now` jumping by 1 to 10 000: the wheel pops what the heap pops,
    /// lists what the heap holds, and names the same next cycle.
    #[test]
    fn wheel_pops_what_the_heap_pops() {
        let mut r = TestRng(21);
        for case in 0..48u64 {
            let max_delay = [1, 20, 63, 64, 200, 5000][(case % 6) as usize];
            let mut wheel: Wheel<u32> = Wheel::new(max_delay);
            let span = wheel.mask + 1;
            let mut heap = HeapModel::default();
            let mut next_event = 0u32;
            let mut now = 0u64;
            let delay = |r: &mut TestRng| match r.below(8) {
                0 => 0,
                1 => 1,
                2 => span - 1 + r.below(3),
                3 => r.below(4 * span),
                _ => r.below(span.min(40)),
            };
            for _step in 0..400 {
                // Requests arriving between drains: at or after `now`,
                // or (a zero-latency level) at the cycle just stepped.
                for _ in 0..r.below(4) {
                    let cycle = now + delay(&mut r);
                    wheel.schedule(now, cycle, next_event);
                    heap.schedule(cycle, next_event);
                    next_event += 1;
                }
                assert_eq!(listed(&wheel), heap.sorted(), "case {case}");
                assert_eq!(wheel.len(), heap.heap.len());
                now += match r.below(10) {
                    0 => 1 + r.below(10_000),
                    1 => 1 + r.below(span),
                    _ => 1,
                };
                let first = heap.heap.peek().map_or(u64::MAX, |Reverse(t)| t.0);
                assert_eq!(wheel.due(), first, "case {case} at {now}");
                loop {
                    let (got, want) = (wheel.pop_due(now), heap.pop_due(now));
                    assert_eq!(got, want, "case {case} at {now}");
                    if got.is_none() {
                        break;
                    }
                    // A handler's follow-ups, scheduled mid-drain.
                    for _ in 0..r.below(3) {
                        let cycle = match r.below(6) {
                            0 => now.saturating_sub(r.below(3)),
                            _ => now + delay(&mut r),
                        };
                        wheel.schedule(now, cycle, next_event);
                        heap.schedule(cycle, next_event);
                        next_event += 1;
                    }
                }
                wheel.advance(now);
            }
        }
    }

    /// Re-inserting a listing into a cleared wheel (what restore does)
    /// gives the same listing and the same pops, whatever the window was.
    #[test]
    fn a_relisted_wheel_pops_the_same() {
        let mut r = TestRng(22);
        let mut a: Wheel<u32> = Wheel::new(20);
        for (event, now) in (0..300u32).zip((5_000u64..).step_by(3)) {
            a.schedule(now, now + r.below(300), event);
            if r.below(2) == 0 {
                while a.pop_due(now).is_some() {}
                a.advance(now);
            }
        }
        let mut b: Wheel<u32> = Wheel::new(20);
        b.schedule(9, 9_000_000, 7);
        b.clear();
        for (cycle, seq, event) in listed(&a) {
            b.insert(cycle, seq, event);
        }
        b.seq = a.seq;
        assert_eq!(listed(&a), listed(&b));
        assert_eq!(a.due(), b.due());
        loop {
            let (x, y) = (a.pop_due(u64::MAX - 1), b.pop_due(u64::MAX - 1));
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }
}
