//! Miss Status Holding Registers: request coalescing (paper §V-A).
//!
//! "To coalesce memory requests, caches can utilize an MSHR whose size can
//! be configured. When a cache receives a request, it checks the MSHR to
//! see if there exists a pending request to the same cacheline. If so, it
//! saves the request on the MSHR. When the pending request is served, the
//! MSHR notifies all requests waiting on that cacheline."

use mosaic_ckpt::{snap_fields, CkptError, Dec, Enc};

use crate::req::ReqId;

/// Result of attempting to track a miss in the MSHR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MshrOutcome {
    /// A new entry was allocated: the caller must forward the miss to the
    /// next level.
    Allocated,
    /// The line already had a pending entry: the request was coalesced and
    /// will be woken when the fill arrives.
    Coalesced,
    /// The MSHR is full: the request must retry later.
    Full,
}

/// A fixed-capacity MSHR file keyed by line address.
///
/// The file is a handful of entries (8–32), so it is a table searched
/// linearly by line: pending lines packed at the front, each with its
/// waiter list, and a completed entry's list kept (emptied) for the next
/// line that takes the slot — tracking and completing allocate nothing
/// once the lists have grown to what the run needs.
#[derive(Debug, Clone)]
pub(crate) struct Mshr {
    capacity: usize,
    /// Pending lines, in no particular order.
    lines: Vec<u64>,
    /// `waiters[i]` waits on `lines[i]`; lists at and past `lines.len()`
    /// are empty spares.
    waiters: Vec<Vec<ReqId>>,
    coalesced: u64,
    full_stalls: u64,
}

impl Mshr {
    /// An MSHR file with `capacity` entries (distinct outstanding lines).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        Mshr {
            capacity,
            lines: Vec::new(),
            waiters: Vec::new(),
            coalesced: 0,
            full_stalls: 0,
        }
    }

    /// Outstanding distinct lines.
    pub(crate) fn occupancy(&self) -> usize {
        self.lines.len()
    }

    fn slot_of(&self, line: u64) -> Option<usize> {
        self.lines.iter().position(|&l| l == line)
    }

    /// Tracks a miss for `line` by request `id`.
    pub(crate) fn track(&mut self, line: u64, id: ReqId) -> MshrOutcome {
        if let Some(slot) = self.slot_of(line) {
            self.waiters[slot].push(id);
            self.coalesced += 1;
            return MshrOutcome::Coalesced;
        }
        if self.lines.len() >= self.capacity {
            self.full_stalls += 1;
            return MshrOutcome::Full;
        }
        self.allocate(line).push(id);
        MshrOutcome::Allocated
    }

    /// Takes the next free slot for `line` and returns its (empty) list.
    fn allocate(&mut self, line: u64) -> &mut Vec<ReqId> {
        let slot = self.lines.len();
        self.lines.push(line);
        if slot == self.waiters.len() {
            self.waiters.push(Vec::new());
        }
        &mut self.waiters[slot]
    }

    /// Whether `line` has a pending entry.
    fn is_pending(&self, line: u64) -> bool {
        self.slot_of(line).is_some()
    }

    /// Completes `line`, appending every waiting request to `out` in the
    /// order they were tracked.
    pub(crate) fn complete(&mut self, line: u64, out: &mut Vec<ReqId>) {
        let Some(slot) = self.slot_of(line) else {
            return;
        };
        out.append(&mut self.waiters[slot]);
        // The last pending entry moves into the hole; the emptied list
        // becomes the first spare.
        let last = self.lines.len() - 1;
        self.lines.swap_remove(slot);
        self.waiters.swap(slot, last);
    }

    /// Requests that were coalesced onto existing entries.
    pub(crate) fn coalesced_count(&self) -> u64 {
        self.coalesced
    }

    /// Times a request found the file full.
    pub(crate) fn full_stall_count(&self) -> u64 {
        self.full_stalls
    }
}

snap_fields!(Mshr: coalesced, full_stalls);

impl Mshr {
    /// Serializes live entries (in line order) and counters; the capacity
    /// comes from the rebuilt configuration.
    pub(crate) fn encode_into(&self, e: &mut Enc) {
        let mut slots: Vec<usize> = (0..self.lines.len()).collect();
        slots.sort_unstable_by_key(|&slot| self.lines[slot]);
        let entries = slots.into_iter().map(|slot| (self.lines[slot], self.waiters[slot].clone()));
        e.seq::<(u64, Vec<ReqId>)>(entries);
        self.put_fields(e);
    }

    pub(crate) fn restore_from(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        self.lines.clear();
        self.waiters.iter_mut().for_each(Vec::clear);
        d.seq::<(u64, Vec<ReqId>)>("mshr entry", |(line, waiters)| {
            if self.lines.len() >= self.capacity || self.is_pending(line) {
                return Err(CkptError::corrupt(format!(
                    "mshr entry for line {line:#x} is a duplicate or exceeds the {} configured",
                    self.capacity
                )));
            }
            self.allocate(line).extend(waiters);
            Ok(())
        })?;
        self.get_fields(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_coalesce() {
        let mut m = Mshr::new(2);
        assert_eq!(m.track(0x40, ReqId(1)), MshrOutcome::Allocated);
        assert_eq!(m.track(0x40, ReqId(2)), MshrOutcome::Coalesced);
        assert_eq!(m.track(0x80, ReqId(3)), MshrOutcome::Allocated);
        assert_eq!(m.occupancy(), 2);
        assert_eq!(m.coalesced_count(), 1);
    }

    #[test]
    fn full_rejects_new_lines_but_coalesces_existing() {
        let mut m = Mshr::new(1);
        assert_eq!(m.track(0x40, ReqId(1)), MshrOutcome::Allocated);
        assert_eq!(m.track(0x80, ReqId(2)), MshrOutcome::Full);
        assert_eq!(m.track(0x40, ReqId(3)), MshrOutcome::Coalesced);
        assert_eq!(m.full_stall_count(), 1);
    }

    /// A waiter count is a claim the remaining bytes must back: a record
    /// announcing four billion waiters and holding one is truncated, and
    /// finding that out must not reserve room for the four billion.
    #[test]
    fn oversized_waiter_count_is_truncation_not_allocation() {
        let mut e = mosaic_ckpt::Enc::new();
        e.u32(1);
        e.u64(0x40);
        e.u32(u32::MAX);
        e.u64(7);
        let bytes = e.into_bytes();
        let err = Mshr::new(4)
            .restore_from(&mut mosaic_ckpt::Dec::new(&bytes))
            .unwrap_err();
        assert!(matches!(err, mosaic_ckpt::CkptError::Truncated { .. }), "{err}");
    }

    #[test]
    fn complete_wakes_all_waiters() {
        let mut m = Mshr::new(4);
        m.track(0x40, ReqId(1));
        m.track(0x40, ReqId(2));
        m.track(0x40, ReqId(3));
        let mut w = Vec::new();
        m.complete(0x40, &mut w);
        assert_eq!(w, vec![ReqId(1), ReqId(2), ReqId(3)]);
        assert!(!m.is_pending(0x40));
        m.complete(0x40, &mut w);
        assert_eq!(w.len(), 3, "completing an absent line wakes nobody");
    }
    /// The map-of-`Vec`s file the table replaced, kept as the model.
    struct MapMshr {
        capacity: usize,
        entries: std::collections::HashMap<u64, Vec<ReqId>>,
        coalesced: u64,
        full_stalls: u64,
    }

    impl MapMshr {
        fn track(&mut self, line: u64, id: ReqId) -> MshrOutcome {
            if let Some(waiters) = self.entries.get_mut(&line) {
                waiters.push(id);
                self.coalesced += 1;
                return MshrOutcome::Coalesced;
            }
            if self.entries.len() >= self.capacity {
                self.full_stalls += 1;
                return MshrOutcome::Full;
            }
            self.entries.insert(line, vec![id]);
            MshrOutcome::Allocated
        }

        fn encoded(&self) -> Vec<u8> {
            let mut e = mosaic_ckpt::Enc::new();
            let mut lines: Vec<u64> = self.entries.keys().copied().collect();
            lines.sort_unstable();
            e.u32(lines.len() as u32);
            for line in lines {
                e.u64(line);
                e.u32(self.entries[&line].len() as u32);
                for w in &self.entries[&line] {
                    e.u64(w.0);
                }
            }
            e.u64(self.coalesced);
            e.u64(self.full_stalls);
            e.into_bytes()
        }
    }

    fn encoded(m: &Mshr) -> Vec<u8> {
        let mut e = mosaic_ckpt::Enc::new();
        m.encode_into(&mut e);
        e.into_bytes()
    }

    /// Random tracks and completions over a few more lines than the file
    /// holds, at capacity 1 and 32: outcome, pending-ness, occupancy, the
    /// waiters a completion wakes and their order, the counters and the
    /// line-ordered snapshot all match the map; a snapshot restored into
    /// a file that held something else snapshots the same again.
    #[test]
    fn table_matches_the_map_it_replaced() {
        let mut r = crate::test_rng::TestRng(41);
        for capacity in [1usize, 3, 32] {
            let mut table = Mshr::new(capacity);
            let mut map = MapMshr {
                capacity,
                entries: Default::default(),
                coalesced: 0,
                full_stalls: 0,
            };
            let lines = capacity as u64 + 4;
            let mut woken = Vec::new();
            for step in 0..4000u64 {
                let line = r.below(lines) * 64;
                if r.below(3) > 0 {
                    let id = ReqId(step);
                    assert_eq!(table.track(line, id), map.track(line, id));
                } else {
                    woken.clear();
                    table.complete(line, &mut woken);
                    assert_eq!(woken, map.entries.remove(&line).unwrap_or_default());
                }
                assert_eq!(table.occupancy(), map.entries.len());
                for l in 0..lines {
                    assert_eq!(
                        table.is_pending(l * 64),
                        map.entries.contains_key(&(l * 64))
                    );
                }
                assert_eq!(
                    encoded(&table),
                    map.encoded(),
                    "capacity {capacity} step {step}"
                );
                if step % 500 == 250 {
                    let mut other = Mshr::new(capacity);
                    other.track(0xdead_0000, ReqId(1));
                    let bytes = encoded(&table);
                    other
                        .restore_from(&mut mosaic_ckpt::Dec::new(&bytes))
                        .expect("restore");
                    assert_eq!(encoded(&other), bytes);
                    table = other;
                }
            }
        }
    }
}
