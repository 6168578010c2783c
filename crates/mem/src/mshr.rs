//! Miss Status Holding Registers: request coalescing (paper §V-A).
//!
//! "To coalesce memory requests, caches can utilize an MSHR whose size can
//! be configured. When a cache receives a request, it checks the MSHR to
//! see if there exists a pending request to the same cacheline. If so, it
//! saves the request on the MSHR. When the pending request is served, the
//! MSHR notifies all requests waiting on that cacheline."

use crate::req::ReqId;
use crate::FixedHashMap;

/// Result of attempting to track a miss in the MSHR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
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
#[derive(Debug, Clone)]
pub struct Mshr {
    capacity: usize,
    entries: FixedHashMap<u64, Vec<ReqId>>,
    coalesced: u64,
    full_stalls: u64,
}

impl Mshr {
    /// An MSHR file with `capacity` entries (distinct outstanding lines).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        Mshr {
            capacity,
            entries: FixedHashMap::default(),
            coalesced: 0,
            full_stalls: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Outstanding distinct lines.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Tracks a miss for `line` by request `id`.
    pub fn track(&mut self, line: u64, id: ReqId) -> MshrOutcome {
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

    /// Whether `line` has a pending entry.
    pub fn is_pending(&self, line: u64) -> bool {
        self.entries.contains_key(&line)
    }

    /// Completes `line`, returning every waiting request.
    pub fn complete(&mut self, line: u64) -> Vec<ReqId> {
        self.entries.remove(&line).unwrap_or_default()
    }

    /// Requests that were coalesced onto existing entries.
    pub fn coalesced_count(&self) -> u64 {
        self.coalesced
    }

    /// Times a request found the file full.
    pub fn full_stall_count(&self) -> u64 {
        self.full_stalls
    }

    /// Zeroes the coalesce/full-stall counters, keeping live entries.
    pub fn reset_counters(&mut self) {
        self.coalesced = 0;
        self.full_stalls = 0;
    }
}

impl Mshr {
    /// Serializes live entries (in line order) and counters; the capacity
    /// comes from the rebuilt configuration.
    pub(crate) fn encode_into(&self, e: &mut mosaic_ckpt::Enc) {
        let mut lines: Vec<u64> = self.entries.keys().copied().collect();
        lines.sort_unstable();
        e.u32(lines.len() as u32);
        for line in lines {
            let waiters = &self.entries[&line];
            e.u64(line);
            e.u32(waiters.len() as u32);
            for w in waiters {
                e.u64(w.0);
            }
        }
        e.u64(self.coalesced);
        e.u64(self.full_stalls);
    }

    pub(crate) fn restore_from(
        &mut self,
        d: &mut mosaic_ckpt::Dec<'_>,
    ) -> Result<(), mosaic_ckpt::CkptError> {
        self.entries.clear();
        for _ in 0..d.u32("mshr entry count")? {
            let line = d.u64("mshr line")?;
            let n = d.u32("mshr waiter count")?;
            let mut waiters = Vec::with_capacity(d.reserve_for(n as usize, 8));
            for _ in 0..n {
                waiters.push(ReqId(d.u64("mshr waiter")?));
            }
            self.entries.insert(line, waiters);
        }
        self.coalesced = d.u64("mshr coalesced")?;
        self.full_stalls = d.u64("mshr full_stalls")?;
        Ok(())
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
        let w = m.complete(0x40);
        assert_eq!(w, vec![ReqId(1), ReqId(2), ReqId(3)]);
        assert!(!m.is_pending(0x40));
        assert!(m.complete(0x40).is_empty());
    }
}
