//! The table of in-flight requests, indexed by the request id itself.
//!
//! `ReqId`s are handed out densely and in order, and a request lives for
//! a few hundred cycles at most, so the live ones always sit in a short
//! run of consecutive ids: slot `id - base` of a ring whose dead slots
//! leave from the front. Finding, adding and removing a request is an
//! index; walking the live ones in slot order is walking them in id
//! order, which is how a checkpoint lists them.

use std::collections::VecDeque;

/// A map from dense, ascending `u64` ids to `T`.
#[derive(Debug)]
pub(crate) struct IdRing<T> {
    /// Id of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> IdRing<T> {
    pub(crate) fn new() -> Self {
        IdRing {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }

    /// Adds `id`, which must be above every id added before. Ids skipped
    /// (a restore lists live requests only) become dead slots.
    pub(crate) fn insert(&mut self, id: u64, value: T) {
        if self.slots.is_empty() {
            self.base = id;
        }
        let at = (id - self.base) as usize;
        assert!(at >= self.slots.len(), "request ids ascend");
        if at > self.slots.len() {
            self.slots.resize_with(at, || None);
        }
        self.slots.push_back(Some(value));
        self.live += 1;
    }

    pub(crate) fn get(&self, id: u64) -> Option<&T> {
        let at = id.checked_sub(self.base)?;
        self.slots.get(at as usize)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let at = id.checked_sub(self.base)?;
        self.slots.get_mut(at as usize)?.as_mut()
    }

    /// Takes `id` out; dead slots at the front leave with it.
    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        let at = id.checked_sub(self.base)?;
        let value = self.slots.get_mut(at as usize)?.take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(value)
    }

    /// Live entries.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
    }

    /// Live entries in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let ids = self.base..;
        ids.zip(&self.slots)
            .filter_map(|(id, slot)| Some((id, slot.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::TestRng;
    use std::collections::BTreeMap;

    /// Ids handed out in order, removed in any order, looked up live, dead
    /// and never issued, with one early id kept alive for long stretches
    /// so the front stays pinned while hundreds of later slots die behind
    /// it: the ring and a `BTreeMap` agree after every operation.
    #[test]
    fn ring_matches_an_ordered_map() {
        let mut r = TestRng(31);
        for case in 0..32 {
            let mut ring: IdRing<u64> = IdRing::new();
            let mut map: BTreeMap<u64, u64> = BTreeMap::new();
            let mut next_id = r.below(1000);
            let mut pinned: Option<u64> = None;
            for step in 0..2000u64 {
                match r.below(5) {
                    0 | 1 => {
                        ring.insert(next_id, step);
                        map.insert(next_id, step);
                        if pinned.is_none() && r.below(4) == 0 {
                            pinned = Some(next_id);
                        }
                        // A restore may skip ids; a run never does.
                        next_id += if case % 4 == 0 { 1 + r.below(3) } else { 1 };
                    }
                    2 | 3 => {
                        // Oldest-first more often than not, never the
                        // pinned one until it is released.
                        let candidates: Vec<u64> = map
                            .keys()
                            .copied()
                            .filter(|id| Some(*id) != pinned)
                            .collect();
                        if let Some(&id) =
                            candidates.get(r.below(3).min(candidates.len() as u64) as usize)
                        {
                            assert_eq!(ring.remove(id), map.remove(&id), "case {case}");
                        }
                        if r.below(300) == 0 {
                            if let Some(id) = pinned.take() {
                                assert_eq!(ring.remove(id), map.remove(&id));
                            }
                        }
                    }
                    _ => {
                        let id = r.below(next_id + 2);
                        assert_eq!(ring.get(id), map.get(&id), "case {case}");
                        if let Some(v) = ring.get_mut(id) {
                            *v += 1;
                            *map.get_mut(&id).expect("live in both") += 1;
                        }
                        assert_eq!(ring.remove(next_id + 1), None);
                    }
                }
                assert_eq!(ring.len(), map.len(), "case {case}");
                assert_eq!(ring.is_empty(), map.is_empty());
                assert!(
                    ring.iter()
                        .map(|(id, v)| (id, *v))
                        .eq(map.iter().map(|(id, v)| (*id, *v))),
                    "case {case}"
                );
                // Dead slots never outlive the oldest live request.
                assert!(!ring.slots.front().is_some_and(Option::is_none));
            }
        }
    }
}
