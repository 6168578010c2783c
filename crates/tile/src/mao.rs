//! The Memory Address Orderer (paper §II-A, §III-A).
//!
//! "MosaicSim implements a Memory Address Orderer (MAO) to ensure that
//! true memory dependencies (i.e. Read-After-Write dependencies) are
//! respected. The MAO is populated with memory operations in program
//! order, and can be instantiated with various parameters, e.g. to model
//! a traditional Load-Store Queue."
//!
//! Rules enforced (paper §II-A):
//! * a **store** may issue only if no *older* incomplete memory access has
//!   a matching or unresolved address;
//! * a **load** may issue only if no *older* incomplete **store** has a
//!   matching or unresolved address.
//!
//! With perfect alias speculation (paper §III-C) the trace's complete
//! address knowledge is used: only true matching-address conflicts stall.
//!
//! Capacity models the LSQ: at most `lsq_size` *issued-but-incomplete*
//! operations (paper §III-A: "instructions cannot issue if the MAO is
//! full; memory operations free up space upon completion").

use std::collections::VecDeque;

use mosaic_ckpt::{snap_record, CkptError, Dec, Enc};

/// Word granularity used for address matching (8-byte words).
const WORD_SHIFT: u32 = 3;

/// Furthest a snapshot's youngest tracked operation may lie from its
/// oldest: far beyond any instruction window, and what stops a corrupt
/// record from sizing the index.
const MAX_TRACKED_SPAN: u64 = 1 << 20;

snap_record! {
    /// One tracked memory operation.
    #[derive(Debug, Clone, Copy)]
    struct MaoEntry {
        /// Program-order sequence id.
        seq: u64,
        word: u64,
        is_store: bool,
        resolved: bool,
        issued: bool,
        complete: bool,
    }
}

/// The MAO / LSQ model.
#[derive(Debug, Clone)]
pub struct Mao {
    /// Tracked operations in program order. Sequence ids ascend but are
    /// not contiguous (only memory operations enter); `slot_of` says where
    /// an id's entry is.
    entries: VecDeque<MaoEntry>,
    /// Entries collected from the front so far: entry number `n` (counted
    /// from the first ever inserted) sits at `entries[n - popped]`.
    popped: u64,
    /// `slot_of[seq & mask]` is the entry number of `seq`, for every
    /// tracked `seq` — a power-of-two ring wider than the tracked span
    /// (bounded by the instruction window), so tracked ids never collide.
    /// Slots of ids no longer or never tracked hold stale numbers;
    /// [`Mao::find`] checks the entry it lands on.
    slot_of: Vec<u64>,
    /// Incomplete tracked entries: a store alone among them has nothing
    /// to wait for.
    incomplete: u32,
    /// Entry numbers of the incomplete stores, in program order — all
    /// that can hold a load back, so a load's `can_issue` walks these (often
    /// none) instead of every older entry.
    stores: VecDeque<u64>,
    lsq_size: u32,
    /// Issued, incomplete entries (LSQ occupancy), counted in [`Mao::push`].
    issued_incomplete: u32,
    alias_speculation: bool,
}

impl Mao {
    /// A MAO with LSQ capacity `lsq_size`; `alias_speculation` enables the
    /// perfect-alias mode.
    pub fn new(lsq_size: u32, alias_speculation: bool) -> Self {
        assert!(lsq_size > 0, "LSQ size must be positive");
        Mao {
            entries: VecDeque::new(),
            popped: 0,
            slot_of: vec![0; 64],
            incomplete: 0,
            stores: VecDeque::new(),
            lsq_size,
            issued_incomplete: 0,
            alias_speculation,
        }
    }

    /// Position of `seq`'s entry, if it is tracked.
    fn find(&self, seq: u64) -> Option<usize> {
        // The oldest entry is the one an in-order core asks about.
        if self.entries.front()?.seq == seq {
            return Some(0);
        }
        let number = self.slot_of[seq as usize & (self.slot_of.len() - 1)];
        let at = number.wrapping_sub(self.popped) as usize;
        (self.entries.get(at)?.seq == seq).then_some(at)
    }

    /// Appends `entry` (younger than every tracked one) and indexes it,
    /// widening the index first if the tracked span has outgrown it. An
    /// entry that arrives alone stays the oldest until it leaves, and
    /// [`Mao::find`] looks there first: it needs no index.
    fn push(&mut self, entry: MaoEntry) {
        let number = self.popped + self.entries.len() as u64;
        if let Some(oldest) = self.entries.front() {
            let span = (entry.seq - oldest.seq) as usize + 1;
            if span > self.slot_of.len() {
                self.slot_of = vec![0; span.next_power_of_two()];
                let mask = self.slot_of.len() - 1;
                for (number, e) in (self.popped..).zip(&self.entries) {
                    self.slot_of[e.seq as usize & mask] = number;
                }
            }
            let mask = self.slot_of.len() - 1;
            self.slot_of[entry.seq as usize & mask] = number;
        }
        if !entry.complete {
            self.incomplete += 1;
            self.issued_incomplete += u32::from(entry.issued);
            if entry.is_store {
                self.stores.push_back(number);
            }
        }
        self.entries.push_back(entry);
    }

    /// Inserts an operation in program order (at DBB launch). The address
    /// is known from the trace; `resolved` tracks whether the *program*
    /// has computed it yet (operands complete).
    pub fn insert(&mut self, seq: u64, addr: u64, is_store: bool) {
        let entry = MaoEntry {
            seq,
            word: addr >> WORD_SHIFT,
            is_store,
            resolved: false,
            issued: false,
            complete: false,
        };
        assert!(
            self.entries.back().is_none_or(|last| last.seq < seq),
            "memory operations enter the MAO in program order"
        );
        self.push(entry);
    }

    /// Marks `seq`'s address as resolved (its operands completed).
    pub fn resolve(&mut self, seq: u64) {
        if let Some(at) = self.find(seq) {
            self.entries[at].resolved = true;
        }
    }

    /// Whether `seq` may issue under the ordering rules and LSQ capacity
    /// (an untracked `seq` is no memory operation: it may).
    pub fn can_issue(&self, seq: u64) -> bool {
        let Some(at) = self.find(seq) else {
            return true;
        };
        let me = &self.entries[at];
        if self.issued_incomplete >= self.lsq_size {
            return false;
        }
        // Only stores can violate a load; any access can violate a
        // store. With perfect anticipation of aliasing the trace
        // addresses are ground truth, so only true same-word
        // conflicts stall; without it an unresolved address may alias.
        let spec = self.alias_speculation;
        let may_alias = |e: &MaoEntry| e.word == me.word || !(spec || e.resolved);
        let conflict = if me.is_store {
            // Alone among the incomplete, a store has nothing to wait for.
            self.incomplete > u32::from(!me.complete)
                && (self.entries.iter().take(at)).any(|e| !e.complete && may_alias(e))
        } else {
            let older = self
                .stores
                .iter()
                .take_while(|&&n| n < self.popped + at as u64);
            older
                .into_iter()
                .any(|&n| may_alias(&self.entries[(n - self.popped) as usize]))
        };
        !conflict
    }

    /// Marks `seq` issued (occupies LSQ capacity until completion).
    pub fn mark_issued(&mut self, seq: u64) {
        if let Some(at) = self.find(seq) {
            let e = &mut self.entries[at];
            if !e.issued {
                e.issued = true;
                self.issued_incomplete += 1;
            }
        }
    }

    /// Marks `seq` complete and releases its LSQ slot. Completed entries
    /// older than every incomplete entry are garbage-collected.
    pub fn complete(&mut self, seq: u64) {
        let Some(at) = self.find(seq) else {
            return;
        };
        let e = &mut self.entries[at];
        if e.issued {
            self.issued_incomplete -= 1;
        }
        if !e.complete {
            self.incomplete -= 1;
            if e.is_store {
                // Stores mostly complete oldest first.
                let number = self.popped + at as u64;
                if self.stores.front() == Some(&number) {
                    self.stores.pop_front();
                } else if let Ok(k) = self.stores.binary_search(&number) {
                    self.stores.remove(k);
                }
            }
        }
        e.complete = true;
        while self.entries.front().is_some_and(|e| e.complete) {
            self.entries.pop_front();
            self.popped += 1;
        }
    }

    /// Issued-but-incomplete operations (current LSQ occupancy).
    #[cfg(test)]
    pub(crate) fn occupancy(&self) -> u32 {
        self.issued_incomplete
    }

    /// Tracked (in-flight) operations.
    pub fn tracked(&self) -> usize {
        self.entries.len()
    }

    /// Serializes the tracked entries into a checkpoint section. The
    /// configuration (`lsq_size`, `alias_speculation`) is not written — a
    /// restore keeps the values the MAO was rebuilt with — and neither is
    /// what the entries determine (the LSQ occupancy, the index).
    pub(crate) fn encode_into(&self, e: &mut Enc) {
        e.seq::<MaoEntry>(&self.entries);
    }

    /// Restores the state written by [`Mao::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns a [`mosaic_ckpt::CkptError`] on truncated data, or entries
    /// out of program order.
    pub(crate) fn restore_from(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        self.entries.clear();
        (self.incomplete, self.issued_incomplete) = (0, 0);
        self.stores.clear();
        d.seq::<MaoEntry>("mao entries", |entry| {
            let oldest = self.entries.front().map_or(entry.seq, |e| e.seq);
            let last = self.entries.back();
            if last.is_some_and(|last| last.seq >= entry.seq)
                || entry.seq - oldest >= MAX_TRACKED_SPAN
            {
                return Err(CkptError::corrupt(format!(
                    "mao entry {} out of program order or beyond any instruction window",
                    entry.seq
                )));
            }
            self.push(entry);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_blocked_by_unresolved_older_store() {
        let mut mao = Mao::new(8, false);
        mao.insert(1, 0x100, true); // older store, unresolved
        mao.insert(2, 0x200, false); // younger load, different address
        mao.resolve(2);
        assert!(!mao.can_issue(2), "unresolved older store must block");
        mao.resolve(1);
        assert!(mao.can_issue(2), "resolved non-matching store admits load");
    }

    #[test]
    fn load_blocked_by_matching_incomplete_store() {
        let mut mao = Mao::new(8, false);
        mao.insert(1, 0x100, true);
        mao.resolve(1);
        mao.insert(2, 0x104, false); // same 8-byte word
        mao.resolve(2);
        assert!(!mao.can_issue(2));
        mao.mark_issued(1);
        mao.complete(1);
        assert!(mao.can_issue(2));
    }

    #[test]
    fn loads_do_not_block_loads() {
        let mut mao = Mao::new(8, false);
        mao.insert(1, 0x100, false);
        mao.insert(2, 0x100, false);
        // Older load unresolved, but loads never block loads.
        assert!(mao.can_issue(2));
    }

    #[test]
    fn store_blocked_by_any_older_incomplete_matching_access() {
        let mut mao = Mao::new(8, false);
        mao.insert(1, 0x100, false); // older load
        mao.resolve(1);
        mao.insert(2, 0x100, true); // matching store
        mao.resolve(2);
        assert!(!mao.can_issue(2), "WAR hazard: store waits for older load");
        mao.mark_issued(1);
        mao.complete(1);
        assert!(mao.can_issue(2));
    }

    #[test]
    fn alias_speculation_ignores_unresolved_non_aliasing() {
        let mut mao = Mao::new(8, true);
        mao.insert(1, 0x100, true); // unresolved, but trace says 0x100
        mao.insert(2, 0x200, false); // load to 0x200: no true alias
        assert!(mao.can_issue(2), "perfect alias speculation admits load");
        mao.insert(3, 0x100, false); // true alias
        assert!(!mao.can_issue(3), "true aliases still stall");
    }

    #[test]
    fn lsq_capacity_limits_issued_incomplete() {
        let mut mao = Mao::new(2, true);
        for s in 0..4 {
            mao.insert(s, 0x1000 + s * 64, false);
            mao.resolve(s);
        }
        assert!(mao.can_issue(0));
        mao.mark_issued(0);
        assert!(mao.can_issue(1));
        mao.mark_issued(1);
        assert!(!mao.can_issue(2), "LSQ full");
        assert_eq!(mao.occupancy(), 2);
        mao.complete(0);
        assert!(mao.can_issue(2));
    }

    #[test]
    fn gc_reclaims_completed_prefix() {
        let mut mao = Mao::new(8, true);
        for s in 0..10 {
            mao.insert(s, s * 8, false);
            mao.resolve(s);
            mao.mark_issued(s);
        }
        for s in 0..10 {
            mao.complete(s);
        }
        assert_eq!(mao.tracked(), 0);
        assert_eq!(mao.occupancy(), 0);
    }

    #[test]
    fn completion_out_of_order_gc_waits_for_prefix() {
        let mut mao = Mao::new(8, true);
        mao.insert(1, 8, false);
        mao.insert(2, 16, false);
        mao.resolve(1);
        mao.resolve(2);
        mao.mark_issued(1);
        mao.mark_issued(2);
        mao.complete(2); // younger completes first
        assert_eq!(mao.tracked(), 2, "prefix not complete yet");
        mao.complete(1);
        assert_eq!(mao.tracked(), 0);
    }
}

#[cfg(test)]
mod schedule_tests {
    //! Deterministic pseudo-random schedule sweeps (formerly proptest).
    use super::*;

    /// SplitMix64 — a tiny seeded generator for the schedule sweeps.
    struct TestRng(u64);
    impl TestRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, bound: u64) -> u64 {
            ((u128::from(self.next()) * u128::from(bound)) >> 64) as u64
        }
    }

    struct Op {
        addr: u64,
        is_store: bool,
    }

    fn ops(r: &mut TestRng) -> Vec<Op> {
        let len = 1 + r.below(23) as usize;
        (0..len)
            .map(|_| Op {
                addr: r.below(8) * 8, // distinct 8-byte words
                is_store: r.below(2) == 1,
            })
            .collect()
    }

    /// A random program-order sequence of memory ops; the model must
    /// never admit a load past an older incomplete *matching* store, in
    /// either speculation mode, under any issue/complete interleaving.
    #[test]
    fn raw_ordering_is_never_violated() {
        let mut r = TestRng(11);
        for case in 0..64 {
            let ops = ops(&mut r);
            let spec = case % 2 == 0;
            let completion_order: Vec<usize> =
                (0..48).map(|_| r.below(24) as usize).collect();
            let mut mao = Mao::new(64, spec);
            for (i, op) in ops.iter().enumerate() {
                mao.insert(i as u64, op.addr, op.is_store);
                mao.resolve(i as u64);
            }
            let mut issued = vec![false; ops.len()];
            let mut complete = vec![false; ops.len()];
            // Drive a random schedule: repeatedly try to issue everything,
            // completing ops in the generated order in between.
            let mut completions = completion_order.iter().map(|&i| i % ops.len());
            for _round in 0..ops.len() * 2 + 2 {
                for i in 0..ops.len() {
                    if issued[i] || !mao.can_issue(i as u64) {
                        continue;
                    }
                    // THE invariant: when a load issues, no older matching
                    // store may be incomplete; when a store issues, no
                    // older matching access may be incomplete.
                    for j in 0..i {
                        if complete[j] {
                            continue;
                        }
                        let conflict = ops[j].addr == ops[i].addr
                            && (ops[j].is_store || ops[i].is_store);
                        assert!(
                            !conflict,
                            "op {i} issued past older incomplete conflicting op {j}"
                        );
                    }
                    mao.mark_issued(i as u64);
                    issued[i] = true;
                }
                if let Some(c) = completions.next() {
                    if issued[c] && !complete[c] {
                        mao.complete(c as u64);
                        complete[c] = true;
                    }
                }
            }
            // Drain: completing everything must leave the MAO empty.
            for i in 0..ops.len() {
                if !issued[i] {
                    // All conflicts completed by now? Complete older ones.
                    for j in 0..i {
                        if issued[j] && !complete[j] {
                            mao.complete(j as u64);
                            complete[j] = true;
                        }
                    }
                    if mao.can_issue(i as u64) {
                        mao.mark_issued(i as u64);
                        issued[i] = true;
                    }
                }
            }
            for i in 0..ops.len() {
                if issued[i] && !complete[i] {
                    mao.complete(i as u64);
                    complete[i] = true;
                }
            }
        }
    }

    /// The MAO as the paper states it, with no thought for speed: a plain
    /// vector in program order, every lookup a linear search.
    struct NaiveMao {
        /// (seq, word, is_store, resolved, issued, complete)
        ops: Vec<(u64, u64, bool, bool, bool, bool)>,
        lsq_size: usize,
        alias_speculation: bool,
    }

    impl NaiveMao {
        fn at(&mut self, seq: u64) -> Option<&mut (u64, u64, bool, bool, bool, bool)> {
            self.ops.iter_mut().find(|op| op.0 == seq)
        }
        fn occupancy(&self) -> usize {
            self.ops.iter().filter(|op| op.4 && !op.5).count()
        }
        fn can_issue(&self, seq: u64) -> bool {
            let Some(&me) = self.ops.iter().find(|op| op.0 == seq) else {
                return true;
            };
            let blocks = |op: &(u64, u64, bool, bool, bool, bool)| {
                let may_alias = op.1 == me.1 || !(self.alias_speculation || op.3);
                op.0 < seq && !op.5 && (me.2 || op.2) && may_alias
            };
            self.occupancy() < self.lsq_size && !self.ops.iter().any(blocks)
        }
        fn complete(&mut self, seq: u64) {
            if let Some(op) = self.at(seq) {
                op.5 = true;
            }
            let done = self.ops.iter().take_while(|op| op.5).count();
            self.ops.drain(..done);
        }
    }

    /// The ring MAO and the naive model agree — on every `can_issue`
    /// verdict and on what is tracked and issued — after every operation
    /// of random interleavings of insert/resolve/can_issue/mark_issued/
    /// complete, with gapped sequence ids, out-of-order completion, and
    /// operations on ids the MAO never saw or has already collected.
    #[test]
    fn ring_matches_naive_model() {
        let mut r = TestRng(13);
        for case in 0..96 {
            let (lsq, spec) = (1 + case % 8, case % 16 < 8);
            let mut mao = Mao::new(lsq as u32, spec);
            let mut naive = NaiveMao {
                ops: Vec::new(),
                lsq_size: lsq,
                alias_speculation: spec,
            };
            let mut next_seq = r.below(5);
            // Inserted and not yet completed by the test.
            let mut open: Vec<u64> = Vec::new();
            for _step in 0..300 {
                // Any id up to the youngest, tracked or not.
                let any = r.below(next_seq + 1);
                let pick = r.below(open.len().max(1) as u64) as usize;
                match r.below(6) {
                    0 | 1 => {
                        let (addr, is_store) = (r.below(6) * 8 + r.below(8), r.below(2) == 1);
                        mao.insert(next_seq, addr, is_store);
                        naive.ops.push((next_seq, addr >> 3, is_store, false, false, false));
                        open.push(next_seq);
                        next_seq += 1 + r.below(4);
                    }
                    2 => {
                        mao.resolve(any);
                        if let Some(op) = naive.at(any) {
                            op.3 = true;
                        }
                    }
                    3 => assert_eq!(mao.can_issue(any), naive.can_issue(any), "case {case}"),
                    4 if !open.is_empty() => {
                        let seq = open[pick];
                        mao.mark_issued(seq);
                        naive.at(seq).expect("open").4 = true;
                    }
                    5 if !open.is_empty() => {
                        let seq = open.remove(pick);
                        mao.complete(seq);
                        naive.complete(seq);
                    }
                    _ => {
                        // An id the MAO does not track changes nothing.
                        let gap = next_seq + 1;
                        mao.mark_issued(gap);
                        mao.complete(gap);
                    }
                }
                assert_eq!(mao.tracked(), naive.ops.len(), "case {case}");
                assert_eq!(mao.occupancy() as usize, naive.occupancy(), "case {case}");
                for seq in 0..=next_seq {
                    let verdict = naive.can_issue(seq);
                    assert_eq!(mao.can_issue(seq), verdict, "case {case} seq {seq}");
                }
            }
        }
    }

    /// Occupancy never exceeds the configured LSQ size.
    #[test]
    fn lsq_capacity_is_respected() {
        let mut r = TestRng(12);
        for _case in 0..64 {
            let ops = ops(&mut r);
            let cap = 1 + r.below(7) as u32;
            let mut mao = Mao::new(cap, true);
            for (i, op) in ops.iter().enumerate() {
                mao.insert(i as u64, op.addr, op.is_store);
                mao.resolve(i as u64);
            }
            let mut issued = 0u32;
            for i in 0..ops.len() {
                if mao.can_issue(i as u64) {
                    mao.mark_issued(i as u64);
                    issued += 1;
                    assert!(mao.occupancy() <= cap);
                } else if issued >= cap {
                    // Full LSQ is an acceptable reason to refuse.
                }
            }
            assert!(mao.occupancy() <= cap);
        }
    }
}
