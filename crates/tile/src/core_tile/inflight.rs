//! The in-flight ring: launched-but-incomplete dynamic instructions.
//!
//! `#[inline]`: `step` in `core_tile.rs` calls these per instruction from
//! another codegen unit, where without the hint they stay calls
//! (`compute_ooo` ran 10 % slower).

use std::collections::VecDeque;

use mosaic_mem::AccessKind;

mosaic_ckpt::snap_enum! {
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum DynState {
        Waiting = 0,
        Ready = 1,
        Issued = 2,
        /// Completed: the slot is dead and waits to leave the ring.
        Done = 3,
    }
}

/// "No node": the end of a child list, or an empty free list.
pub(super) const NIL: u32 = u32::MAX;

/// One in-flight dynamic instruction. What is static about it is read
/// through `plan`, never copied.
#[derive(Debug, Clone, Copy)]
pub(super) struct DynInst {
    /// Index into the tile's [`StaticDdg`](mosaic_ddg::StaticDdg).
    pub(super) plan: u32,
    pub(super) state: DynState,
    /// Whether the DeSC role exempts it from the instruction window.
    pub(super) window_exempt: bool,
    pub(super) remaining_parents: u32,
    pub(super) dbb: u64,
    /// Its children, in launch order: a list in [`InFlight::nodes`].
    pub(super) first_child: u32,
    pub(super) last_child: u32,
    pub(super) mem: Option<(u64, u8, AccessKind)>,
    /// For an accelerator call: its index in the trace's stream.
    pub(super) accel_at: u32,
}

/// The launched-but-incomplete instructions, as a ring indexed by
/// `seq - base_seq`. Sequence ids are allocated densely and
/// monotonically, a slot is live iff its instruction is in flight, and
/// the window head only moves forward (DESIGN.md §4.2).
#[derive(Debug)]
pub(super) struct InFlight {
    /// Sequence id of `slots[0]`; the next id to allocate is
    /// `base_seq + slots.len()`.
    pub(super) base_seq: u64,
    pub(super) slots: VecDeque<DynInst>,
    /// Slots not yet `Done`.
    pub(super) live: usize,
    /// The window head: the oldest instruction that is neither complete
    /// nor window-exempt (`next_seq()` when there is none).
    pub(super) head: u64,
    /// Child-list nodes `(child seq, next node)`, shared by all slots and
    /// recycled through the free list `free`.
    nodes: Vec<(u64, u32)>,
    free: u32,
}

impl InFlight {
    pub(super) fn new() -> Self {
        InFlight {
            base_seq: 0,
            slots: VecDeque::new(),
            live: 0,
            head: 0,
            nodes: Vec::new(),
            free: NIL,
        }
    }

    pub(super) fn next_seq(&self) -> u64 {
        self.base_seq + self.slots.len() as u64
    }

    /// The in-flight instruction `seq`, if it has not completed.
    pub(super) fn get(&self, seq: u64) -> Option<&DynInst> {
        let at = seq.checked_sub(self.base_seq)?;
        self.slots
            .get(at as usize)
            .filter(|d| d.state != DynState::Done)
    }

    pub(super) fn get_mut(&mut self, seq: u64) -> Option<&mut DynInst> {
        let at = seq.checked_sub(self.base_seq)?;
        self.slots
            .get_mut(at as usize)
            .filter(|d| d.state != DynState::Done)
    }

    /// Moves the window head past completed and window-exempt slots.
    #[inline]
    pub(super) fn advance_head(&mut self) {
        self.head = self.head.max(self.base_seq);
        while let Some(d) = self.slots.get((self.head - self.base_seq) as usize) {
            if d.state != DynState::Done && !d.window_exempt {
                break;
            }
            self.head += 1;
        }
    }

    /// Appends `di` as the youngest instruction.
    pub(super) fn push(&mut self, di: DynInst) {
        self.slots.push_back(di);
        self.live += 1;
        self.advance_head();
    }

    /// Records `child` as waiting on `parent`; `false` (and nothing
    /// recorded) when `parent` already completed.
    #[inline]
    pub(super) fn add_child(&mut self, parent: u64, child: u64) -> bool {
        if self.get(parent).is_none() {
            return false;
        }
        let node = match self.free {
            NIL => {
                self.nodes.push((child, NIL));
                (self.nodes.len() - 1) as u32
            }
            node => {
                self.free = self.nodes[node as usize].1;
                self.nodes[node as usize] = (child, NIL);
                node
            }
        };
        let p = self.get_mut(parent).expect("checked above");
        let tail = std::mem::replace(&mut p.last_child, node);
        if tail == NIL {
            p.first_child = node;
        } else {
            self.nodes[tail as usize].1 = node;
        }
        true
    }

    /// Frees child-list node `node`, returning its child and successor.
    pub(super) fn take_child(&mut self, node: u32) -> (u64, u32) {
        let (child, next) = self.nodes[node as usize];
        self.nodes[node as usize].1 = self.free;
        self.free = node;
        (child, next)
    }

    /// The children of `di`, in launch order.
    pub(super) fn children<'a>(&'a self, di: &DynInst) -> impl Iterator<Item = u64> + 'a {
        let mut node = di.first_child;
        std::iter::from_fn(move || {
            let (child, next) = *self.nodes.get(node as usize)?;
            node = next;
            Some(child)
        })
    }

    /// Takes `seq` out of flight, returning it as it was (its child list
    /// is the caller's to free); `None` if it is not in flight.
    #[inline]
    pub(super) fn retire(&mut self, seq: u64) -> Option<DynInst> {
        let slot = self.get_mut(seq)?;
        let di = *slot;
        slot.state = DynState::Done;
        self.live -= 1;
        while self
            .slots
            .front()
            .is_some_and(|d| d.state == DynState::Done)
        {
            self.slots.pop_front();
            self.base_seq += 1;
        }
        self.advance_head();
        Some(di)
    }

    /// The `Ready` slots with sequence ids in `[from, to)` that are subject
    /// to the window check, ascending.
    pub(super) fn parked_in(&self, from: u64, to: u64) -> impl Iterator<Item = (u64, &DynInst)> {
        // The ranges asked about are short: the ids a window edge passed.
        let hi = to.clamp(self.base_seq, self.next_seq());
        let lo = from.clamp(self.base_seq, hi);
        (lo..hi)
            .map(|seq| (seq, &self.slots[(seq - self.base_seq) as usize]))
            .filter(|(_, d)| d.state == DynState::Ready && !d.window_exempt)
    }
}
