//! What `CoreTile::new` works out from the function once: DeSC roles and
//! static branch predictions.

use mosaic_ir::{BlockId, InstId, Opcode};

/// Role of an instruction under the DeSC extensions (paper §VII-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum DescRole {
    /// A load whose value feeds straight into a `send`: fire-and-forget;
    /// hardware pushes the returning data into the channel.
    TerminalLoad { queue: u32 },
    /// The `send` paired with a terminal load (absorbed by hardware).
    SkipSend,
    /// A `recv` whose value feeds straight into a store (store value
    /// buffer): exempt from the instruction window.
    StoreRecv,
    /// A store whose value comes from a `recv`: fire-and-forget via the
    /// store address/value buffers.
    DetachedStore,
}

impl DescRole {
    /// Whether the op lives in a DeSC buffer instead of the instruction
    /// window.
    pub(super) fn window_exempt(self) -> bool {
        matches!(
            self,
            DescRole::TerminalLoad { .. } | DescRole::StoreRecv | DescRole::DetachedStore
        )
    }

    /// Whether the op is a fire-and-forget memory access: it lives in the
    /// terminal-load / store buffers, outside the MAO (the DeSC hardware
    /// structures handle its ordering).
    pub(super) fn detached(self) -> bool {
        matches!(
            self,
            DescRole::TerminalLoad { .. } | DescRole::DetachedStore
        )
    }
}

/// Computes the DeSC roles of a function's instructions, by `InstId`:
/// terminal loads (load → send), their absorbed sends, store-value recvs
/// (recv → store), and the detached stores they feed (paper §VII-A's DeSC
/// structures).
#[allow(clippy::collapsible_match)] // per-opcode arms stay scannable
pub(super) fn compute_desc_roles(func: &mosaic_ir::Function) -> Vec<Option<DescRole>> {
    use mosaic_ir::Operand;
    let scheduled: Vec<InstId> = func
        .blocks()
        .flat_map(|b| b.insts().iter().copied())
        .collect();
    let use_count = func.use_counts();
    let mut roles = vec![None; func.inst_count()];
    for &iid in &scheduled {
        match func.inst(iid).op() {
            Opcode::Send { queue, value } => {
                if let Operand::Inst(def) = value {
                    let is_load = matches!(func.inst(*def).op(), Opcode::Load { .. });
                    if is_load && use_count[def.index()] == 1 {
                        roles[def.index()] = Some(DescRole::TerminalLoad { queue: *queue });
                        roles[iid.index()] = Some(DescRole::SkipSend);
                    }
                }
            }
            Opcode::Store { value, .. } => {
                if let Operand::Inst(def) = value {
                    let is_recv = matches!(func.inst(*def).op(), Opcode::Recv { .. });
                    if is_recv && use_count[def.index()] == 1 {
                        roles[def.index()] = Some(DescRole::StoreRecv);
                        roles[iid.index()] = Some(DescRole::DetachedStore);
                    }
                }
            }
            _ => {}
        }
    }
    roles
}

/// Computes static branch predictions, by block: for a conditional
/// terminator, predict the successor through which control can return to
/// the block (the loop-continuation edge); if neither or both loop,
/// fall back to backward-taken / forward-not-taken.
pub(super) fn compute_static_predictions(func: &mosaic_ir::Function) -> Vec<Option<BlockId>> {
    let nblocks = func.block_count();
    let cfg = mosaic_ir::analysis::Cfg::new(func);
    // BFS distance from `start` back to `target` (None if unreachable).
    let cycle_distance = |start: BlockId, target: BlockId| -> Option<u32> {
        let mut dist = vec![None; nblocks];
        let mut queue = std::collections::VecDeque::new();
        dist[start.index()] = Some(1u32);
        queue.push_back(start);
        if start == target {
            return Some(1);
        }
        while let Some(b) = queue.pop_front() {
            let d = dist[b.index()].expect("visited");
            for &s in cfg.succs(b) {
                if dist[s.index()].is_none() {
                    dist[s.index()] = Some(d + 1);
                    if s == target {
                        return Some(d + 1);
                    }
                    queue.push_back(s);
                }
            }
        }
        dist[target.index()]
    };
    let mut out = vec![None; nblocks];
    for block in func.blocks() {
        let pred = match block.terminator().map(|t| func.inst(t).op().clone()) {
            Some(Opcode::Br { target }) => Some(target),
            Some(Opcode::CondBr {
                on_true, on_false, ..
            }) => {
                // In nested loops both successors can eventually return to
                // the block (the exit path re-enters through the outer
                // loop); predict the one with the *shortest* cycle — the
                // innermost back edge, i.e. the loop-continue direction.
                let t_cycle = cycle_distance(on_true, block.id());
                let f_cycle = cycle_distance(on_false, block.id());
                match (t_cycle, f_cycle) {
                    (Some(_), None) => Some(on_true),
                    (None, Some(_)) => Some(on_false),
                    (Some(t), Some(f)) if t < f => Some(on_true),
                    (Some(t), Some(f)) if f < t => Some(on_false),
                    _ => {
                        if on_true.index() <= block.id().index() {
                            Some(on_true)
                        } else {
                            Some(on_false)
                        }
                    }
                }
            }
            _ => None,
        };
        out[block.id().index()] = pred;
    }
    out
}
