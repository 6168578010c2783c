//! Core tile configuration: microarchitectural resource limits
//! (paper §III-A), instruction costs (§III-B), and speculation (§III-C).

use mosaic_ddg::InstClass;
use mosaic_ir::{Function, Opcode, Operand};

/// Branch handling mode (paper §III-C).
///
/// MosaicSim "currently supports static branch prediction in addition to
/// perfect branch prediction".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchMode {
    /// No speculation: the next DBB launches only when the previous DBB's
    /// terminator completes (the paper's default behavior).
    #[default]
    None,
    /// Static prediction: backward branches predicted taken, forward
    /// branches predicted not-taken; unconditional branches always correct.
    /// Correct predictions launch the next DBB immediately; mispredictions
    /// wait for the terminator plus a penalty.
    Static,
    /// Perfect prediction: the next DBB always launches immediately.
    Perfect,
    /// Dynamic bimodal prediction: a 2-bit saturating counter per static
    /// conditional branch, trained on the taken/not-taken outcomes as
    /// DBBs launch. The paper lists dynamic predictors as future work
    /// (§III-C footnote); this implements the classic baseline.
    Bimodal,
}

/// Per-class latency (cycles) and energy (picojoules) table
/// (paper §III-B: "Individual instructions in MosaicSim have both a
/// latency cost (cycles) and energy cost (Joules)").
#[derive(Debug, Clone, PartialEq)]
pub struct CostTable {
    /// `(latency, energy_pj)` by [`InstClass::code`].
    costs: [(u64, f64); InstClass::COUNT],
}

impl Default for CostTable {
    fn default() -> Self {
        let mut t = CostTable {
            costs: [(1, 0.5); InstClass::COUNT],
        };
        // (latency cycles, energy pJ) — representative 22 nm-class values.
        t.set(InstClass::IntAlu, 1, 0.5);
        t.set(InstClass::IntMul, 3, 2.0);
        t.set(InstClass::IntDiv, 18, 12.0);
        t.set(InstClass::FpAdd, 3, 1.5);
        t.set(InstClass::FpMul, 4, 2.5);
        t.set(InstClass::FpDiv, 16, 14.0);
        t.set(InstClass::FpSpecial, 8, 20.0);
        t.set(InstClass::Load, 0, 3.0); // latency is dynamic (memory)
        t.set(InstClass::Store, 0, 3.5);
        t.set(InstClass::Atomic, 0, 8.0);
        t.set(InstClass::Branch, 1, 0.6);
        t.set(InstClass::Phi, 0, 0.0);
        t.set(InstClass::Send, 1, 1.0);
        t.set(InstClass::Recv, 1, 1.0);
        t.set(InstClass::Accel, 0, 0.0); // cost comes from the model
        t
    }
}

impl CostTable {
    /// Fixed latency of `class` (memory classes return 0: their cost is
    /// dynamic, determined by the hierarchy — paper §III-B).
    pub fn latency(&self, class: InstClass) -> u64 {
        self.costs[class.code()].0
    }

    /// Energy in pJ charged when an instruction of `class` issues.
    pub(crate) fn energy_pj(&self, class: InstClass) -> f64 {
        self.costs[class.code()].1
    }

    /// Overrides one class's `(latency, energy_pj)` entry.
    pub(crate) fn set(&mut self, class: InstClass, latency: u64, energy_pj: f64) {
        self.costs[class.code()] = (latency, energy_pj);
    }
}

/// Per-class functional unit limits (paper §III-A: "MosaicSim can limit
/// the number of available functional units for each instruction type").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuLimits {
    /// Limit by [`InstClass::code`]; `u32::MAX` when unconstrained.
    limits: [u32; InstClass::COUNT],
}

impl Default for FuLimits {
    fn default() -> Self {
        let mut fu = FuLimits::unlimited();
        fu.set(InstClass::IntAlu, 4);
        fu.set(InstClass::IntMul, 2);
        fu.set(InstClass::IntDiv, 1);
        fu.set(InstClass::FpAdd, 2);
        fu.set(InstClass::FpMul, 2);
        fu.set(InstClass::FpDiv, 1);
        fu.set(InstClass::FpSpecial, 2);
        fu.set(InstClass::Branch, 1);
        fu
    }
}

impl FuLimits {
    /// Unlimited units for every class (pre-RTL accelerator modeling).
    pub fn unlimited() -> Self {
        FuLimits {
            limits: [u32::MAX; InstClass::COUNT],
        }
    }

    /// The limit for `class` (`u32::MAX` when unconstrained).
    pub(crate) fn limit(&self, class: InstClass) -> u32 {
        self.limits[class.code()]
    }

    /// Overrides one class's limit.
    pub fn set(&mut self, class: InstClass, limit: u32) {
        self.limits[class.code()] = limit;
    }
}

/// ISA-tuning (macro-op fusion) knobs.
///
/// The paper observes that LLVM IR needs two instructions
/// (`getelementptr` + `load`) where x86 uses one `MOV`, and that
/// "simulating pairs of load and getelementptr as one instruction for x86
/// can increase accuracy" (§VI-A). The **reference machine model** used as
/// the accuracy baseline in Fig. 5 enables these fusions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FusionConfig {
    /// Fuse a `gep` whose only use is a memory address into the memory op.
    pub gep_into_mem: bool,
    /// Fuse a compare whose only use is a conditional branch.
    pub cmp_into_branch: bool,
}

impl FusionConfig {
    /// The x86-like tuning used by the reference model.
    pub(crate) fn x86_like() -> Self {
        FusionConfig {
            gep_into_mem: true,
            cmp_into_branch: true,
        }
    }
}

/// Complete configuration of a core tile (paper Table II shows the two
/// presets used by the DAE case study).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Display name.
    pub name: String,
    /// Superscalar issue width (paper §III-A).
    pub issue_width: u32,
    /// Sliding instruction window / ROB size (paper §III-A).
    pub window_size: u64,
    /// LSQ capacity: issued-but-incomplete memory ops (paper §III-A).
    pub lsq_size: u32,
    /// Functional unit limits.
    pub fu: FuLimits,
    /// Live-DBB limit per static basic block (`None` = unlimited;
    /// paper §III-A: mimics replicated loop circuits in accelerators).
    pub live_dbb_limit: Option<u32>,
    /// Branch speculation mode.
    pub branch: BranchMode,
    /// Cycles added when the static predictor disagrees with the trace.
    pub mispredict_penalty: u64,
    /// Perfect memory-alias speculation (paper §III-C): use the trace's
    /// complete address knowledge to stall only on true conflicts.
    pub alias_speculation: bool,
    /// Instruction costs.
    pub costs: CostTable,
    /// Macro-op fusion for ISA-tuned (reference) modeling.
    pub fusion: FusionConfig,
    /// Tile clock divisor relative to the global clock (a divisor of 2
    /// steps the tile every other global cycle — paper §II "tiles may run
    /// at different clock speeds").
    pub clock_divisor: u64,
    /// Upper bound on launched-but-incomplete dynamic instructions
    /// (bounds simulator memory). A DBB launches whole, so it must be at
    /// least the longest basic block of the kernel; below `window_size` it
    /// caps the window.
    pub max_inflight: u64,
    /// Offset added to every queue id this tile touches, so several
    /// instances of the same kernel pair (e.g. SPMD DAE pairs) use
    /// private channels.
    pub queue_offset: u32,
    /// Silicon area in mm² (Table II: OoO 8.44, InO 1.01 — McPAT numbers
    /// taken from the paper). Drives the static-energy model and the
    /// area-equivalent comparisons of the DAE case study.
    pub area_mm2: f64,
    /// DeSC structures (paper §VII-A: "the default core models were
    /// extended to include the structures described in \[24\], i.e. the
    /// communication queues, the terminal load buffer, the store address
    /// buffer, and the store value buffer"). When enabled, a load whose
    /// value feeds straight into a `send` (a *terminal load*) fires and
    /// forgets: the pipeline retires it immediately and hardware pushes
    /// the returning data into the channel; stores whose values come from
    /// a `recv` are likewise buffered aside instead of blocking the
    /// window.
    pub desc_extensions: bool,
    /// Capacity of the terminal-load / decoupled-store buffer.
    pub desc_buffer: u32,
}

impl CoreConfig {
    /// The in-order preset from Table II: width 1, window/ROB/LSQ 1.
    pub fn in_order() -> Self {
        CoreConfig {
            name: "InO".to_string(),
            issue_width: 1,
            window_size: 1,
            lsq_size: 1,
            fu: FuLimits::default(),
            live_dbb_limit: None,
            branch: BranchMode::Static,
            mispredict_penalty: 4,
            alias_speculation: false,
            costs: CostTable::default(),
            fusion: FusionConfig::default(),
            clock_divisor: 1,
            max_inflight: 256,
            queue_offset: 0,
            area_mm2: 1.01,
            desc_extensions: false,
            desc_buffer: 64,
        }
    }

    /// The out-of-order preset from Table II: width 4, window/ROB/LSQ 128.
    pub fn out_of_order() -> Self {
        CoreConfig {
            name: "OoO".to_string(),
            issue_width: 4,
            window_size: 128,
            lsq_size: 128,
            fu: FuLimits::default(),
            live_dbb_limit: None,
            branch: BranchMode::Static,
            mispredict_penalty: 8,
            alias_speculation: true,
            costs: CostTable::default(),
            fusion: FusionConfig::default(),
            clock_divisor: 1,
            max_inflight: 1024,
            queue_offset: 0,
            area_mm2: 8.44,
            desc_extensions: false,
            desc_buffer: 64,
        }
    }

    /// Pre-RTL accelerator tile (paper §IV): relaxed window and FUs, a
    /// configurable number of concurrently live DBBs (hardware-supported
    /// loop unrolling).
    pub fn accelerator(unroll: u32) -> Self {
        CoreConfig {
            name: format!("Accel(pre-RTL x{unroll})"),
            issue_width: 16,
            window_size: 4096,
            lsq_size: 256,
            fu: FuLimits::unlimited(),
            live_dbb_limit: Some(unroll),
            branch: BranchMode::Perfect,
            mispredict_penalty: 0,
            alias_speculation: true,
            costs: CostTable::default(),
            fusion: FusionConfig::default(),
            clock_divisor: 1,
            max_inflight: 16384,
            queue_offset: 0,
            area_mm2: 2.0,
            desc_extensions: false,
            desc_buffer: 64,
        }
    }

    /// The ISA-tuned reference model standing in for the paper's
    /// Xeon E5-2667 v3 measurements (see DESIGN.md §1).
    pub fn x86_reference() -> Self {
        CoreConfig {
            name: "x86-ref".to_string(),
            issue_width: 4,
            window_size: 168, // Haswell-class ROB
            lsq_size: 72,
            fu: FuLimits::default(),
            live_dbb_limit: None,
            // Mispredicts cost a full Haswell-class pipeline refill; the
            // same loop-aware static predictor drives both models so the
            // accuracy gap isolates ISA effects (fusion) + penalty size.
            branch: BranchMode::Static,
            mispredict_penalty: 14,
            alias_speculation: true,
            costs: CostTable::default(),
            fusion: FusionConfig::x86_like(),
            clock_divisor: 1,
            max_inflight: 2048,
            queue_offset: 0,
            area_mm2: 8.44,
            desc_extensions: false,
            desc_buffer: 64,
        }
    }

    /// An in-order core extended with the DeSC structures (paper §VII-A)
    /// — the access-side core of a DAE pair.
    pub fn dae_access() -> Self {
        CoreConfig {
            name: "InO+DeSC".to_string(),
            desc_extensions: true,
            // DeSC sizes its terminal load buffer modestly; this also
            // keeps the reproduction's DAE advantage in the paper's range.
            desc_buffer: 4,
            ..CoreConfig::in_order()
        }
    }

    /// Enables/disables the DeSC structures (builder-style).
    pub fn with_desc_extensions(mut self, on: bool) -> Self {
        self.desc_extensions = on;
        self
    }

    /// Renames the configuration (builder-style).
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Sets the queue-id offset (builder-style).
    pub fn with_queue_offset(mut self, offset: u32) -> Self {
        self.queue_offset = offset;
        self
    }

    /// Sets the clock divisor (builder-style).
    pub fn with_clock_divisor(mut self, divisor: u64) -> Self {
        assert!(divisor >= 1, "clock divisor must be at least 1");
        self.clock_divisor = divisor;
        self
    }
}

/// Computes the statically fusible instructions of a function under
/// `fusion` (see [`FusionConfig`]), as flags by `InstId`: fused
/// instructions execute with zero latency and consume no issue slot,
/// modeling x86 macro-ops. A fusible def has one use: a `gep` as a memory
/// address, a compare as a branch condition.
pub(crate) fn fused_insts(func: &Function, fusion: FusionConfig) -> Vec<bool> {
    let use_count = func.use_counts();
    let mut fused = vec![false; func.inst_count()];
    for &user in func.blocks().flat_map(|b| b.insts()) {
        let (operand, into_mem) = match func.inst(user).op() {
            Opcode::Load { addr } | Opcode::Store { addr, .. } => (*addr, true),
            Opcode::CondBr { cond, .. } => (*cond, false),
            _ => continue,
        };
        let Operand::Inst(def) = operand else { continue };
        let fusible = match func.inst(def).op() {
            Opcode::Gep { .. } => into_mem && fusion.gep_into_mem,
            Opcode::ICmp { .. } | Opcode::FCmp { .. } => !into_mem && fusion.cmp_into_branch,
            _ => false,
        };
        fused[def.index()] |= fusible && use_count[def.index()] == 1;
    }
    fused
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_ir::{FunctionBuilder, IntPredicate, Module, Type};

    #[test]
    fn presets_match_table_ii() {
        let ino = CoreConfig::in_order();
        assert_eq!(ino.issue_width, 1);
        assert_eq!(ino.window_size, 1);
        assert_eq!(ino.lsq_size, 1);
        let ooo = CoreConfig::out_of_order();
        assert_eq!(ooo.issue_width, 4);
        assert_eq!(ooo.window_size, 128);
        assert_eq!(ooo.lsq_size, 128);
    }

    #[test]
    fn cost_table_defaults_are_sane() {
        let t = CostTable::default();
        assert!(t.latency(InstClass::IntDiv) > t.latency(InstClass::IntAlu));
        assert_eq!(t.latency(InstClass::Load), 0); // dynamic
        assert_eq!(t.latency(InstClass::Phi), 0);
        assert!(t.energy_pj(InstClass::FpSpecial) > t.energy_pj(InstClass::IntAlu));
    }

    #[test]
    fn fu_limits_override() {
        let mut fu = FuLimits::default();
        fu.set(InstClass::FpMul, 8);
        assert_eq!(fu.limit(InstClass::FpMul), 8);
        assert_eq!(FuLimits::unlimited().limit(InstClass::IntDiv), u32::MAX);
    }

    #[test]
    fn fusion_detects_gep_and_cmp() {
        let mut m = Module::new("t");
        let f = m.add_function(
            "k",
            vec![("p".into(), Type::Ptr), ("n".into(), Type::I64)],
            Type::Void,
        );
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let (p, n) = (b.param(0), b.param(1));
        let e = b.create_block("entry");
        let t = b.create_block("t");
        b.switch_to(e);
        let g1 = b.gep(p, n, 8); // single use by load -> fusible
        let v = b.load(Type::I64, g1);
        let g2 = b.gep(p, v, 8); // used by load AND store -> not fusible
        let v2 = b.load(Type::I64, g2);
        b.store(g2, v2);
        let c = b.icmp(IntPredicate::Slt, v, n); // single use by condbr -> fusible
        b.cond_br(c, t, t);
        b.switch_to(t);
        b.ret(None);
        mosaic_ir::verify_module(&m).unwrap();
        let fused = fused_insts(m.function(f), FusionConfig::x86_like());
        let fused_at = |v: mosaic_ir::Operand| fused[v.as_inst().unwrap().index()];
        assert!(fused_at(g1));
        assert!(!fused_at(g2));
        assert!(fused_at(c));
        assert_eq!(fused.iter().filter(|&&f| f).count(), 2);
        // With fusion disabled nothing is fused.
        assert!(!fused_insts(m.function(f), FusionConfig::default()).contains(&true));
    }
}
