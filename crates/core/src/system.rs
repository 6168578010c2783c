//! System composition and whole-run reports.
//!
//! [`SystemBuilder`] assembles an SoC exactly as paper Fig. 2 depicts it:
//! a set of heterogeneous tiles (each bound to a kernel function and a
//! recorded trace), a shared memory hierarchy, inter-tile channels, and an
//! accelerator bank — then runs the Interleaver to completion and returns
//! a [`SimReport`].

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use mosaic_ir::{FuncId, Module, TileProgram};
use mosaic_lint::{lint_system, LintLevel, TileBinding};
use mosaic_mem::{CacheConfig, DramKind, HierarchyConfig, MemStats, MemoryHierarchy};
use mosaic_obs::{IrProfile, ObsLevel, StatsRegistry, Timeline};
use mosaic_part::{partition, InterferenceGraph, LatencyModel, MemGeometry, PartitionPlan};
use mosaic_tile::{
    AccelSim, ChannelConfig, ChannelSet, CoreConfig, CoreTile, NoAccel, Tile, TileStats,
};
use mosaic_trace::{CursorPos, KernelTrace};

use crate::energy;
use crate::error::MosaicError;
use crate::interleaver::Interleaver;

/// Final report of one system simulation.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Cycle at which the last tile finished.
    pub cycles: u64,
    /// Per-tile statistics.
    pub tiles: Vec<TileStats>,
    /// Memory hierarchy statistics.
    pub mem: MemStats,
    /// Cycles the DRAM bandwidth cap throttled ready requests.
    pub dram_throttled: u64,
    /// Total retired instructions.
    pub total_retired: u64,
    /// Core-side dynamic energy (instructions + accelerators), pJ.
    pub core_energy_pj: f64,
    /// Memory-hierarchy dynamic energy, pJ.
    pub mem_energy_pj: f64,
    /// Static energy over the run, pJ.
    pub static_energy_pj: f64,
    /// Hierarchical statistics registry (`tile.*`, `mem.*`, `sim.*`
    /// paths). Always populated — reading the counters after a run is
    /// free; only *sampling* (histograms, per-instruction profile,
    /// timeline spans) is gated behind [`SystemBuilder::observe`].
    ///
    /// Everything except the `sim.ff.*` scheduler diagnostics is
    /// bit-identical between fast-forward and naive stepping.
    pub registry: StatsRegistry,
    /// Cycle-timeline spans in Chrome `trace_event` form (empty below
    /// [`ObsLevel::Trace`]). Export with [`Timeline::to_chrome_json`].
    pub timeline: Timeline,
    /// Per-static-instruction profile: retires, attributed stall cycles,
    /// memory-latency histograms (empty below [`ObsLevel::Stats`]).
    pub profile: IrProfile,
}

impl SimReport {
    /// Aggregate instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_retired as f64 / self.cycles as f64
        }
    }

    /// Total energy, pJ.
    pub fn total_energy_pj(&self) -> f64 {
        self.core_energy_pj + self.mem_energy_pj + self.static_energy_pj
    }

    /// Energy-delay product in J·s.
    pub fn edp_js(&self) -> f64 {
        energy::edp(self.total_energy_pj(), self.cycles)
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles: {}", self.cycles)?;
        writeln!(
            f,
            "retired: {}  (IPC {:.3})",
            self.total_retired,
            self.ipc()
        )?;
        for t in &self.tiles {
            writeln!(
                f,
                "  tile {:<16} retired {:>10}  done@{:>10}  ipc {:.3}",
                t.name,
                t.retired,
                t.done_at.map(|c| c.to_string()).unwrap_or_default(),
                t.ipc()
            )?;
        }
        writeln!(
            f,
            "mem: L1 {}/{} (h/m)  LLC {}/{}  DRAM rd {} wb {}",
            self.mem.l1_hits,
            self.mem.l1_misses,
            self.mem.llc_hits,
            self.mem.llc_misses,
            self.mem.dram_reads,
            self.mem.dram_writebacks
        )?;
        writeln!(
            f,
            "energy: core {:.1} nJ, mem {:.1} nJ, static {:.1} nJ",
            self.core_energy_pj / 1e3,
            self.mem_energy_pj / 1e3,
            self.static_energy_pj / 1e3
        )
    }
}

struct TileSpec {
    config: CoreConfig,
    func: FuncId,
    trace_tile: usize,
}

/// Builder for a tiled system (paper Fig. 2's tile map).
///
/// # Examples
///
/// See [`crate::runner::simulate_spmd`] for the common end-to-end path;
/// the builder itself is used for heterogeneous compositions:
///
/// ```no_run
/// # use mosaic_core::{SystemBuilder, xeon_memory};
/// # use mosaic_tile::CoreConfig;
/// # fn demo(module: std::sync::Arc<mosaic_ir::Module>,
/// #         trace: std::sync::Arc<mosaic_trace::KernelTrace>,
/// #         access: mosaic_ir::FuncId, execute: mosaic_ir::FuncId) {
/// let report = SystemBuilder::new(module, trace)
///     .memory(xeon_memory())
///     .core(CoreConfig::in_order().with_name("access"), access, 0)
///     .core(CoreConfig::in_order().with_name("execute"), execute, 1)
///     .run()
///     .unwrap();
/// println!("{report}");
/// # }
/// ```
pub struct SystemBuilder {
    module: Arc<Module>,
    trace: Arc<KernelTrace>,
    tiles: Vec<TileSpec>,
    memory: HierarchyConfig,
    channel: ChannelConfig,
    accel: Option<Box<dyn AccelSim>>,
    cycle_limit: u64,
    fast_forward: bool,
    lint: LintLevel,
    observe: ObsLevel,
    checkpoint_every: Option<u64>,
    checkpoint_path: Option<std::path::PathBuf>,
    resume: Option<Arc<mosaic_ckpt::Checkpoint>>,
}

impl fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("tiles", &self.tiles.len())
            .finish()
    }
}

impl SystemBuilder {
    /// Starts a system over a module and its recorded kernel trace.
    pub fn new(module: Arc<Module>, trace: Arc<KernelTrace>) -> Self {
        SystemBuilder {
            module,
            trace,
            tiles: Vec::new(),
            memory: HierarchyConfig::default(),
            channel: ChannelConfig::default(),
            accel: None,
            cycle_limit: 2_000_000_000,
            fast_forward: true,
            lint: LintLevel::default(),
            observe: ObsLevel::Off,
            checkpoint_every: None,
            checkpoint_path: None,
            resume: None,
        }
    }

    /// Writes a checkpoint roughly every `cycles` cycles during
    /// [`run()`](Self::run) (at the first stepped cycle at or past each
    /// boundary — fast-forward jumps can land past one). Requires a
    /// destination set with [`Self::checkpoint_to`]; the file is
    /// replaced atomically each time so it always holds the most recent
    /// snapshot.
    /// An [`Interleaver`] from [`Self::build`] writes none: pause it with
    /// [`Interleaver::run_until`] and save there.
    pub fn checkpoint_every(mut self, cycles: u64) -> Self {
        self.checkpoint_every = Some(cycles);
        self
    }

    /// Sets where periodic checkpoints (see [`Self::checkpoint_every`])
    /// are written.
    pub fn checkpoint_to(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Resumes from a snapshot taken with [`Interleaver::save_checkpoint`]
    /// (a file is read with [`mosaic_ckpt::Checkpoint::load`]) instead of
    /// starting at cycle 0. The builder must describe the *same* system the snapshot
    /// was taken from: static state is rebuilt from this configuration
    /// and only dynamic state is loaded. [`Self::build`] checks that each
    /// part — every tile's core configuration, function and trace tile,
    /// the memory hierarchy and the channels — has the fingerprint the
    /// snapshot's header names, and refuses the first that does not.
    /// Run-control knobs (cycle limit, fast-forward mode, observability
    /// level, lint level, checkpoint policy) may differ freely; the
    /// accelerator models and the module and trace are not fingerprinted,
    /// and must match by the caller's care. The `Arc` makes forking cheap:
    /// many sweep rows can share one warmed prefix without copying it.
    pub fn resume_from_checkpoint(mut self, ckpt: Arc<mosaic_ckpt::Checkpoint>) -> Self {
        self.resume = Some(ckpt);
        self
    }

    /// Sets the observability level (default [`ObsLevel::Off`]).
    ///
    /// `Off` costs the hot path nothing and still yields a populated
    /// [`SimReport::registry`]; `Stats` adds the per-instruction profile
    /// and occupancy histograms; `Trace` additionally records timeline
    /// spans for Chrome/Perfetto. All registry counters are bit-identical
    /// across levels and across fast-forward/naive stepping.
    pub fn observe(mut self, level: ObsLevel) -> Self {
        self.observe = level;
        self
    }

    /// Sets the pre-simulation lint gate's strictness (default
    /// [`LintLevel::Warn`]): `Off` skips the linter, `Warn` prints
    /// findings to stderr, `Deny` fails `build` with
    /// [`MosaicError::Lint`] on any finding.
    pub fn lint(mut self, level: LintLevel) -> Self {
        self.lint = level;
        self
    }

    /// Enables or disables the Interleaver's event-horizon fast-forward
    /// scheduler (on by default; results are bit-identical either way).
    pub fn fast_forward(mut self, enabled: bool) -> Self {
        self.fast_forward = enabled;
        self
    }

    /// Sets the memory hierarchy configuration.
    pub fn memory(mut self, config: HierarchyConfig) -> Self {
        self.memory = config;
        self
    }

    /// Sets the default inter-tile channel configuration.
    pub fn channels(mut self, config: ChannelConfig) -> Self {
        self.channel = config;
        self
    }

    /// Installs the accelerator models (paper §IV-A).
    pub fn accelerators(mut self, accel: Box<dyn AccelSim>) -> Self {
        self.accel = Some(accel);
        self
    }

    /// Overrides the cycle cap.
    pub fn cycle_limit(mut self, limit: u64) -> Self {
        self.cycle_limit = limit;
        self
    }

    /// Adds a core tile running `func` and replaying trace tile
    /// `trace_tile`.
    pub fn core(mut self, config: CoreConfig, func: FuncId, trace_tile: usize) -> Self {
        self.tiles.push(TileSpec {
            config,
            func,
            trace_tile,
        });
        self
    }

    /// Adds `n` tiles of `core` running `func`, tile `t` replaying trace
    /// tile `t` under the name `<core.name>#<t>`.
    pub fn spmd(mut self, core: CoreConfig, func: FuncId, n: usize) -> Self {
        for t in 0..n {
            let config = core.clone().with_name(&format!("{}#{t}", core.name));
            self = self.core(config, func, t);
        }
        self
    }

    /// Adds `pairs` DAE pairs laid out as [`TileProgram::dae_pairs`] lays
    /// out their programs: pair `k` is `access_core` running `access` on
    /// tile `2k` and `execute_core` running `execute` on tile `2k + 1`,
    /// named `access#k`/`execute#k`, in pair `k`'s queue namespace.
    pub fn dae_pairs(
        mut self,
        access_core: CoreConfig,
        execute_core: CoreConfig,
        (access, execute): (FuncId, FuncId),
        pairs: usize,
    ) -> Self {
        for k in 0..pairs {
            let offset = TileProgram::DAE_QUEUE_STRIDE * k as u32;
            let named = |c: &CoreConfig, role: &str| {
                let c = c.clone().with_queue_offset(offset);
                c.with_name(&format!("{role}#{k}"))
            };
            self = self
                .core(named(&access_core, "access"), access, 2 * k)
                .core(named(&execute_core, "execute"), execute, 2 * k + 1);
        }
        self
    }

    /// The memory geometry the static partitioner sees, derived from the
    /// configured hierarchy. The banked DRAM model line-interleaves
    /// 64-byte lines across `channels × banks_per_channel` units — a
    /// partition of the address space that `MemGeometry`'s flat modulo
    /// map reproduces exactly up to bank renaming (interference is
    /// preserved). The simple DRAM model has no banks; the default
    /// 8-bank proxy keeps footprint overlap visible.
    fn mem_geometry(&self) -> MemGeometry {
        match &self.memory.dram {
            DramKind::Banked(b) => {
                let line = u64::from(self.memory.llc.line_bytes());
                MemGeometry::new((b.channels * b.banks_per_channel) as usize, line)
            }
            DramKind::Simple(_) => MemGeometry::default(),
        }
    }

    /// The minimum-latency model for static horizon bounds: each class
    /// is the minimum over all configured tiles (a lower bound must
    /// survive the fastest core), and mispredicted-gate bounds apply
    /// only when every tile uses static or no branch prediction.
    fn latency_model(&self) -> LatencyModel {
        use mosaic_ddg::InstClass;
        use mosaic_tile::BranchMode;
        let default = LatencyModel::default();
        if self.tiles.is_empty() {
            return default;
        }
        let arith = [
            InstClass::IntAlu,
            InstClass::IntMul,
            InstClass::IntDiv,
            InstClass::FpAdd,
            InstClass::FpMul,
            InstClass::FpDiv,
            InstClass::FpSpecial,
        ];
        let alu = self
            .tiles
            .iter()
            .flat_map(|t| arith.iter().map(|&c| t.config.costs.latency(c)))
            .min()
            .unwrap_or(default.alu);
        let branch = self
            .tiles
            .iter()
            .map(|t| t.config.costs.latency(InstClass::Branch))
            .min()
            .unwrap_or(default.branch);
        let gate_bounds = self
            .tiles
            .iter()
            .all(|t| matches!(t.config.branch, BranchMode::Static | BranchMode::None));
        LatencyModel {
            alu,
            branch,
            channel: self.channel.latency,
            gate_bounds,
        }
    }

    /// One [`TileBinding`] per configured tile (arguments unknown — the
    /// builder never sees concrete argument values).
    fn bindings(&self) -> Vec<TileBinding> {
        self.tiles
            .iter()
            .map(|spec| {
                let nparams = self.module.function(spec.func).params().len();
                TileBinding::new(spec.func, spec.config.queue_offset, vec![None; nparams])
            })
            .collect()
    }

    /// Builds the system interference graph for the current
    /// configuration and greedily partitions it into `shards` shards.
    /// Nothing in the simulator consumes the plan (DESIGN.md §4.7); the
    /// method is kept for `benchmark/src/layers.rs`, which times it as
    /// `part.plan_ms`, until ROADMAP item 1(a) removes that call.
    ///
    /// # Errors
    ///
    /// Returns [`MosaicError::InvalidConfig`] when no tiles are
    /// configured.
    pub fn compute_partition_plan(&self, shards: usize) -> Result<PartitionPlan, MosaicError> {
        if self.tiles.is_empty() {
            return Err(MosaicError::invalid_config(
                "partition.tiles",
                "cannot partition a system with no tiles",
            ));
        }
        let graph = InterferenceGraph::build(
            &self.module,
            &self.bindings(),
            self.mem_geometry(),
            &self.latency_model(),
        );
        Ok(partition(&graph, shards))
    }

    /// Rejects configurations the simulator cannot honor, naming the
    /// offending field. Centralized here so every entry point (direct
    /// `build`, `run`, the pipeline helpers, sweep drivers) fails the
    /// same way before any cycle runs.
    fn validate(&self) -> Result<(), MosaicError> {
        fn check_cache(path: &str, c: &CacheConfig) -> Result<(), MosaicError> {
            // Line offsets are masked with `line_bytes - 1`, which is only
            // correct for power-of-two lines.
            if !c.line_bytes().is_power_of_two() {
                return Err(MosaicError::invalid_config(
                    &format!("{path}.line_bytes"),
                    format!("line size {} is not a power of two", c.line_bytes()),
                ));
            }
            // The size must tile exactly into sets × ways × line, or the
            // truncated set count silently models a smaller cache than
            // configured (a 20 MiB 20-way LLC is fine; 20 MiB 8-way is not).
            let tile = c.line_bytes() as u64 * c.ways() as u64;
            if !c.size_bytes().is_multiple_of(tile) {
                return Err(MosaicError::invalid_config(
                    &format!("{path}.size_bytes"),
                    format!(
                        "cache size {} is not a whole number of sets ({} ways x {}B lines)",
                        c.size_bytes(),
                        c.ways(),
                        c.line_bytes()
                    ),
                ));
            }
            Ok(())
        }
        if self.channel.capacity == 0 {
            return Err(MosaicError::invalid_config(
                "channel.capacity",
                "channels need at least one buffer slot; a zero-capacity \
                 channel can never pass a message",
            ));
        }
        for spec in &self.tiles {
            if spec.config.clock_divisor == 0 {
                return Err(MosaicError::invalid_config(
                    "core.clock_divisor",
                    format!(
                        "tile {} has clock divisor 0; it would never be stepped",
                        spec.config.name
                    ),
                ));
            }
            // A core that can hold no memory op, issue nothing or cover
            // no instruction never finishes; `Mao::new` panics on the
            // first, the other two run to the cycle limit or come back as
            // a deadlock that names no field.
            let positive = [
                ("lsq_size", u64::from(spec.config.lsq_size)),
                ("issue_width", u64::from(spec.config.issue_width)),
                ("window_size", spec.config.window_size),
            ];
            if let Some((field, _)) = positive.into_iter().find(|&(_, value)| value == 0) {
                return Err(MosaicError::invalid_config(
                    &format!("core.{field}"),
                    format!(
                        "tile {} has {field} 0; it must be positive",
                        spec.config.name
                    ),
                ));
            }
            // A DBB launches whole: one longer than the in-flight bound
            // never launches.
            let func = self.module.function(spec.func);
            let longest = func.blocks().max_by_key(|b| b.insts().len());
            if let Some(b) = longest.filter(|b| b.insts().len() as u64 > spec.config.max_inflight) {
                return Err(MosaicError::invalid_config(
                    "core.max_inflight",
                    format!(
                        "tile {} bounds in-flight instructions at {} but block {} of {} \
                         has {}; a block launches whole",
                        spec.config.name,
                        spec.config.max_inflight,
                        b.name(),
                        func.name(),
                        b.insts().len()
                    ),
                ));
            }
            if spec.trace_tile >= self.trace.tile_count() {
                return Err(MosaicError::invalid_config(
                    "core.trace_tile",
                    format!(
                        "tile {} replays trace tile {} but the trace has {}",
                        spec.config.name,
                        spec.trace_tile,
                        self.trace.tile_count()
                    ),
                ));
            }
        }
        if let Some(every) = self.checkpoint_every {
            if every == 0 {
                return Err(MosaicError::invalid_config(
                    "checkpoint.every",
                    "a checkpoint interval of 0 cycles would snapshot at \
                     every step; pick a positive interval",
                ));
            }
            if self.checkpoint_path.is_none() {
                return Err(MosaicError::invalid_config(
                    "checkpoint.path",
                    "checkpoint_every needs a destination; set one with \
                     checkpoint_to(path)",
                ));
            }
        }
        check_cache("memory.l1", &self.memory.l1)?;
        if let Some(l2) = &self.memory.l2 {
            check_cache("memory.l2", l2)?;
        }
        check_cache("memory.llc", &self.memory.llc)?;
        // A request's line address is computed once, with the L1's line
        // size, and used at every level and by the banked DRAM's
        // interleaving: a level with another line size would be looked up
        // with the wrong tags without a word.
        let l1_line = self.memory.l1.line_bytes();
        let lower = [
            ("memory.l2", self.memory.l2.as_ref()),
            ("memory.llc", Some(&self.memory.llc)),
        ];
        for (path, cache) in lower {
            if let Some(c) = cache.filter(|c| c.line_bytes() != l1_line) {
                return Err(MosaicError::invalid_config(
                    &format!("{path}.line_bytes"),
                    format!(
                        "line size {} differs from the L1's {l1_line}; the hierarchy \
                         tracks one line size at every level",
                        c.line_bytes()
                    ),
                ));
            }
        }
        if self.memory.mshr_entries == 0 {
            return Err(MosaicError::invalid_config(
                "memory.mshr_entries",
                "a cache with no MSHR entry can never track a miss",
            ));
        }
        if let DramKind::Banked(d) = &self.memory.dram {
            let positive = [
                (
                    "channels",
                    u64::from(d.channels),
                    "the address map needs at least one channel",
                ),
                (
                    "banks_per_channel",
                    u64::from(d.banks_per_channel),
                    "the address map needs at least one bank per channel",
                ),
                ("row_bytes", d.row_bytes, "rows hold at least one byte"),
                (
                    "queue_depth",
                    d.queue_depth as u64,
                    "a bank queue with no slot refuses every request forever",
                ),
            ];
            for (field, value, why) in positive {
                if value == 0 {
                    return Err(MosaicError::invalid_config(
                        &format!("memory.dram.{field}"),
                        why,
                    ));
                }
            }
        }
        if let DramKind::Simple(d) = &self.memory.dram {
            if d.max_per_epoch == 0 {
                return Err(MosaicError::invalid_config(
                    "memory.dram.max_per_epoch",
                    "a bandwidth cap of 0 transfers per epoch means no \
                     memory request can ever complete",
                ));
            }
            if d.epoch_cycles == 0 {
                return Err(MosaicError::invalid_config(
                    "memory.dram.epoch_cycles",
                    "epoch length must be positive",
                ));
            }
        }
        // No modelled delay is anywhere near 2^32 cycles, and with each
        // one bounded the `now + latency` sums of the memory models, the
        // channels and the tiles stay far below 2^64. (Not bounded by
        // `cycle_limit`: capping a run below its DRAM latency is a
        // legitimate smoke run that ends in `SimError::CycleLimit`.)
        const MAX_DELAY: u64 = 1 << 32;
        let mispredict = self.tiles.iter().map(|spec| spec.config.mispredict_penalty);
        let noc = self.memory.noc.map_or(0, |noc| {
            let hops = (0..self.tiles.len()).map(|tile| noc.hops(tile)).max();
            hops.unwrap_or(1).saturating_mul(noc.hop_latency)
        });
        let mut delays = vec![
            ("channel.latency", self.channel.latency),
            ("core.mispredict_penalty", mispredict.max().unwrap_or(0)),
            ("memory.l1.latency", self.memory.l1.latency()),
            ("memory.l2.latency", self.memory.l2.as_ref().map_or(0, CacheConfig::latency)),
            ("memory.llc.latency", self.memory.llc.latency()),
            ("memory.atomic_penalty", self.memory.atomic_penalty),
            ("memory.noc.hop_latency", noc),
        ];
        match &self.memory.dram {
            DramKind::Simple(d) => delays.push(("memory.dram.min_latency", d.min_latency)),
            DramKind::Banked(d) => delays.extend([
                ("memory.dram.t_cas", d.t_cas),
                ("memory.dram.t_rcd", d.t_rcd),
                ("memory.dram.t_rp", d.t_rp),
                ("memory.dram.burst_cycles", d.burst_cycles),
            ]),
        }
        if let Some((field, cycles)) = delays.into_iter().find(|&(_, cycles)| cycles > MAX_DELAY) {
            return Err(MosaicError::invalid_config(
                field,
                format!("a delay of {cycles} cycles is beyond the {MAX_DELAY} the cycle arithmetic allows"),
            ));
        }
        Ok(())
    }

    /// Runs the static linter over the configured system (each tile's
    /// function under its queue offset, arguments unknown) and enforces
    /// the configured [`LintLevel`].
    fn lint_gate(&self) -> Result<(), MosaicError> {
        if self.lint == LintLevel::Off {
            return Ok(());
        }
        let report = lint_system(&self.module, &self.bindings());
        if report.fails(self.lint) {
            return Err(MosaicError::Lint(report));
        }
        if !report.is_clean() {
            eprintln!("mosaic-lint (builder gate):\n{report}");
        }
        Ok(())
    }

    /// Builds the interleaver without running it (stepwise use).
    ///
    /// # Errors
    ///
    /// Returns [`MosaicError::InvalidConfig`] naming the offending field
    /// when the configuration cannot be honored, or [`MosaicError::Lint`]
    /// when the lint level is [`LintLevel::Deny`] and the static linter
    /// found problems.
    pub fn build(self) -> Result<Interleaver, MosaicError> {
        self.validate()?;
        self.lint_gate()?;
        let parts = self.parts();
        let ntiles = self.tiles.len();
        let mem = MemoryHierarchy::new(self.memory, ntiles.max(1));
        let channels = ChannelSet::new(self.channel);
        let accel: Box<dyn AccelSim> = self.accel.unwrap_or_else(|| Box::new(NoAccel));
        let tiles: Vec<Box<dyn Tile>> = self
            .tiles
            .into_iter()
            .enumerate()
            .map(|(slot, spec)| {
                let trace = self.trace.tile_shared(spec.trace_tile);
                Box::new(CoreTile::new(
                    spec.config,
                    self.module.clone(),
                    spec.func,
                    trace,
                    slot,
                )) as Box<dyn Tile>
            })
            .collect();
        let mut il = Interleaver::new(tiles, mem, channels, accel);
        il.set_parts(parts);
        il.set_cycle_limit(self.cycle_limit);
        il.set_fast_forward(self.fast_forward);
        il.set_observe(self.observe);
        // Restore after set_observe so recorded profiles/timelines carry
        // over.
        if let Some(ckpt) = self.resume {
            il.restore_checkpoint(&ckpt)?;
        }
        Ok(il)
    }

    /// The system's parts as a checkpoint's header names them: each tile
    /// with an FNV-1a hash of its core configuration, function and trace
    /// tile and of the sizes its tables take from them (the function's
    /// instructions and blocks, the trace tile's streams), then `memory`
    /// and `channels` with a hash of theirs. A hash is of the `Debug`
    /// rendering, which names every field.
    fn parts(&self) -> Vec<(String, u64)> {
        let tiles = self.tiles.iter().map(|t| {
            let f = self.module.function(t.func);
            let streams = CursorPos::new(self.trace.tile(t.trace_tile)).stream_pos.len();
            let sizes = (f.inst_count(), f.block_count(), streams);
            let part = (&t.config, t.func, t.trace_tile, sizes);
            (t.config.name.clone(), fnv1a(&format!("{part:?}")))
        });
        let memory = ("memory".to_string(), fnv1a(&format!("{:?}", self.memory)));
        let channels = ("channels".to_string(), fnv1a(&format!("{:?}", self.channel)));
        tiles.chain([memory, channels]).collect()
    }

    /// Builds and runs to completion, writing the periodic snapshots
    /// [`Self::checkpoint_every`] asks for.
    ///
    /// # Errors
    ///
    /// Returns [`MosaicError::InvalidConfig`] for a rejected
    /// configuration, [`MosaicError::Sim`] when the simulation
    /// deadlocks, exceeds the cycle cap, or a tile faults, and
    /// [`MosaicError::Ckpt`] when a snapshot cannot be written.
    pub fn run(self) -> Result<SimReport, MosaicError> {
        let areas: Vec<f64> = self.tiles.iter().map(|t| t.config.area_mm2).collect();
        let snapshots = self.checkpoint_every.zip(self.checkpoint_path.clone());
        let mut il = self.build()?;
        let cycles = match snapshots {
            Some((every, path)) => run_with_snapshots(&mut il, every, &path)?,
            None => il.run()?,
        };
        let (steps_executed, cycles_skipped, skips_taken) = (
            il.steps_executed(),
            il.cycles_skipped(),
            il.skips_taken(),
        );
        let (mut tiles, mut mem, _channels) = il.into_parts();
        let tile_stats: Vec<TileStats> = tiles.iter().map(|t| t.stats().clone()).collect();
        let mem_stats = mem.stats();
        let core_energy: f64 = tile_stats.iter().map(|t| t.energy_pj).sum();
        let total_area: f64 = areas.iter().sum();
        let total_retired: u64 = tile_stats.iter().map(|t| t.retired).sum();

        // Assemble the hierarchical registry. Registration reads the
        // tiles' and hierarchy's native hot-path counters, so this is
        // free at any observability level.
        let mut registry = StatsRegistry::new();
        for (slot, t) in tile_stats.iter().enumerate() {
            t.register_into(&mut registry, slot);
        }
        mem.register_into(&mut registry);
        registry.set_counter("sim.cycles", cycles);
        registry.set_counter("sim.retired", total_retired);
        if cycles > 0 {
            registry.set_gauge("sim.ipc", total_retired as f64 / cycles as f64);
        }
        // Scheduler diagnostics: the one registry namespace that is
        // *intentionally* mode-dependent (naive stepping executes every
        // cycle, fast-forward skips provably-idle ones).
        registry.set_counter("sim.ff.steps_executed", steps_executed);
        registry.set_counter("sim.ff.cycles_skipped", cycles_skipped);
        registry.set_counter("sim.ff.skips_taken", skips_taken);

        let mut timeline = Timeline::new();
        for tile in tiles.iter_mut() {
            timeline.merge(tile.take_timeline());
        }
        timeline.merge(mem.take_timeline());
        let mut profile = IrProfile::new();
        for tile in tiles.iter_mut() {
            profile.merge(&tile.take_profile());
        }

        Ok(SimReport {
            cycles,
            total_retired,
            tiles: tile_stats,
            mem: mem_stats,
            dram_throttled: mem.dram_throttled_cycles(),
            core_energy_pj: core_energy,
            mem_energy_pj: energy::memory_energy_pj(&mem_stats),
            static_energy_pj: energy::static_energy_pj(total_area, cycles),
            registry,
            timeline,
            profile,
        })
    }
}

/// The 64-bit FNV-1a hash of `text`.
fn fnv1a(text: &str) -> u64 {
    let step = |hash: u64, &byte: &u8| (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    text.as_bytes().iter().fold(0xcbf2_9ce4_8422_2325, step)
}

/// Runs `il` to completion, pausing at the first stepped cycle at or past
/// each multiple of `every` to write a snapshot to `path`. The first
/// boundary is the first multiple after cycle 0 at or past the (possibly
/// resumed) clock, so a resume exactly on a boundary snapshots at once
/// (unless every tile is already done: `run_until` does not pause a
/// finished system); after each save the next is the first multiple
/// above the clock.
fn run_with_snapshots(il: &mut Interleaver, every: u64, path: &Path) -> Result<u64, MosaicError> {
    let mut boundary = il.now().div_ceil(every).max(1) * every;
    loop {
        if let Some(cycles) = il.run_until(boundary)? {
            return Ok(cycles);
        }
        il.save_checkpoint().save(path)?;
        boundary = (il.now() / every + 1) * every;
    }
}

#[cfg(test)]
mod lint_gate_tests {
    //! The pre-simulation lint gate: `Deny` turns static findings into
    //! [`MosaicError::Lint`] before any cycle runs; `Warn` (the default)
    //! reports but still builds.

    use std::sync::Arc;

    use mosaic_ir::{Constant, FunctionBuilder, MemImage, Module, TileProgram, Type};
    use mosaic_tile::CoreConfig;

    use super::SystemBuilder;
    use crate::error::MosaicError;
    use crate::{record_trace, LintLevel};

    /// Producer/consumer pair: one value over channel q0. The trace is
    /// recorded with matched offsets; the builder then misconfigures the
    /// consumer's queue offset, which only the static gate can catch
    /// before simulation.
    fn chatter_system() -> SystemBuilder {
        let mut m = Module::new("chatter");
        let p = m.add_function("produce", vec![], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(p));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.send(0, Constant::i64(42).into());
        b.ret(None);
        let c = m.add_function("consume", vec![], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(c));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.recv(0, Type::I64);
        b.ret(None);
        mosaic_ir::verify_module(&m).expect("verify");
        let programs = vec![
            TileProgram::single(p, vec![]),
            TileProgram::single(c, vec![]),
        ];
        let (trace, _) = record_trace(&m, MemImage::new(), &programs).expect("trace");
        SystemBuilder::new(Arc::new(m), Arc::new(trace))
            .core(CoreConfig::in_order().with_name("produce"), p, 0)
            .core(
                CoreConfig::in_order()
                    .with_name("consume")
                    .with_queue_offset(7),
                c,
                1,
            )
    }

    #[test]
    fn deny_returns_lint_error_not_a_panic() {
        match chatter_system().lint(LintLevel::Deny).build() {
            Err(MosaicError::Lint(report)) => {
                assert!(report.error_count() >= 2, "{report}");
                let text = report.to_string();
                assert!(text.contains("q0") && text.contains("q7"), "{text}");
            }
            Ok(_) => panic!("misconfigured system passed the deny gate"),
            Err(other) => panic!("wrong error type: {other}"),
        }
    }

    #[test]
    fn warn_still_builds_and_off_skips() {
        chatter_system()
            .lint(LintLevel::Warn)
            .build()
            .expect("warn level must not fail the build");
        chatter_system()
            .lint(LintLevel::Off)
            .build()
            .expect("off level must not fail the build");
    }
}

#[cfg(test)]
mod validation_tests {
    //! Every rejected configuration must name the offending field so the
    //! error is actionable without reading simulator source.

    use std::sync::Arc;

    use mosaic_ir::{FunctionBuilder, MemImage, Module, TileProgram, Type};
    use mosaic_mem::{CacheConfig, DramKind, SimpleDramConfig};
    use mosaic_tile::{ChannelConfig, CoreConfig};

    use super::SystemBuilder;
    use crate::error::MosaicError;
    use crate::record_trace;

    /// A builder over a trivial one-tile kernel (empty body, immediate
    /// return) so validation is the only thing under test.
    fn builder() -> (SystemBuilder, mosaic_ir::FuncId) {
        let mut m = Module::new("v");
        let f = m.add_function("k", vec![], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.ret(None);
        mosaic_ir::verify_module(&m).expect("verify");
        let programs = vec![TileProgram::single(f, vec![])];
        let (trace, _) = record_trace(&m, MemImage::new(), &programs).expect("trace");
        (
            SystemBuilder::new(Arc::new(m), Arc::new(trace)),
            f,
        )
    }

    /// Unwraps the expected rejection and returns (field, message).
    fn rejects(b: SystemBuilder) -> (String, String) {
        match b.build() {
            Err(MosaicError::InvalidConfig { field, message }) => (field, message),
            Ok(_) => panic!("config was accepted"),
            Err(other) => panic!("wrong error type: {other}"),
        }
    }

    #[test]
    fn zero_capacity_channel_is_rejected() {
        let (b, f) = builder();
        let b = b
            .channels(ChannelConfig {
                capacity: 0,
                latency: 1,
            })
            .core(CoreConfig::in_order(), f, 0);
        let (field, message) = rejects(b);
        assert_eq!(field, "channel.capacity");
        assert!(message.contains("zero-capacity"), "{message}");
    }

    #[test]
    fn zero_clock_divisor_is_rejected() {
        let (b, f) = builder();
        let mut config = CoreConfig::in_order().with_name("stuck");
        config.clock_divisor = 0;
        let (field, message) = rejects(b.core(config, f, 0));
        assert_eq!(field, "core.clock_divisor");
        assert!(message.contains("stuck"), "{message}");
    }

    #[test]
    fn zero_lsq_issue_width_and_window_are_rejected() {
        type Zero = fn(&mut CoreConfig);
        let fields: [(&str, Zero); 3] = [
            ("lsq_size", |c| c.lsq_size = 0),
            ("issue_width", |c| c.issue_width = 0),
            ("window_size", |c| c.window_size = 0),
        ];
        for (name, zero) in fields {
            let (b, f) = builder();
            let mut config = CoreConfig::out_of_order().with_name("stuck");
            zero(&mut config);
            let (field, message) = rejects(b.core(config, f, 0));
            assert_eq!(field, format!("core.{name}"));
            assert!(message.contains("stuck"), "{message}");
        }
    }

    #[test]
    fn max_inflight_below_the_longest_block_is_rejected() {
        // The kernel is one block of one instruction.
        let (b, f) = builder();
        let mut config = CoreConfig::in_order().with_name("cramped");
        config.max_inflight = 0;
        let (field, message) = rejects(b.core(config, f, 0));
        assert_eq!(field, "core.max_inflight");
        assert!(message.contains("block entry of k has 1"), "{message}");
        // Below the window is legal: it caps the window.
        let (b, f) = builder();
        let mut config = CoreConfig::out_of_order();
        config.max_inflight = 1;
        b.core(config, f, 0).build().expect("builds");
    }

    #[test]
    fn untileable_cache_size_is_rejected() {
        let (b, f) = builder();
        let mut memory = crate::small_memory();
        // 10000 bytes over 64B lines x 8 ways leaves a fractional set.
        memory.l1 = CacheConfig::new("L1", 10_000);
        let (field, message) = rejects(b.memory(memory).core(CoreConfig::in_order(), f, 0));
        assert_eq!(field, "memory.l1.size_bytes");
        assert!(message.contains("10000"), "{message}");
    }

    #[test]
    fn zero_bandwidth_dram_is_rejected() {
        let (b, f) = builder();
        let mut memory = crate::small_memory();
        memory.dram = DramKind::Simple(SimpleDramConfig {
            min_latency: 100,
            epoch_cycles: 128,
            max_per_epoch: 0,
        });
        let (field, message) = rejects(b.memory(memory).core(CoreConfig::in_order(), f, 0));
        assert_eq!(field, "memory.dram.max_per_epoch");
        assert!(message.contains("no"), "{message}");
    }

    #[test]
    fn zero_mshr_entries_are_rejected() {
        let (b, f) = builder();
        let mut memory = crate::small_memory();
        memory.mshr_entries = 0;
        let (field, _) = rejects(b.memory(memory).core(CoreConfig::in_order(), f, 0));
        assert_eq!(field, "memory.mshr_entries");
    }

    /// One banked-DRAM field at a time set to zero.
    fn rejects_banked(zeroed: fn(&mut mosaic_mem::BankedDramConfig)) -> String {
        let (b, f) = builder();
        let mut dram = mosaic_mem::BankedDramConfig::default();
        zeroed(&mut dram);
        let mut memory = crate::small_memory();
        memory.dram = DramKind::Banked(dram);
        rejects(b.memory(memory).core(CoreConfig::in_order(), f, 0)).0
    }

    #[test]
    fn zero_dram_channels_are_rejected() {
        assert_eq!(rejects_banked(|d| d.channels = 0), "memory.dram.channels");
    }

    #[test]
    fn zero_dram_banks_are_rejected() {
        assert_eq!(
            rejects_banked(|d| d.banks_per_channel = 0),
            "memory.dram.banks_per_channel"
        );
    }

    #[test]
    fn zero_dram_row_bytes_are_rejected() {
        assert_eq!(rejects_banked(|d| d.row_bytes = 0), "memory.dram.row_bytes");
    }

    #[test]
    fn zero_dram_queue_depth_is_rejected() {
        assert_eq!(
            rejects_banked(|d| d.queue_depth = 0),
            "memory.dram.queue_depth"
        );
    }

    #[test]
    fn l2_line_size_unlike_the_l1s_is_rejected() {
        let (b, f) = builder();
        let mut memory = crate::small_memory();
        memory.l2 = Some(CacheConfig::new("L2", 256 * 1024).with_line_bytes(128));
        let (field, message) = rejects(b.memory(memory).core(CoreConfig::in_order(), f, 0));
        assert_eq!(field, "memory.l2.line_bytes");
        assert!(
            message.contains("128") && message.contains("64"),
            "{message}"
        );
    }

    #[test]
    fn llc_line_size_unlike_the_l1s_is_rejected() {
        let (b, f) = builder();
        let mut memory = crate::small_memory();
        memory.llc = CacheConfig::new("LLC", 1024 * 1024).with_line_bytes(32);
        let (field, _) = rejects(b.memory(memory).core(CoreConfig::in_order(), f, 0));
        assert_eq!(field, "memory.llc.line_bytes");
    }

    /// One line size throughout, other than 64, builds — under the banked
    /// model too, which interleaves at the configured size.
    #[test]
    fn a_uniform_128_byte_line_size_builds() {
        let (b, f) = builder();
        let mut memory = crate::small_memory();
        memory.l1 = CacheConfig::new("L1", 32 * 1024).with_line_bytes(128);
        memory.l2 = None;
        memory.llc = CacheConfig::new("LLC", 1024 * 1024).with_line_bytes(128);
        memory.dram = DramKind::Banked(mosaic_mem::BankedDramConfig::default());
        b.memory(memory)
            .core(CoreConfig::in_order(), f, 0)
            .build()
            .expect("builds");
    }

    #[test]
    fn out_of_range_trace_tile_is_rejected() {
        let (b, f) = builder();
        let (field, message) = rejects(b.core(CoreConfig::in_order(), f, 3));
        assert_eq!(field, "core.trace_tile");
        assert!(message.contains('3'), "{message}");
    }

    #[test]
    fn paper_presets_validate() {
        for memory in [crate::small_memory(), crate::xeon_memory(), crate::dae_memory()] {
            let (b, f) = builder();
            b.memory(memory)
                .core(CoreConfig::out_of_order(), f, 0)
                .build()
                .expect("paper preset must validate");
        }
    }
}

#[cfg(test)]
mod partition_tests {
    //! Builder-side partition planning: the one call the performance
    //! ledger times. The ledger's own two shapes (8-tile spmv, four DAE
    //! projection pairs) need `mosaic-kernels`, which this crate does not
    //! depend on: `tests/partition_differential.rs` holds them.

    use std::sync::Arc;

    use mosaic_ir::{Constant, FunctionBuilder, MemImage, Module, TileProgram, Type};
    use mosaic_tile::CoreConfig;

    use super::SystemBuilder;
    use crate::error::MosaicError;
    use crate::record_trace;

    /// Producer/consumer pair with *matched* queue offsets: a clean
    /// system whose only interference is the q0 channel edge.
    fn chatter() -> SystemBuilder {
        let mut m = Module::new("chatter");
        let p = m.add_function("produce", vec![], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(p));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.send(0, Constant::i64(42).into());
        b.ret(None);
        let c = m.add_function("consume", vec![], Type::Void);
        let mut b = FunctionBuilder::new(m.function_mut(c));
        let e = b.create_block("entry");
        b.switch_to(e);
        b.recv(0, Type::I64);
        b.ret(None);
        mosaic_ir::verify_module(&m).expect("verify");
        let programs = vec![
            TileProgram::single(p, vec![]),
            TileProgram::single(c, vec![]),
        ];
        let (trace, _) = record_trace(&m, MemImage::new(), &programs).expect("trace");
        SystemBuilder::new(Arc::new(m), Arc::new(trace))
            .core(CoreConfig::in_order().with_name("produce"), p, 0)
            .core(CoreConfig::in_order().with_name("consume"), c, 1)
    }

    #[test]
    fn computed_plan_cuts_the_pair_at_the_channel() {
        let plan = chatter().compute_partition_plan(2).expect("plan");
        assert_eq!(plan.tiles, 2);
        assert_eq!(plan.shards.len(), 2);
        // No memory traffic: the only cross-shard path is the channel,
        // whose delivery bound includes the channel latency.
        assert!(plan.epoch_horizon >= 1, "horizon {}", plan.epoch_horizon);
    }

    #[test]
    fn no_tiles_cannot_be_partitioned() {
        let b = chatter();
        // A fresh builder with no cores.
        let empty = SystemBuilder::new(b.module.clone(), b.trace.clone());
        match empty.compute_partition_plan(2) {
            Err(MosaicError::InvalidConfig { field, .. }) => assert_eq!(field, "partition.tiles"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
