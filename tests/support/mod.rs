//! What the golden tables, the mode relations and the differential suites
//! share.
//!
//! [`zoo`] lists the systems the tables run — kernel × core × tiles × DRAM
//! × hierarchy × obs level — each under its row key and marked with its
//! tables. A kernel is built, and each of its layouts traced, on first
//! use: once, however many systems replay it. An entry gives what the DTG
//! made ([`System::traced`]) and the system to time ([`System::builder`]).
//! **Adding a system to every table** is one line at the end of [`zoo`]
//! (`z.spmd(..).tables = DTG | TILE | CKPT | TIMELINE | MODES;`): at the
//! end, because `ckpt_golden` draws its pause cycles from one seeded
//! stream in zoo order. Its new rows fail each table until they are
//! recorded.
//!
//! [`Golden`] holds `tests/<name>_golden.txt` to the rows a test computes
//! and names every row and column that moved. `GOLDEN_WRITE=1 cargo test
//! --test <name>_golden` rewrites the table, prints what moved and fails,
//! so a rewrite never reads as a pass; record only from a commit whose
//! behaviour is the reference. A new column moves every row of its table:
//! add it on the parent commit and record there first, so the change
//! under test is held to rows the reference wrote.
//!
//! [`Observed`] and [`drift`] are the one comparison of two runs: the mode
//! relations ([`relations`]) and the checkpoint suite go through them, and
//! a drift names the system, the relation and each field.

pub mod relations;

use std::cell::{LazyCell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

use mosaicsim::ddg::InstClass;
use mosaicsim::ir::ExecOutcome;
use mosaicsim::kernels::parboil::{self, mri_gridding, sgemm};
use mosaicsim::kernels::sinkhorn::{self, Mix};
use mosaicsim::kernels::{build_parboil, keras, projection, PARBOIL_NAMES};
use mosaicsim::mem::BankedDramConfig;
use mosaicsim::obs::StatValue;
use mosaicsim::prelude::*;
use mosaicsim::tile::FuLimits;

/// The tables a system is in.
pub const DTG: u8 = 1;
pub const TILE: u8 = 2;
pub const CKPT: u8 = 4;
pub const TIMELINE: u8 = 8;
/// The systems the mode relations ([`relations`]) run on.
pub const MODES: u8 = 16;

/// How a kernel's programs sit on the tiles: `n` SPMD tiles, or `n` DAE
/// pairs of its `slice_dae` slices ([`TileProgram::dae_pairs`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layout {
    Spmd(usize),
    Dae(usize),
}

/// What the DTG made of a kernel in one layout (for DAE pairs, the
/// module holds the slices).
pub struct Traced {
    pub prepared: Prepared,
    pub programs: Vec<TileProgram>,
    pub trace: Arc<KernelTrace>,
    pub outcome: ExecOutcome,
}

/// A kernel, built on first use, with each layout traced on first use.
pub struct Kernel {
    prepared: LazyCell<Prepared, Box<dyn FnOnce() -> Prepared>>,
    traced: RefCell<BTreeMap<Layout, Rc<Traced>>>,
}

fn kernel(build: impl FnOnce() -> Prepared + 'static) -> Rc<Kernel> {
    let prepared = LazyCell::new(Box::new(build) as Box<dyn FnOnce() -> Prepared>);
    let traced = RefCell::default();
    Rc::new(Kernel { prepared, traced })
}

impl Kernel {
    pub fn traced(&self, layout: Layout) -> Rc<Traced> {
        let mut traced = self.traced.borrow_mut();
        let traced = traced.entry(layout).or_insert_with(|| {
            let mut prepared = Prepared::clone(&self.prepared);
            let p = &mut prepared;
            let programs = match layout {
                Layout::Spmd(tiles) => p.programs(tiles),
                Layout::Dae(pairs) => {
                    let s = slice_dae(&mut p.module, p.func, DaeQueues::default()).unwrap();
                    TileProgram::dae_pairs(s.access, s.execute, p.args.clone(), pairs)
                }
            };
            let (trace, outcome) = record_trace(&p.module, p.mem.clone(), &programs).unwrap();
            let trace = Arc::new(trace);
            Rc::new(Traced {
                prepared,
                programs,
                trace,
                outcome,
            })
        });
        traced.clone()
    }
}

/// Tile `t` runs the `t`-th core, under that core's name; or
/// [`SystemBuilder::dae_pairs`] of an access and an execute core.
#[derive(Clone)]
pub enum Cores {
    Tiles(Vec<CoreConfig>),
    Pairs(Box<[CoreConfig; 2]>),
}

/// One system of the zoo, named by its row key.
#[derive(Clone)]
pub struct System {
    pub name: String,
    pub tables: u8,
    pub kernel: Rc<Kernel>,
    pub layout: Layout,
    pub cores: Cores,
    pub memory: HierarchyConfig,
    pub channel: ChannelConfig,
    pub obs: ObsLevel,
    /// Whether the default accelerator bank is attached.
    pub accel: bool,
}

impl System {
    pub fn traced(&self) -> Rc<Traced> {
        self.kernel.traced(self.layout)
    }

    /// The system, ready to build or run.
    pub fn builder(&self) -> SystemBuilder {
        let t = self.traced();
        let module = Arc::new(t.prepared.module.clone());
        let mut b = SystemBuilder::new(module, t.trace.clone())
            .memory(self.memory.clone())
            .channels(self.channel)
            .observe(self.obs);
        match &self.cores {
            Cores::Tiles(cores) => {
                for (slot, (core, program)) in cores.iter().zip(&t.programs).enumerate() {
                    b = b.core(core.clone(), program.func, slot);
                }
            }
            Cores::Pairs(pair) => {
                let [access, execute] = pair.as_ref().clone();
                let funcs = (t.programs[0].func, t.programs[1].func);
                b = b.dae_pairs(access, execute, funcs, t.programs.len() / 2);
            }
        }
        if self.accel {
            b = b.accelerators(Box::new(AccelBank::with_defaults()));
        }
        b
    }
}

/// `tiles` copies of `core`, tile `t` named `c{t}`.
fn named(core: &CoreConfig, tiles: usize) -> Vec<CoreConfig> {
    (0..tiles)
        .map(|t| core.clone().with_name(&format!("c{t}")))
        .collect()
}

/// `tiles` copies of `core` (tile `t` named `c{t}`) replaying `p`,
/// traced here, over `memory`.
pub fn spmd(p: &Prepared, core: &CoreConfig, tiles: usize, mem: HierarchyConfig) -> SystemBuilder {
    let (trace, _) = p.trace(tiles).expect("trace");
    let b = SystemBuilder::new(Arc::new(p.module.clone()), Arc::new(trace)).memory(mem);
    let cores = named(core, tiles).into_iter().enumerate();
    cores.fold(b, |b, (t, core)| b.core(core, p.func, t))
}

/// `memory` with the banked DRAM model at its defaults.
pub fn banked(mut memory: HierarchyConfig) -> HierarchyConfig {
    memory.dram = DramKind::Banked(Default::default());
    memory
}

/// Caches that are full, evicting and writing back within the first few
/// hundred accesses, in front of two shallow DRAM banks that refuse most
/// enqueues.
pub fn cramped_memory() -> HierarchyConfig {
    HierarchyConfig {
        l1: CacheConfig::new("L1-D", 512).with_ways(2).with_latency(1),
        l2: Some(CacheConfig::new("L2", 1024).with_ways(2).with_latency(6)),
        llc: CacheConfig::new("LLC", 2048).with_ways(4).with_latency(26),
        dram: DramKind::Banked(BankedDramConfig {
            channels: 1,
            banks_per_channel: 2,
            queue_depth: 2,
            ..Default::default()
        }),
        ..xeon_memory()
    }
}

/// A core preset with its window and issue width set.
fn core(base: &str, window: u64, width: u32) -> CoreConfig {
    let mut c = match base {
        "ino" => CoreConfig::in_order(),
        _ => CoreConfig::out_of_order(),
    };
    (c.window_size, c.issue_width) = (window, width);
    c
}

/// An out-of-order core with one unit of every arithmetic class and two
/// load ports: functional-unit stalls on most cycles, and on memory ops.
fn fu_limited() -> CoreConfig {
    use InstClass::*;
    let mut c = CoreConfig::out_of_order();
    c.fu = FuLimits::unlimited();
    for class in [IntAlu, IntMul, FpAdd, FpMul, Store, Branch] {
        c.fu.set(class, 1);
    }
    c.fu.set(Load, 2);
    c
}

/// The zoo as it is filled, and the tables its next entries are in.
struct Zoo(Vec<System>, u8);

impl Zoo {
    /// `tiles` copies of `core` (tile `t` named `c{t}`) on the Xeon
    /// hierarchy at `Off`.
    fn spmd(&mut self, name: &str, k: &Rc<Kernel>, tiles: usize, core: &CoreConfig) -> &mut System {
        self.0.push(System {
            name: name.to_string(),
            tables: self.1,
            kernel: k.clone(),
            layout: Layout::Spmd(tiles),
            cores: Cores::Tiles(named(core, tiles)),
            memory: xeon_memory(),
            channel: ChannelConfig::default(),
            obs: ObsLevel::Off,
            accel: false,
        });
        self.0.last_mut().expect("just pushed")
    }

    /// `pairs` DAE pairs of `pair`'s cores on the DAE hierarchy and channels.
    fn dae(&mut self, name: &str, k: &Rc<Kernel>, pairs: usize, pair: [&CoreConfig; 2]) {
        let s = self.spmd(name, k, 0, pair[0]);
        s.cores = Cores::Pairs(Box::new(pair.map(CoreConfig::clone)));
        (s.layout, s.memory, s.channel) = (Layout::Dae(pairs), dae_memory(), dae_channel());
    }

    /// `{name}/x{tiles}`; an accelerator kernel (`*accel*`, `keras.*`) has
    /// the bank.
    fn dtg(&mut self, name: &str, k: &Rc<Kernel>, tiles: usize) {
        let ooo = CoreConfig::out_of_order();
        let s = self.spmd(&format!("{name}/x{tiles}"), k, tiles, &ooo);
        s.accel = name.contains("accel") || name.starts_with("keras");
    }
}

/// Every system a table runs, in table order.
pub fn zoo() -> Vec<System> {
    let (ino, ooo) = (&CoreConfig::in_order(), &CoreConfig::out_of_order());
    let access = &CoreConfig::dae_access();
    // Kernels whose ready backlog runs into the hundreds, at a fraction of
    // their scale-1 size (about 14 k instructions each).
    let small: BTreeMap<&str, Rc<Kernel>> = [
        ("lbm", kernel(|| parboil::lbm::build_with_cells(112))),
        ("cutcp", kernel(|| parboil::cutcp::build_with(48, 10))),
        ("bfs", kernel(|| parboil::bfs::build_with_nodes(128))),
        (
            "mri-gridding",
            kernel(|| mri_gridding::build_with_samples(112)),
        ),
        ("spmv", kernel(|| parboil::spmv::build_with_rows(112))),
        ("sgemm", kernel(|| sgemm::build_with_dims(10, 10, 10))),
        ("projection", kernel(|| projection::build_with(40, 64))),
    ]
    .into();
    let scale1: BTreeMap<&str, Rc<Kernel>> = PARBOIL_NAMES
        .iter()
        .map(|&name| (name, kernel(move || build_parboil(name, 1))))
        .collect();
    let projection1 = kernel(|| projection::build(1));
    let mut z = Zoo(Vec::new(), TILE);

    // A grid of window sizes and issue widths (on four tiles, its corners
    // and one interior point), and a functional-unit-limited core.
    for name in ["lbm", "cutcp", "bfs", "mri-gridding", "spmv"] {
        for tiles in [1, 4] {
            for base in ["ino", "ooo"] {
                for window in [1u64, 2, 8, 128] {
                    for width in [1u32, 2, 8] {
                        let corner = matches!(window, 1 | 128) && matches!(width, 1 | 8);
                        if tiles == 1 || corner || (window, width) == (8, 2) {
                            let row = format!("{name}/{base}/w{window}/i{width}/{tiles}t");
                            z.spmd(&row, &small[name], tiles, &core(base, window, width));
                        }
                    }
                }
            }
            let row = format!("{name}/fu-limited/{tiles}t");
            z.spmd(&row, &small[name], tiles, &fu_limited());
        }
    }
    // DeSC: terminal loads, store-value recvs and detached stores are
    // exempt from the window. The paper's pair (window 1 on both sides),
    // a pair of wider DeSC cores whose narrow windows leave exempt ops on
    // both sides of the limit, and the ledger's `manytile_chan` shapes:
    // eight tiles, most of them blocked on a channel or on DRAM.
    let mut wide = core("ooo", 8, 2).with_desc_extensions(true);
    wide.desc_buffer = 2;
    let projection = &small["projection"];
    z.dae("projection/dae/ino", projection, 2, [access, ino]);
    z.dae("projection/dae/ooo-w8-i2", projection, 2, [&wide, &wide]);
    z.dae("projection/dae/ino/x8", &projection1, 4, [access, ino]);
    z.spmd("spmv/ooo/8t", &kernel(|| parboil::spmv::build(1)), 8, ooo);

    z.1 = CKPT;
    let drams = [("simple", xeon_memory()), ("banked", banked(xeon_memory()))];
    for name in ["bfs", "sgemm", "lbm", "spmv"] {
        for (core, config) in [("ino", ino), ("ooo", ooo)] {
            for tiles in [1, 4] {
                for (obs, level) in [("off", ObsLevel::Off), ("trace", ObsLevel::Trace)] {
                    for (dram, memory) in &drams {
                        let row = format!("{name}/{core}/{tiles}t/{obs}/{dram}");
                        let s = z.spmd(&row, &small[name], tiles, config);
                        (s.memory, s.obs) = (memory.clone(), level);
                    }
                }
            }
        }
    }
    // The `mosaic-report --kernel bfs --tiles 2 --timeline` run and the
    // ledger's `observed_ckpt` trace point.
    z.1 = TIMELINE;
    z.spmd("bfs/ino/2t", &scale1["bfs"], 2, ino);
    z.spmd("mri-q/ooo/1t", &scale1["mri-q"], 1, ooo);
    // One DeSC pair, the execute side at a third of the clock behind a
    // one-message channel: terminal loads and detached stores outstanding,
    // messages in flight, and returned loads whose hardware push waits.
    z.1 = CKPT | TIMELINE;
    let desc = z.spmd("projection/desc", projection, 0, access);
    let execute = ino.clone().with_name("execute").with_clock_divisor(3);
    desc.cores = Cores::Tiles(vec![access.clone().with_name("access"), execute]);
    (desc.layout, desc.memory, desc.obs) = (Layout::Dae(1), dae_memory(), ObsLevel::Stats);
    (desc.channel.capacity, desc.channel.latency) = (1, 2);
    let graphsage = kernel(|| keras::graphsage().lower_accelerated());
    let accel = z.spmd("graphsage/accel", &graphsage, 1, ooo);
    (accel.memory, accel.accel) = (dae_memory(), true);
    z.1 = CKPT;
    let mut bimodal = CoreConfig::in_order();
    bimodal.branch = BranchMode::Bimodal;
    z.spmd("bfs/bimodal", &small["bfs"], 1, &bimodal);
    z.spmd("lbm/cramped", &small["lbm"], 1, ooo).memory = cramped_memory();

    // Every Parboil kernel on 1, 4 and 8 tiles, the ledger's scaled points,
    // projection in DAE pairs, and the accelerator case studies.
    z.1 = DTG;
    for name in PARBOIL_NAMES {
        for tiles in [1, 4, 8] {
            z.dtg(&format!("{name}@1"), &scale1[name], tiles);
        }
    }
    for (name, scale, tiles) in [("lbm", 2, 1), ("bfs", 8, 1), ("spmv", 2, 1), ("spmv", 4, 8)] {
        let k = kernel(move || build_parboil(name, scale));
        z.dtg(&format!("{name}@{scale}"), &k, tiles);
    }
    z.dae("projection@1/dae/x1", &projection1, 1, [access, ino]);
    let projection4 = kernel(|| projection::build(4));
    z.dae("projection@4/dae/x4", &projection4, 4, [access, ino]);
    let ewsd = kernel(|| sinkhorn::ewsd(sinkhorn::BASE_NNZ));
    z.dtg("ewsd@1", &ewsd, 1);
    z.dtg("ewsd@1", &ewsd, 4);
    for (mix, name) in [(Mix::DenseHeavy, "dense-heavy"), (Mix::Equal, "equal")]
        .into_iter()
        .chain([(Mix::SparseHeavy, "sparse-heavy")])
    {
        for (side, accel) in [("cpu", false), ("accel", true)] {
            let k = kernel(move || sinkhorn::combined(mix, 1, accel));
            z.dtg(&format!("sinkhorn.{name}.{side}"), &k, 1);
        }
    }
    // Only tile 0 invokes the accelerator; the others run the sparse half.
    let equal = kernel(|| sinkhorn::combined(Mix::Equal, 1, true));
    z.dtg("sinkhorn.equal.accel", &equal, 4);
    z.dtg("sgemm-micro.cpu", &kernel(|| sinkhorn::sgemm_micro(1)), 1);
    let micro = kernel(|| sinkhorn::accel_sgemm_micro(sinkhorn::BASE_DIM));
    z.dtg("sgemm-micro.accel", &micro, 1);
    for app in keras::all_apps() {
        let name = format!("keras.{}", app.name);
        z.dtg(&name, &kernel(move || app.lower_accelerated()), 1);
    }

    // Five Parboil kernels at scale 1 on 1, 2 and 4 tiles of each core,
    // the slowest first (the relations' threads take them in turn), and
    // one on banked DRAM, whose horizon comes from bank state.
    z.1 = MODES;
    for name in ["sgemm", "spmv", "bfs", "histo", "stencil"] {
        for (core, config) in [("ino", ino), ("ooo", ooo)] {
            for tiles in [1, 2, 4] {
                let row = format!("{name}@1/{core}/{tiles}t");
                z.spmd(&row, &scale1[name], tiles, config);
            }
        }
    }
    z.spmd("bfs@1/ooo/2t/banked", &scale1["bfs"], 2, ooo).memory = banked(xeon_memory());
    z.0
}

/// The systems of `table`, in its order.
pub fn systems(table: u8) -> impl Iterator<Item = System> {
    zoo().into_iter().filter(move |s| s.tables & table != 0)
}

/// The zoo's system called `name`.
pub fn system(name: &str) -> System {
    let found = zoo().into_iter().find(|s| s.name == name);
    found.unwrap_or_else(|| panic!("no system {name} in the zoo"))
}

/// The length and FNV-1a hash of the bytes put into it, printed
/// `length:hash` the way the tables spell a byte string.
#[derive(Clone, Copy)]
pub struct Hashed {
    pub len: usize,
    pub hash: u64,
}

impl Hashed {
    /// Nothing hashed yet.
    pub const EMPTY: Hashed = Hashed {
        len: 0,
        hash: 0xcbf2_9ce4_8422_2325,
    };

    pub fn of(bytes: &[u8]) -> Self {
        let mut h = Hashed::EMPTY;
        h.put(bytes);
        h
    }

    pub fn put(&mut self, bytes: &[u8]) {
        self.len += bytes.len();
        let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        self.hash = bytes.iter().fold(self.hash, step);
    }
}

impl fmt::Display for Hashed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{:016x}", self.len, self.hash)
    }
}

pub fn fnv(bytes: &[u8]) -> u64 {
    Hashed::of(bytes).hash
}

/// A golden table: one row per line, each a key (the words before its
/// first `column=value`) and its columns.
pub struct Golden(pub PathBuf);

impl Golden {
    /// `tests/<name>_golden.txt`.
    pub fn new(name: &str) -> Self {
        Golden(format!("{}/../{name}_golden.txt", env!("CARGO_MANIFEST_DIR")).into())
    }

    /// Panics unless `rows` are the table; under `GOLDEN_WRITE=1`,
    /// rewrites the table and panics with what moved.
    pub fn assert(&self, rows: &[String]) {
        if let Err(moved) = self.check(rows, std::env::var_os("GOLDEN_WRITE").is_some()) {
            panic!("{moved}");
        }
    }

    /// Compares `rows` with the table: `Err` names each row that drifted
    /// (by the columns that moved, with both values), is missing or is
    /// extra. With `rewrite` it writes `rows` as the table and is `Err`.
    pub fn check(&self, rows: &[impl AsRef<str>], rewrite: bool) -> Result<(), String> {
        let rows: Vec<&str> = rows.iter().map(AsRef::as_ref).collect();
        let path = self.0.display();
        let recorded = std::fs::read_to_string(&self.0).unwrap_or_default();
        let moved = moved(&recorded, &rows);
        if rewrite {
            let table: String = rows.iter().map(|row| format!("{row}\n")).collect();
            std::fs::write(&self.0, table).unwrap_or_else(|e| panic!("{path}: {e}"));
            return Err(format!("rewrote {path}:\n{moved}"));
        }
        moved
            .is_empty()
            .then_some(())
            .ok_or(format!("{path}:\n{moved}"))
    }
}

/// A row's key and its `column=value` words.
fn split(row: &str) -> (&str, Vec<&str>) {
    let end = row
        .find('=')
        .map_or(row.len(), |eq| row[..eq].rfind(' ').unwrap_or(0));
    (&row[..end], row[end..].split_whitespace().collect())
}

/// What differs between the `recorded` table and `rows`, a line each.
fn moved(recorded: &str, rows: &[&str]) -> String {
    let was: BTreeMap<&str, Vec<&str>> = recorded.lines().map(split).collect();
    let now: BTreeMap<&str, Vec<&str>> = rows.iter().map(|row| split(row)).collect();
    let gone = was.keys().filter(|key| !now.contains_key(*key));
    let mut out: Vec<String> = gone.map(|key| format!("missing row {key}")).collect();
    for (key, cols) in &now {
        match was.get(key) {
            None => out.push(format!("extra row {key}")),
            Some(old) if old != cols => out.push(format!("{key}: {}", columns(old, cols))),
            Some(_) => {}
        }
    }
    if now.len() < rows.len() {
        out.push("two rows share a key".into());
    }
    if out.is_empty() && !recorded.lines().eq(rows.iter().copied()) {
        out.push("the rows are the table's, in another order".into());
    }
    out.join("\n")
}

/// The columns `was` and `now` hold differently, each with both values.
fn columns(was: &[&str], now: &[&str]) -> String {
    let fields = |cols: &[&str]| -> Fields {
        let split = cols.iter().filter_map(|col| col.split_once('='));
        split.map(|(n, v)| (n.into(), v.into())).collect()
    };
    match differences(&fields(was), &fields(now)) {
        moved if moved.is_empty() => "columns in another order".into(),
        moved => moved.join(", "),
    }
}

/// Each name `was` and `now` give different values, `name: was -> now`.
fn differences(was: &Fields, now: &Fields) -> Vec<String> {
    let names: BTreeSet<&String> = was.keys().chain(now.keys()).collect();
    let value = |fields: &Fields, name| fields.get(name).cloned().unwrap_or("(none)".into());
    let moved = names.into_iter().filter(|&n| was.get(n) != now.get(n));
    let both = |name| format!("{name}: {} -> {}", value(was, name), value(now, name));
    moved.map(both).collect()
}

/// One run as the mode relations see it: its report, with the registry
/// outside `sim.ff.*` (the scheduler's own diagnostics, which differ by
/// mode on purpose), or the error it stopped with.
pub struct Observed(pub Result<SimReport, MosaicError>);

impl Observed {
    pub fn of(mut run: Result<SimReport, MosaicError>) -> Self {
        if let Ok(report) = &mut run {
            report.registry.retain(|path| !path.starts_with("sim.ff."));
        }
        Observed(run)
    }
}

/// Named fields of a run, each with its value: what a relation compares.
pub type Fields = BTreeMap<String, String>;
pub type View = fn(&SimReport) -> Fields;

pub fn field(name: impl fmt::Display, value: impl fmt::Debug) -> (String, String) {
    (name.to_string(), format!("{value:?}"))
}

/// The report and the registry's counters (histograms are sampled: a run
/// keeps them from `Stats` up).
pub fn counters(r: &SimReport) -> Fields {
    fields(r, false)
}

/// The report, the whole registry and every profile row.
pub fn everything(r: &SimReport) -> Fields {
    fields(r, true)
}

/// The report's fields (energies as bit patterns) and the registry's
/// counters; with `all`, its histograms and the profile rows as well.
fn fields(r: &SimReport, all: bool) -> Fields {
    let energy = [r.core_energy_pj, r.mem_energy_pj, r.static_energy_pj].map(f64::to_bits);
    let throttled = field("dram_throttled", r.dram_throttled);
    let mut fields = Fields::from([field("cycles", r.cycles), field("mem", r.mem), throttled]);
    fields.extend([field("retired", r.total_retired), field("energy", energy)]);
    fields.extend(r.tiles.iter().map(|t| field(format!("tile {}", t.name), t)));
    for (path, value) in r.registry.iter() {
        if all || matches!(value, StatValue::Counter(_)) {
            fields.extend([field(path, value)]);
        }
    }
    for ((f, i), row) in r.profile.iter().filter(|_| all) {
        fields.extend([field(format!("profile {f}.{i}"), row)]);
    }
    fields
}

/// `Err` of `label` and each field whose value the two runs, each seen
/// through its view, differ in, with both values. Runs that stopped are
/// compared by their verdicts alone.
pub fn drift(label: &str, a: (&Observed, View), b: (&Observed, View)) -> Result<(), String> {
    let verdict = |(Observed(run), _): (&Observed, View)| {
        Fields::from([field("verdict", run.as_ref().map(|_| "finished"))])
    };
    let seen = |(Observed(run), view): (&Observed, View)| run.as_ref().map_or(Fields::new(), view);
    let mut moved = differences(&verdict(a), &verdict(b));
    if moved.is_empty() {
        moved = differences(&seen(a), &seen(b));
    }
    let label = || format!("{label}: {}", moved.join(", "));
    moved.is_empty().then_some(()).ok_or_else(label)
}
