//! Workload definitions: the frozen point lists of `workloads.json`, the
//! front-end (set-up) pass that turns a point list into traces, and the
//! `SystemBuilder` each point simulates.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use mosaicsim::core::{dae_channel, dae_memory, record_trace, xeon_memory, SystemBuilder};
use mosaicsim::ddg::StaticDdg;
use mosaicsim::ir::{FuncId, Module, TileProgram};
use mosaicsim::kernels::{build_parboil, projection, Prepared, PARBOIL_NAMES};
use mosaicsim::lint::TileBinding;
use mosaicsim::mem::{BankedDramConfig, CacheConfig, DramKind, HierarchyConfig, PrefetchConfig};
use mosaicsim::obs::json::{parse, JsonValue};
use mosaicsim::obs::ObsLevel;
use mosaicsim::passes::{slice_dae, DaeQueues};
use mosaicsim::tile::CoreConfig;
use mosaicsim::trace::KernelTrace;

use crate::gather::{self, GatherShape};
use crate::jsonio::{object, render, string};

/// The simulated result a point must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// Completion cycle.
    pub cycles: u64,
    /// Retired instructions over all tiles.
    pub retired: u64,
}

/// Which of a point's two frozen sizes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size (`scale`, `pin`).
    Full,
    /// The smoke size of `--quick` (`quick_scale`, `quick_pin`).
    Quick,
}

/// One simulated point: a kernel instance on one system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// Unique name within the workload.
    pub id: String,
    /// A Parboil kernel name, `projection`, or `gather`.
    pub kernel: String,
    /// Problem scale of the measured run.
    pub scale: u32,
    /// Problem scale under `--quick`.
    pub quick_scale: u32,
    /// Shape of the seeded kernel (`gather` only; it has no scale).
    pub gather: Option<GatherShape>,
    /// `ooo` or `ino`.
    pub core: String,
    /// Tile count (for `dae`, two per pair).
    pub tiles: usize,
    /// Whether the kernel is DAE-sliced into access/execute pairs.
    pub dae: bool,
    /// `xeon`, `xeon_nopf`, `xeon_banked` or `dae`.
    pub mem: String,
    /// `off`, `stats` or `trace`.
    pub obs: String,
    /// Periodic checkpoint interval, cycles.
    pub ckpt_every: Option<u64>,
    /// Instruction-window override.
    pub window: Option<u32>,
    /// Issue-width override.
    pub issue: Option<u32>,
    /// Shared-LLC size override, KiB.
    pub llc_kib: Option<u64>,
    /// Pinned result at `scale` (seed 1 for `gather`).
    pub pin: Option<Pin>,
    /// Pinned result at `quick_scale`.
    pub quick_pin: Option<Pin>,
}

impl PointSpec {
    /// Whether `--seed` changes this point's input.
    pub fn seeded(&self) -> bool {
        self.gather.is_some()
    }

    /// The problem scale at `size`.
    pub fn scale_at(&self, size: Size) -> u32 {
        match size {
            Size::Full => self.scale,
            Size::Quick => self.quick_scale,
        }
    }

    /// The pinned result at `size`.
    pub fn pin_at(&self, size: Size) -> Option<Pin> {
        match size {
            Size::Full => self.pin,
            Size::Quick => self.quick_pin,
        }
    }

    /// The result a run of this point with `seed` must reproduce, if one
    /// is pinned: seeded points are pinned for seed 1 only.
    pub fn expected(&self, size: Size, seed: u64) -> Option<Pin> {
        self.pin_at(size).filter(|_| !self.seeded() || seed == 1)
    }

    fn set_pin(&mut self, size: Size, pin: Pin) {
        match size {
            Size::Full => self.pin = Some(pin),
            Size::Quick => self.quick_pin = Some(pin),
        }
    }

    /// The observability level of this point.
    pub fn obs_level(&self) -> ObsLevel {
        match self.obs.as_str() {
            "stats" => ObsLevel::Stats,
            "trace" => ObsLevel::Trace,
            _ => ObsLevel::Off,
        }
    }

    /// The core configuration, overrides applied.
    pub fn core_config(&self) -> CoreConfig {
        let mut c = if self.core == "ino" {
            CoreConfig::in_order()
        } else {
            CoreConfig::out_of_order()
        };
        if let Some(w) = self.window {
            c.window_size = w.into();
        }
        if let Some(i) = self.issue {
            c.issue_width = i;
        }
        c
    }

    /// The memory hierarchy, overrides applied.
    pub fn memory_config(&self) -> HierarchyConfig {
        let mut m = match self.mem.as_str() {
            "xeon_nopf" => HierarchyConfig {
                prefetch: PrefetchConfig::disabled(),
                ..xeon_memory()
            },
            "xeon_banked" => HierarchyConfig {
                dram: DramKind::Banked(BankedDramConfig::default()),
                ..xeon_memory()
            },
            "dae" => dae_memory(),
            _ => xeon_memory(),
        };
        if let Some(kib) = self.llc_kib {
            m.llc = CacheConfig::new("LLC", kib * 1024)
                .with_ways(m.llc.ways())
                .with_latency(m.llc.latency());
        }
        m
    }

    /// What identifies the front-end product (kernel build + trace) this
    /// point replays; points with equal keys share one trace.
    fn front_key(&self, size: Size) -> (String, u32, usize, bool, Option<GatherShape>) {
        (
            self.kernel.clone(),
            self.scale_at(size),
            self.tiles,
            self.dae,
            self.gather,
        )
    }
}

/// The warm-start half of a sweep workload: one prefix simulated to
/// `fork_pct` percent of the point's pinned cycles, then `rows` forked
/// rows (alternating fast-forward on/off, a knob resume may vary).
#[derive(Debug, Clone, PartialEq)]
pub struct WarmSpec {
    /// The shared system.
    pub point: PointSpec,
    /// Fork point, percent of the pinned completion cycle.
    pub fork_pct: u64,
    /// Forked rows.
    pub rows: usize,
}

impl WarmSpec {
    /// Fast-forward setting of each forked row: alternating, a
    /// run-control knob resume may vary between rows.
    pub fn row_fast_forward(&self) -> Vec<bool> {
        (0..self.rows).map(|k| k % 2 == 0).collect()
    }

    /// The fork cycle at `size`, from the pin.
    pub fn fork_cycle(&self, size: Size) -> Option<u64> {
        self.point
            .pin_at(size)
            .map(|p| p.cycles * self.fork_pct / 100)
    }
}

/// One workload: a fixed point list, one pass over which is a rep.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Why the workload exists, in one line.
    pub why: String,
    /// Whether the points run through `mosaic_bench::run_sweep` (all
    /// cores) instead of one after another.
    pub sweep: bool,
    /// The points.
    pub points: Vec<PointSpec>,
    /// Warm-start half (sweep workloads only).
    pub warm: Option<WarmSpec>,
}

/// The whole of `workloads.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    /// The workloads, in file order.
    pub workloads: Vec<WorkloadSpec>,
}

fn field<'a>(v: &'a JsonValue, key: &str, at: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("{at}: missing `{key}`"))
}

fn opt_u64(v: &JsonValue, key: &str, at: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{at}: `{key}` is not a whole number")),
    }
}

fn one_of(
    v: &JsonValue,
    key: &str,
    default: &str,
    allowed: &[&str],
    at: &str,
) -> Result<String, String> {
    let s = match v.get(key) {
        None => default,
        Some(x) => x
            .as_str()
            .ok_or_else(|| format!("{at}: `{key}` is not a string"))?,
    };
    if allowed.contains(&s) {
        Ok(s.to_string())
    } else {
        Err(format!(
            "{at}: `{key}` is `{s}`, expected one of {allowed:?}"
        ))
    }
}

fn parse_pin(v: &JsonValue, key: &str, at: &str) -> Result<Option<Pin>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(x) => {
            let pair = x.as_array().unwrap_or(&[]);
            match (
                pair.first().and_then(JsonValue::as_u64),
                pair.get(1).and_then(JsonValue::as_u64),
            ) {
                (Some(cycles), Some(retired)) if pair.len() == 2 => {
                    Ok(Some(Pin { cycles, retired }))
                }
                _ => Err(format!("{at}: `{key}` is not [cycles, retired]")),
            }
        }
    }
}

fn parse_point(v: &JsonValue, at: &str) -> Result<PointSpec, String> {
    let id = field(v, "id", at)?
        .as_str()
        .ok_or_else(|| format!("{at}: `id` is not a string"))?
        .to_string();
    let at = format!("{at} point `{id}`");
    let kernel = field(v, "kernel", &at)?
        .as_str()
        .ok_or_else(|| format!("{at}: `kernel` is not a string"))?
        .to_string();
    let gather = match v.get("gather") {
        None => None,
        Some(g) => Some(GatherShape {
            working_set_bytes: 1024
                * opt_u64(g, "ws_kib", &at)?
                    .ok_or_else(|| format!("{at}: gather needs `ws_kib`"))?,
            accesses: opt_u64(g, "accesses", &at)?
                .ok_or_else(|| format!("{at}: gather needs `accesses`"))?,
            passes: opt_u64(g, "passes", &at)?
                .ok_or_else(|| format!("{at}: gather needs `passes`"))?,
        }),
    };
    let known = kernel == "projection" || PARBOIL_NAMES.contains(&kernel.as_str());
    if (kernel == "gather") != gather.is_some() || !(known || kernel == "gather") {
        return Err(format!(
            "{at}: unknown kernel `{kernel}` or misplaced `gather` shape"
        ));
    }
    if let Some(g) = gather {
        if g.accesses == 0 || g.accesses > g.elems() || g.elems() > i32::MAX as u64 {
            return Err(format!(
                "{at}: gather draws {} indices from {}",
                g.accesses,
                g.elems()
            ));
        }
    }
    let u32_of = |key: &str, default: u32| -> Result<u32, String> {
        match opt_u64(v, key, &at)? {
            None => Ok(default),
            Some(x) => u32::try_from(x).map_err(|_| format!("{at}: `{key}` out of range")),
        }
    };
    let tiles = opt_u64(v, "tiles", &at)?.unwrap_or(1) as usize;
    let dae = matches!(v.get("dae"), Some(JsonValue::Bool(true)));
    if tiles == 0 || tiles > 64 || (dae && !tiles.is_multiple_of(2)) {
        return Err(format!(
            "{at}: `tiles` is {tiles} (DAE needs an even count, at most 64)"
        ));
    }
    let opt_u32 = |key: &str| -> Result<Option<u32>, String> {
        opt_u64(v, key, &at)?
            .map(|x| u32::try_from(x).map_err(|_| format!("{at}: `{key}` out of range")))
            .transpose()
    };
    Ok(PointSpec {
        scale: u32_of("scale", 1)?.max(1),
        quick_scale: u32_of("quick_scale", 1)?.max(1),
        gather,
        core: one_of(v, "core", "ooo", &["ooo", "ino"], &at)?,
        tiles,
        dae,
        mem: one_of(
            v,
            "mem",
            "xeon",
            &["xeon", "xeon_nopf", "xeon_banked", "dae"],
            &at,
        )?,
        obs: one_of(v, "obs", "off", &["off", "stats", "trace"], &at)?,
        ckpt_every: opt_u64(v, "ckpt_every", &at)?.filter(|&c| c > 0),
        window: opt_u32("window")?.filter(|&w| w > 0),
        issue: opt_u32("issue")?.filter(|&w| w > 0),
        llc_kib: opt_u64(v, "llc_kib", &at)?.filter(|&k| k > 0),
        pin: parse_pin(v, "pin", &at)?,
        quick_pin: parse_pin(v, "quick_pin", &at)?,
        id,
        kernel,
    })
}

fn point_json(p: &PointSpec) -> JsonValue {
    let mut e: Vec<(String, JsonValue)> = vec![
        ("id".into(), string(&p.id)),
        ("kernel".into(), string(&p.kernel)),
    ];
    let mut put = |k: &str, v: JsonValue| e.push((k.to_string(), v));
    match p.gather {
        Some(g) => put(
            "gather",
            object([
                ("ws_kib", JsonValue::Int(g.working_set_bytes / 1024)),
                ("accesses", JsonValue::Int(g.accesses)),
                ("passes", JsonValue::Int(g.passes)),
            ]),
        ),
        None => {
            put("scale", JsonValue::Int(p.scale.into()));
            put("quick_scale", JsonValue::Int(p.quick_scale.into()));
        }
    }
    put("core", string(&p.core));
    put("tiles", JsonValue::Int(p.tiles as u64));
    if p.dae {
        put("dae", JsonValue::Bool(true));
    }
    put("mem", string(&p.mem));
    if p.obs != "off" {
        put("obs", string(&p.obs));
    }
    for (k, v) in [
        ("ckpt_every", p.ckpt_every),
        ("window", p.window.map(u64::from)),
        ("issue", p.issue.map(u64::from)),
        ("llc_kib", p.llc_kib),
    ] {
        if let Some(v) = v {
            put(k, JsonValue::Int(v));
        }
    }
    for (k, pin) in [("pin", p.pin), ("quick_pin", p.quick_pin)] {
        if let Some(pin) = pin {
            put(
                k,
                JsonValue::Arr(vec![
                    JsonValue::Int(pin.cycles),
                    JsonValue::Int(pin.retired),
                ]),
            );
        }
    }
    JsonValue::Obj(e)
}

impl Catalog {
    /// Parses `workloads.json`.
    ///
    /// # Errors
    ///
    /// Names the workload, point and field of the first malformed entry.
    pub fn parse(text: &str) -> Result<Catalog, String> {
        let doc = parse(text)?;
        let list = field(&doc, "workloads", "workloads.json")?
            .as_array()
            .ok_or("workloads.json: `workloads` is not an array")?;
        let mut workloads = Vec::new();
        for w in list {
            let name = field(w, "name", "workload")?
                .as_str()
                .ok_or("workload: `name` is not a string")?
                .to_string();
            let at = format!("workload `{name}`");
            let why = field(w, "why", &at)?
                .as_str()
                .ok_or_else(|| format!("{at}: `why` is not a string"))?
                .to_string();
            let points = field(w, "points", &at)?
                .as_array()
                .ok_or_else(|| format!("{at}: `points` is not an array"))?
                .iter()
                .map(|p| parse_point(p, &at))
                .collect::<Result<Vec<_>, _>>()?;
            if points.is_empty() {
                return Err(format!("{at}: no points"));
            }
            let warm = match w.get("warm") {
                None => None,
                Some(x) => Some(WarmSpec {
                    point: parse_point(field(x, "point", &at)?, &at)?,
                    fork_pct: opt_u64(x, "fork_pct", &at)?
                        .filter(|p| (1..100).contains(p))
                        .ok_or_else(|| {
                            format!("{at}: warm `fork_pct` must be a whole number in 1..100")
                        })?,
                    rows: opt_u64(x, "rows", &at)?
                        .filter(|&r| r > 0)
                        .ok_or_else(|| format!("{at}: warm `rows` must be positive"))?
                        as usize,
                }),
            };
            let sweep = matches!(w.get("sweep"), Some(JsonValue::Bool(true)));
            if warm.is_some() && !sweep {
                return Err(format!("{at}: a warm half needs `sweep`"));
            }
            workloads.push(WorkloadSpec {
                name,
                why,
                sweep,
                points,
                warm,
            });
        }
        Ok(Catalog { workloads })
    }

    /// Loads `<root>/workloads.json`.
    ///
    /// # Errors
    ///
    /// The I/O or parse failure, with the path.
    pub fn load(root: &Path) -> Result<Catalog, String> {
        let path = root.join("workloads.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Catalog::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The file text: one point per line, so a repin diffs line by line.
    pub fn to_text(&self) -> String {
        let mut out = String::from("{\n  \"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            out.push_str(&format!(
                "    {{\n      \"name\": {},\n      \"why\": {},\n",
                render(&string(&w.name)),
                render(&string(&w.why))
            ));
            if w.sweep {
                out.push_str("      \"sweep\": true,\n");
            }
            out.push_str("      \"points\": [\n");
            for (j, p) in w.points.iter().enumerate() {
                let comma = if j + 1 < w.points.len() { "," } else { "" };
                out.push_str(&format!("        {}{comma}\n", render(&point_json(p))));
            }
            out.push_str("      ]");
            if let Some(warm) = &w.warm {
                out.push_str(&format!(
                    ",\n      \"warm\": {{\n        \"point\": {},\n        \"fork_pct\": {},\n        \"rows\": {}\n      }}",
                    render(&point_json(&warm.point)),
                    warm.fork_pct,
                    warm.rows
                ));
            }
            out.push_str(if i + 1 < self.workloads.len() {
                "\n    },\n"
            } else {
                "\n    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The workload called `name`.
    pub fn workload(&self, name: &str) -> Option<&WorkloadSpec> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

impl WorkloadSpec {
    /// Every point including the warm half's, for pinning.
    pub fn all_points_mut(&mut self) -> impl Iterator<Item = &mut PointSpec> {
        self.points
            .iter_mut()
            .chain(self.warm.iter_mut().map(|w| &mut w.point))
    }

    /// Records `pin` for the point called `id` (warm point included).
    pub fn set_pin(&mut self, id: &str, size: Size, pin: Pin) {
        for p in self.all_points_mut().filter(|p| p.id == id) {
            p.set_pin(size, pin);
        }
    }
}

/// Host seconds one front-end product spent in each pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrontTimes {
    /// Kernel construction (`build_parboil` / `projection::build` / `gather::build`).
    pub kernel_build: f64,
    /// `slice_dae` (0 when not sliced).
    pub dae_slice: f64,
    /// Dynamic trace generation (`Prepared::trace` / `record_trace`).
    pub dtg: f64,
    /// `StaticDdg::build` for every function a tile runs.
    pub ddg: f64,
    /// `KernelTrace::write_to` into memory.
    pub trace_write: f64,
    /// `KernelTrace::read_from` out of memory.
    pub trace_read: f64,
}

/// One front-end product: what the set-up pass hands to simulation.
pub struct Front {
    /// The kernel module (sliced, for DAE).
    pub module: Arc<Module>,
    /// The trace, as read back from its `MSTR` encoding.
    pub trace: Arc<KernelTrace>,
    /// The function each tile runs, by tile slot.
    pub funcs: Vec<FuncId>,
    /// `MSTR` bytes.
    pub trace_bytes: u64,
    /// Nodes over the built DDGs.
    pub ddg_nodes: u64,
    /// Stage times.
    pub times: FrontTimes,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_secs_f64();
    out
}

/// The per-pair queue namespace stride `mosaic_bench::run_dae_pairs` uses.
const DAE_QUEUE_STRIDE: u32 = 1000;

fn build_front(p: &PointSpec, size: Size, seed: u64) -> Result<Front, String> {
    let mut times = FrontTimes::default();
    let mut prepared: Prepared = timed(&mut times.kernel_build, || {
        match (p.kernel.as_str(), p.gather) {
            ("gather", Some(shape)) => gather::build(seed, shape),
            ("projection", _) => projection::build(p.scale_at(size)),
            (name, _) => build_parboil(name, p.scale_at(size)),
        }
    });
    let (trace, funcs) = if p.dae {
        let slices = timed(&mut times.dae_slice, || {
            slice_dae(&mut prepared.module, prepared.func, DaeQueues::default())
        })
        .map_err(|e| format!("{}: DAE slicing failed: {e:?}", p.id))?;
        // The tile programs of `mosaic_bench::run_dae_pairs`: pair `k`
        // runs the access slice on tile 2k and the execute slice on
        // tile 2k+1, in queue namespace 1000·k.
        let pairs = p.tiles / 2;
        let mut programs = Vec::new();
        let mut funcs = Vec::new();
        for pair in 0..pairs {
            for func in [slices.access, slices.execute] {
                let mut prog = TileProgram::single(func, prepared.args.clone())
                    .with_queue_offset(DAE_QUEUE_STRIDE * pair as u32);
                prog.tile_id = pair as i64;
                prog.num_tiles = pairs as i64;
                programs.push(prog);
                funcs.push(func);
            }
        }
        let trace = timed(&mut times.dtg, || {
            record_trace(&prepared.module, prepared.mem.clone(), &programs)
        })
        .map_err(|e| format!("{}: trace generation failed: {e}", p.id))?
        .0;
        (trace, funcs)
    } else {
        let trace = timed(&mut times.dtg, || prepared.trace(p.tiles))
            .map_err(|e| format!("{}: trace generation failed: {e}", p.id))?
            .0;
        (trace, vec![prepared.func; p.tiles])
    };
    let mut distinct = funcs.clone();
    distinct.sort();
    distinct.dedup();
    let ddg_nodes = timed(&mut times.ddg, || {
        distinct
            .iter()
            .map(|&f| StaticDdg::build(prepared.module.function(f)).node_count() as u64)
            .sum()
    });
    let mut bytes = Vec::new();
    timed(&mut times.trace_write, || trace.write_to(&mut bytes))
        .map_err(|e| format!("{}: MSTR write failed: {e}", p.id))?;
    let read_back = timed(&mut times.trace_read, || {
        KernelTrace::read_from(&mut bytes.as_slice())
    })
    .map_err(|e| format!("{}: MSTR read failed: {e}", p.id))?;
    if read_back.total_retired() != trace.total_retired()
        || read_back.tile_count() != trace.tile_count()
    {
        return Err(format!("{}: MSTR round trip changed the trace", p.id));
    }
    Ok(Front {
        module: Arc::new(prepared.module),
        trace: Arc::new(read_back),
        funcs,
        trace_bytes: bytes.len() as u64,
        ddg_nodes,
        times,
    })
}

/// The product of one front-end pass over a workload's point list: the
/// benchmark's *set-up*, timed as `setup_s`.
pub struct Staged<'w> {
    /// The workload.
    pub spec: &'w WorkloadSpec,
    /// Which frozen size was staged.
    pub size: Size,
    /// One product per distinct (kernel, scale, tiles, slicing) — sweep
    /// points of one kernel share a trace.
    pub fronts: Vec<Front>,
    /// The front of each entry of `spec.points`.
    point_front: Vec<usize>,
    /// The front of the warm half's point.
    warm_front: Option<usize>,
    /// Where points with a checkpoint policy write their snapshot.
    out_dir: PathBuf,
}

impl<'w> Staged<'w> {
    /// Runs the front-end pass: for every distinct kernel instance of the
    /// point list, kernel construction, DAE slicing where used, trace
    /// generation, DDG construction and an in-memory `MSTR` round trip.
    ///
    /// # Errors
    ///
    /// The first stage failure, naming the point.
    pub fn stage(
        spec: &'w WorkloadSpec,
        size: Size,
        seed: u64,
        out_dir: &Path,
    ) -> Result<Self, String> {
        let mut keys = Vec::new();
        let mut fronts = Vec::new();
        let mut front_of = |p: &PointSpec| -> Result<usize, String> {
            let key = p.front_key(size);
            if let Some(i) = keys.iter().position(|k| *k == key) {
                return Ok(i);
            }
            fronts.push(build_front(p, size, seed)?);
            keys.push(key);
            Ok(keys.len() - 1)
        };
        let point_front = spec
            .points
            .iter()
            .map(&mut front_of)
            .collect::<Result<Vec<_>, _>>()?;
        let warm_front = spec.warm.as_ref().map(|w| front_of(&w.point)).transpose()?;
        Ok(Staged {
            spec,
            size,
            fronts,
            point_front,
            warm_front,
            out_dir: out_dir.to_path_buf(),
        })
    }

    /// The front of `spec.points[index]`.
    pub fn front(&self, index: usize) -> &Front {
        &self.fronts[self.point_front[index]]
    }

    /// The first point that replays `fronts[front]` (`None` for a trace
    /// only the warm half uses).
    pub fn first_point_of(&self, front: usize) -> Option<&'w PointSpec> {
        let index = self.point_front.iter().position(|&f| f == front)?;
        Some(&self.spec.points[index])
    }

    /// The front of the warm half's point.
    pub fn warm_front(&self) -> Option<&Front> {
        self.warm_front.map(|i| &self.fronts[i])
    }

    /// `MSTR` bytes over the distinct traces.
    pub fn trace_bytes(&self) -> u64 {
        self.fronts.iter().map(|f| f.trace_bytes).sum()
    }

    /// Traced instructions over the distinct traces.
    pub fn trace_retired(&self) -> u64 {
        self.fronts.iter().map(|f| f.trace.total_retired()).sum()
    }

    /// Stage times summed over the fronts.
    pub fn times(&self) -> FrontTimes {
        self.fronts
            .iter()
            .fold(FrontTimes::default(), |a, f| FrontTimes {
                kernel_build: a.kernel_build + f.times.kernel_build,
                dae_slice: a.dae_slice + f.times.dae_slice,
                dtg: a.dtg + f.times.dtg,
                ddg: a.ddg + f.times.ddg,
                trace_write: a.trace_write + f.times.trace_write,
                trace_read: a.trace_read + f.times.trace_read,
            })
    }

    /// The system `p` simulates over `front`, ready to `run()` or
    /// `build()`: fast-forward on and the default lint level, as a user
    /// gets them.
    pub fn builder(&self, p: &PointSpec, front: &Front) -> SystemBuilder {
        let mut b = SystemBuilder::new(front.module.clone(), front.trace.clone())
            .memory(p.memory_config())
            .observe(p.obs_level());
        if p.dae {
            b = b.channels(dae_channel());
        }
        for (slot, &func) in front.funcs.iter().enumerate() {
            b = b.core(tile_config(p, slot), func, slot);
        }
        if let Some(every) = p.ckpt_every {
            b = b
                .checkpoint_every(every)
                .checkpoint_to(self.out_dir.join(format!("{}.mckp", p.id)));
        }
        b
    }
}

/// The configuration of tile `slot` of point `p`. DAE systems mirror
/// `mosaic_bench::run_dae_pairs`: a DeSC access core and an in-order
/// execute core per pair, each pair in its own queue namespace.
pub fn tile_config(p: &PointSpec, slot: usize) -> CoreConfig {
    if p.dae {
        let pair = slot / 2;
        let base = if slot.is_multiple_of(2) {
            CoreConfig::dae_access().with_name(&format!("access#{pair}"))
        } else {
            CoreConfig::in_order().with_name(&format!("execute#{pair}"))
        };
        base.with_queue_offset(DAE_QUEUE_STRIDE * pair as u32)
    } else {
        let c = p.core_config();
        let name = format!("{}#{slot}", c.name);
        c.with_name(&name)
    }
}

/// The lint bindings `SystemBuilder` derives for `p` (arguments unknown).
pub fn lint_bindings(p: &PointSpec, front: &Front) -> Vec<TileBinding> {
    front
        .funcs
        .iter()
        .enumerate()
        .map(|(slot, &func)| {
            let nparams = front.module.function(func).params().len();
            TileBinding::new(func, tile_config(p, slot).queue_offset, vec![None; nparams])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"workloads": [
      {"name": "w", "why": "because", "sweep": true, "points": [
        {"id": "a", "kernel": "histo", "scale": 2, "core": "ino", "mem": "xeon_nopf", "pin": [10, 20]},
        {"id": "b", "kernel": "gather", "gather": {"ws_kib": 16, "accesses": 2048, "passes": 2}, "llc_kib": 2560},
        {"id": "c", "kernel": "projection", "tiles": 4, "dae": true, "mem": "dae", "obs": "stats", "ckpt_every": 1000}
      ], "warm": {"point": {"id": "w", "kernel": "sgemm", "quick_pin": [100, 7]}, "fork_pct": 90, "rows": 4}}
    ]}"#;

    #[test]
    fn catalog_text_round_trips() {
        let cat = Catalog::parse(SAMPLE).expect("sample parses");
        let w = &cat.workloads[0];
        assert_eq!(
            w.points[0].pin,
            Some(Pin {
                cycles: 10,
                retired: 20
            })
        );
        assert_eq!(w.points[1].gather.map(|g| g.elems()), Some(2048));
        assert!(w.points[2].dae && w.points[2].obs_level() == ObsLevel::Stats);
        let warm = w.warm.as_ref().expect("warm half");
        assert_eq!(warm.fork_cycle(Size::Quick), Some(90));
        assert_eq!(warm.fork_cycle(Size::Full), None);
        assert_eq!(
            Catalog::parse(&cat.to_text()).expect("own text parses"),
            cat
        );
    }

    #[test]
    fn malformed_entries_are_named() {
        for (bad, needle) in [
            (SAMPLE.replace("\"histo\"", "\"nope\""), "unknown kernel"),
            (SAMPLE.replace("\"ino\"", "\"vliw\""), "`core`"),
            (SAMPLE.replace("\"tiles\": 4", "\"tiles\": 3"), "even"),
            (
                SAMPLE.replace("\"accesses\": 2048", "\"accesses\": 4096"),
                "gather draws",
            ),
            (SAMPLE.replace("[10, 20]", "[10]"), "[cycles, retired]"),
            (
                SAMPLE.replace("\"fork_pct\": 90", "\"fork_pct\": 100"),
                "fork_pct",
            ),
        ] {
            let err = Catalog::parse(&bad).expect_err(needle);
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn sweep_points_of_one_kernel_share_a_front() {
        let cat = Catalog::parse(
            r#"{"workloads": [{"name": "s", "why": "x", "sweep": true, "points": [
                {"id": "a", "kernel": "histo", "core": "ooo"},
                {"id": "b", "kernel": "histo", "core": "ino", "window": 2},
                {"id": "c", "kernel": "histo", "tiles": 2}
            ]}]}"#,
        )
        .expect("parses");
        let staged =
            Staged::stage(&cat.workloads[0], Size::Full, 1, Path::new(".")).expect("stages");
        assert_eq!(
            staged.fronts.len(),
            2,
            "1-tile points share; the 2-tile point does not"
        );
        assert!(std::ptr::eq(staged.front(0), staged.front(1)));
        assert_eq!(staged.front(2).funcs.len(), 2);
        assert!(staged.trace_bytes() > 0 && staged.trace_retired() > 0);
    }
}
