//! IR-level profiling: attributing dynamic cost to static instructions.

use std::collections::BTreeMap;

use mosaic_ckpt::Snap;

use crate::registry::Log2Histogram;

/// Number of [`StallKind`] variants (array dimension of per-kind
/// stall counters).
pub const STALL_KINDS: usize = 5;

/// Why an instruction failed to issue on a given cycle.
///
/// Mirrors the aggregate `TileStats` stall counters so per-instruction
/// attribution sums to the per-tile totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// Issue-window / dependence stall (operands not ready).
    Window = 0,
    /// Functional-unit structural stall.
    Fu = 1,
    /// Memory stall (atomics, descriptor buffer, MAO ordering).
    Mem = 2,
    /// Channel send blocked on a full buffer.
    Send = 3,
    /// Channel recv blocked on an empty buffer.
    Recv = 4,
}

impl StallKind {
    /// A short stable label (`window`, `fu`, `mem`, `send`, `recv`).
    pub fn label(self) -> &'static str {
        match self {
            StallKind::Window => "window",
            StallKind::Fu => "fu",
            StallKind::Mem => "mem",
            StallKind::Send => "send",
            StallKind::Recv => "recv",
        }
    }

    /// All kinds in index order.
    pub fn all() -> [StallKind; STALL_KINDS] {
        [
            StallKind::Window,
            StallKind::Fu,
            StallKind::Mem,
            StallKind::Send,
            StallKind::Recv,
        ]
    }
}

/// A static instruction key: raw `(function, instruction)` ids.
///
/// Raw `u32`s rather than IR types keep this crate dependency-free;
/// `mosaic-report` maps keys back to printed IR using the module.
pub(crate) type InstKey = (u32, u32);

/// Dynamic cost attributed to one static instruction.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InstProfile {
    /// Dynamic instances retired.
    pub retired: u64,
    /// Stall cycles charged to this instruction, by [`StallKind`] index.
    pub stalls: [u64; STALL_KINDS],
    /// Observed memory latencies (issue → completion), loads/stores only.
    pub mem_lat: Log2Histogram,
}

impl InstProfile {
    /// Total stall cycles across all kinds.
    pub fn total_stalls(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// The dominant stall kind, if any stalls were recorded.
    pub fn dominant_stall(&self) -> Option<StallKind> {
        let (idx, &n) = self
            .stalls
            .iter()
            .enumerate()
            .max_by_key(|&(_, &n)| n)?;
        if n == 0 {
            None
        } else {
            Some(StallKind::all()[idx])
        }
    }
}

/// Per-static-instruction profile of an entire run (possibly merged
/// across tiles executing the same function).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IrProfile {
    map: BTreeMap<InstKey, InstProfile>,
}

impl IrProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Credits `n` retirements to `key`.
    #[cfg(test)]
    pub(crate) fn retire(&mut self, key: InstKey, n: u64) {
        self.map.entry(key).or_default().retired += n;
    }

    /// Charges `cycles` stall cycles of `kind` to `key`.
    #[cfg(test)]
    pub(crate) fn stall(&mut self, key: InstKey, kind: StallKind, cycles: u64) {
        self.map.entry(key).or_default().stalls[kind as usize] += cycles;
    }

    /// Records one observed memory latency for `key`.
    #[cfg(test)]
    pub(crate) fn mem_latency(&mut self, key: InstKey, latency: u64) {
        self.map.entry(key).or_default().mem_lat.record(latency);
    }

    /// The profile for `key`, if any cost was attributed.
    #[cfg(test)]
    pub(crate) fn get(&self, key: InstKey) -> Option<&InstProfile> {
        self.map.get(&key)
    }

    /// Iterates `(key, profile)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (InstKey, &InstProfile)> {
        self.map.iter().map(|(&k, v)| (k, v))
    }

    /// Number of instructions with attributed cost.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no cost has been attributed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Merges `other` into `self` (counters add, histograms merge
    /// exactly, bucket-wise and moment-wise).
    pub fn merge(&mut self, other: &IrProfile) {
        for (key, p) in other.iter() {
            let e = self.map.entry(key).or_default();
            e.retired += p.retired;
            for k in 0..STALL_KINDS {
                e.stalls[k] += p.stalls[k];
            }
            e.mem_lat.merge_from(&p.mem_lat);
        }
    }

    /// The `n` most expensive instructions by `total_stalls`, ties
    /// broken by retirements then key (descending cost).
    pub fn top(&self, n: usize) -> Vec<(InstKey, &InstProfile)> {
        let mut rows: Vec<(InstKey, &InstProfile)> = self.iter().collect();
        rows.sort_by(|a, b| {
            b.1.total_stalls()
                .cmp(&a.1.total_stalls())
                .then(b.1.retired.cmp(&a.1.retired))
                .then(a.0.cmp(&b.0))
        });
        rows.truncate(n);
        rows
    }
}

/// The recording side of an [`IrProfile`]: one tile's counters in
/// arrays indexed by the function's dense instruction id, so the
/// per-cycle path pays an indexed add. Names, keys and the ordered map
/// are resolved once, by [`ProfileTable::to_profile`].
///
/// A row is reported when anything was recorded on it; untouched
/// instructions are absent from the profile.
#[derive(Debug, Clone, Default)]
pub struct ProfileTable {
    func: u32,
    retired: Vec<u64>,
    stalls: Vec<[u64; STALL_KINDS]>,
    /// Instances parked behind their tile's window now, by instruction, and
    /// the cycles so far that charged every parked instance a window stall:
    /// one parked at clock `p` and reached by the window at `u` owes `u - p`,
    /// so `park` takes the clock off its row's window counter, `unpark` puts
    /// it back on (wrapping), and a read adds `parked_now * window_clock`.
    parked_now: Vec<u32>,
    window_clock: u64,
    /// Allocated on an instruction's first latency sample, so the
    /// arrays above stay a few KB (a histogram is ~550 bytes and only
    /// memory instructions ever own one).
    mem_lat: Vec<Option<Box<Log2Histogram>>>,
}

impl ProfileTable {
    /// An empty table for function `func` with `insts` instructions.
    pub fn new(func: u32, insts: usize) -> Self {
        ProfileTable {
            func,
            retired: vec![0; insts],
            stalls: vec![[0; STALL_KINDS]; insts],
            parked_now: vec![0; insts],
            window_clock: 0,
            mem_lat: vec![None; insts],
        }
    }

    /// Credits one retirement to instruction `inst`.
    ///
    /// # Panics
    ///
    /// This and the other recorders panic if `inst` is not an
    /// instruction of the function the table was sized for.
    #[inline]
    pub fn retire(&mut self, inst: u32) {
        self.retired[inst as usize] += 1;
    }

    /// Charges `cycles` stall cycles of `kind` to instruction `inst`.
    #[inline]
    pub fn stall(&mut self, inst: u32, kind: StallKind, cycles: u64) {
        // (The window counter is short of the clock while instances park.)
        let n = &mut self.stalls[inst as usize][kind as usize];
        *n = n.wrapping_add(cycles);
    }

    /// Records one observed memory latency for instruction `inst`.
    #[inline]
    pub fn mem_latency(&mut self, inst: u32, latency: u64) {
        self.mem_lat[inst as usize]
            .get_or_insert_with(Default::default)
            .record(latency);
    }

    /// Parks an instance of `inst` behind the window: until
    /// [`unpark`](Self::unpark), [`charge_parked`](Self::charge_parked)
    /// counts its window stalls.
    #[inline]
    pub fn park(&mut self, inst: u32) {
        self.stall(inst, StallKind::Window, self.window_clock.wrapping_neg());
        self.parked_now[inst as usize] += 1;
    }

    /// The window has reached a parked instance of `inst`.
    #[inline]
    pub fn unpark(&mut self, inst: u32) {
        self.stall(inst, StallKind::Window, self.window_clock);
        self.parked_now[inst as usize] -= 1;
    }

    /// Charges every parked instance `cycles` window stalls — less one of
    /// `inst` per entry of `entered`: one the window covers already, which
    /// its tile charges as a candidate.
    #[inline]
    pub fn charge_parked(&mut self, cycles: u64, entered: &[u32]) {
        self.window_clock = self.window_clock.wrapping_add(cycles);
        for &inst in entered {
            self.stall(inst, StallKind::Window, cycles.wrapping_neg());
        }
    }

    /// Takes the census anew — `parked` names the instruction of every
    /// instance parked now — having settled what the old one was owed.
    pub fn repark(&mut self, parked: impl IntoIterator<Item = u32>) {
        for i in 0..self.stalls.len() {
            self.stalls[i][StallKind::Window as usize] = self.settled_window(i);
        }
        self.parked_now.fill(0);
        parked.into_iter().for_each(|inst| self.park(inst));
    }

    /// Instruction `i`'s window stalls, its parked instances' included.
    fn settled_window(&self, i: usize) -> u64 {
        let owed = u64::from(self.parked_now[i]).wrapping_mul(self.window_clock);
        self.stalls[i][StallKind::Window as usize].wrapping_add(owed)
    }

    /// Forgets everything recorded; what is parked now stays parked.
    pub fn clear(&mut self) {
        self.retired.fill(0);
        self.stalls.fill([0; STALL_KINDS]);
        self.window_clock = 0;
        self.mem_lat.fill(None);
    }

    /// The recorded rows as an ordered, mergeable report.
    pub fn to_profile(&self) -> IrProfile {
        let mut p = IrProfile::new();
        for (i, (&retired, stalls)) in self.retired.iter().zip(&self.stalls).enumerate() {
            let mem_lat = self.mem_lat[i].as_deref();
            let mut stalls = *stalls;
            stalls[StallKind::Window as usize] = self.settled_window(i);
            if retired != 0 || stalls.iter().any(|&n| n != 0) || mem_lat.is_some() {
                let row = InstProfile {
                    retired,
                    stalls,
                    mem_lat: mem_lat.cloned().unwrap_or_default(),
                };
                p.map.insert((self.func, i as u32), row);
            }
        }
        p
    }

    /// Replaces the table's contents with `profile` (a decoded
    /// checkpoint), so recording continues where the snapshot left off
    /// (once [`repark`](Self::repark) has taken the restored tile's census).
    ///
    /// # Errors
    ///
    /// Returns [`mosaic_ckpt::CkptError::Corrupt`] when `profile` names
    /// another function or an instruction past the table's end.
    pub fn load(&mut self, profile: &IrProfile) -> Result<(), mosaic_ckpt::CkptError> {
        self.clear();
        self.parked_now.fill(0);
        for ((func, inst), row) in profile.iter() {
            let i = inst as usize;
            if func != self.func || i >= self.retired.len() {
                return Err(mosaic_ckpt::CkptError::corrupt(format!(
                    "profile row ({func}, {inst}) is outside function {} with {} instructions",
                    self.func,
                    self.retired.len()
                )));
            }
            self.retired[i] = row.retired;
            self.stalls[i] = row.stalls;
            if row.mem_lat.count() != 0 {
                self.mem_lat[i] = Some(Box::new(row.mem_lat.clone()));
            }
        }
        Ok(())
    }
}

/// A profile row as a checkpoint holds it: its key, retired count, stall
/// counters and latency histogram.
type Row = (InstKey, (u64, [u64; STALL_KINDS], Log2Histogram));

/// The rows in key order (the map is a `BTreeMap`, so the byte stream is
/// deterministic).
impl Snap for IrProfile {
    fn put(&self, e: &mut mosaic_ckpt::Enc) {
        let rows = self.map.iter();
        e.seq::<Row>(rows.map(|(&key, p)| (key, (p.retired, p.stalls, p.mem_lat.clone()))));
    }

    fn get(d: &mut mosaic_ckpt::Dec<'_>, _: &str) -> Result<Self, mosaic_ckpt::CkptError> {
        let mut p = IrProfile::new();
        d.seq::<Row>("profile row", |(key, (retired, stalls, mem_lat))| {
            p.map.insert(key, InstProfile { retired, stalls, mem_lat });
            Ok(())
        })?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_accumulates() {
        let mut p = IrProfile::new();
        p.retire((0, 3), 10);
        p.retire((0, 3), 5);
        p.stall((0, 3), StallKind::Mem, 100);
        p.stall((0, 3), StallKind::Window, 2);
        p.mem_latency((0, 3), 40);
        let e = p.get((0, 3)).unwrap();
        assert_eq!(e.retired, 15);
        assert_eq!(e.total_stalls(), 102);
        assert_eq!(e.dominant_stall(), Some(StallKind::Mem));
        assert_eq!(e.mem_lat.count(), 1);
    }

    #[test]
    fn top_sorts_by_stalls() {
        let mut p = IrProfile::new();
        p.stall((0, 1), StallKind::Fu, 5);
        p.stall((0, 2), StallKind::Mem, 50);
        p.retire((0, 9), 1000);
        let top = p.top(2);
        assert_eq!(top[0].0, (0, 2));
        assert_eq!(top[1].0, (0, 1));
    }

    #[test]
    fn merge_adds_counters_and_moments() {
        let mut a = IrProfile::new();
        a.retire((1, 1), 3);
        a.mem_latency((1, 1), 8);
        let mut b = IrProfile::new();
        b.retire((1, 1), 4);
        b.mem_latency((1, 1), 32);
        b.stall((1, 1), StallKind::Recv, 7);
        a.merge(&b);
        let e = a.get((1, 1)).unwrap();
        assert_eq!(e.retired, 7);
        assert_eq!(e.stalls[StallKind::Recv as usize], 7);
        assert_eq!(e.mem_lat.count(), 2);
        assert_eq!(e.mem_lat.sum(), 40);
        assert_eq!(e.mem_lat.min(), 8);
        assert_eq!(e.mem_lat.max(), 32);
    }
}

#[cfg(test)]
mod table_tests {
    use super::*;

    /// SplitMix64.
    struct Rng(u64);
    impl Rng {
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

    const FUNC: u32 = 3;
    const INSTS: usize = 200;

    /// Applies `events` random recordings over a sparse subset of the
    /// instruction ids to the table and to the map model alike.
    fn record(rng: &mut Rng, events: usize, table: &mut ProfileTable, model: &mut IrProfile) {
        // A seventh of the ids, so most rows stay untouched.
        let hot: Vec<u32> = (0..INSTS as u32).filter(|i| i % 7 == 2).collect();
        for _ in 0..events {
            let inst = hot[rng.below(hot.len() as u64) as usize];
            match rng.below(3) {
                0 => {
                    table.retire(inst);
                    model.retire((FUNC, inst), 1);
                }
                1 => {
                    let kind = StallKind::all()[rng.below(STALL_KINDS as u64) as usize];
                    let cycles = 1 + rng.below(1000);
                    table.stall(inst, kind, cycles);
                    model.stall((FUNC, inst), kind, cycles);
                }
                _ => {
                    let latency = rng.next() >> rng.below(64);
                    table.mem_latency(inst, latency);
                    model.mem_latency((FUNC, inst), latency);
                }
            }
        }
    }

    /// The dense table is the map-backed profile by another layout: same
    /// keys (untouched instructions absent), counters, histogram moments
    /// and buckets — alone, merged across tiles, and through a checkpoint.
    #[test]
    fn dense_table_matches_the_map_model() {
        for seed in 0..20 {
            let mut rng = Rng(seed);
            let mut table = ProfileTable::new(FUNC, INSTS);
            let mut model = IrProfile::new();
            record(&mut rng, 2000, &mut table, &mut model);
            assert_eq!(table.to_profile(), model, "seed {seed}");
            assert!(model.len() < INSTS / 6, "seed {seed}: the id subset is not sparse");

            // Two tiles running the same function merge as their models do.
            let mut other = ProfileTable::new(FUNC, INSTS);
            let mut other_model = IrProfile::new();
            record(&mut rng, 500, &mut other, &mut other_model);
            let mut merged = table.to_profile();
            merged.merge(&other.to_profile());
            let mut merged_model = model.clone();
            merged_model.merge(&other_model);
            assert_eq!(merged, merged_model, "seed {seed}: merge");

            // Encode, decode into a table that already holds other rows,
            // and carry on: the same as never having stopped.
            let mut e = mosaic_ckpt::Enc::new();
            table.to_profile().put(&mut e);
            let bytes = e.into_bytes();
            let decoded: IrProfile =
                Snap::get(&mut mosaic_ckpt::Dec::new(&bytes), "profile").unwrap();
            other.load(&decoded).unwrap();
            assert_eq!(other.to_profile(), model, "seed {seed}: reload");
            let mut rng_a = Rng(seed ^ 0xabcd);
            let mut rng_b = Rng(seed ^ 0xabcd);
            let mut straight_model = model.clone();
            record(&mut rng_a, 1000, &mut table, &mut straight_model);
            record(&mut rng_b, 1000, &mut other, &mut model);
            assert_eq!(other.to_profile(), table.to_profile(), "seed {seed}: resumed");
            assert_eq!(other.to_profile(), model, "seed {seed}: resumed against the model");

            table.clear();
            assert!(table.to_profile().is_empty());
        }
    }

    /// The clock and the census against the rule they stand for — a charge
    /// adds to the row of every parked instance, one at a time — over random
    /// parks, unparks and charges (some instances entered, so left out),
    /// other stalls on the same rows, and now and then a taken profile, a
    /// census taken anew, or a reload: equal after every event, in wrapping
    /// arithmetic all along.
    #[test]
    fn parked_instances_are_charged_by_the_clock() {
        for seed in 0..20 {
            let mut rng = Rng(seed);
            let mut table = ProfileTable::new(FUNC, INSTS);
            let mut model = IrProfile::new();
            let mut parked: Vec<u32> = Vec::new();
            for event in 0..2000 {
                let inst = rng.below(24) as u32;
                let cycles = 1 + rng.below(1000);
                match rng.below(16) {
                    0..=5 => {
                        table.park(inst);
                        parked.push(inst);
                    }
                    6..=9 if !parked.is_empty() => {
                        let at = rng.below(parked.len() as u64) as usize;
                        table.unpark(parked.swap_remove(at));
                    }
                    10..=12 => {
                        let entered = parked.len().min(rng.below(3) as usize);
                        table.charge_parked(cycles, &parked[..entered]);
                        for &inst in &parked[entered..] {
                            model.stall((FUNC, inst), StallKind::Window, cycles);
                        }
                    }
                    13 => {
                        table.clear();
                        model = IrProfile::new();
                    }
                    14 => {
                        if rng.below(2) == 0 {
                            let saved = table.to_profile();
                            table.load(&saved).unwrap();
                        }
                        table.repark(parked.iter().copied());
                    }
                    _ => {
                        let kind = StallKind::all()[rng.below(2) as usize];
                        table.stall(inst, kind, cycles);
                        model.stall((FUNC, inst), kind, cycles);
                    }
                }
                assert_eq!(table.to_profile(), model, "seed {seed}, event {event}");
            }
            assert!(parked.len() > 10, "seed {seed}: {} parked", parked.len());
        }
    }

    #[test]
    fn load_refuses_rows_the_table_has_no_place_for() {
        let mut table = ProfileTable::new(FUNC, 4);
        for key in [(FUNC, 4), (FUNC + 1, 0)] {
            let mut p = IrProfile::new();
            p.retire(key, 1);
            let err = table.load(&p).unwrap_err();
            assert!(matches!(err, mosaic_ckpt::CkptError::Corrupt { .. }), "{err}");
        }
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;

    #[test]
    fn profile_and_histogram_round_trip() {
        let mut p = IrProfile::new();
        p.retire((2, 7), 11);
        p.stall((2, 7), StallKind::Recv, 40);
        p.mem_latency((2, 7), 123);
        p.mem_latency((0, 1), 0);
        let mut e = mosaic_ckpt::Enc::new();
        p.put(&mut e);
        let bytes = e.into_bytes();
        let mut d = mosaic_ckpt::Dec::new(&bytes);
        let back: IrProfile = Snap::get(&mut d, "profile").unwrap();
        assert!(d.is_exhausted());
        assert_eq!(p, back);
    }

    #[test]
    fn empty_histogram_round_trips_min_sentinel() {
        let h = Log2Histogram::new();
        let mut e = mosaic_ckpt::Enc::new();
        h.put(&mut e);
        let bytes = e.into_bytes();
        let back = Log2Histogram::get(&mut mosaic_ckpt::Dec::new(&bytes), "histogram").unwrap();
        assert_eq!(h, back);
        assert_eq!(back.min(), 0);
    }
}
