//! Byte-addressed memory image backing functional execution.
//!
//! The interpreter executes kernels against a [`MemImage`]: a growable
//! byte-addressed image with a simple bump allocator. Host code allocates
//! buffers, fills them with workload data, runs the kernel, and reads
//! results back. Addresses handed to kernels are plain `u64`s, so the
//! recorded memory traces look exactly like the paper's instrumented-binary
//! traces.
//!
//! The image costs what is written, not what is allocated: it is a table
//! of fixed-size chunks, a chunk nobody wrote reads as zero and takes no
//! memory, and `clone()` shares every chunk until one side writes it. A
//! 64 MiB buffer of which a kernel touches 16 384 elements — and which
//! every trace run clones — stays a few MiB (DESIGN.md §4.1).

use std::sync::Arc;

use crate::types::Type;

/// Base address of the first allocation. Leaving page zero unmapped makes
/// null-pointer bugs in kernels fail fast.
const BASE_ADDR: u64 = 0x1000;

/// Chunk size: 512 bytes. Chosen by measurement, not a setting: the
/// interpreter runs at the same speed at 512 B, 1 KiB and 4 KiB, while the
/// sparse 64 MiB ledger point's resident set grows with every step up
/// (the table in DESIGN.md §4.1).
const CHUNK_SHIFT: u32 = 9;
const CHUNK: usize = 1 << CHUNK_SHIFT;

/// A byte-addressed memory image with a bump allocator.
///
/// # Examples
///
/// ```
/// use mosaic_ir::MemImage;
/// let mut mem = MemImage::new();
/// let buf = mem.alloc_f32(4);
/// mem.write_f32(buf + 8, 2.5);
/// assert_eq!(mem.read_f32(buf + 8), 2.5);
/// ```
#[derive(Debug, Clone)]
pub struct MemImage {
    /// Chunk `k` holds offsets `k * CHUNK..` from `BASE_ADDR`; `None`
    /// reads as zero. Shared with clones until written.
    chunks: Vec<Option<Arc<[u8; CHUNK]>>>,
    next: u64,
}

impl Default for MemImage {
    fn default() -> Self {
        MemImage::new()
    }
}

impl MemImage {
    /// Creates an empty image.
    pub fn new() -> Self {
        MemImage {
            chunks: Vec::new(),
            next: BASE_ADDR,
        }
    }

    /// Total bytes currently allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.next - BASE_ADDR
    }

    /// Allocates `size` bytes aligned to `align` and returns the address.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, size: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.next + align - 1) & !(align - 1);
        self.next = addr + size;
        let need = (self.allocated_bytes() as usize).div_ceil(CHUNK);
        if self.chunks.len() < need {
            self.chunks.resize(need, None);
        }
        addr
    }

    /// Allocates an array of `n` 32-bit integers.
    pub fn alloc_i32(&mut self, n: u64) -> u64 {
        self.alloc(n * 4, 64)
    }

    /// Allocates an array of `n` 64-bit integers.
    pub fn alloc_i64(&mut self, n: u64) -> u64 {
        self.alloc(n * 8, 64)
    }

    /// Allocates an array of `n` 32-bit floats.
    pub fn alloc_f32(&mut self, n: u64) -> u64 {
        self.alloc(n * 4, 64)
    }

    /// The offset of `addr` from the base, checked against the allocated
    /// extent.
    #[inline]
    fn off(&self, addr: u64, len: usize) -> usize {
        assert!(
            addr >= BASE_ADDR
                && (addr - BASE_ADDR) as usize + len <= self.allocated_bytes() as usize,
            "memory access out of bounds: addr={addr:#x} len={len}"
        );
        (addr - BASE_ADDR) as usize
    }

    /// The chunk holding offset `off`, made this image's own: allocated if
    /// nobody wrote it yet, copied if a clone still shares it.
    #[inline]
    fn chunk_mut(&mut self, off: usize) -> &mut [u8; CHUNK] {
        let slot = &mut self.chunks[off >> CHUNK_SHIFT];
        Arc::make_mut(slot.get_or_insert_with(|| Arc::new([0; CHUNK])))
    }

    /// Reads `N` bytes at `addr`: one indexed copy when they lie in one
    /// chunk, byte by byte (each of which does) across a boundary.
    #[inline]
    fn load<const N: usize>(&self, addr: u64) -> [u8; N] {
        let off = self.off(addr, N);
        let at = off & (CHUNK - 1);
        let mut out = [0; N];
        if at + N > CHUNK {
            for (i, byte) in out.iter_mut().enumerate() {
                [*byte] = self.load(addr + i as u64);
            }
        } else if let Some(chunk) = &self.chunks[off >> CHUNK_SHIFT] {
            out.copy_from_slice(&chunk[at..at + N]);
        }
        out
    }

    /// Writes `N` bytes at `addr`, the same two ways.
    #[inline]
    fn store<const N: usize>(&mut self, addr: u64, data: [u8; N]) {
        let off = self.off(addr, N);
        let at = off & (CHUNK - 1);
        if at + N > CHUNK {
            for (i, byte) in data.into_iter().enumerate() {
                self.store(addr + i as u64, [byte]);
            }
        } else {
            self.chunk_mut(off)[at..at + N].copy_from_slice(&data);
        }
    }

    /// Reads an `i8`.
    #[inline]
    pub fn read_i8(&self, addr: u64) -> i8 {
        i8::from_le_bytes(self.load(addr))
    }

    /// Reads an `i16`.
    #[inline]
    pub fn read_i16(&self, addr: u64) -> i16 {
        i16::from_le_bytes(self.load(addr))
    }

    /// Reads an `i32`.
    #[inline]
    pub fn read_i32(&self, addr: u64) -> i32 {
        i32::from_le_bytes(self.load(addr))
    }

    /// Reads an `i64`.
    #[inline]
    pub fn read_i64(&self, addr: u64) -> i64 {
        i64::from_le_bytes(self.load(addr))
    }

    /// Reads an `f32`.
    #[inline]
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_le_bytes(self.load(addr))
    }

    /// Reads an `f64`.
    #[inline]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_le_bytes(self.load(addr))
    }

    /// Writes an `i8`.
    #[inline]
    pub fn write_i8(&mut self, addr: u64, v: i8) {
        self.store(addr, v.to_le_bytes());
    }

    /// Writes an `i16`.
    #[inline]
    pub fn write_i16(&mut self, addr: u64, v: i16) {
        self.store(addr, v.to_le_bytes());
    }

    /// Writes an `i32`.
    #[inline]
    pub fn write_i32(&mut self, addr: u64, v: i32) {
        self.store(addr, v.to_le_bytes());
    }

    /// Writes an `i64`.
    #[inline]
    pub fn write_i64(&mut self, addr: u64, v: i64) {
        self.store(addr, v.to_le_bytes());
    }

    /// Writes an `f32`.
    #[inline]
    pub fn write_f32(&mut self, addr: u64, v: f32) {
        self.store(addr, v.to_le_bytes());
    }

    /// Writes an `f64`.
    #[inline]
    pub fn write_f64(&mut self, addr: u64, v: f64) {
        self.store(addr, v.to_le_bytes());
    }

    /// Reads a typed scalar as a runtime value.
    #[inline]
    pub(crate) fn read_typed(&self, addr: u64, ty: Type) -> RtVal {
        match ty {
            Type::I1 | Type::I8 => RtVal::Int(self.read_i8(addr) as i64),
            Type::I16 => RtVal::Int(self.read_i16(addr) as i64),
            Type::I32 => RtVal::Int(self.read_i32(addr) as i64),
            Type::I64 | Type::Ptr => RtVal::Int(self.read_i64(addr)),
            Type::F32 => RtVal::Float(self.read_f32(addr) as f64),
            Type::F64 => RtVal::Float(self.read_f64(addr)),
            Type::Void => panic!("cannot read void"),
        }
    }

    /// Writes a typed scalar from a runtime value.
    #[inline]
    pub(crate) fn write_typed(&mut self, addr: u64, ty: Type, v: RtVal) {
        match ty {
            Type::I1 | Type::I8 => self.write_i8(addr, v.as_int() as i8),
            Type::I16 => self.write_i16(addr, v.as_int() as i16),
            Type::I32 => self.write_i32(addr, v.as_int() as i32),
            Type::I64 | Type::Ptr => self.write_i64(addr, v.as_int()),
            Type::F32 => self.write_f32(addr, v.as_float() as f32),
            Type::F64 => self.write_f64(addr, v.as_float()),
            Type::Void => panic!("cannot write void"),
        }
    }

    /// Fills an `f32` array from a slice.
    pub fn fill_f32(&mut self, addr: u64, data: &[f32]) {
        for (i, v) in data.iter().enumerate() {
            self.write_f32(addr + 4 * i as u64, *v);
        }
    }

    /// Fills an `i32` array from a slice.
    pub fn fill_i32(&mut self, addr: u64, data: &[i32]) {
        for (i, v) in data.iter().enumerate() {
            self.write_i32(addr + 4 * i as u64, *v);
        }
    }

    /// Fills an `i64` array from a slice.
    pub fn fill_i64(&mut self, addr: u64, data: &[i64]) {
        for (i, v) in data.iter().enumerate() {
            self.write_i64(addr + 8 * i as u64, *v);
        }
    }

    /// Reads an `f32` array into a `Vec`.
    pub fn read_f32_slice(&self, addr: u64, n: usize) -> Vec<f32> {
        (0..n).map(|i| self.read_f32(addr + 4 * i as u64)).collect()
    }

    /// Reads an `i32` array into a `Vec`.
    pub fn read_i32_slice(&self, addr: u64, n: usize) -> Vec<i32> {
        (0..n).map(|i| self.read_i32(addr + 4 * i as u64)).collect()
    }

    /// Reads an `i64` array into a `Vec`.
    pub fn read_i64_slice(&self, addr: u64, n: usize) -> Vec<i64> {
        (0..n).map(|i| self.read_i64(addr + 8 * i as u64)).collect()
    }
}

/// A runtime scalar value inside the interpreter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RtVal {
    /// Integer (also carries pointers and booleans).
    Int(i64),
    /// Floating point (f32 values are widened).
    Float(f64),
}

impl RtVal {
    /// The value as an integer.
    ///
    /// # Panics
    ///
    /// Panics if the value is a float.
    #[inline]
    pub fn as_int(self) -> i64 {
        match self {
            RtVal::Int(v) => v,
            RtVal::Float(v) => panic!("expected int, found float {v}"),
        }
    }

    /// The value as a float.
    ///
    /// # Panics
    ///
    /// Panics if the value is an integer.
    #[inline]
    pub fn as_float(self) -> f64 {
        match self {
            RtVal::Float(v) => v,
            RtVal::Int(v) => panic!("expected float, found int {v}"),
        }
    }

    /// The value as a boolean (nonzero integer).
    #[inline]
    pub fn as_bool(self) -> bool {
        self.as_int() != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let mut m = MemImage::new();
        let a = m.alloc(3, 1);
        let b = m.alloc(8, 64);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 3);
    }

    #[test]
    fn typed_round_trips() {
        let mut m = MemImage::new();
        let p = m.alloc(64, 64);
        m.write_typed(p, Type::I32, RtVal::Int(-7));
        assert_eq!(m.read_typed(p, Type::I32), RtVal::Int(-7));
        m.write_typed(p + 8, Type::F32, RtVal::Float(1.5));
        assert_eq!(m.read_typed(p + 8, Type::F32), RtVal::Float(1.5));
        m.write_typed(p + 16, Type::F64, RtVal::Float(-2.25));
        assert_eq!(m.read_typed(p + 16, Type::F64), RtVal::Float(-2.25));
        m.write_typed(p + 24, Type::I8, RtVal::Int(130));
        // i8 wraps
        assert_eq!(m.read_typed(p + 24, Type::I8), RtVal::Int(-126));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        let m = MemImage::new();
        let _ = m.read_i32(0x1000);
    }

    #[test]
    fn slice_helpers_round_trip() {
        let mut m = MemImage::new();
        let p = m.alloc_f32(4);
        m.fill_f32(p, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.read_f32_slice(p, 4), vec![1.0, 2.0, 3.0, 4.0]);
        let q = m.alloc_i64(2);
        m.fill_i64(q, &[-1, 9]);
        assert_eq!(m.read_i64_slice(q, 2), vec![-1, 9]);
    }

    #[test]
    fn allocated_bytes_tracks_growth() {
        let mut m = MemImage::new();
        assert_eq!(m.allocated_bytes(), 0);
        m.alloc(100, 4);
        assert!(m.allocated_bytes() >= 100);
    }

    #[test]
    fn default_is_an_empty_image_like_new() {
        let mut m = MemImage::default();
        assert_eq!(m.allocated_bytes(), 0);
        assert_eq!(m.alloc(4, 4), MemImage::new().alloc(4, 4));
        assert_eq!(m.allocated_bytes(), 4);
    }

    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    /// Every allocated byte, read one at a time.
    fn bytes_of(m: &MemImage) -> Vec<u8> {
        let all = 0..m.allocated_bytes();
        all.map(|o| m.read_i8(BASE_ADDR + o) as u8).collect()
    }

    /// Writes `raw`'s low `width` bytes at `addr` through the typed
    /// accessor of that width (`float` picks f32/f64 over i32/i64), into
    /// the image and into the model.
    fn write_both(
        m: &mut MemImage,
        model: &mut [u8],
        addr: u64,
        width: usize,
        float: bool,
        raw: u64,
    ) {
        match (width, float) {
            (1, _) => m.write_i8(addr, raw as i8),
            (2, _) => m.write_i16(addr, raw as i16),
            (4, false) => m.write_i32(addr, raw as i32),
            (4, true) => m.write_f32(addr, f32::from_bits(raw as u32)),
            (8, false) => m.write_i64(addr, raw as i64),
            _ => m.write_f64(addr, f64::from_bits(raw)),
        }
        let at = (addr - BASE_ADDR) as usize;
        model[at..at + width].copy_from_slice(&raw.to_le_bytes()[..width]);
    }

    /// Reads `width` bytes at `addr` through the typed accessor.
    fn read_raw(m: &MemImage, addr: u64, width: usize, float: bool) -> u64 {
        match (width, float) {
            (1, _) => m.read_i8(addr) as u8 as u64,
            (2, _) => m.read_i16(addr) as u16 as u64,
            (4, false) => m.read_i32(addr) as u32 as u64,
            (4, true) => m.read_f32(addr).to_bits() as u64,
            (8, false) => m.read_i64(addr) as u64,
            _ => m.read_f64(addr).to_bits(),
        }
    }

    /// The chunk table against a flat `Vec<u8>`: interleaved allocations,
    /// typed accesses of every width at unaligned addresses, and clones
    /// written on either side, equal byte for byte after every operation.
    #[test]
    fn matches_a_flat_model_after_every_operation() {
        let mut rng = SplitMix64(0x6d65_6d69_6d67);
        let (mut m, mut model) = (MemImage::new(), Vec::new());
        for step in 0..600 {
            let width = 1usize << rng.below(4);
            let float = rng.below(2) == 1;
            // NaN payloads do not survive a round trip through a float.
            let raw = rng.next() & 0x7fef_ffff_7f7f_ffff;
            match rng.below(if model.len() < 64 { 1 } else { 8 }) {
                0 if step < 400 => {
                    let (size, align) = (rng.below(700), 1 << rng.below(13));
                    let addr = m.alloc(size, align);
                    assert_eq!(addr % align, 0);
                    assert_eq!(addr + size, BASE_ADDR + m.allocated_bytes());
                    assert!(addr - BASE_ADDR >= model.len() as u64);
                    model.resize(m.allocated_bytes() as usize, 0);
                }
                1 => {
                    // A clone is written, the original is not; then the
                    // other way round.
                    let (mut copy, mut copy_model) = (m.clone(), model.clone());
                    let addr = BASE_ADDR + rng.below((model.len() - 8) as u64);
                    write_both(&mut copy, &mut copy_model, addr, width, float, raw);
                    assert_eq!(bytes_of(&copy), copy_model);
                    assert_eq!(bytes_of(&m), model);
                    write_both(&mut m, &mut model, addr + 1, width, float, raw >> 1);
                    assert_eq!(bytes_of(&copy), copy_model);
                }
                2..=4 => {
                    let addr = BASE_ADDR + rng.below((model.len() - 8) as u64);
                    write_both(&mut m, &mut model, addr, width, float, raw);
                }
                _ => {
                    let at = rng.below((model.len() - 8) as u64) as usize;
                    let mut want = [0; 8];
                    want[..width].copy_from_slice(&model[at..at + width]);
                    let got = read_raw(&m, BASE_ADDR + at as u64, width, float);
                    assert_eq!(got, u64::from_le_bytes(want), "width {width} at {at}");
                }
            }
            assert_eq!(bytes_of(&m), model, "after step {step}");
        }
        assert!(model.len() > 4 * CHUNK, "the run crossed chunk boundaries");
    }

    #[test]
    fn every_offset_across_a_chunk_boundary_round_trips() {
        let mut m = MemImage::new();
        let base = m.alloc(3 * CHUNK as u64, 1);
        let mut model = vec![0; 3 * CHUNK];
        for (width, float) in [
            (1, false),
            (2, false),
            (4, false),
            (4, true),
            (8, false),
            (8, true),
        ] {
            for back in 0..=width as u64 + 1 {
                // From wholly before the boundary to wholly after it.
                let addr = base + 2 * CHUNK as u64 + 1 - back;
                let raw = 0x0102_0304_0506_0708 * (back + 1);
                write_both(&mut m, &mut model, addr, width, float, raw);
                let mask = u64::MAX >> (64 - 8 * width);
                assert_eq!(
                    read_raw(&m, addr, width, float),
                    raw & mask,
                    "{width} at -{back}"
                );
                assert_eq!(bytes_of(&m), model);
            }
        }
    }

    #[test]
    fn slice_helpers_span_chunks_and_unwritten_ranges_read_zero() {
        let mut m = MemImage::new();
        let n = 3 * CHUNK / 4 + 5;
        let words = m.alloc_i32(n as u64) + 4;
        let longs = m.alloc_i64(n as u64);
        assert_eq!(m.read_i32_slice(words, n - 1), vec![0; n - 1]);
        assert_eq!(m.read_i64_slice(longs, n), vec![0; n]);
        let data: Vec<i32> = (0..n as i32 - 1).map(|i| i * 7 - 3).collect();
        m.fill_i32(words, &data);
        assert_eq!(m.read_i32_slice(words, n - 1), data);
        let wide: Vec<i64> = data.iter().map(|&i| i64::from(i) << 33).collect();
        m.fill_i64(longs, &wide[..n - 1]);
        assert_eq!(m.read_i64_slice(longs, n), [&wide[..], &[0]].concat());
        assert_eq!(m.read_i32_slice(words, n - 1), data);
    }

    #[test]
    fn out_of_bounds_starts_exactly_at_the_allocated_extent() {
        let mut m = MemImage::new();
        m.alloc(3, 1);
        let end = m.alloc(CHUNK as u64 + 1, 2) + CHUNK as u64 + 1;
        assert_eq!(end, BASE_ADDR + m.allocated_bytes());
        assert_eq!(m.read_i8(end - 1), 0);
        assert_eq!(m.read_i32(end - 4), 0);
        let panics = |f: &dyn Fn(&mut MemImage)| {
            let mut copy = m.clone();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut copy)));
            let msg = caught.expect_err("out of bounds");
            assert!(msg
                .downcast_ref::<String>()
                .expect("formatted")
                .contains("out of bounds"));
        };
        panics(&|m| m.write_i8(end, 1));
        panics(&|m| m.write_i64(end - 7, 1));
        panics(&|m| m.fill_i32(end - 7, &[1, 2]));
        panics(&|m| assert_eq!(m.read_i32(end - 3), 0));
        panics(&|m| assert_eq!(m.read_i8(BASE_ADDR - 1), 0));
    }
}
