//! Byte-addressed memory image backing functional execution.
//!
//! The interpreter executes kernels against a [`MemImage`]: a growable
//! byte-addressed image with a simple bump allocator. Host code allocates
//! buffers, fills them with workload data, runs the kernel, and reads
//! results back. Addresses handed to kernels are plain `u64`s, so the
//! recorded memory traces look exactly like the paper's instrumented-binary
//! traces.
//!
//! The image costs what is written, not what is allocated: a table of
//! 4 KiB pages holding only the 64-byte lines written, shared with clones
//! until one side writes them. A 64 MiB buffer of which a kernel touches
//! 16 384 elements, cloned by every trace run, stays a few MiB (DESIGN.md §4.1).

use std::sync::Arc;

use crate::types::Type;

/// Base address of the first allocation. Leaving page zero unmapped makes
/// null-pointer bugs in kernels fail fast.
const BASE_ADDR: u64 = 0x1000;

/// A line, 64 bytes: what a page stores once any byte of it is written.
const LINE_SHIFT: u32 = 6;
const LINE: usize = 1 << LINE_SHIFT;
/// A page, 4 KiB: what the table maps and a clone shares.
const PAGE_SHIFT: u32 = 12;
const LINES: usize = 1 << (PAGE_SHIFT - LINE_SHIFT);

/// The lines of one page that were written, in first-write order.
#[derive(Debug, Clone)]
struct Page {
    /// Per line: 0 if it was never written, else 1 + its index in `lines`.
    slot: [u8; LINES],
    lines: Vec<[u8; LINE]>,
}

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
    /// Page `k` holds offsets `k << PAGE_SHIFT..` from `BASE_ADDR`, shared
    /// with clones until written; `None`, or past the end, reads as zero.
    pages: Vec<Option<Arc<Page>>>,
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
            pages: Vec::new(),
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
    /// Panics if `align` is not a power of two or the allocation overflows.
    pub fn alloc(&mut self, size: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let overflow = "allocation overflows the address space";
        let addr = self.next.checked_add(align - 1).expect(overflow) & !(align - 1);
        self.next = addr.checked_add(size).expect(overflow);
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

    /// The line holding offset `off`, if it was ever written.
    #[inline]
    fn line(&self, off: usize) -> Option<&[u8; LINE]> {
        let page = self.pages.get(off >> PAGE_SHIFT)?.as_deref()?;
        let slot = page.slot[(off >> LINE_SHIFT) & (LINES - 1)];
        // Slot 0 wraps to an index no page reaches.
        page.lines.get((slot as usize).wrapping_sub(1))
    }

    /// The line holding offset `off`, made this image's own: its page added
    /// or copied from a clone that shares it, and the line pushed if new.
    #[inline]
    fn line_mut(&mut self, off: usize) -> &mut [u8; LINE] {
        let at = off >> PAGE_SHIFT;
        if at >= self.pages.len() {
            self.pages.resize(at + 1, None);
        }
        let fresh = || {
            Arc::new(Page {
                slot: [0; LINES],
                lines: Vec::new(),
            })
        };
        let page = Arc::make_mut(self.pages[at].get_or_insert_with(fresh));
        let slot = &mut page.slot[(off >> LINE_SHIFT) & (LINES - 1)];
        if *slot == 0 {
            page.lines.push([0; LINE]);
            *slot = page.lines.len() as u8;
        }
        &mut page.lines[*slot as usize - 1]
    }

    /// Reads `N` bytes at `addr`: one indexed copy when they lie in one
    /// line, inlined into the caller; byte by byte (each of which does),
    /// out of line, across a boundary.
    #[inline(always)]
    fn load<const N: usize>(&self, addr: u64) -> [u8; N] {
        let off = self.off(addr, N);
        let at = off & (LINE - 1);
        if at + N > LINE {
            return self.load_straddling(addr);
        }
        let mut out = [0; N];
        if let Some(line) = self.line(off) {
            out.copy_from_slice(&line[at..at + N]);
        }
        out
    }

    #[cold]
    #[inline(never)]
    fn load_straddling<const N: usize>(&self, addr: u64) -> [u8; N] {
        std::array::from_fn(|i| self.load::<1>(addr + i as u64)[0])
    }

    /// Writes `N` bytes at `addr`, the same two ways.
    #[inline]
    fn store<const N: usize>(&mut self, addr: u64, data: [u8; N]) {
        let off = self.off(addr, N);
        let at = off & (LINE - 1);
        if at + N > LINE {
            for (i, byte) in data.into_iter().enumerate() {
                self.store(addr + i as u64, [byte]);
            }
        } else {
            self.line_mut(off)[at..at + N].copy_from_slice(&data);
        }
    }

    /// Reads an `i8`.
    #[inline]
    pub fn read_i8(&self, addr: u64) -> i8 {
        i8::from_le_bytes(self.load(addr))
    }

    /// Reads an `i16`.
    #[inline]
    fn read_i16(&self, addr: u64) -> i16 {
        i16::from_le_bytes(self.load(addr))
    }

    /// Reads an `i32`.
    #[inline]
    pub(crate) fn read_i32(&self, addr: u64) -> i32 {
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
    fn read_f64(&self, addr: u64) -> f64 {
        f64::from_le_bytes(self.load(addr))
    }

    /// Writes an `i8`.
    #[inline]
    fn write_i8(&mut self, addr: u64, v: i8) {
        self.store(addr, v.to_le_bytes());
    }

    /// Writes an `i16`.
    #[inline]
    fn write_i16(&mut self, addr: u64, v: i16) {
        self.store(addr, v.to_le_bytes());
    }

    /// Writes an `i32`.
    #[inline]
    pub(crate) fn write_i32(&mut self, addr: u64, v: i32) {
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
    pub(crate) fn write_f64(&mut self, addr: u64, v: f64) {
        self.store(addr, v.to_le_bytes());
    }

    /// Reads a typed scalar as a runtime value.
    #[inline(always)]
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

    /// Writes `data` from `addr` on, `N` bytes an element: a line looked up
    /// once for the elements in it, `store` for one that straddles two.
    fn fill<T: Copy, const N: usize>(&mut self, addr: u64, data: &[T], le: fn(T) -> [u8; N]) {
        let (base, mut i) = (self.off(addr, N * data.len()), 0);
        while let Some(&v) = data.get(i) {
            let at = (base + N * i) % LINE;
            let fit = ((LINE - at) / N).clamp(1, data.len() - i);
            if at + N > LINE {
                self.store(addr + (N * i) as u64, le(v));
            } else {
                let line = self.line_mut(base + N * i)[at..].chunks_exact_mut(N);
                line.zip(&data[i..i + fit])
                    .for_each(|(to, &v)| to.copy_from_slice(&le(v)));
            }
            i += fit;
        }
    }

    /// Fills an `f32` array from a slice.
    pub fn fill_f32(&mut self, addr: u64, data: &[f32]) {
        self.fill(addr, data, f32::to_le_bytes);
    }

    /// Fills an `i32` array from a slice.
    pub fn fill_i32(&mut self, addr: u64, data: &[i32]) {
        self.fill(addr, data, i32::to_le_bytes);
    }

    /// Fills an `i64` array from a slice.
    pub fn fill_i64(&mut self, addr: u64, data: &[i64]) {
        self.fill(addr, data, i64::to_le_bytes);
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
    pub(crate) fn as_float(self) -> f64 {
        match self {
            RtVal::Float(v) => v,
            RtVal::Int(v) => panic!("expected float, found int {v}"),
        }
    }

    /// The value as a boolean (nonzero integer).
    #[inline]
    pub(crate) fn as_bool(self) -> bool {
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

    #[test]
    #[should_panic(expected = "allocation overflows the address space")]
    fn alloc_panics_when_the_alignment_padding_overflows() {
        let mut m = MemImage::new();
        m.alloc(u64::MAX - 2 * BASE_ADDR, 1);
        m.alloc(1, 2 * BASE_ADDR);
    }

    #[test]
    #[should_panic(expected = "allocation overflows the address space")]
    fn alloc_panics_when_the_size_overflows() {
        let mut m = MemImage::new();
        let addr = m.alloc(8, 8);
        m.alloc(u64::MAX - addr - 7, 1);
    }

    #[test]
    fn a_huge_allocation_costs_the_pages_written() {
        let mut m = MemImage::new();
        let base = m.alloc(1 << 40, 64);
        m.write_i64(base + 3 * PAGE as u64 - 4, -1);
        assert_eq!(m.read_i64((1 << 40) + base - 8), 0);
        assert_eq!(m.read_i32(base + 3 * PAGE as u64), -1);
        assert_eq!(m.pages.len(), 4, "the table ends at the last page written");
        assert_eq!(m.allocated_bytes(), 1 << 40);
    }

    const PAGE: usize = 1 << PAGE_SHIFT;

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

    /// The bytes at offsets `at` from the base, read one at a time.
    fn bytes_in(m: &MemImage, at: std::ops::Range<usize>) -> Vec<u8> {
        at.map(|o| m.read_i8(BASE_ADDR + o as u64) as u8).collect()
    }

    /// Every allocated byte, read one at a time.
    fn bytes_of(m: &MemImage) -> Vec<u8> {
        bytes_in(m, 0..m.allocated_bytes() as usize)
    }

    /// Every allocated byte, read a word at a time and the tail byte by
    /// byte: the whole-image comparison of a multi-MiB run.
    fn words_of(m: &MemImage) -> Vec<u8> {
        let len = m.allocated_bytes() as usize;
        let words = m.read_i64_slice(BASE_ADDR, len / 8);
        let mut out: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        out.extend(bytes_in(m, len / 8 * 8..len));
        out
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

    /// Writes `n` elements drawn from `rng` from `addr` on through the
    /// `fill_*` of `width` (4 or 8 bytes; `float` picks `f32` over `i32`),
    /// into the image and into the model. Returns the bytes written.
    fn fill_both(
        m: &mut MemImage,
        model: &mut [u8],
        addr: u64,
        (width, float, n): (usize, bool, usize),
        rng: &mut SplitMix64,
    ) -> usize {
        // NaN payloads do not survive a round trip through a float.
        let raw: Vec<u64> = (0..n).map(|_| rng.next() & 0x7fef_ffff_7f7f_ffff).collect();
        match (width, float) {
            (8, _) => m.fill_i64(addr, &raw.iter().map(|&r| r as i64).collect::<Vec<_>>()),
            (_, false) => m.fill_i32(addr, &raw.iter().map(|&r| r as i32).collect::<Vec<_>>()),
            _ => m.fill_f32(
                addr,
                &raw.iter()
                    .map(|&r| f32::from_bits(r as u32))
                    .collect::<Vec<_>>(),
            ),
        }
        let at = (addr - BASE_ADDR) as usize;
        let bytes = raw.iter().flat_map(|r| r.to_le_bytes()[..width].to_vec());
        model[at..at + width * n]
            .iter_mut()
            .zip(bytes)
            .for_each(|(to, b)| *to = b);
        width * n
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

    /// The page table against a flat `Vec<u8>` over a multi-MiB extent:
    /// interleaved allocations of a few bytes to half a MiB, dense runs
    /// (`fill_*` of up to some 10 KiB at unaligned addresses) mixed with
    /// scattered single words of every width, and up to two live clones,
    /// each written — like the original — after its pages were shared.
    /// Around every write, every image is compared with its model (a write
    /// reaches no other image); every image whole every 200 steps.
    #[test]
    fn matches_a_flat_model_after_every_operation() {
        let mut rng = SplitMix64(0x6d65_6d69_6d67);
        // Image 0 is the original; the others are clones of it, each with
        // the model it had when it was taken.
        let mut images = vec![(MemImage::new(), Vec::new())];
        for step in 0..1500 {
            if step % 200 == 0 {
                for (k, (m, model)) in images.iter().enumerate() {
                    assert!(words_of(m) == *model, "image {k} whole before step {step}");
                }
            }
            let width = 1usize << rng.below(4);
            let float = rng.below(2) == 1;
            let raw = rng.next() & 0x7fef_ffff_7f7f_ffff;
            let pick = rng.below(images.len() as u64) as usize;
            let len = images[pick].1.len();
            let anywhere = |rng: &mut SplitMix64, room: usize| rng.below((len - room) as u64);
            let touched = match rng.below(if images[0].1.len() < 64 << 10 { 1 } else { 10 }) {
                0 if step < 1000 && images[0].1.len() < 6 << 20 => {
                    let (m, model) = &mut images[0];
                    let most = if rng.below(4) == 0 { 512 << 10 } else { 700 };
                    let size = rng.below(most);
                    let align = 1 << rng.below(13);
                    let addr = m.alloc(size, align);
                    assert_eq!(addr % align, 0);
                    assert_eq!(addr + size, BASE_ADDR + m.allocated_bytes());
                    assert!(addr - BASE_ADDR >= model.len() as u64);
                    model.resize(m.allocated_bytes() as usize, 0);
                    continue;
                }
                1 => {
                    // A clone is written, the original is not; then the
                    // other way round, at the next byte.
                    if images.len() == 3 {
                        images.remove(1);
                    }
                    images.push(images[0].clone());
                    let at = rng.below(images[0].1.len() as u64 - 16);
                    let (copy, copy_model) = images.last_mut().expect("pushed");
                    write_both(copy, copy_model, BASE_ADDR + at, width, float, raw);
                    let (m, model) = &mut images[0];
                    write_both(m, model, BASE_ADDR + at + 1, width, float, raw >> 1);
                    at as usize..at as usize + 9
                }
                2 | 3 => {
                    let (width, n) = (4 << rng.below(2), 1 + rng.below(1200) as usize);
                    let n = n.min((len - 16) / width);
                    let at = anywhere(&mut rng, width * n);
                    let (m, model) = &mut images[pick];
                    let wrote = fill_both(m, model, BASE_ADDR + at, (width, float, n), &mut rng);
                    at as usize..at as usize + wrote
                }
                4..=6 => {
                    let at = anywhere(&mut rng, 8);
                    let (m, model) = &mut images[pick];
                    write_both(m, model, BASE_ADDR + at, width, float, raw);
                    at as usize..at as usize + width
                }
                _ => {
                    let at = anywhere(&mut rng, 8) as usize;
                    let (m, model) = &images[pick];
                    let mut want = [0; 8];
                    want[..width].copy_from_slice(&model[at..at + width]);
                    let got = read_raw(m, BASE_ADDR + at as u64, width, float);
                    assert_eq!(got, u64::from_le_bytes(want), "width {width} at {at}");
                    continue;
                }
            };
            for (k, (m, model)) in images.iter().enumerate() {
                let end = (touched.end + 2 * LINE).min(model.len());
                let around = touched.start.saturating_sub(2 * LINE).min(end)..end;
                let want = &model[around.clone()];
                assert!(bytes_in(m, around) == want, "image {k} after step {step}");
            }
        }
        for (m, model) in &images {
            assert!(words_of(m) == *model);
        }
        let lines: Vec<usize> = images[0]
            .0
            .pages
            .iter()
            .flatten()
            .map(|p| p.lines.len())
            .collect();
        assert!(images[0].1.len() > 2 << 20, "the run spans megabytes");
        assert!(lines.len() > 64, "the run wrote {} pages", lines.len());
        assert!(lines.contains(&LINES), "some page has every line written");
        assert!(
            lines.iter().any(|&n| n < 4),
            "some page has a few lines written"
        );
    }

    #[test]
    fn every_offset_across_a_line_and_a_page_boundary_round_trips() {
        let mut m = MemImage::new();
        let base = m.alloc(3 * PAGE as u64, 1);
        let mut model = vec![0; 3 * PAGE];
        // A line boundary inside a page, then the boundary between pages.
        for boundary in [PAGE + LINE, 2 * PAGE] {
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
                    let addr = base + boundary as u64 + 1 - back;
                    let raw = 0x0102_0304_0506_0708 * (back + 1);
                    write_both(&mut m, &mut model, addr, width, float, raw);
                    let mask = u64::MAX >> (64 - 8 * width);
                    assert_eq!(
                        read_raw(&m, addr, width, float),
                        raw & mask,
                        "{width} at {boundary} - {back}"
                    );
                    assert_eq!(bytes_of(&m), model);
                }
            }
        }
        let written = |p: usize| m.pages[p].as_ref().map_or(0, |p| p.lines.len());
        assert_eq!((written(0), written(1), written(2)), (0, 3, 1));
    }

    #[test]
    fn slice_helpers_span_pages_and_unwritten_ranges_read_zero() {
        let mut m = MemImage::new();
        let n = 3 * PAGE / 4 + 5;
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
        // Every element straddles a line now and then: 3 bytes off.
        m.fill_i64(longs + 3, &wide[..n - 1]);
        let shifted: Vec<i64> = (0..n - 1)
            .map(|i| m.read_i64(longs + 3 + 8 * i as u64))
            .collect();
        assert_eq!(shifted, wide[..n - 1]);
    }

    #[test]
    fn out_of_bounds_starts_exactly_at_the_allocated_extent() {
        let mut m = MemImage::new();
        m.alloc(3, 1);
        let end = m.alloc(PAGE as u64 + 1, 2) + PAGE as u64 + 1;
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
