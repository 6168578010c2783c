//! The benchmark-owned seeded kernel: `y[idx[i]] += a * x[idx[i]]`.
//!
//! Every bundled Parboil kernel carries a fixed data seed, so this is the
//! one input the benchmark's `--seed` reaches. The simulator never sees
//! the seed — only the generated module and memory image. The index
//! stream is a random sample *without replacement* of `[0, elems)`
//! (a prefix of a SplitMix64 Fisher–Yates shuffle), so no two iterations
//! of a pass alias and the loads *and* the store of every iteration go
//! through the MAO with distinct addresses.
//!
//! The working set is a parameter because it is what decides which layer
//! does the work: 16 KiB of `x`+`y` stays in the 32 KiB L1 (compute-bound
//! replay), 64 MiB is more than three times the 20 MiB LLC (every access a
//! DRAM round trip).

use std::collections::HashMap;

use mosaicsim::ir::{
    verify_module, BinOp, CastKind, Constant, FunctionBuilder, MemImage, Module, RtVal, Type,
};
use mosaicsim::kernels::data::Rng;
use mosaicsim::kernels::Prepared;

/// Shape of one gather instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherShape {
    /// Bytes of `x` plus `y` (the randomly accessed working set).
    pub working_set_bytes: u64,
    /// Index-stream length: iterations per pass.
    pub accesses: u64,
    /// Passes over the index stream.
    pub passes: u64,
}

impl GatherShape {
    /// Elements in each of `x` and `y` (both `f32`).
    pub fn elems(&self) -> u64 {
        self.working_set_bytes / 8
    }
}

/// `n` distinct indices of `[0, elems)`: the first `n` outputs of a
/// Fisher–Yates shuffle, with the displaced entries kept in a sparse map
/// so a 64 MiB index space costs memory only for the `n` draws.
fn sample_indices(seed: u64, elems: u64, n: u64) -> Vec<i32> {
    assert!(n <= elems, "cannot draw {n} distinct indices from {elems}");
    assert!(
        elems <= i32::MAX as u64,
        "index space exceeds the i32 index type"
    );
    let mut rng = Rng::seed_from_u64(seed);
    let mut displaced: HashMap<u64, u64> = HashMap::new();
    (0..n)
        .map(|i| {
            let j = i + rng.below(elems - i);
            let at_j = displaced.get(&j).copied().unwrap_or(j);
            let at_i = displaced.get(&i).copied().unwrap_or(i);
            displaced.insert(j, at_i);
            at_j as i32
        })
        .collect()
}

/// Builds the gather kernel for `seed` and `shape`.
///
/// # Panics
///
/// Panics if `shape.accesses` exceeds the element count, or if the built
/// module fails verification (a bug in this file).
pub fn build(seed: u64, shape: GatherShape) -> Prepared {
    let elems = shape.elems();
    let idx = sample_indices(seed, elems, shape.accesses);

    let mut module = Module::new("gather");
    let f = module.add_function(
        "gather",
        vec![
            ("idx".into(), Type::Ptr),
            ("x".into(), Type::Ptr),
            ("y".into(), Type::Ptr),
            ("n".into(), Type::I64),
            ("passes".into(), Type::I64),
        ],
        Type::Void,
    );
    let mut b = FunctionBuilder::new(module.function_mut(f));
    let (idx_p, x_p, y_p) = (b.param(0), b.param(1), b.param(2));
    let (n_op, passes_op) = (b.param(3), b.param(4));
    let entry = b.create_block("entry");
    b.switch_to(entry);
    b.emit_counted_loop("pass", Constant::i64(0).into(), passes_op, |b, _| {
        b.emit_counted_loop("i", Constant::i64(0).into(), n_op, |b, i| {
            let ia = b.gep(idx_p, i, 4);
            let j32 = b.load(Type::I32, ia);
            let j = b.cast(CastKind::IntResize, j32, Type::I64);
            let xa = b.gep(x_p, j, 4);
            let xv = b.load(Type::F32, xa);
            let ya = b.gep(y_p, j, 4);
            let yv = b.load(Type::F32, ya);
            let ax = b.bin(BinOp::FMul, xv, Constant::f32(0.5).into());
            let sum = b.bin(BinOp::FAdd, yv, ax);
            b.store(ya, sum);
        });
    });
    b.ret(None);
    verify_module(&module).expect("gather verifies");

    let mut mem = MemImage::new();
    let idx_buf = mem.alloc_i32(shape.accesses);
    let x_buf = mem.alloc_f32(elems);
    let y_buf = mem.alloc_f32(elems);
    mem.fill_i32(idx_buf, &idx);
    // Only the sampled elements are ever read; seeding just those keeps a
    // 64 MiB instance from paying a 32 MiB fill.
    let mut values = Rng::seed_from_u64(seed ^ 0x7861_7976); // "xayv"
    for &j in &idx {
        mem.write_f32(x_buf + 4 * j as u64, values.next_f32());
    }

    Prepared {
        name: "gather".to_string(),
        module,
        func: f,
        args: vec![
            RtVal::Int(idx_buf as i64),
            RtVal::Int(x_buf as i64),
            RtVal::Int(y_buf as i64),
            RtVal::Int(shape.accesses as i64),
            RtVal::Int(shape.passes as i64),
        ],
        mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaicsim::lint::{lint_system, LintLevel, TileBinding};

    const SMALL: GatherShape = GatherShape {
        working_set_bytes: 16 * 1024,
        accesses: 2048,
        passes: 2,
    };

    #[test]
    fn indices_are_a_seeded_permutation() {
        let a = sample_indices(1, 2048, 2048);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..2048).collect::<Vec<i32>>());
        assert_eq!(a, sample_indices(1, 2048, 2048), "same seed, same stream");
        assert_ne!(a, sample_indices(2, 2048, 2048), "seed must matter");
        // A sparse draw from a large space is still duplicate-free.
        let mut sparse = sample_indices(7, 8 << 20, 4096);
        sparse.sort_unstable();
        sparse.dedup();
        assert_eq!(sparse.len(), 4096);
    }

    #[test]
    fn kernel_computes_the_gather_update() {
        let p = build(3, SMALL);
        let (trace, out) = p.trace(1).expect("gather executes");
        let (idx_buf, x_buf, y_buf) = (
            p.args[0].as_int() as u64,
            p.args[1].as_int() as u64,
            p.args[2].as_int() as u64,
        );
        for &j in &p.mem.read_i32_slice(idx_buf, SMALL.accesses as usize) {
            let x = p.mem.read_f32(x_buf + 4 * j as u64);
            let want = (0..SMALL.passes).fold(0f32, |y, _| y + x * 0.5);
            let got = out.mem.read_f32(y_buf + 4 * j as u64);
            assert_eq!(got, want, "y[{j}]");
        }
        // Two loads of x/y, one of idx, one store per iteration.
        assert_eq!(
            trace.tile(0).mem_access_count(),
            4 * SMALL.accesses * SMALL.passes
        );
    }

    #[test]
    fn trace_size_does_not_depend_on_the_seed() {
        let bytes = |seed| {
            let (trace, _) = build(seed, SMALL).trace(1).expect("trace");
            let mut buf = Vec::new();
            trace.write_to(&mut buf).expect("in-memory write");
            (buf.len(), trace.total_retired())
        };
        assert_eq!(bytes(1), bytes(99));
    }

    #[test]
    fn passes_lint_at_deny() {
        let p = build(1, SMALL);
        let nparams = p.module.function(p.func).params().len();
        let report = lint_system(
            &p.module,
            &[TileBinding::new(p.func, 0, vec![None; nparams])],
        );
        assert!(!report.fails(LintLevel::Deny), "{report}");
    }
}
