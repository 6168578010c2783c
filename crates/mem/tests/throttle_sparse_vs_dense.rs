//! Guards the fast-forward equivalence invariant of [`SimpleDram`]'s
//! bandwidth-throttle accounting: stepping the model *sparsely* — only at
//! the cycles `next_event_cycle` names, as the event-horizon scheduler
//! does — must produce the same completions **and** the same
//! `throttled_cycles` as stepping it on every cycle. The interesting case
//! is a throttle window no sparse step ever lands inside: request B below
//! is ready at cycle 30 but the 1-transfer/epoch cap holds it until cycle
//! 100, and the sparse schedule jumps straight from 20 to 100. The dense
//! stepper observes cycles 30..100 as throttled one by one; the sparse
//! stepper must credit the same 70 cycles analytically from queue + epoch
//! state, or bandwidth-bound kernel reports (paper §VI-A, SPMV) would
//! change with the fast-forward setting.
//!
//! Promoted from a PR 1 review repro (`tmp_throttle_repro.rs`), which
//! caught exactly this divergence.

use mosaic_mem::{SimpleDram, SimpleDramConfig};

/// How many requests a step at `t` completes.
fn step(d: &mut SimpleDram, t: u64) -> usize {
    let mut done = Vec::new();
    d.step(t, &mut done);
    done.len()
}

fn config() -> SimpleDramConfig {
    SimpleDramConfig {
        min_latency: 10,
        epoch_cycles: 100,
        max_per_epoch: 1,
    }
}

#[test]
fn sparse_vs_dense_throttle_accounting() {
    // Dense (naive): step every cycle.
    let mut dense = SimpleDram::new(config());
    let mut dense_done = 0;
    let mut sparse = SimpleDram::new(config());
    let mut sparse_done = 0;

    // Request A at 0 (ready 10), request B at 20 (ready 30), cap 1/epoch.
    let id_a = mosaic_mem::ReqId(1);
    let id_b = mosaic_mem::ReqId(2);

    dense.try_enqueue(id_a, 0, 0);
    sparse.try_enqueue(id_a, 0, 0);
    for t in 0..=120u64 {
        if t == 20 {
            dense.try_enqueue(id_b, 0, 20);
        }
        dense_done += step(&mut dense, t);
    }

    // Sparse: step only at cycles the scheduler would execute:
    // t=0 (enqueue), t=10 (completion), t=20 (enqueue of B), then jump
    // to next_event_cycle.
    for t in [0u64, 10, 20] {
        if t == 20 {
            sparse.try_enqueue(id_b, 0, 20);
        }
        sparse_done += step(&mut sparse, t);
    }
    let next = sparse.next_event_cycle(21).expect("queue non-empty");
    sparse_done += step(&mut sparse, next);
    // drain remaining cycles up to 120 the same sparse way
    let mut t = next;
    while let Some(n) = sparse.next_event_cycle(t + 1) {
        t = n;
        sparse_done += step(&mut sparse, t);
        if t > 120 {
            break;
        }
    }

    assert_eq!(dense_done, sparse_done, "completions diverge");
    assert_eq!(
        dense.throttled_cycles(),
        sparse.throttled_cycles(),
        "throttle accounting diverges: dense={} sparse={}",
        dense.throttled_cycles(),
        sparse.throttled_cycles()
    );
}
