//! Pins the zero-allocation guarantee of the row-batched forward: once
//! the scratch is warm and every session's KV cache is pre-reserved, a
//! steady-state `TransformerModel::forward_batch` over several sessions —
//! decode rows plus a prefill chunk, logits requested for some rows —
//! performs **zero** heap allocations.
//!
//! This file must stay a single-test binary: the counting `#[global_allocator]`
//! is process-wide, and a concurrently running sibling test would perturb
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use veda_model::{BatchRow, ForwardScratch, ModelConfig, SequenceState, TransformerModel};

/// Counts every allocation and reallocation passed to the system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Sessions in the batch; session 0 also carries a prefill chunk.
const SESSIONS: usize = 4;
/// Rows of session 0's chunk each tick.
const CHUNK: usize = 3;

/// One tick: a chunk of [`CHUNK`] rows for session 0 (logits on its
/// last row only), one decode row for every other session, then each
/// cache evicted back down to `budget`, keeping the sink. Returns the
/// number of scores observed.
fn tick(
    model: &TransformerModel,
    t: usize,
    budget: usize,
    rows: &mut Vec<BatchRow>,
    states: &mut [SequenceState],
    scratch: &mut ForwardScratch,
) -> usize {
    let vocab = model.config().vocab_size;
    rows.clear();
    for (seq, state) in states.iter().enumerate() {
        let next = state.caches()[0].positions().last().map_or(0, |&p| p + 1);
        let n = if seq == 0 { CHUNK } else { 1 };
        for i in 0..n {
            let token = (t * 7 + seq * 5 + i + 1) % vocab;
            rows.push(BatchRow { seq, token, position: next + i, wants_logits: i + 1 == n });
        }
    }
    let mut observed = 0;
    model.forward_batch(states, rows, scratch, |_, _, _, scores| observed += scores.len());
    for state in states.iter_mut() {
        for layer in 0..state.n_layers() {
            let extra = state.caches()[layer].len().saturating_sub(budget);
            let victims: [usize; CHUNK] = [1, 2, 3];
            state.evict_many(layer, &victims[..extra]);
        }
    }
    observed
}

#[test]
fn steady_state_forward_batch_performs_zero_heap_allocations() {
    let cfg = ModelConfig::tiny();
    let model = TransformerModel::new(cfg.clone());
    let budget = 8usize;
    let mut states: Vec<SequenceState> = (0..SESSIONS)
        .map(|_| {
            let mut state = model.new_state();
            // Room for the cap plus one tick's overshoot before eviction.
            state.reserve(budget + CHUNK, cfg.d_model);
            state
        })
        .collect();
    let mut scratch = model.new_scratch(budget + CHUNK);
    let mut rows: Vec<BatchRow> = Vec::with_capacity(SESSIONS + CHUNK);

    // Warm-up: fill every cache to the budget and let every scratch
    // buffer reach its working capacity.
    for t in 0..budget + 4 {
        tick(&model, t, budget, &mut rows, &mut states, &mut scratch);
    }

    // Steady state: batched forward must not touch the allocator at all.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut observed = 0;
    for t in 0..64 {
        observed += tick(&model, budget + 4 + t, budget, &mut rows, &mut states, &mut scratch);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state forward_batch allocated {} time(s) over 64 ticks",
        after - before
    );
    assert!(observed > 0);
    assert!(scratch.row_logits(SESSIONS - 1).is_some(), "one logits row per session");
    assert!(scratch.row_logits(SESSIONS).is_none(), "no logits for the chunk's leading rows");
}
