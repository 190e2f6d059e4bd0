//! `forward_batch` is bit-identical to sequential one-row calls.
//!
//! Random mixes of sessions — each with its own history and evictions —
//! feed one batch of decode rows and prefill chunks with random
//! `wants_logits` flags, the sessions' rows interleaved in a random
//! order. Running the same rows one at a time through
//! `forward_with_scratch` on clones of the states must give the same
//! requested logits, the same per-layer scores (observed per layer in
//! position order), and the same KV rows and positions.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veda_model::{BatchRow, ModelConfig, SequenceState, TransformerModel, MAX_PASS_ROWS};

/// Builds a session with `len` tokens of history, then evicts a few
/// slots per layer (diverging between layers).
fn session(model: &TransformerModel, rng: &mut StdRng, len: usize) -> SequenceState {
    let vocab = model.config().vocab_size;
    let mut state = model.new_state();
    for pos in 0..len {
        model.forward_in(&mut state, rng.gen_range(0..vocab), pos);
    }
    for layer in 0..state.n_layers() {
        let victims: Vec<usize> =
            (1..state.caches()[layer].len()).filter(|_| rng.gen_range(0usize..4) == 0).collect();
        state.evict_many(layer, &victims);
    }
    state
}

/// Random rows: per session, nothing, one decode row or a prefill chunk,
/// interleaved across sessions with each session's rows in order.
fn rows(rng: &mut StdRng, states: &[SequenceState], vocab: usize, max_chunk: usize) -> Vec<BatchRow> {
    let mut queues: Vec<Vec<BatchRow>> = states
        .iter()
        .enumerate()
        .map(|(seq, state)| {
            let next = state.caches()[0].positions().last().map_or(0, |&p| p + 1);
            let n = match rng.gen_range(0usize..3) {
                0 => 0,
                1 => 1,
                _ => rng.gen_range(1..max_chunk + 1),
            };
            (0..n)
                .map(|i| BatchRow {
                    seq,
                    token: rng.gen_range(0..vocab),
                    position: next + i,
                    wants_logits: rng.gen_range(0usize..2) == 0,
                })
                .rev()
                .collect()
        })
        .collect();
    let mut out = Vec::new();
    while queues.iter().any(|q| !q.is_empty()) {
        let pick = rng.gen_range(0..queues.len());
        if let Some(row) = queues[pick].pop() {
            out.push(row);
        }
    }
    out
}

fn check_case(cfg: ModelConfig, seed: u64, max_sessions: usize, max_chunk: usize) {
    let model = TransformerModel::new(cfg.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let n_sessions = rng.gen_range(1..max_sessions + 1);
    let mut states: Vec<SequenceState> = (0..n_sessions)
        .map(|_| {
            let len = rng.gen_range(0..10);
            session(&model, &mut rng, len)
        })
        .collect();
    let mut reference = states.clone();
    let mut scratch = model.new_scratch(8);

    for _round in 0..2 {
        let rows = rows(&mut rng, &states, cfg.vocab_size, max_chunk);
        let mut observed: Vec<(usize, usize, usize, Vec<f32>)> = Vec::new();
        model.forward_batch(&mut states, &rows, &mut scratch, |_, row, layer, scores| {
            observed.push((row.seq, row.position, layer, scores.as_flat().to_vec()));
        });
        let batch_logits: Vec<Vec<f32>> =
            (0..rows.len()).map_while(|i| scratch.row_logits(i).map(<[f32]>::to_vec)).collect();

        let mut one = model.new_scratch(8);
        let mut want_logits = Vec::new();
        let mut want_scores = Vec::new();
        for row in &rows {
            model.forward_with_scratch(&mut reference[row.seq], row.token, row.position, &mut one);
            if row.wants_logits {
                want_logits.push(one.logits().to_vec());
            }
            for layer in 0..cfg.n_layers {
                want_scores.push((
                    row.seq,
                    row.position,
                    layer,
                    one.scores().layer(layer).as_flat().to_vec(),
                ));
            }
        }
        assert_eq!(batch_logits, want_logits, "requested logits diverged (seed {seed})");
        // Layer-major observation order: per (sequence, layer), rows
        // arrive in position order with the sequential scores.
        for seq in 0..n_sessions {
            for layer in 0..cfg.n_layers {
                let pick = |v: &[(usize, usize, usize, Vec<f32>)]| -> Vec<(usize, Vec<f32>)> {
                    v.iter().filter(|o| o.0 == seq && o.2 == layer).map(|o| (o.1, o.3.clone())).collect()
                };
                assert_eq!(pick(&observed), pick(&want_scores), "scores diverged (seed {seed})");
            }
        }
        assert_eq!(observed.len(), want_scores.len());
        for (a, b) in states.iter().zip(&reference) {
            for (ca, cb) in a.caches().iter().zip(b.caches()) {
                assert_eq!(ca.keys(), cb.keys(), "key rows diverged (seed {seed})");
                assert_eq!(ca.values(), cb.values(), "value rows diverged (seed {seed})");
                assert_eq!(ca.positions(), cb.positions(), "positions diverged (seed {seed})");
            }
        }
        // Evict between rounds, identically on both sides.
        for (a, b) in states.iter_mut().zip(reference.iter_mut()) {
            for layer in 0..a.n_layers() {
                if a.caches()[layer].len() > 6 {
                    a.evict_many(layer, &[1, 3]);
                    b.evict_many(layer, &[1, 3]);
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn forward_batch_equals_sequential_one_row_calls(seed in 0u64..1_000_000_000) {
        check_case(ModelConfig::tiny(), seed, 5, 12);
    }
}

#[test]
fn forward_batch_spanning_several_passes_equals_sequential_calls() {
    // Chunks longer than one pass, on the small model's real widths.
    for seed in 0..3 {
        check_case(ModelConfig::tiny(), seed, 3, MAX_PASS_ROWS + 9);
    }
    let mut small = ModelConfig::small();
    small.n_layers = 2;
    check_case(small, 7, 4, 20);
}
