//! Property tests for the backward pass's accumulation-order contract
//! (DESIGN.md §9).
//!
//! [`Tape::backward`] is one descending-id walk whose adjoint products run
//! on the pooled kernels. Its gradients must be *bit-identical* to the same
//! call under [`stuq_parallel::with_serial`], on any tape and any thread
//! count — the contract the CI determinism gate enforces by re-running this
//! suite at `STUQ_THREADS=1,2,4`. The tests here are hand-rolled proptest
//! loops in the style of the kernel suite: a seeded generator builds
//! randomized DAG tapes (fan-out, fan-in, shared parameter slots,
//! matmul/matmul_tb grads) and every gradient is compared bit for bit.

use stuq_tensor::{GradStore, NodeId, StuqRng, Tape, Tensor};

fn randt(rng: &mut StuqRng, shape: &[usize]) -> Tensor {
    let len = shape.iter().product();
    Tensor::from_vec((0..len).map(|_| rng.normal_f32()).collect(), shape)
}

/// Asserts two gradient stores hold the same slots with bitwise-equal data.
fn assert_bit_identical(a: &GradStore, b: &GradStore, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: slot count differs");
    for (slot, ga) in a.iter() {
        let gb = b.get(slot).unwrap_or_else(|| panic!("{what}: slot {slot} missing"));
        assert_eq!(ga.shape(), gb.shape(), "{what}: slot {slot} shape differs");
        for (i, (x, y)) in ga.data().iter().zip(gb.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: slot {slot} elem {i}: {x} vs {y}");
        }
    }
}

/// Asserts the pooled backward equals the same call on a serial pool.
fn assert_pooled_matches_serial(tape: &Tape, loss: NodeId, what: &str) -> GradStore {
    let pooled = tape.backward(loss);
    let serial = stuq_parallel::with_serial(|| tape.backward(loss));
    assert_bit_identical(&pooled, &serial, what);
    pooled
}

/// Builds a random DAG tape of same-shaped nodes: a few parameters (with one
/// slot deliberately registered twice — shared weights), then a mix of unary
/// and binary ops whose operands are drawn from *all* earlier nodes, which
/// produces both fan-out (one node consumed many times) and fan-in. Returns
/// the tape and a scalar loss node.
///
/// Structure (op choices, operand wiring) is drawn from `srng`; tensor
/// *values* from `vrng`.
fn random_dag(
    srng: &mut StuqRng,
    vrng: &mut StuqRng,
    n_ops: usize,
    r: usize,
    c: usize,
) -> (Tape, usize) {
    let mut tape = Tape::new();
    let mut pool = Vec::new();
    let n_params = 2 + srng.uniform_usize(4);
    for slot in 0..n_params {
        pool.push(tape.param(slot, randt(vrng, &[r, c])));
    }
    // Shared slot: the same parameter slot mounted at a second tape node.
    pool.push(tape.param(0, randt(vrng, &[r, c])));
    pool.push(tape.constant(randt(vrng, &[r, c])));

    for _ in 0..n_ops {
        let a = pool[srng.uniform_usize(pool.len())];
        let b = pool[srng.uniform_usize(pool.len())];
        let node = match srng.uniform_usize(8) {
            0 => tape.add(a, b),
            1 => tape.sub(a, b),
            2 => tape.mul(a, b),
            3 => tape.tanh(a),
            4 => tape.sigmoid(a),
            5 => tape.relu(a),
            6 => tape.scale(a, 0.5),
            _ => tape.max_elem(a, b),
        };
        pool.push(node);
    }
    // Fold the last few nodes together so several branches feed the loss.
    let mut acc = *pool.last().unwrap();
    for _ in 0..3 {
        let other = pool[srng.uniform_usize(pool.len())];
        acc = tape.add(acc, other);
    }
    let loss = tape.mean_all(acc);
    (tape, loss)
}

/// Property: the pooled walk matches the serial pool bit-for-bit on
/// randomized elementwise DAGs of many shapes and sizes.
#[test]
fn random_dags_levels_match_serial_bitwise() {
    let mut rng = StuqRng::new(0x9E7E1);
    let mut vrng = StuqRng::new(0x9E7E2);
    for case in 0..40 {
        let r = 1 + rng.uniform_usize(6);
        let c = 1 + rng.uniform_usize(6);
        let n_ops = 4 + rng.uniform_usize(60);
        let (tape, loss) = random_dag(&mut rng, &mut vrng, n_ops, r, c);
        assert_pooled_matches_serial(&tape, loss, &format!("case {case}"));
    }
}

/// Property: replaying the backward pass batch to batch — the same DAG
/// structure rebuilt with fresh values, as the trainer does each step — keeps
/// the pooled walk bit-identical to the serial pool, and a second backward
/// over the same tape reproduces the first bit for bit.
#[test]
fn replay_matches_serial_bitwise_on_random_dags() {
    let mut meta = StuqRng::new(0x5E7A1);
    for case in 0u64..25 {
        let r = 1 + meta.uniform_usize(6);
        let c = 1 + meta.uniform_usize(6);
        let n_ops = 4 + meta.uniform_usize(60);
        let sseed = meta.next_u64();

        let (tape_a, loss_a) =
            random_dag(&mut StuqRng::new(sseed), &mut StuqRng::new(0xA + case), n_ops, r, c);
        assert_pooled_matches_serial(&tape_a, loss_a, &format!("case {case} first"));

        // Same structure stream, different value stream.
        let (tape_b, loss_b) =
            random_dag(&mut StuqRng::new(sseed), &mut StuqRng::new(0xB00 + case), n_ops, r, c);
        assert_eq!(tape_a.len(), tape_b.len(), "case {case}: same structure, same length");
        let warm = assert_pooled_matches_serial(&tape_b, loss_b, &format!("case {case} replay"));

        // A second backward on the same tape must not change a bit.
        let again = tape_b.backward(loss_b);
        assert_bit_identical(&warm, &again, &format!("case {case} rerun"));
    }
}

/// A handcrafted diamond with heavy fan-out: one shared parameter feeds
/// three branches that later fan back in, plus the same slot mounted twice.
/// Exercises the multi-consumer accumulation order explicitly.
#[test]
fn diamond_fanout_shared_params_bitwise() {
    let mut rng = StuqRng::new(0xD1A);
    let mut tape = Tape::new();
    let w = tape.param(0, randt(&mut rng, &[5, 5]));
    let w_again = tape.param(0, randt(&mut rng, &[5, 5]));
    let u = tape.param(1, randt(&mut rng, &[5, 5]));
    // Three branches off the same node (fan-out of w = 4, counting reuse).
    let b1 = tape.tanh(w);
    let b2 = tape.mul(w, u);
    let b3 = tape.sigmoid(w);
    let sq = tape.square(w_again); // same node consumed twice by one op

    // Fan back in.
    let m1 = tape.add(b1, b2);
    let m2 = tape.add(b3, sq);
    let top = tape.mul(m1, m2);
    let loss = tape.sum_all(top);
    let grads = assert_pooled_matches_serial(&tape, loss, "diamond");
    assert_eq!(grads.len(), 2, "two parameter slots");
}

/// Property: matmul / matmul_tb adjoints, which run the tiled,
/// row-parallel kernels, are bit-identical on the pool and on a serial
/// pool, at sizes where the kernels fan out.
#[test]
fn matmul_grads_match_across_engines_bitwise() {
    let mut rng = StuqRng::new(0x3A7B);
    for case in 0..6 {
        let n = 24 + 8 * rng.uniform_usize(4);
        let mut tape = Tape::new();
        let a = tape.param(0, randt(&mut rng, &[n, n]));
        let b = tape.param(1, randt(&mut rng, &[n, n]));
        let c = tape.param(2, randt(&mut rng, &[n, n]));
        // Two independent matmul branches plus a matmul_tb branch, padded
        // with elementwise ops.
        let mut p = tape.matmul(a, b);
        let mut q = tape.matmul_tb(b, c);
        let mut s = tape.tanh(a);
        for _ in 0..10 {
            p = tape.scale(p, 0.9);
            q = tape.tanh(q);
            s = tape.mul(s, s);
        }
        let pq = tape.add(p, q);
        let top = tape.add(pq, s);
        let loss = tape.mean_all(top);
        assert_pooled_matches_serial(&tape, loss, &format!("matmul case {case}"));
    }
}

/// Chains of single-consumer unary ops (the GRU gate idiom `1 - z`,
/// stacked activations, dropout) ending in a `Param`, in a multi-consumer
/// node and in a matmul: bit-identical on the pool and on a serial pool.
#[test]
fn fused_chain_gradients_match_serial_bitwise() {
    let mut rng = StuqRng::new(0xF05E);
    let mut tape = Tape::new();
    let w = tape.param(0, randt(&mut rng, &[6, 6]));
    let u = tape.param(1, randt(&mut rng, &[6, 6]));
    let x = tape.constant(randt(&mut rng, &[6, 6]));

    // Chain ending in a Param: sigmoid → one_minus (neg + add_scalar) → scale.
    let s = tape.sigmoid(u);
    let om = tape.one_minus(s);
    let g1 = tape.scale(om, 0.5);

    // Chain ending in a multi-consumer node: w feeds two branches, one of
    // which is a tanh → dropout → neg stack.
    let t = tape.tanh(w);
    let mut drng = StuqRng::new(7);
    let d = tape.dropout(t, 0.25, &mut drng);
    let n = tape.neg(d);
    let other = tape.mul(w, x); // second consumer of w

    // Chain ending in a single-consumer matmul.
    let mm = tape.matmul(w, u);
    let act = tape.relu(mm);
    let cl = tape.clamp(act, -2.0, 2.0);
    let e = tape.exp(cl);

    let mut acc = tape.add(g1, n);
    acc = tape.add(acc, other);
    acc = tape.add(acc, e);
    for i in 0..40 {
        acc = if i % 2 == 0 { tape.tanh(acc) } else { tape.scale(acc, 1.01) };
    }
    let loss = tape.mean_all(acc);
    assert_pooled_matches_serial(&tape, loss, "unary chains");
}
