//! Property tests for the backward pass's accumulation-order contract
//! (DESIGN.md §9) and the static-schedule replay engine (DESIGN.md §14).
//!
//! The compiled [`ReplayPlan`] must be *bit-identical* to the serial
//! descending-id walk ([`Tape::backward_serial`]) on any tape and any
//! thread count — that is
//! the contract the CI determinism gate enforces by re-running this suite at
//! `STUQ_THREADS=1,2,4`. The tests here are hand-rolled proptest loops in
//! the style of the kernel suite: a seeded generator builds randomized DAG
//! tapes (fan-out, fan-in, shared parameter slots, matmul/matmul_tb grads)
//! and every gradient is compared bit for bit. The DAG generator draws
//! *structure* and *values* from separate streams so replay tests can build
//! two structurally identical tapes with different data — the exact reuse
//! pattern of batches within a training epoch.

use stuq_tensor::replay::{clear_replay_cache, replay_stats, reset_replay_stats};
use stuq_tensor::{GradStore, ReplayPlan, StuqRng, Tape, Tensor};

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

/// Builds a random DAG tape of same-shaped nodes: a few parameters (with one
/// slot deliberately registered twice — shared weights), then a mix of unary
/// and binary ops whose operands are drawn from *all* earlier nodes, which
/// produces both fan-out (one node consumed many times) and fan-in. Returns
/// the tape and a scalar loss node.
///
/// Structure (op choices, operand wiring) is drawn from `srng`; tensor
/// *values* from `vrng`. Replaying the same structure seed with a different
/// value seed yields a structurally identical tape with different data.
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

/// Property: a replay plan's level schedule matches the serial walk
/// bit-for-bit on randomized elementwise DAGs of many shapes and sizes
/// (including tapes below the dispatcher's size threshold, where the plan
/// is compiled directly).
#[test]
fn random_dags_levels_match_serial_bitwise() {
    let mut rng = StuqRng::new(0x9E7E1);
    let mut vrng = StuqRng::new(0x9E7E2);
    for case in 0..40 {
        let r = 1 + rng.uniform_usize(6);
        let c = 1 + rng.uniform_usize(6);
        let n_ops = 4 + rng.uniform_usize(60);
        let (tape, loss) = random_dag(&mut rng, &mut vrng, n_ops, r, c);
        let serial = tape.backward_serial(loss);
        let replayed = ReplayPlan::compile(&tape, loss).run(&tape);
        assert_bit_identical(&serial, &replayed, &format!("case {case}"));
        // The public entry point must agree with both, whichever engine it
        // picked for this tape size and pool configuration.
        let auto = tape.backward(loss);
        assert_bit_identical(&serial, &auto, &format!("case {case} (auto)"));
    }
}

/// A handcrafted diamond with heavy fan-out: one shared parameter feeds
/// three branches that later fan back in, plus the same slot mounted twice.
/// Exercises the multi-consumer delta assembly order explicitly.
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
    let serial = tape.backward_serial(loss);
    let replayed = ReplayPlan::compile(&tape, loss).run(&tape);
    assert_bit_identical(&serial, &replayed, "diamond");
    assert_eq!(serial.len(), 2, "two parameter slots");
}

/// Property: matmul / matmul_tb adjoints (which themselves run the tiled,
/// row-parallel kernels) are bit-identical between the two engines, on tapes
/// large enough that [`Tape::backward`] really picks replay.
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
        // with elementwise ops so the tape crosses the dispatcher threshold.
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
        let serial = tape.backward_serial(loss);
        let replayed = ReplayPlan::compile(&tape, loss).run(&tape);
        assert_bit_identical(&serial, &replayed, &format!("matmul case {case}"));
        let auto = tape.backward(loss);
        assert_bit_identical(&serial, &auto, &format!("matmul case {case} (auto)"));
        // And the whole thing must be invariant under a forced-serial pool.
        let forced = stuq_parallel::with_serial(|| tape.backward(loss));
        assert_bit_identical(&serial, &forced, &format!("matmul case {case} (forced)"));
    }
}

/// Property: a compiled [`ReplayPlan`] matches the serial walk bit-for-bit
/// on randomized DAGs — both on the tape it was compiled from and when
/// *reused* on a structurally identical tape with different values (the
/// batch-to-batch reuse pattern replay exists for).
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
        let mut plan = ReplayPlan::compile(&tape_a, loss_a);
        let fresh = plan.run(&tape_a);
        assert_bit_identical(
            &tape_a.backward_serial(loss_a),
            &fresh,
            &format!("case {case} fresh"),
        );

        // Same structure stream, different value stream: the plan must both
        // match and replay bit-identically against the new data.
        let (tape_b, loss_b) =
            random_dag(&mut StuqRng::new(sseed), &mut StuqRng::new(0xB00 + case), n_ops, r, c);
        assert_eq!(
            tape_a.structural_sig(),
            tape_b.structural_sig(),
            "case {case}: same structure must hash equal"
        );
        assert!(plan.matches(&tape_b, loss_b), "case {case}: warm plan must match");
        let warm = plan.run(&tape_b);
        assert_bit_identical(&tape_b.backward_serial(loss_b), &warm, &format!("case {case} warm"));

        // A second warm run on the same tape (scratch reuse round-trip).
        let again = plan.run(&tape_b);
        assert_bit_identical(&warm, &again, &format!("case {case} rerun"));

        // The forced-serial pool is the engine-serial path the bench gate
        // times; it must not change a bit either.
        let forced = stuq_parallel::with_serial(|| plan.run(&tape_b));
        assert_bit_identical(&warm, &forced, &format!("case {case} forced-serial"));
    }
}

/// Plan invalidation: a tape with a different shape (the trainer's partial
/// final batch) hashes to a different signature, is rejected by
/// [`ReplayPlan::matches`], and forces a fresh compile through the cached
/// dispatcher rather than a stale replay.
#[test]
fn replay_plan_invalidated_on_shape_change() {
    let seed = 0xBA7C4;
    let (full, loss_full) = random_dag(&mut StuqRng::new(seed), &mut StuqRng::new(1), 60, 6, 5);
    let (partial, loss_partial) =
        random_dag(&mut StuqRng::new(seed), &mut StuqRng::new(2), 60, 3, 5);
    assert_ne!(
        full.structural_sig(),
        partial.structural_sig(),
        "shape change must change the signature"
    );
    let mut plan = ReplayPlan::compile(&full, loss_full);
    assert!(plan.matches(&full, loss_full));
    assert!(!plan.matches(&partial, loss_partial), "shape-changed tape must not match");
    let fresh = plan.run(&full);
    assert_bit_identical(&full.backward_serial(loss_full), &fresh, "full batch");

    // Through the public dispatcher: two structures → two compiles, then
    // alternating batches are all cache hits.
    if stuq_tensor::replay_enabled() {
        clear_replay_cache();
        reset_replay_stats();
        let a = full.backward(loss_full);
        let b = partial.backward(loss_partial);
        let a2 = full.backward(loss_full);
        let b2 = partial.backward(loss_partial);
        assert_bit_identical(&a, &a2, "full batch replayed");
        assert_bit_identical(&b, &b2, "partial batch replayed");
        assert_bit_identical(&full.backward_serial(loss_full), &a, "full vs serial");
        assert_bit_identical(&partial.backward_serial(loss_partial), &b, "partial vs serial");
        let (hits, compiles) = replay_stats();
        assert_eq!(compiles, 2, "one compile per structure");
        assert_eq!(hits, 2, "later batches hit the cache");
    }
}

/// Fused-chain gradients: a tape built almost entirely from single-consumer
/// unary chains (the GRU gate idiom `1 - z`, stacked activations, dropout)
/// must actually fuse — and still be bit-identical to the serial walk,
/// including chains terminating in a `Param` (direct deposit) and in a
/// multi-consumer node (edge write).
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

    // Chain ending in a non-fusable single-consumer op (matmul): its
    // adjoints run inside the fused task (Tail::Op).
    let mm = tape.matmul(w, u);
    let act = tape.relu(mm);
    let cl = tape.clamp(act, -2.0, 2.0);
    let e = tape.exp(cl);

    let mut acc = tape.add(g1, n);
    acc = tape.add(acc, other);
    acc = tape.add(acc, e);
    // Pad with an alternating unary stack so the tape crosses the
    // dispatcher's size threshold.
    for i in 0..40 {
        acc = if i % 2 == 0 { tape.tanh(acc) } else { tape.scale(acc, 1.01) };
    }
    let loss = tape.mean_all(acc);

    let mut plan = ReplayPlan::compile(&tape, loss);
    assert!(plan.fused_chains() > 0, "this tape must produce fused chains");
    assert!(plan.fused_nodes() >= 2 * plan.fused_chains(), "chains merge ≥ 2 nodes each");
    assert!(plan.n_tasks() < tape.len(), "fusion must shrink the schedule");
    let serial = tape.backward_serial(loss);
    assert_bit_identical(&serial, &plan.run(&tape), "fused plan");
    // And through the public dispatcher (replay or serial, must agree).
    assert_bit_identical(&serial, &tape.backward(loss), "dispatcher");
}

/// The structural signature ignores values (plan reuse across batches) but
/// is sensitive to every adjoint-relevant constant.
#[test]
fn structural_sig_ignores_values_but_not_constants() {
    let build = |scale: f32, value: f32| {
        let mut tape = Tape::new();
        let p = tape.param(0, Tensor::full(&[4, 4], value));
        let s = tape.scale(p, scale);
        let loss = tape.mean_all(s);
        (tape, loss)
    };
    let (a, _) = build(0.5, 1.0);
    let (b, _) = build(0.5, 2.0);
    let (c, _) = build(0.75, 1.0);
    assert_eq!(a.structural_sig(), b.structural_sig(), "values must not affect the sig");
    assert_ne!(a.structural_sig(), c.structural_sig(), "op constants must affect the sig");
}

/// Replay on vs. off through the public dispatcher: bit-identical, and the
/// disable scope restores replay afterwards.
#[test]
fn replay_disabled_scope_matches_enabled() {
    let (tape, loss) = random_dag(&mut StuqRng::new(0xD15), &mut StuqRng::new(3), 70, 5, 5);
    let on = tape.backward(loss);
    let off = stuq_tensor::with_replay_disabled(|| {
        assert!(!stuq_tensor::replay_enabled());
        tape.backward(loss)
    });
    assert_bit_identical(&on, &off, "replay on vs off");
}
