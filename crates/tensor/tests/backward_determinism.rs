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

/// Builds seeded random tapes whose leaves are parameters, constants and
/// constant-only subgraphs, and the `fnv1a64` digests of their gradients.
struct PinnedTape {
    tape: Tape,
    s: StuqRng,
    v: StuqRng,
    slots: usize,
}

impl PinnedTape {
    fn param(&mut self, shape: &[usize]) -> NodeId {
        self.slots += 1;
        self.tape.param(self.slots - 1, randt(&mut self.v, shape))
    }

    fn constant(&mut self, shape: &[usize]) -> NodeId {
        self.tape.constant(randt(&mut self.v, shape))
    }

    /// A parameter, a constant, or two constants through `tanh(a ⊙ b)`.
    fn operand(&mut self, shape: &[usize]) -> NodeId {
        match self.s.uniform_usize(3) {
            0 => self.param(shape),
            1 => self.constant(shape),
            _ => {
                let (a, b) = (self.constant(shape), self.constant(shape));
                let ab = self.tape.mul(a, b);
                self.tape.tanh(ab)
            }
        }
    }

    /// One random elementwise op on operands drawn from `pool`.
    fn elementwise(&mut self, pool: &[NodeId], drng: &mut StuqRng) -> NodeId {
        let a = pool[self.s.uniform_usize(pool.len())];
        let b = pool[self.s.uniform_usize(pool.len())];
        let t = &mut self.tape;
        match self.s.uniform_usize(17) {
            0 => t.add(a, b),
            1 => t.sub(a, b),
            2 => t.mul(a, b),
            3 => t.max_elem(a, b),
            4 => t.neg(a),
            5 => t.scale(a, 0.75),
            6 => t.add_scalar(a, -0.5),
            7 => t.one_minus(a),
            8 => t.relu(a),
            9 => t.leaky_relu(a, 0.1),
            10 => t.abs(a),
            11 => {
                let m = t.abs(a);
                let m = t.add_scalar(m, 1.0);
                t.sqrt(m)
            }
            12 => t.clamp(a, -0.8, 0.6),
            13 => t.sigmoid(a),
            14 => t.tanh(a),
            15 => t.square(a),
            _ => t.dropout(a, 0.3, drng),
        }
    }

    /// Loss terms from a random elementwise DAG over `r × c` nodes.
    fn elementwise_terms(&mut self, r: usize, c: usize, terms: &mut Vec<NodeId>) -> Vec<NodeId> {
        let mut drng = self.v.fork(1);
        let mut pool = vec![self.param(&[r, c]), self.constant(&[r, c])];
        // The same slot mounted at a second node.
        pool.push(self.tape.param(0, randt(&mut self.v, &[r, c])));
        for _ in 0..3 {
            let leaf = self.operand(&[r, c]);
            pool.push(leaf);
        }
        for _ in 0..10 + self.s.uniform_usize(30) {
            let node = self.elementwise(&pool, &mut drng);
            pool.push(node);
        }
        // Every node feeds the loss, so each one's gradient folds several
        // consumers' deltas, the element-wise ops' arriving after this one.
        for &x in &pool {
            let weight = self.constant(&[r, c]);
            let weighted = self.tape.mul(x, weight);
            terms.push(self.tape.sum_all(weighted));
        }
        pool
    }

    /// Loss terms in which a parameter is dropped out, so its gradient
    /// holds `-0.0`s (dropped elements under a negative upstream gradient),
    /// alone or before a slice's zero delta arrives.
    fn signed_zero_terms(&mut self, r: usize, c: usize, terms: &mut Vec<NodeId>) {
        let mut drng = self.v.fork(2);
        let (rows, cols) = (r + 1, 2 * c);
        for kind in 0..4 {
            let x = self.param(&[rows, cols]);
            let w_dropped = self.constant(&[rows, cols]);
            let t = &mut self.tape;
            let part = match kind {
                0 => Some(t.slice_cols(x, 1, cols)),
                1 => Some(t.slice_rows(x, 1, rows)),
                2 => Some(t.slice_cols_strided(x, 1, 2, c)),
                _ => None,
            };
            let dropped = t.dropout(x, 0.5, &mut drng);
            if let Some(part) = part {
                let part_sq = t.square(part);
                terms.push(t.sum_all(part_sq));
            }
            let weighted = t.mul(dropped, w_dropped);
            terms.push(t.sum_all(weighted));
        }
    }

    /// Loss terms through concat, the three slices, transpose and the row
    /// broadcast, on `r × c` operands from `pool`.
    fn structural_terms(&mut self, pool: &[NodeId], r: usize, c: usize, terms: &mut Vec<NodeId>) {
        let x = pool[self.s.uniform_usize(pool.len())];
        let y = pool[self.s.uniform_usize(pool.len())];
        let cat = self.tape.concat_cols(x, y);
        let bias = self.operand(&[1, 2 * c]);
        let t = &mut self.tape;
        let parts = [
            t.slice_cols(cat, c / 2, c / 2 + c),
            t.slice_rows(cat, r / 2, r),
            t.slice_cols_strided(cat, 1, 2, c),
            t.transpose(cat),
            t.add_row_broadcast(cat, bias),
        ];
        for (i, part) in parts.into_iter().enumerate() {
            let sq = t.square(part);
            terms.push(if i % 2 == 0 { t.sum_all(sq) } else { t.mean_all(sq) });
        }
    }

    /// Loss terms through `matmul` and `matmul_tb` of an `m × k` operand,
    /// plus a constant-by-constant product.
    fn matmul_terms(&mut self, (m, k, n): (usize, usize, usize), terms: &mut Vec<NodeId>) {
        let a = self.operand(&[m, k]);
        let b = self.operand(&[k, n]);
        let bt = self.operand(&[n, k]);
        let (ca, cb) = (self.constant(&[m, k]), self.constant(&[k, n]));
        let weight = self.constant(&[m, n]);
        let t = &mut self.tape;
        let ab = t.matmul(a, b);
        let cc = t.matmul(ca, cb);
        let abt = t.matmul_tb(a, bt);
        let sum = t.add(ab, cc);
        let sum = t.sub(sum, abt);
        let weighted = t.mul(sum, weight);
        terms.push(t.mean_all(weighted));
    }

    /// A loss term through the NAPL `rowwise_matmul`.
    fn rowwise_term(&mut self, (rows, ci, co): (usize, usize, usize), terms: &mut Vec<NodeId>) {
        let z = self.operand(&[rows, ci]);
        let w = self.operand(&[rows, ci * co]);
        let weight = self.constant(&[rows, co]);
        let t = &mut self.tape;
        let y = t.rowwise_matmul(z, w, ci, co);
        let weighted = t.mul(y, weight);
        terms.push(t.sum_all(weighted));
    }

    /// The digest of every gradient, slots in ascending order, each as its
    /// slot, its shape and its elements' little-endian bits.
    fn digest(&self, loss: NodeId) -> u64 {
        let grads = self.tape.backward(loss);
        assert!(!grads.is_empty(), "some parameter reaches the loss");
        let mut slots: Vec<usize> = grads.iter().map(|(slot, _)| slot).collect();
        slots.sort_unstable();
        let mut bytes = Vec::new();
        for slot in slots {
            let g = grads.get(slot).unwrap();
            assert!(g.all_finite(), "slot {slot} has a non-finite gradient");
            bytes.extend_from_slice(&(slot as u64).to_le_bytes());
            for &d in g.shape() {
                bytes.extend_from_slice(&(d as u64).to_le_bytes());
            }
            for x in g.data() {
                bytes.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        stuq_artifact::fnv1a64(&bytes)
    }
}

/// The gradients of seeded random tapes are pinned to digests, so a change
/// to the backward walk or its kernels that moves a single bit fails here.
///
/// The tapes use every op whose forward and adjoint are IEEE arithmetic
/// only (`exp`, `ln` and `softmax_rows` go through libm and are left out),
/// fed by parameters, constants and constant-only subgraphs. The matmul
/// shapes put 8 to 31 columns past the last 32-column tile, leave row
/// counts that are not a multiple of four, and run long inner dimensions,
/// some past the pooled kernels' fan-out threshold.
#[test]
fn backward_gradients_are_pinned() {
    const MATMULS: [(usize, usize, usize); 6] =
        [(17, 8, 2048), (13, 45, 40), (6, 300, 24), (5, 19, 9), (21, 40, 72), (3, 72, 600)];
    const ROWWISE: [(usize, usize, usize); 3] = [(5, 3, 4), (20, 33, 32), (25, 65, 170)];
    const PINNED: [u64; 12] = [
        0x691bab3645dd0def,
        0x92bb8980f7f878d0,
        0x771fde94d4048220,
        0x1c35ad39bf9a2609,
        0x9b62dcfb5f9f0de9,
        0xb1e8d651b1c3cdba,
        0x78016578925b6fdb,
        0x28b2bbbef7a07d7c,
        0x00145f44b1a718d6,
        0x517c36d4d0e3eaa6,
        0x271e5a507e8811ea,
        0xd22bfef812fceae5,
    ];
    let mut got = Vec::new();
    for case in 0..PINNED.len() as u64 {
        let mut g = PinnedTape {
            tape: Tape::new(),
            s: StuqRng::new(0x9B17 + case),
            v: StuqRng::new(0x7A1 + case),
            slots: 0,
        };
        let (r, c) = (1 + g.s.uniform_usize(6), 1 + g.s.uniform_usize(6));
        let mut terms = Vec::new();
        let pool = g.elementwise_terms(r, c, &mut terms);
        g.structural_terms(&pool, r, c, &mut terms);
        g.signed_zero_terms(r, c, &mut terms);
        g.matmul_terms(MATMULS[case as usize % MATMULS.len()], &mut terms);
        g.rowwise_term(ROWWISE[case as usize % ROWWISE.len()], &mut terms);
        let mut loss = terms[0];
        for &term in &terms[1..] {
            loss = g.tape.add(loss, term);
        }
        got.push(g.digest(loss));
    }
    let hex: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
    assert_eq!(got, PINNED, "gradient digests moved: [{}]", hex.join(", "));
}
