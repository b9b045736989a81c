//! Edge-case and stress tests for the autodiff tape, beyond the per-op
//! gradchecks in the library.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use stuq_tensor::{CustomOp, StuqRng, Tape, Tensor};

#[test]
fn deep_chain_gradient_is_exact() {
    // y = ((((x·2)+1)·2)+1)… 50 times; dy/dx = 2^50 over one scalar — checks
    // long chains neither vanish bookkeeping-wise nor accumulate error.
    let mut tape = Tape::new();
    let x = tape.param(0, Tensor::scalar(0.5));
    let mut y = x;
    for _ in 0..50 {
        y = tape.scale(y, 2.0);
        y = tape.add_scalar(y, 1.0);
    }
    // Normalise so the seed gradient stays representable.
    let loss = tape.scale(y, 1.0 / 2f32.powi(50));
    let grads = tape.backward(loss);
    let g = grads.get(0).unwrap().get(0, 0);
    assert!((g - 1.0).abs() < 1e-5, "gradient {g}");
}

#[test]
fn diamond_graph_accumulates_both_paths() {
    // loss = sum(x ⊙ x + x) uses x three times through two paths.
    let mut tape = Tape::new();
    let x = tape.param(0, Tensor::from_vec(vec![2.0, -1.0], &[1, 2]));
    let sq = tape.square(x);
    let sum = tape.add(sq, x);
    let loss = tape.sum_all(sum);
    let grads = tape.backward(loss);
    // d/dx (x² + x) = 2x + 1.
    assert_eq!(grads.get(0).unwrap().data(), &[5.0, -1.0]);
}

#[test]
fn unused_branches_receive_no_gradient() {
    let mut tape = Tape::new();
    let used = tape.param(0, Tensor::scalar(1.0));
    let unused = tape.param(1, Tensor::scalar(1.0));
    let dead = tape.scale(unused, 3.0); // recorded but never reaches the loss
    let _ = dead;
    let loss = tape.square(used);
    let loss = tape.sum_all(loss);
    let grads = tape.backward(loss);
    assert!(grads.get(0).is_some());
    assert!(grads.get(1).is_none(), "dead branch must not appear in the store");
}

#[test]
fn backward_twice_from_different_losses_on_one_tape() {
    // Two heads sharing a trunk (exactly the μ / log σ² decoder situation):
    // gradients from each head's loss are independent sweeps.
    let mut tape = Tape::new();
    let x = tape.param(0, Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
    let head_a = tape.scale(x, 2.0);
    let head_b = tape.scale(x, -1.0);
    let loss_a = tape.sum_all(head_a);
    let loss_b = tape.sum_all(head_b);
    let ga = tape.backward(loss_a);
    let gb = tape.backward(loss_b);
    assert_eq!(ga.get(0).unwrap().data(), &[2.0, 2.0]);
    assert_eq!(gb.get(0).unwrap().data(), &[-1.0, -1.0]);
}

#[test]
fn custom_op_round_trips_gradients() {
    // A user-defined "double" kernel via the CustomOp escape hatch.
    #[derive(Debug)]
    struct Double;
    impl CustomOp for Double {
        fn name(&self) -> &'static str {
            "double"
        }
        fn backward(&self, grad: &Tensor, _inputs: &[&Tensor], _out: &Tensor) -> Vec<Tensor> {
            vec![grad.scale(2.0)]
        }
    }
    let mut tape = Tape::new();
    let x = tape.param(0, Tensor::from_vec(vec![3.0, 4.0], &[1, 2]));
    let value = tape.value(x).scale(2.0);
    let y = tape.custom(Box::new(Double), vec![x], value);
    let loss = tape.sum_all(y);
    let grads = tape.backward(loss);
    assert_eq!(tape.value(y).data(), &[6.0, 8.0]);
    assert_eq!(grads.get(0).unwrap().data(), &[2.0, 2.0]);
}

#[test]
fn constant_only_inputs_get_no_adjoint() {
    // A custom op that counts its backward calls: fed only by constants it
    // is never called, and fed by a parameter it is called once.
    #[derive(Debug)]
    struct Counting(Arc<AtomicUsize>);
    impl CustomOp for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn backward(&self, grad: &Tensor, inputs: &[&Tensor], _out: &Tensor) -> Vec<Tensor> {
            self.0.fetch_add(1, Ordering::Relaxed);
            inputs.iter().map(|_| grad.clone()).collect()
        }
    }
    let calls = Arc::new(AtomicUsize::new(0));
    let mut tape = Tape::new();
    let x = tape.param(0, Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
    let c = tape.constant(Tensor::from_vec(vec![3.0, 4.0], &[1, 2]));
    let c2 = tape.tanh(c); // a constant-only subgraph
    let value = tape.value(c).add(tape.value(c2));
    let dead = tape.custom(Box::new(Counting(calls.clone())), vec![c, c2], value);
    let value = tape.value(x).add(tape.value(c));
    let live = tape.custom(Box::new(Counting(calls.clone())), vec![x, c], value);
    let sum = tape.add(dead, live);
    let loss = tape.sum_all(sum);
    let grads = tape.backward(loss);
    assert_eq!(calls.load(Ordering::Relaxed), 1, "only the op fed by a parameter runs");
    assert_eq!(grads.get(0).unwrap().data(), &[1.0, 1.0]);
    assert_eq!(grads.len(), 1);

    // A loss that no parameter reaches gets an empty store.
    let loss = tape.sum_all(dead);
    assert!(tape.backward(loss).is_empty());
    assert_eq!(calls.load(Ordering::Relaxed), 1);
}

#[test]
fn gradients_of_composed_graph_convolution_are_finite_at_scale() {
    // A realistic-size AGCRN-ish subgraph: support (I+Â) from an embedding,
    // 12 recurrent-ish steps, Gaussian NLL — gradients stay finite.
    let mut rng = StuqRng::new(9);
    let n = 40;
    let d = 6;
    let h = 16;
    let mut tape = Tape::new();
    let e = tape.param(0, Tensor::randn(&[n, d], 0.3, &mut rng));
    // A registered-but-unused parameter exercises sparse gradient stores.
    let _unused = tape.param(1, Tensor::randn(&[2, 2], 1.0, &mut rng));
    let sim = tape.matmul_tb(e, e);
    let rel = tape.relu(sim);
    let a_hat = tape.softmax_rows(rel);
    let eye = tape.constant(Tensor::eye(n));
    let support = tape.add(eye, a_hat);
    let wm = tape.param(2, Tensor::randn(&[1, h], 0.3, &mut rng));
    let mut state = tape.constant(Tensor::zeros(&[n, h]));
    for _ in 0..12 {
        let x = tape.constant(Tensor::randn(&[n, 1], 1.0, &mut rng));
        let lifted = tape.matmul(x, wm);
        let mixed = tape.matmul(support, lifted);
        let cand = tape.add(mixed, state);
        state = tape.tanh(cand);
    }
    let sq = tape.square(state);
    let loss = tape.mean_all(sq);
    let grads = tape.backward(loss);
    for (_, g) in grads.iter() {
        assert!(g.all_finite());
    }
    assert!(grads.get(0).is_some() && grads.get(2).is_some());
    assert!(grads.get(1).is_none(), "unused placeholder gets no gradient");
}

#[test]
fn grad_store_merge_and_scale() {
    let mut tape = Tape::new();
    let x = tape.param(0, Tensor::scalar(2.0));
    let y = tape.square(x);
    let loss = tape.sum_all(y);
    let mut g1 = tape.backward(loss);
    let g2 = tape.backward(loss);
    g1.merge(g2);
    g1.scale(0.5);
    // (4 + 4) / 2 = 4 = original gradient.
    assert_eq!(g1.get(0).unwrap().get(0, 0), 4.0);
}

#[test]
fn softmax_rows_gradient_sums_to_zero() {
    // Soft-max outputs are shift-invariant, so its Jacobian rows sum to 0:
    // the gradient of any loss w.r.t. a uniform shift of the logits is 0.
    let mut rng = StuqRng::new(11);
    let mut tape = Tape::new();
    let x = tape.param(0, Tensor::randn(&[3, 5], 1.0, &mut rng));
    let s = tape.softmax_rows(x);
    let w = tape.constant(Tensor::randn(&[3, 5], 1.0, &mut rng));
    let weighted = tape.mul(s, w);
    let loss = tape.sum_all(weighted);
    let grads = tape.backward(loss);
    let g = grads.get(0).unwrap();
    for r in 0..3 {
        let row_sum: f32 = (0..5).map(|c| g.get(r, c)).sum();
        assert!(row_sum.abs() < 1e-5, "row {r} grad sum {row_sum}");
    }
}
