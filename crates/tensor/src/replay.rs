//! Static-schedule replay of the backward pass (DESIGN.md §14).
//!
//! Training re-traces a structurally identical tape every batch: same ops,
//! same parents, same shapes — only the floats change. Re-deriving the
//! schedule (levels, consumer lists, edge arena, buckets) on every call is
//! the constant factor that lost to the seed's serial walk (EXPERIMENTS.md),
//! so this module compiles that schedule **once** into a [`ReplayPlan`]
//! keyed on [`Tape::structural_sig`] and replays it on every later batch
//! with preallocated scratch, frozen per-level chunk assignments and zero
//! graph analysis.
//!
//! On top of the frozen schedule, the compiler fuses chains of adjacent
//! unary element-wise adjoints (negate/scale/σ′/tanh′/ReLU′/dropout-mask …)
//! into a single `Step`-interpreter task that transforms one gradient
//! buffer in place, eliminating the interior nodes' per-op tensor
//! allocations and edge-slot traffic entirely.
//!
//! Bit-identity with [`Tape::backward_serial`] is preserved because the plan
//! never reorders a single float addition: gradients are assembled from
//! consumer deltas in the serial walk's order (descending consumer id, then
//! input declaration order), parameter slots reduce in descending node-id
//! order, and every fused step applies the exact per-element expression of
//! the corresponding `Tape::node_adjoints` arm. Chunk boundaries are part
//! of the plan, not of the thread count, so results are identical at any
//! `STUQ_THREADS`.
//!
//! Knobs: `STUQ_REPLAY=0|off|false` disables the cache process-wide;
//! [`with_replay_disabled`] disables it for a scope on the current thread.

use crate::tape::{GradStore, NodeId, OpKind, Tape};
use crate::tensor::Tensor;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::OnceLock;
use stuq_parallel::{SendPtr, StaticSchedule};

/// Compiled plans kept per thread; training loops touch at most two graph
/// shapes (full batch + final partial batch), MC inference a third.
const PLAN_CACHE_CAP: usize = 8;

/// Target gradient elements per frozen chunk. Levels whose tasks sum to less
/// run as a single inline chunk; heavyweight adjoints (the GRU matmuls) get
/// chunks of their own.
const CHUNK_COST: u64 = 8192;

/// One fused unary adjoint applied in place to the running gradient buffer.
///
/// Node ids refer to the *live* tape passed to [`ReplayPlan::run`], so a plan
/// reused across batches reads each batch's own activations and dropout
/// masks. Each variant's expression is copied verbatim from the matching
/// [`Tape::node_adjoints`] arm — that is the bit-identity argument.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// `Neg` (c = -1) and `Scale(c)`.
    MulScalar(f32),
    /// `σ'`: reads the sigmoid node's own output.
    Sigmoid(NodeId),
    /// `tanh'`: reads the tanh node's own output.
    Tanh(NodeId),
    /// Gradient gate on the *parent* (pre-activation) value.
    Relu(NodeId),
    LeakyRelu(NodeId, f32),
    /// Reads the exp node's own output.
    Exp(NodeId),
    /// Reads the parent value.
    Ln(NodeId),
    Abs(NodeId),
    /// Reads the sqrt node's own output.
    Sqrt(NodeId),
    Clamp(NodeId, f32, f32),
    /// Multiplies by the dropout node's stored mask.
    Dropout(NodeId),
}

/// Where a fused chain delivers its finished gradient buffer.
#[derive(Clone, Copy, Debug)]
enum Tail {
    /// Deliver to the last fused node's single parent `dest`, which has
    /// other consumers: the level path writes arena slot `slot` for later
    /// assembly, the serial path accumulates into `dest`'s gradient
    /// directly. `skip` marks a `Constant` parent (delta discarded).
    Edge { slot: usize, dest: NodeId, skip: bool },
    /// The parent is a single-consumer `Param`: the buffer *is* its whole
    /// gradient — deposit it directly, skipping assembly.
    Param(NodeId),
    /// The parent is a single-consumer non-fusable op: its upstream gradient
    /// *is* the buffer, so its adjoints run inside this task too.
    Op(NodeId),
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    /// `Param` leaf: assembled gradient goes to the parameter scratch.
    Param,
    /// Generic op: assemble, call [`Tape::node_adjoints`], scatter deltas.
    Node,
    /// Fused unary chain: assemble at the head, run `steps`, dispatch `tail`.
    Fused { steps: (u32, u32), tail: Tail },
}

#[derive(Clone, Copy, Debug)]
struct Task {
    id: NodeId,
    kind: Kind,
}

fn fusable(op: &OpKind) -> bool {
    matches!(
        op,
        OpKind::Neg
            | OpKind::Scale(_)
            | OpKind::AddScalar(_)
            | OpKind::Sigmoid
            | OpKind::Tanh
            | OpKind::Relu
            | OpKind::LeakyRelu(_)
            | OpKind::Exp
            | OpKind::Ln
            | OpKind::Abs
            | OpKind::Sqrt
            | OpKind::Clamp(_, _)
            | OpKind::Dropout(_)
    )
}

/// The step for a fusable node, or `None` for `AddScalar` (identity adjoint).
fn make_step(tape: &Tape, id: NodeId) -> Option<Step> {
    let node = &tape.nodes[id];
    let pid = node.parents[0];
    Some(match &node.op {
        OpKind::Neg => Step::MulScalar(-1.0),
        OpKind::Scale(c) => Step::MulScalar(*c),
        OpKind::AddScalar(_) => return None,
        OpKind::Sigmoid => Step::Sigmoid(id),
        OpKind::Tanh => Step::Tanh(id),
        OpKind::Relu => Step::Relu(pid),
        OpKind::LeakyRelu(a) => Step::LeakyRelu(pid, *a),
        OpKind::Exp => Step::Exp(id),
        OpKind::Ln => Step::Ln(pid),
        OpKind::Abs => Step::Abs(pid),
        OpKind::Sqrt => Step::Sqrt(id),
        OpKind::Clamp(lo, hi) => Step::Clamp(pid, *lo, *hi),
        OpKind::Dropout(_) => Step::Dropout(id),
        _ => unreachable!("make_step called on a non-fusable op"),
    })
}

/// Applies one fused step in place. Every per-element expression matches the
/// corresponding [`Tape::node_adjoints`] arm exactly; element-wise maps have
/// no cross-element data flow, so in-place evaluation is bit-identical to
/// the serial walk's allocate-and-zip.
fn apply_step(step: &Step, tape: &Tape, buf: &mut Tensor) {
    match *step {
        Step::MulScalar(c) => {
            for g in buf.data_mut() {
                *g *= c;
            }
        }
        Step::Sigmoid(id) => {
            for (g, &s) in buf.data_mut().iter_mut().zip(tape.nodes[id].value.data()) {
                *g = *g * s * (1.0 - s);
            }
        }
        Step::Tanh(id) => {
            for (g, &t) in buf.data_mut().iter_mut().zip(tape.nodes[id].value.data()) {
                *g *= 1.0 - t * t;
            }
        }
        Step::Relu(pid) => {
            for (g, &x) in buf.data_mut().iter_mut().zip(tape.nodes[pid].value.data()) {
                if x <= 0.0 {
                    *g = 0.0;
                }
            }
        }
        Step::LeakyRelu(pid, a) => {
            for (g, &x) in buf.data_mut().iter_mut().zip(tape.nodes[pid].value.data()) {
                if x <= 0.0 {
                    *g *= a;
                }
            }
        }
        Step::Exp(id) => {
            for (g, &y) in buf.data_mut().iter_mut().zip(tape.nodes[id].value.data()) {
                *g *= y;
            }
        }
        Step::Ln(pid) => {
            for (g, &x) in buf.data_mut().iter_mut().zip(tape.nodes[pid].value.data()) {
                *g /= x;
            }
        }
        Step::Abs(pid) => {
            for (g, &x) in buf.data_mut().iter_mut().zip(tape.nodes[pid].value.data()) {
                if x < 0.0 {
                    *g = -*g;
                }
            }
        }
        Step::Sqrt(id) => {
            for (g, &s) in buf.data_mut().iter_mut().zip(tape.nodes[id].value.data()) {
                *g = *g * 0.5 / s.max(1e-12);
            }
        }
        Step::Clamp(pid, lo, hi) => {
            for (g, &x) in buf.data_mut().iter_mut().zip(tape.nodes[pid].value.data()) {
                if !(x > lo && x < hi) {
                    *g = 0.0;
                }
            }
        }
        Step::Dropout(id) => {
            let OpKind::Dropout(mask) = &tape.nodes[id].op else {
                unreachable!("Dropout step points at a non-dropout node")
            };
            for (g, &m) in buf.data_mut().iter_mut().zip(mask.data()) {
                *g *= m;
            }
        }
    }
}

/// A compiled static schedule for one tape structure.
///
/// Compile once per graph shape with [`ReplayPlan::compile`]; replay any
/// structurally identical tape (checked via [`ReplayPlan::matches`]) with
/// [`ReplayPlan::run`]. The scratch arenas are owned by the plan and reused
/// across runs, so steady-state replay performs no scheduling allocations.
pub struct ReplayPlan {
    sig: u64,
    loss: NodeId,
    n_nodes: usize,
    /// CSR offsets into the edge-delta arena: node `id`'s slots are
    /// `edge_off[id]..edge_off[id + 1]`, one per parent.
    edge_off: Vec<usize>,
    /// Arena slots whose parent is a `Constant` — never written, keeping the
    /// scratch all-`None` between runs without a sweep.
    skip_edge: Vec<bool>,
    /// All tasks, concatenated in ascending level order.
    tasks: Vec<Task>,
    /// `(first task index, frozen chunk schedule)` per level.
    levels: Vec<(usize, StaticSchedule)>,
    /// Task indices in descending *effect-id* order — the exact positions
    /// at which the serial walk performs each task's final scatter (chain
    /// interiors collapse into their head task, whose effect id is the
    /// chain's last write). Every delta a task consumes is produced by tasks
    /// with strictly greater effect ids, so this order needs no level
    /// barriers; the single-thread path (`run_serial`) walks it with direct
    /// per-node gradient accumulation, restoring the serial walk's
    /// produce-then-immediately-consume locality and live-set profile.
    serial_order: Vec<u32>,
    /// Per-task consumer edge slots in the serial accumulation order
    /// (descending consumer id, then input declaration order).
    cons_off: Vec<usize>,
    cons_slots: Vec<usize>,
    /// Fused-chain step pool, referenced by `Kind::Fused` ranges.
    steps: Vec<Step>,
    /// Reachable `Param` nodes as `(node id, slot)`, descending id — the
    /// serial walk's reduction order.
    param_order: Vec<(NodeId, usize)>,
    /// Reusable scratch; all-`None` between runs. `edge_deltas` backs the
    /// level path (one slot per consumer edge), `node_grads` the serial path
    /// (one accumulator per node, like the seed walk's `grads` vector).
    edge_deltas: Vec<Option<Tensor>>,
    node_grads: Vec<Option<Tensor>>,
    param_grads: Vec<Option<Tensor>>,
    fused_chains: usize,
    fused_nodes: usize,
}

impl ReplayPlan {
    /// Derives the full static schedule for `tape`'s current structure.
    #[allow(clippy::too_many_lines)]
    pub fn compile(tape: &Tape, loss: NodeId) -> Self {
        assert_eq!(tape.nodes[loss].value.len(), 1, "backward() needs a scalar loss node");
        const UNREACHED: usize = usize::MAX;
        let n = loss + 1;

        // Longest-path levels over the reverse graph: no node shares a level
        // with any of its consumers. Consumers have higher ids than their
        // inputs, so one descending pass finalises each node's level.
        let mut level = vec![UNREACHED; n];
        level[loss] = 0;
        let mut n_levels = 0usize;
        for id in (0..=loss).rev() {
            if level[id] == UNREACHED {
                continue;
            }
            n_levels = n_levels.max(level[id] + 1);
            let l1 = level[id] + 1;
            for &p in &tape.nodes[id].parents {
                level[p] = if level[p] == UNREACHED { l1 } else { level[p].max(l1) };
            }
        }

        // Edge-delta arena layout: one slot per (reachable op node, parent).
        let mut edge_off = vec![0usize; n + 1];
        for id in 0..=loss {
            let slots = match tape.nodes[id].op {
                OpKind::Constant | OpKind::Param(_) => 0,
                _ if level[id] == UNREACHED => 0,
                _ => tape.nodes[id].parents.len(),
            };
            edge_off[id + 1] = edge_off[id] + slots;
        }
        let n_slots = edge_off[n];

        let mut skip_edge = vec![false; n_slots];
        for id in 0..=loss {
            if edge_off[id + 1] == edge_off[id] {
                continue;
            }
            for (k, &p) in tape.nodes[id].parents.iter().enumerate() {
                if matches!(tape.nodes[p].op, OpKind::Constant) {
                    skip_edge[edge_off[id] + k] = true;
                }
            }
        }

        // Consumer edges per node in the serial accumulation order.
        let mut consumers: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); n];
        for id in (0..=loss).rev() {
            if edge_off[id + 1] > edge_off[id] {
                for (k, &p) in tape.nodes[id].parents.iter().enumerate() {
                    consumers[p].push((id, k));
                }
            }
        }

        // Fused-chain discovery. A chain *head* is a reachable fusable node
        // that is not itself absorbed (absorbed = its only reachable
        // consumer is fusable). From the head we extend downward through
        // single-consumer fusable parents, then classify the terminating
        // parent. Membership depends only on consumer counts and op kinds,
        // so chains are unique and non-overlapping by construction.
        let single_fusable_consumer =
            |id: NodeId| consumers[id].len() == 1 && fusable(&tape.nodes[consumers[id][0].0].op);
        let mut absorbed = vec![false; n];
        // (step range start, end, tail, effect id). The *effect id* is the
        // node whose serial-walk scatter the chain performs last: the lowest
        // chain member for an `Edge` tail (its parent write), the absorbed
        // parent itself for `Op`/`Param` tails.
        let mut chain_info: Vec<Option<(u32, u32, Tail, NodeId)>> = vec![None; n];
        let mut steps: Vec<Step> = Vec::new();
        let mut fused_chains = 0usize;
        let mut fused_nodes = 0usize;
        for id in (0..=loss).rev() {
            if level[id] == UNREACHED || !fusable(&tape.nodes[id].op) || single_fusable_consumer(id)
            {
                continue;
            }
            let mut chain = vec![id];
            loop {
                let p = tape.nodes[*chain.last().unwrap()].parents[0];
                if consumers[p].len() == 1 && fusable(&tape.nodes[p].op) {
                    chain.push(p);
                } else {
                    break;
                }
            }
            let last = *chain.last().unwrap();
            let p = tape.nodes[last].parents[0];
            let tail = match &tape.nodes[p].op {
                OpKind::Constant => Tail::Edge { slot: edge_off[last], dest: p, skip: true },
                OpKind::Param(_) if consumers[p].len() == 1 => Tail::Param(p),
                _ if consumers[p].len() == 1 => Tail::Op(p),
                _ => Tail::Edge { slot: edge_off[last], dest: p, skip: false },
            };
            // A single fusable node feeding a shared edge gains nothing over
            // the generic task; fuse only when ≥ 2 nodes merge.
            if chain.len() == 1 && matches!(tail, Tail::Edge { .. }) {
                continue;
            }
            let start = steps.len() as u32;
            for &cid in &chain {
                if let Some(s) = make_step(tape, cid) {
                    steps.push(s);
                }
            }
            let end = steps.len() as u32;
            for &cid in &chain[1..] {
                absorbed[cid] = true;
            }
            let effect = if let Tail::Param(q) | Tail::Op(q) = tail {
                absorbed[q] = true;
                q
            } else {
                last
            };
            chain_info[id] = Some((start, end, tail, effect));
            fused_chains += 1;
            fused_nodes += chain.len() + usize::from(matches!(tail, Tail::Param(_) | Tail::Op(_)));
        }

        // Schedulable work per level, ascending id within a level.
        let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); n_levels];
        for id in 0..=loss {
            if level[id] != UNREACHED
                && !matches!(tape.nodes[id].op, OpKind::Constant)
                && !absorbed[id]
            {
                buckets[level[id]].push(id);
            }
        }

        let mut tasks = Vec::new();
        let mut levels = Vec::with_capacity(n_levels);
        let mut cons_off = vec![0usize];
        let mut cons_slots = Vec::new();
        let mut effects = Vec::new();
        for bucket in &buckets {
            let start = tasks.len();
            let mut costs = Vec::with_capacity(bucket.len());
            for &id in bucket {
                let kind = if let Some((s, e, tail, effect)) = chain_info[id] {
                    effects.push(effect);
                    Kind::Fused { steps: (s, e), tail }
                } else if matches!(tape.nodes[id].op, OpKind::Param(_)) {
                    effects.push(id);
                    Kind::Param
                } else {
                    effects.push(id);
                    Kind::Node
                };
                for &(c, k) in &consumers[id] {
                    cons_slots.push(edge_off[c] + k);
                }
                cons_off.push(cons_slots.len());
                let elems = tape.nodes[id].value.len() as u64;
                let span = match kind {
                    Kind::Fused { steps: (s, e), .. } => 1 + u64::from(e - s),
                    _ => 1,
                };
                costs.push((elems * span).max(1));
                tasks.push(Task { id, kind });
            }
            levels.push((start, StaticSchedule::balanced(&costs, CHUNK_COST)));
        }
        // Descending effect-id order: every task runs exactly where the
        // serial walk performs its last scatter, so direct per-node gradient
        // accumulation reproduces the walk's float order (see `run_serial`).
        let mut serial_order: Vec<u32> = (0..tasks.len() as u32).collect();
        serial_order.sort_unstable_by(|&a, &b| effects[b as usize].cmp(&effects[a as usize]));

        let mut param_order = Vec::new();
        for id in (0..=loss).rev() {
            if level[id] == UNREACHED {
                continue;
            }
            if let OpKind::Param(slot) = tape.nodes[id].op {
                param_order.push((id, slot));
            }
        }

        Self {
            sig: tape.structural_sig(),
            loss,
            n_nodes: tape.len(),
            edge_off,
            skip_edge,
            tasks,
            levels,
            serial_order,
            cons_off,
            cons_slots,
            steps,
            param_order,
            edge_deltas: (0..n_slots).map(|_| None).collect(),
            node_grads: (0..n).map(|_| None).collect(),
            param_grads: (0..n).map(|_| None).collect(),
            fused_chains,
            fused_nodes,
        }
    }

    /// True when `tape` has the structure this plan was compiled for.
    pub fn matches(&self, tape: &Tape, loss: NodeId) -> bool {
        self.sig == tape.structural_sig() && self.loss == loss && self.n_nodes == tape.len()
    }

    /// Number of fused chains in the plan.
    pub fn fused_chains(&self) -> usize {
        self.fused_chains
    }

    /// Total nodes absorbed into fused chains (interiors, heads and tails).
    pub fn fused_nodes(&self) -> usize {
        self.fused_nodes
    }

    /// Number of dependency levels in the frozen schedule.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Number of scheduled tasks (after fusion).
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Replays the plan against a structurally identical tape.
    ///
    /// Bit-identical to [`Tape::backward_serial`] on the same tape, at any
    /// thread count. Panics if the tape does not match the plan.
    pub fn run(&mut self, tape: &Tape) -> GradStore {
        assert!(self.matches(tape, self.loss), "replay plan does not match this tape");
        let mut param_grads = std::mem::take(&mut self.param_grads);
        // A panic in a previous run can strand deltas in the scratch; clear
        // rather than trust the all-None invariant.
        for s in &mut param_grads {
            if s.is_some() {
                *s = None;
            }
        }
        if stuq_parallel::num_threads() == 1 || stuq_parallel::serial_forced() {
            self.run_serial(tape, &mut param_grads);
        } else {
            self.run_levels(tape, &mut param_grads);
        }
        // Slot-ordered reduction in descending node-id order — the serial
        // walk's parameter accumulation order.
        let mut store = GradStore::default();
        for &(id, slot) in &self.param_order {
            let g = param_grads[id].take().expect("param gradient missing after replay");
            store.accumulate_slot(slot, g);
        }
        self.param_grads = param_grads;
        store
    }

    /// Single-thread replay: one flat sweep over `serial_order` with direct
    /// per-node gradient accumulation — the seed walk's own storage
    /// discipline, so each pending node holds exactly one live accumulator
    /// and every delta is added the moment it is produced (cache-hot), with
    /// fused chains layered on top.
    ///
    /// Bit-identity: tasks execute at descending *effect id*, the position
    /// where the serial walk performs the same scatter, and deltas a task
    /// consumes come only from tasks with strictly greater effect ids (a
    /// plain consumer scatters at its own id, which exceeds its parent's; a
    /// chain delivering into node `x` does so at the chain member whose
    /// parent is `x`, again `> x`). Multi-consumer accumulators therefore
    /// receive their additions in exactly the serial walk's order.
    fn run_serial(&mut self, tape: &Tape, param_grads: &mut [Option<Tensor>]) {
        let mut node_grads = std::mem::take(&mut self.node_grads);
        for s in &mut node_grads {
            if s.is_some() {
                *s = None;
            }
        }
        for &ti in &self.serial_order {
            let task = &self.tasks[ti as usize];
            let mut grad = if task.id == self.loss {
                Tensor::scalar(1.0)
            } else {
                node_grads[task.id].take().expect("node gradient missing in serial replay")
            };
            match &task.kind {
                Kind::Param => param_grads[task.id] = Some(grad),
                Kind::Node => self.scatter_direct(tape, task.id, &grad, &mut node_grads),
                Kind::Fused { steps: (s, e), tail } => {
                    for step in &self.steps[*s as usize..*e as usize] {
                        apply_step(step, tape, &mut grad);
                    }
                    match tail {
                        Tail::Edge { dest, skip, .. } => {
                            if !skip {
                                Self::accumulate(&mut node_grads, *dest, grad);
                            }
                        }
                        Tail::Param(q) => param_grads[*q] = Some(grad),
                        Tail::Op(q) => self.scatter_direct(tape, *q, &grad, &mut node_grads),
                    }
                }
            }
        }
        self.node_grads = node_grads;
    }

    /// Computes `id`'s adjoints and accumulates each delta into its parent's
    /// gradient slot, in declaration order — the serial walk's scatter.
    /// Deltas for `Constant` parents are dropped (their slots stay `None`).
    fn scatter_direct(
        &self,
        tape: &Tape,
        id: NodeId,
        grad: &Tensor,
        node_grads: &mut [Option<Tensor>],
    ) {
        for (k, delta) in tape.node_adjoints(id, grad).into_iter().enumerate() {
            if !self.skip_edge[self.edge_off[id] + k] {
                Self::accumulate(node_grads, tape.nodes[id].parents[k], delta);
            }
        }
    }

    fn accumulate(node_grads: &mut [Option<Tensor>], id: NodeId, delta: Tensor) {
        match &mut node_grads[id] {
            Some(g) => g.add_assign(&delta),
            empty @ None => *empty = Some(delta),
        }
    }

    /// Multi-thread replay: frozen level chunks over the edge-delta arena
    /// (see `exec_task` for the disjointness contract).
    fn run_levels(&mut self, tape: &Tape, param_grads: &mut [Option<Tensor>]) {
        let mut edge_deltas = std::mem::take(&mut self.edge_deltas);
        for s in &mut edge_deltas {
            if s.is_some() {
                *s = None;
            }
        }
        {
            let eptr = SendPtr::new(edge_deltas.as_mut_ptr());
            let pptr = SendPtr::new(param_grads.as_mut_ptr());
            for (start, sched) in &self.levels {
                let start = *start;
                sched.run(|r: Range<usize>| {
                    for li in r {
                        // SAFETY: tasks address disjoint scratch slots; see
                        // exec_task.
                        unsafe { self.exec_task(tape, start + li, &eptr, &pptr) };
                    }
                });
            }
        }
        self.edge_deltas = edge_deltas;
    }

    /// Runs one task: assemble the head's gradient from its consumer slots
    /// (serial order), then either deposit it (`Param`), compute adjoints
    /// (`Node`), or interpret the fused chain.
    ///
    /// # Safety
    ///
    /// Caller must run tasks level by level with a barrier between levels
    /// (as `run` does): each edge slot is written by exactly one task and
    /// read (taken) by exactly one task in a strictly later level, and each
    /// `param_grads` entry is written by exactly one task.
    unsafe fn exec_task(
        &self,
        tape: &Tape,
        ti: usize,
        eptr: &SendPtr<Option<Tensor>>,
        pptr: &SendPtr<Option<Tensor>>,
    ) {
        let task = &self.tasks[ti];
        let mut grad = if task.id == self.loss {
            Tensor::scalar(1.0)
        } else {
            let mut acc: Option<Tensor> = None;
            for &slot in &self.cons_slots[self.cons_off[ti]..self.cons_off[ti + 1]] {
                // SAFETY: slot was written when its consumer ran in an
                // earlier level; this task is its only reader.
                let delta =
                    unsafe { &mut *eptr.get().add(slot) }.take().expect("consumer delta missing");
                match &mut acc {
                    Some(g) => g.add_assign(&delta),
                    empty @ None => *empty = Some(delta),
                }
            }
            acc.expect("reachable node received no deltas")
        };
        let scatter = |id: NodeId, grad: &Tensor| {
            for (k, delta) in tape.node_adjoints(id, grad).into_iter().enumerate() {
                let off = self.edge_off[id] + k;
                if !self.skip_edge[off] {
                    // SAFETY: node `id`'s slots are written only by this task.
                    unsafe { *eptr.get().add(off) = Some(delta) };
                }
            }
        };
        match &task.kind {
            // SAFETY: each param node is deposited by exactly one task.
            Kind::Param => unsafe { *pptr.get().add(task.id) = Some(grad) },
            Kind::Node => scatter(task.id, &grad),
            Kind::Fused { steps: (s, e), tail } => {
                for step in &self.steps[*s as usize..*e as usize] {
                    apply_step(step, tape, &mut grad);
                }
                match tail {
                    Tail::Edge { slot, skip, .. } => {
                        if !skip {
                            // SAFETY: this chain's last edge slot is written
                            // only here.
                            unsafe { *eptr.get().add(*slot) = Some(grad) };
                        }
                    }
                    // SAFETY: a tail param is absorbed by exactly one chain.
                    Tail::Param(q) => unsafe { *pptr.get().add(*q) = Some(grad) },
                    Tail::Op(q) => scatter(*q, &grad),
                }
            }
        }
    }
}

thread_local! {
    static PLAN_CACHE: RefCell<VecDeque<ReplayPlan>> = const { RefCell::new(VecDeque::new()) };
    static DISABLE_DEPTH: Cell<u32> = const { Cell::new(0) };
    static HITS: Cell<u64> = const { Cell::new(0) };
    static COMPILES: Cell<u64> = const { Cell::new(0) };
}

/// True unless replay is switched off by `STUQ_REPLAY=0|off|false` or a
/// surrounding [`with_replay_disabled`] scope on this thread.
pub fn replay_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    let on = *ENV.get_or_init(|| {
        std::env::var("STUQ_REPLAY").map_or(true, |v| {
            let v = v.to_ascii_lowercase();
            !(v == "0" || v == "off" || v == "false")
        })
    });
    on && DISABLE_DEPTH.with(Cell::get) == 0
}

/// Runs `f` with replay disabled on the current thread; [`Tape::backward`]
/// falls back to the serial walk inside the scope. Nests.
pub fn with_replay_disabled<R>(f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            DISABLE_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    DISABLE_DEPTH.with(|d| d.set(d.get() + 1));
    let _guard = Guard;
    f()
}

/// `(plan cache hits, plan compiles)` on the current thread.
pub fn replay_stats() -> (u64, u64) {
    (HITS.with(Cell::get), COMPILES.with(Cell::get))
}

/// Zeroes the current thread's replay counters (test support).
pub fn reset_replay_stats() {
    HITS.with(|c| c.set(0));
    COMPILES.with(|c| c.set(0));
}

/// Drops every cached plan on the current thread (test support).
pub fn clear_replay_cache() {
    PLAN_CACHE.with(|c| {
        if let Ok(mut cache) = c.try_borrow_mut() {
            cache.clear();
        }
    });
}

/// Backward via the thread-local plan cache: reuse a matching compiled plan
/// or compile one, run it, and keep it for the next structurally identical
/// tape (MRU-first, capacity [`PLAN_CACHE_CAP`]).
///
/// Returns `None` when the cache is unavailable — a `Custom` op's backward
/// is re-entering `Tape::backward` while a replay holds the cache — in which
/// case the caller falls back to the serial walk.
pub(crate) fn cached_backward(tape: &Tape, loss: NodeId) -> Option<GradStore> {
    let slot = PLAN_CACHE.with(|c| {
        let mut cache = c.try_borrow_mut().ok()?;
        let found = cache.iter().position(|p| p.matches(tape, loss)).and_then(|i| cache.remove(i));
        Some(found)
    })?;
    let mut plan = match slot {
        Some(plan) => {
            HITS.with(|c| c.set(c.get() + 1));
            if stuq_obs::summary_enabled() {
                stuq_obs::metrics().replay_hits.inc();
            }
            plan
        }
        None => {
            let plan = ReplayPlan::compile(tape, loss);
            COMPILES.with(|c| c.set(c.get() + 1));
            if stuq_obs::summary_enabled() {
                let m = stuq_obs::metrics();
                m.replay_compiles.inc();
                m.replay_fused_chains.add(plan.fused_chains() as u64);
                m.replay_fused_nodes.add(plan.fused_nodes() as u64);
            }
            plan
        }
    };
    let store = plan.run(tape);
    PLAN_CACHE.with(|c| {
        if let Ok(mut cache) = c.try_borrow_mut() {
            cache.push_front(plan);
            while cache.len() > PLAN_CACHE_CAP {
                cache.pop_back();
            }
        }
    });
    Some(store)
}
