//! Host-speed reference: a fixed amount of CPU work owned by the benchmark,
//! timed next to each measured operation so that the operation's cost can
//! be expressed at a nominal host speed.
//!
//! The shared host this benchmark runs on changes speed by up to half
//! again, in spells from a second to several minutes long, and the spells
//! slow the fastest executions as much as the typical ones, so no
//! statistic over one run's samples removes them. Pairing every operation
//! with a reference timed next to it, on the same thread, cancels most of
//! the shared slowdown; the program under test never runs this code, so a
//! change to the program moves only the operation's side of the ratio.

use std::time::Instant;

use crate::stats::thread_cpu_s;

/// Side of the square matrices of the reference's dense part.
const DENSE: usize = 48;
/// Products of the dense part per timing.
const DENSE_REPS: usize = 24;
/// Shape of the reference's gate part: nodes, embedding width, input and
/// output width — those of one graph-recurrent gate at the serving
/// fixture's size.
const NODES: usize = 43;
const EMBED: usize = 10;
const IN: usize = 66;
const OUT: usize = 64;
/// Gate evaluations per timing, each into its own buffer kept until the
/// end, as a forward pass's tape keeps every value: about 5 MB in all,
/// the size of one serving forward's tape.
const STEPS: usize = 7;

/// Reference time in seconds on a nominal host: about the reference's
/// time on a quiet spell of the 2-vCPU host the benchmark was defined on.
/// Only ratios to it are reported, so its exact value matters only for
/// reading normalised times as milliseconds.
pub const NOMINAL_S: f64 = 5.0e-3;

/// How much more than the reference the program's time moves with the
/// host, in log terms. Across 50 runs of all four workloads the slope of
/// log CPU per operation against log reference time sat at 1.25 to 1.4
/// (the program speeds up more than the reference in the host's fast
/// spells); at 1.25 every ten-seed spread of `cpu_ms_per_op` fell or moved
/// by under 0.01, the largest from 0.146 to 0.094.
pub const ELASTICITY: f64 = 1.25;

/// The reference work and its inputs.
///
/// Two parts, mirroring the kinds of work the program does: small dense
/// matrix products that stay in the first-level cache, then one
/// graph-recurrent gate evaluated a few times — per-node weights generated
/// from node embeddings into freshly allocated buffers that stay live (as
/// the autodiff tape keeps its values), a per-node product and a `tanh`.
/// The host's slow spells slow the sum about as much as they slow the
/// program, whichever of compute, memory or page faults they starve. With
/// a working set well under a forward pass's, the reference tracked only
/// about half of the host's swings.
pub struct HostRef {
    dense: Vec<f32>,
    embed: Vec<f32>,
    pool: Vec<f32>,
    x: Vec<f32>,
}

impl Default for HostRef {
    fn default() -> Self {
        let fill =
            |n: usize, k: usize| (0..n).map(|i| ((i * k) % 17) as f32 / 17.0 - 0.5).collect();
        HostRef {
            dense: fill(DENSE * DENSE, 5),
            embed: fill(NODES * EMBED, 7),
            pool: fill(EMBED * IN * OUT, 11),
            x: fill(NODES * IN, 13),
        }
    }
}

impl HostRef {
    /// Runs the reference work once and returns its duration and the
    /// calling thread's CPU time for it, in seconds.
    pub fn time_both(&mut self) -> (f64, f64) {
        let c0 = thread_cpu_s();
        let t0 = Instant::now();
        self.dense();
        self.gate();
        (t0.elapsed().as_secs_f64(), thread_cpu_s() - c0)
    }

    fn dense(&mut self) {
        const N: usize = DENSE;
        let b = &self.pool[..N * N];
        for _ in 0..DENSE_REPS {
            let mut c = [0.0f32; N * N];
            for i in 0..N {
                for k in 0..N {
                    let aik = self.dense[i * N + k];
                    for (c, &b) in c[i * N..(i + 1) * N].iter_mut().zip(&b[k * N..(k + 1) * N]) {
                        *c += aik * b;
                    }
                }
            }
            // Feed the result back so the products stay dependent.
            self.dense[0] = std::hint::black_box(c[N * N - 1]) * 1e-9;
        }
    }

    fn gate(&mut self) {
        let mut tape = Vec::with_capacity(STEPS);
        for _ in 0..STEPS {
            tape.push(self.gate_step());
        }
        std::hint::black_box(&tape);
    }

    /// One gate evaluation; returns its weight buffer.
    fn gate_step(&mut self) -> Vec<f32> {
        let io = IN * OUT;
        let mut w = vec![0.0f32; NODES * io];
        for n in 0..NODES {
            let wn = &mut w[n * io..(n + 1) * io];
            for d in 0..EMBED {
                let e = self.embed[n * EMBED + d];
                for (w, &p) in wn.iter_mut().zip(&self.pool[d * io..(d + 1) * io]) {
                    *w += e * p;
                }
            }
        }
        let mut y = vec![0.0f32; NODES * OUT];
        for n in 0..NODES {
            let yn = &mut y[n * OUT..(n + 1) * OUT];
            for i in 0..IN {
                let xi = self.x[n * IN + i];
                let row = &w[n * io + i * OUT..n * io + (i + 1) * OUT];
                for (y, &w) in yn.iter_mut().zip(row) {
                    *y += xi * w;
                }
            }
        }
        // Feed the result back so successive steps stay dependent.
        for (x, y) in self.x.iter_mut().zip(&y) {
            *x = std::hint::black_box(y * 1e-3).tanh();
        }
        w
    }

    /// `secs` expressed at the nominal host speed, given the reference
    /// timing `ref_s` taken next to it.
    pub fn nominal(secs: f64, ref_s: f64) -> f64 {
        secs * (NOMINAL_S / ref_s).powf(ELASTICITY)
    }
}
