//! Named parameter storage.

use stuq_tensor::Tensor;

/// A flat store of named parameter tensors, addressed by slot index.
///
/// Slots are what [`stuq_tensor::Tape::param`] keys gradients by. Snapshots
/// (plain `Vec<Tensor>`) support the weight-space operations the paper needs:
/// SWA/AWA running averages (Eq. 15) and FGE snapshot ensembles.
#[derive(Clone, Debug, Default)]
pub struct ParamSet {
    entries: Vec<(String, Tensor)>,
}

impl ParamSet {
    /// An empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its slot.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> usize {
        self.entries.push((name.into(), value));
        self.entries.len() - 1
    }

    /// Number of parameters (slots).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Value of a slot.
    pub fn get(&self, slot: usize) -> &Tensor {
        &self.entries[slot].1
    }

    /// Mutable value of a slot.
    pub fn get_mut(&mut self, slot: usize) -> &mut Tensor {
        &mut self.entries[slot].1
    }

    /// Mutable access to the raw slot storage, for the optimisers' parallel
    /// per-slot update (disjoint slots are written concurrently).
    pub(crate) fn entries_mut(&mut self) -> &mut [(String, Tensor)] {
        &mut self.entries
    }

    /// Name of a slot.
    pub fn name(&self, slot: usize) -> &str {
        &self.entries[slot].0
    }

    /// Total number of scalar parameters.
    pub fn n_scalars(&self) -> usize {
        self.entries.iter().map(|(_, t)| t.len()).sum()
    }

    /// Copies all parameter values out.
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.entries.iter().map(|(_, t)| t.clone()).collect()
    }

    /// Restores values from a snapshot taken on the same architecture.
    pub fn load_snapshot(&mut self, snap: &[Tensor]) {
        assert_eq!(snap.len(), self.entries.len(), "snapshot arity mismatch");
        for ((_, t), s) in self.entries.iter_mut().zip(snap) {
            assert_eq!(t.shape(), s.shape(), "snapshot shape mismatch");
            *t = s.clone();
        }
    }

    /// True when every parameter is finite (training-health check).
    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|(_, t)| t.all_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut ps = ParamSet::new();
        let a = ps.add("w", Tensor::ones(&[2, 3]));
        let b = ps.add("b", Tensor::zeros(&[1, 3]));
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(ps.name(1), "b");
        assert_eq!(ps.n_scalars(), 9);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut ps = ParamSet::new();
        ps.add("w", Tensor::full(&[2, 2], 3.0));
        let snap = ps.snapshot();
        ps.get_mut(0).map_inplace(|_| 0.0);
        assert_eq!(ps.get(0).sum(), 0.0);
        ps.load_snapshot(&snap);
        assert_eq!(ps.get(0).sum(), 12.0);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn load_rejects_wrong_arity() {
        let mut ps = ParamSet::new();
        ps.add("w", Tensor::ones(&[1, 1]));
        ps.load_snapshot(&[]);
    }
}
