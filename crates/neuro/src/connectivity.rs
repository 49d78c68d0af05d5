//! Per-layer connectivity matrices in compressed sparse form.
//!
//! The hardware mapper partitions each layer's *connectivity matrix*
//! (paper Fig. 2) across crossbars. [`ConnectivityMatrix`] stores it
//! explicitly: for each output neuron (a crossbar column), the sorted list
//! of its input neurons (crossbar rows) and the id of the unique weight on
//! each connection. The mapper itself tiles dense layers from their shape
//! and streams conv/pool fields from their geometry
//! ([`LayerSpec::receptive_fields`]); packing this matrix is the general
//! path both are checked against.
//!
//! # Examples
//!
//! ```
//! use resparc_neuro::topology::LayerSpec;
//! use resparc_neuro::connectivity::ConnectivityMatrix;
//!
//! let layer = LayerSpec::Dense { inputs: 4, outputs: 2 };
//! let m = ConnectivityMatrix::from_layer(&layer);
//! assert_eq!(m.fan_in(0), 4);
//! assert_eq!(m.synapse_count(), 8);
//! ```

use crate::topology::LayerSpec;

/// Sparse (CSR-like, output-major) connectivity of one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectivityMatrix {
    inputs: usize,
    outputs: usize,
    /// `indptr[o]..indptr[o+1]` delimits output `o`'s connections.
    indptr: Vec<u32>,
    /// Input-neuron index of each connection, sorted within an output.
    indices: Vec<u32>,
    /// Unique-weight id of each connection.
    weight_ids: Vec<u32>,
    unique_weights: usize,
}

impl ConnectivityMatrix {
    /// Extracts the connectivity matrix of a layer.
    pub fn from_layer(layer: &LayerSpec) -> Self {
        let outputs = layer.output_count();
        let mut counts = vec![0u32; outputs];
        layer.for_each_synapse(|o, _, _| counts[o] += 1);
        let mut indptr = Vec::with_capacity(outputs + 1);
        indptr.push(0u32);
        for &c in &counts {
            indptr.push(indptr.last().unwrap() + c);
        }
        let total = *indptr.last().unwrap() as usize;
        let mut indices = vec![0u32; total];
        let mut weight_ids = vec![0u32; total];
        let mut cursor: Vec<u32> = indptr[..outputs].to_vec();
        layer.for_each_synapse(|o, i, w| {
            let at = cursor[o] as usize;
            indices[at] = i as u32;
            weight_ids[at] = w as u32;
            cursor[o] += 1;
        });
        // Banded channel tables wrap around the input maps, so rows can
        // arrive out of order; sort each output's (input, weight) pairs by
        // input index so the mapper sees canonical rows.
        for o in 0..outputs {
            let s = indptr[o] as usize;
            let e = indptr[o + 1] as usize;
            if !indices[s..e].windows(2).all(|w| w[0] < w[1]) {
                let mut pairs: Vec<(u32, u32)> = indices[s..e]
                    .iter()
                    .copied()
                    .zip(weight_ids[s..e].iter().copied())
                    .collect();
                pairs.sort_unstable();
                for (k, (i, w)) in pairs.into_iter().enumerate() {
                    indices[s + k] = i;
                    weight_ids[s + k] = w;
                }
            }
        }
        Self {
            inputs: layer.input_count(),
            outputs,
            indptr,
            indices,
            weight_ids,
            unique_weights: layer.unique_weight_count(),
        }
    }

    /// Number of input neurons (matrix rows).
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of output neurons (matrix columns).
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Total connection count.
    pub fn synapse_count(&self) -> usize {
        self.indices.len()
    }

    /// Number of unique weights referenced.
    pub fn unique_weight_count(&self) -> usize {
        self.unique_weights
    }

    /// Fan-in of output neuron `o`.
    pub fn fan_in(&self, o: usize) -> usize {
        (self.indptr[o + 1] - self.indptr[o]) as usize
    }

    /// Maximum fan-in over all outputs.
    pub fn max_fan_in(&self) -> usize {
        (0..self.outputs).map(|o| self.fan_in(o)).max().unwrap_or(0)
    }

    /// The sorted input indices of output `o`.
    pub fn inputs_of(&self, o: usize) -> &[u32] {
        &self.indices[self.indptr[o] as usize..self.indptr[o + 1] as usize]
    }

    /// The weight ids of output `o`, parallel to [`Self::inputs_of`].
    pub fn weight_ids_of(&self, o: usize) -> &[u32] {
        &self.weight_ids[self.indptr[o] as usize..self.indptr[o + 1] as usize]
    }

    /// Density of the matrix: connections / (inputs × outputs).
    pub fn density(&self) -> f64 {
        if self.inputs == 0 || self.outputs == 0 {
            return 0.0;
        }
        self.synapse_count() as f64 / (self.inputs as f64 * self.outputs as f64)
    }

    /// Iterates `(output, inputs, weight_ids)` for every output neuron.
    pub fn iter_outputs(&self) -> impl Iterator<Item = (usize, &[u32], &[u32])> + '_ {
        (0..self.outputs).map(move |o| (o, self.inputs_of(o), self.weight_ids_of(o)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ChannelTable, Padding, Shape};

    #[test]
    fn dense_matrix_is_fully_dense() {
        let l = LayerSpec::Dense {
            inputs: 5,
            outputs: 3,
        };
        let m = ConnectivityMatrix::from_layer(&l);
        assert_eq!(m.density(), 1.0);
        assert_eq!(m.max_fan_in(), 5);
        assert_eq!(m.inputs_of(2), &[0, 1, 2, 3, 4]);
        assert_eq!(m.weight_ids_of(1), &[5, 6, 7, 8, 9]);
    }

    #[test]
    fn conv_matrix_is_sparse() {
        let l = LayerSpec::Conv2d {
            input: Shape::new(8, 8, 2),
            maps: 4,
            kernel: 3,
            stride: 1,
            padding: Padding::Valid,
            table: ChannelTable::Full,
        };
        let m = ConnectivityMatrix::from_layer(&l);
        assert!(m.density() < 0.2, "density {}", m.density());
        assert_eq!(m.synapse_count(), l.synapse_count());
        assert_eq!(m.max_fan_in(), 18);
        // Every output's inputs are sorted and unique.
        for (_, ins, _) in m.iter_outputs() {
            assert!(ins.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn counts_agree_with_layer() {
        let l = LayerSpec::AvgPool {
            input: Shape::new(12, 12, 6),
            window: 2,
        };
        let m = ConnectivityMatrix::from_layer(&l);
        assert_eq!(m.synapse_count(), l.synapse_count());
        assert_eq!(m.outputs(), l.output_count());
        assert_eq!(m.inputs(), l.input_count());
        assert_eq!(m.unique_weight_count(), 1);
        assert!((0..m.outputs()).all(|o| m.fan_in(o) == 4));
    }

    #[test]
    fn weight_ids_stay_in_range() {
        let l = LayerSpec::Conv2d {
            input: Shape::new(6, 6, 3),
            maps: 5,
            kernel: 3,
            stride: 1,
            padding: Padding::Same,
            table: ChannelTable::Banded { fan: 2 },
        };
        let m = ConnectivityMatrix::from_layer(&l);
        let maxw = m
            .iter_outputs()
            .flat_map(|(_, _, w)| w.iter().copied())
            .max()
            .unwrap();
        assert!((maxw as usize) < m.unique_weight_count());
    }
}
