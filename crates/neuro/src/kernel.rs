//! Compiled synapse kernels: per-layer execution planes with resolved
//! `f32` weights.
//!
//! [`LayerSpec::for_each_synapse`] is the structural source of truth, but
//! walking it is expensive: convolution layers re-derive their 2-D
//! receptive-field geometry on every call and every synapse pays a
//! closure call plus a `weight_ids` indirection into the unique-weight
//! array (for dense layers that gather strides the whole weight matrix and
//! misses cache on nearly every event). A [`CompiledNetwork`] walks the
//! enumeration **once** per network and materializes, per layer, two
//! planes with weights resolved to flat `f32`:
//!
//! * an **output-major** plane — contiguous weight rows per output neuron,
//!   driving the dense analog forward pass,
//! * an **input-major** plane — the transposed view, driving the
//!   event-driven spiking simulator (active input → contiguous fan-out
//!   row).
//!
//! Dense (MLP) layers skip index arrays entirely and store the weight
//! matrix plus its transpose, so a spiking input adds one contiguous
//! row. A step's active inputs add their rows four at a time, in one
//! vectorizable pass over the currents per four rows, each current
//! summing them in ascending input order (`(((c + w_a) + w_b) + w_c) +
//! w_d`); each current is loaded and stored once per four rows instead
//! of once per row. Conv/pool layers store CSR planes.
//!
//! The compiled form is cached on the [`Network`] (`OnceLock<Arc<..>>`),
//! so the spiking runner, the analog forward pass, conversion
//! normalisation and activity sweeps all share one enumeration;
//! [`Network::layers_mut`] invalidates the cache. Numerical contract:
//! every kernel accumulates in exactly the enumeration order of
//! [`LayerSpec::for_each_synapse`], so results are **bit-identical** to
//! the closure-walk reference path (see
//! [`crate::network::reference`]).

use rayon::prelude::*;
use resparc_device::fault::FaultPlan;

use crate::network::{Layer, Network};
use crate::spike::SpikeView;
use crate::topology::LayerSpec;

/// Past this many weights, a dense layer's analog forward pass fans out
/// across threads (per-output parallelism is safe: outputs are
/// independent, so chunking cannot change results).
const PAR_DENSE_WEIGHTS: usize = 1 << 20;

/// The resolved weight planes of one layer.
#[derive(Debug, Clone, PartialEq)]
enum Plane {
    /// Fully-connected layer: no index arrays at all.
    Dense {
        /// `fwd[o * inputs + i]` — output-major weight matrix.
        fwd: Vec<f32>,
        /// `bwd[i * outputs + o]` — input-major (transposed) matrix.
        bwd: Vec<f32>,
    },
    /// Conv/pool layer: CSR planes with resolved weights.
    Sparse {
        /// Output-major row pointers (`outputs + 1` entries).
        out_indptr: Vec<u32>,
        /// Input index of each synapse, grouped by output.
        out_inputs: Vec<u32>,
        /// Resolved weight of each synapse, parallel to `out_inputs`.
        out_weights: Vec<f32>,
        /// Input-major row pointers (`inputs + 1` entries).
        in_indptr: Vec<u32>,
        /// Target output of each synapse, grouped by input.
        in_targets: Vec<u32>,
        /// Resolved weight of each synapse, parallel to `in_targets`.
        in_weights: Vec<f32>,
    },
}

/// One layer compiled to resolved-weight execution planes.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledLayer {
    inputs: usize,
    outputs: usize,
    threshold: f32,
    is_pool: bool,
    plane: Plane,
}

impl CompiledLayer {
    /// Compiles a weighted layer by walking its synapse enumeration once
    /// (twice for sparse layers: a counting and a filling pass).
    pub fn compile(layer: &Layer) -> Self {
        let spec = *layer.spec();
        let w = layer.weights();
        let plane = match spec {
            LayerSpec::Dense { inputs, outputs } => {
                let fwd = w.to_vec();
                let mut bwd = vec![0.0f32; inputs * outputs];
                for o in 0..outputs {
                    for (i, &wv) in w[o * inputs..(o + 1) * inputs].iter().enumerate() {
                        bwd[i * outputs + o] = wv;
                    }
                }
                Plane::Dense { fwd, bwd }
            }
            _ => compile_sparse(&spec, w),
        };
        Self {
            inputs: spec.input_count(),
            outputs: spec.output_count(),
            threshold: layer.threshold(),
            is_pool: matches!(spec, LayerSpec::AvgPool { .. }),
            plane,
        }
    }

    /// Number of input neurons.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of output neurons.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// The layer's spiking threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Whether this is an average-pooling layer (stays linear in analog
    /// mode).
    pub fn is_pool(&self) -> bool {
        self.is_pool
    }

    /// Number of materialized synapses (dense layers count every matrix
    /// cell).
    pub fn synapse_count(&self) -> usize {
        match &self.plane {
            Plane::Dense { fwd, .. } => fwd.len(),
            Plane::Sparse { out_inputs, .. } => out_inputs.len(),
        }
    }

    /// Analog accumulation: writes `out[o] = Σ_i w[o][i] · input[i]` (no
    /// activation function applied). Accumulates in synapse-enumeration
    /// order, so results are bit-identical to the closure-walk reference.
    ///
    /// # Panics
    ///
    /// Panics if `input`/`out` lengths disagree with the layer shape.
    pub fn forward_into(&self, input: &[f32], out: &mut [f32]) {
        assert_eq!(input.len(), self.inputs, "input size mismatch");
        assert_eq!(out.len(), self.outputs, "output size mismatch");
        match &self.plane {
            Plane::Dense { fwd, .. } => {
                if fwd.len() >= PAR_DENSE_WEIGHTS && rayon::current_num_threads() > 1 {
                    self.forward_dense_parallel(fwd, input, out);
                } else {
                    for (row, out_v) in fwd.chunks_exact(self.inputs).zip(out.iter_mut()) {
                        *out_v = dot(row, input);
                    }
                }
            }
            Plane::Sparse {
                out_indptr,
                out_inputs,
                out_weights,
                ..
            } => {
                for (o, out_v) in out.iter_mut().enumerate() {
                    let s = out_indptr[o] as usize;
                    let e = out_indptr[o + 1] as usize;
                    let mut acc = 0.0f32;
                    for (&i, &wv) in out_inputs[s..e].iter().zip(&out_weights[s..e]) {
                        acc += wv * input[i as usize];
                    }
                    *out_v = acc;
                }
            }
        }
    }

    /// Per-output-chunk parallel dense forward, writing each chunk's dot
    /// products directly into `out` (values identical to the serial path:
    /// each output's dot product is unchanged).
    fn forward_dense_parallel(&self, fwd: &[f32], input: &[f32], out: &mut [f32]) {
        let threads = rayon::current_num_threads();
        let chunk = self.outputs.div_ceil(threads).max(1);
        let inputs = self.inputs;
        out.par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(ci, part)| {
                let base = ci * chunk;
                for (k, out_v) in part.iter_mut().enumerate() {
                    let row = &fwd[(base + k) * inputs..(base + k + 1) * inputs];
                    *out_v = dot(row, input);
                }
            });
    }

    /// The layer re-compiled under a device [`FaultPlan`]: every
    /// materialized synapse's weight is replaced by
    /// [`FaultPlan::cell_weight`] keyed on the synapse's physical
    /// cross-point coordinate (`output · inputs + input`), so the
    /// forward and transposed planes receive the **same** fault for the
    /// same synapse regardless of traversal order. The layer's
    /// conductance window (`full_scale`) is its largest |weight|.
    fn with_faults(&self, plan: &FaultPlan, layer_seed: u64) -> Self {
        let full_scale = match &self.plane {
            Plane::Dense { fwd, .. } => fwd.iter().fold(0.0f32, |m, &w| m.max(w.abs())),
            Plane::Sparse { out_weights, .. } => {
                out_weights.iter().fold(0.0f32, |m, &w| m.max(w.abs()))
            }
        };
        let inputs = self.inputs;
        let plane = match &self.plane {
            Plane::Dense { fwd, .. } => {
                let outputs = self.outputs;
                let new_fwd: Vec<f32> = fwd
                    .iter()
                    .enumerate()
                    .map(|(cell, &w)| plan.cell_weight(layer_seed, cell as u64, w, full_scale))
                    .collect();
                let mut bwd = vec![0.0f32; inputs * outputs];
                for o in 0..outputs {
                    for (i, &wv) in new_fwd[o * inputs..(o + 1) * inputs].iter().enumerate() {
                        bwd[i * outputs + o] = wv;
                    }
                }
                Plane::Dense { fwd: new_fwd, bwd }
            }
            Plane::Sparse {
                out_indptr,
                out_inputs,
                out_weights,
                in_indptr,
                in_targets,
                in_weights,
            } => {
                let mut new_out = out_weights.clone();
                for o in 0..self.outputs {
                    let (s, e) = (out_indptr[o] as usize, out_indptr[o + 1] as usize);
                    for (k, &i) in out_inputs[s..e].iter().enumerate() {
                        let cell = (o * inputs + i as usize) as u64;
                        new_out[s + k] =
                            plan.cell_weight(layer_seed, cell, out_weights[s + k], full_scale);
                    }
                }
                let mut new_in = in_weights.clone();
                for i in 0..inputs {
                    let (s, e) = (in_indptr[i] as usize, in_indptr[i + 1] as usize);
                    for (k, &o) in in_targets[s..e].iter().enumerate() {
                        let cell = (o as usize * inputs + i) as u64;
                        new_in[s + k] =
                            plan.cell_weight(layer_seed, cell, in_weights[s + k], full_scale);
                    }
                }
                Plane::Sparse {
                    out_indptr: out_indptr.clone(),
                    out_inputs: out_inputs.clone(),
                    out_weights: new_out,
                    in_indptr: in_indptr.clone(),
                    in_targets: in_targets.clone(),
                    in_weights: new_in,
                }
            }
        };
        Self {
            inputs: self.inputs,
            outputs: self.outputs,
            threshold: self.threshold,
            is_pool: self.is_pool,
            plane,
        }
    }

    /// Event-driven accumulation: adds every active input's fan-out into
    /// `currents` and returns the number of synaptic events. Accumulation
    /// order equals the reference input-major walk, so sums are
    /// bit-identical.
    ///
    /// A dense layer takes its active inputs four at a time, in ascending
    /// order, and adds their four transposed rows in one pass over the
    /// currents as `(((c + w_a) + w_b) + w_c) + w_d`; the 0–3 inputs left
    /// over add one row per pass. Each current therefore still sums one
    /// row at a time in ascending input order. Regrouping the four
    /// (say `(c + (w_a + w_b)) + …`) would break that order, and the
    /// kernel proptest in `tests/proptests.rs` compares bits to catch it.
    ///
    /// # Panics
    ///
    /// Panics if `spikes`/`currents` lengths disagree with the layer
    /// shape.
    pub fn accumulate_spikes(&self, spikes: SpikeView<'_>, currents: &mut [f32]) -> u64 {
        assert_eq!(spikes.len(), self.inputs, "input size mismatch");
        assert_eq!(currents.len(), self.outputs, "output size mismatch");
        let mut events = 0u64;
        match &self.plane {
            Plane::Dense { bwd, .. } => {
                let n = self.outputs;
                let row = |i: usize| &bwd[i * n..(i + 1) * n];
                let mut group = [0usize; 4];
                let mut held = 0;
                for i in spikes.iter_ones() {
                    group[held] = i;
                    held += 1;
                    if held == group.len() {
                        #[cfg(test)]
                        tests::PASSES.with(|p| p.set(p.get() + 1));
                        let [a, b, c, d] = group.map(row);
                        let rows = currents.iter_mut().zip(a).zip(b).zip(c).zip(d);
                        for ((((cur, &wa), &wb), &wc), &wd) in rows {
                            *cur = (((*cur + wa) + wb) + wc) + wd;
                        }
                        held = 0;
                    }
                    events += n as u64;
                }
                for &i in &group[..held] {
                    #[cfg(test)]
                    tests::PASSES.with(|p| p.set(p.get() + 1));
                    for (cur, &wv) in currents.iter_mut().zip(row(i)) {
                        *cur += wv;
                    }
                }
            }
            Plane::Sparse {
                in_indptr,
                in_targets,
                in_weights,
                ..
            } => {
                for i in spikes.iter_ones() {
                    let s = in_indptr[i] as usize;
                    let e = in_indptr[i + 1] as usize;
                    events += (e - s) as u64;
                    for (&t, &wv) in in_targets[s..e].iter().zip(&in_weights[s..e]) {
                        currents[t as usize] += wv;
                    }
                }
            }
        }
        events
    }
}

/// Sequential dot product (deliberately not reassociated: float order must
/// match the reference accumulation exactly).
#[inline]
fn dot(row: &[f32], input: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&a, &b) in row.iter().zip(input) {
        acc += a * b;
    }
    acc
}

fn compile_sparse(spec: &LayerSpec, w: &[f32]) -> Plane {
    let inputs = spec.input_count();
    let outputs = spec.output_count();
    // Counting pass.
    let mut out_counts = vec![0u32; outputs];
    let mut in_counts = vec![0u32; inputs];
    spec.for_each_synapse(|o, i, _| {
        out_counts[o] += 1;
        in_counts[i] += 1;
    });
    let out_indptr = prefix_sum(&out_counts);
    let in_indptr = prefix_sum(&in_counts);
    let total = *out_indptr.last().expect("non-empty indptr") as usize;
    // Filling pass, preserving enumeration order within each row of both
    // planes (the numerical-equivalence contract depends on this).
    let mut out_inputs = vec![0u32; total];
    let mut out_weights = vec![0.0f32; total];
    let mut in_targets = vec![0u32; total];
    let mut in_weights = vec![0.0f32; total];
    let mut out_cursor: Vec<u32> = out_indptr[..outputs].to_vec();
    let mut in_cursor: Vec<u32> = in_indptr[..inputs].to_vec();
    spec.for_each_synapse(|o, i, wid| {
        let wv = w[wid];
        let ko = out_cursor[o] as usize;
        out_inputs[ko] = i as u32;
        out_weights[ko] = wv;
        out_cursor[o] += 1;
        let ki = in_cursor[i] as usize;
        in_targets[ki] = o as u32;
        in_weights[ki] = wv;
        in_cursor[i] += 1;
    });
    Plane::Sparse {
        out_indptr,
        out_inputs,
        out_weights,
        in_indptr,
        in_targets,
        in_weights,
    }
}

fn prefix_sum(counts: &[u32]) -> Vec<u32> {
    let mut indptr = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0u32;
    indptr.push(0);
    for &c in counts {
        acc += c;
        indptr.push(acc);
    }
    indptr
}

/// A whole network compiled to execution planes.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledNetwork {
    input_count: usize,
    layers: Vec<CompiledLayer>,
}

impl CompiledNetwork {
    /// Compiles every layer of `net`.
    pub fn compile(net: &Network) -> Self {
        Self {
            input_count: net.input_count(),
            layers: net.layers().iter().map(CompiledLayer::compile).collect(),
        }
    }

    /// Number of input neurons.
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The compiled layers.
    pub fn layers(&self) -> &[CompiledLayer] {
        &self.layers
    }

    /// The compiled layer at `li`.
    pub fn layer(&self, li: usize) -> &CompiledLayer {
        &self.layers[li]
    }

    /// Output neuron count of the final layer.
    pub fn output_count(&self) -> usize {
        self.layers.last().expect("non-empty").outputs()
    }

    /// ANN-mode forward pass returning every layer's post-activation
    /// output (ReLU after every layer except the last; pooling layers stay
    /// linear) — the compiled equivalent of
    /// [`Network::forward_analog_all`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_count()`.
    pub fn forward_all(&self, input: &[f32]) -> Vec<Vec<f32>> {
        assert_eq!(input.len(), self.input_count, "input size mismatch");
        let mut acts: Vec<Vec<f32>> = Vec::with_capacity(self.layers.len());
        let mut current: &[f32] = input;
        for (li, layer) in self.layers.iter().enumerate() {
            let mut out = vec![0.0f32; layer.outputs()];
            layer.forward_into(current, &mut out);
            if li + 1 != self.layers.len() && !layer.is_pool() {
                for v in &mut out {
                    *v = v.max(0.0);
                }
            }
            acts.push(out);
            current = acts.last().expect("just pushed");
        }
        acts
    }

    /// ANN-mode forward pass returning only the final layer's activations.
    /// Double-buffered: two ping-pong scratch buffers are reused across
    /// layers, so a call performs O(1) allocations regardless of depth.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_count()`.
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.input_count, "input size mismatch");
        let mut current: Vec<f32> = Vec::new();
        let mut next: Vec<f32> = Vec::new();
        for (li, layer) in self.layers.iter().enumerate() {
            next.clear();
            next.resize(layer.outputs(), 0.0);
            layer.forward_into(if li == 0 { input } else { &current }, &mut next);
            if li + 1 != self.layers.len() && !layer.is_pool() {
                for v in &mut next {
                    *v = v.max(0.0);
                }
            }
            std::mem::swap(&mut current, &mut next);
        }
        current
    }

    /// Argmax classification over [`Self::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_count()`.
    pub fn classify(&self, input: &[f32]) -> usize {
        crate::network::argmax(&self.forward(input))
    }

    /// Total materialized synapses across layers.
    pub fn synapse_count(&self) -> usize {
        self.layers.iter().map(|l| l.synapse_count()).sum()
    }

    /// The network re-compiled under a device [`FaultPlan`] — a **pure
    /// transform**: `self` is untouched, and an
    /// [empty](FaultPlan::is_empty) plan returns a bit-identical copy
    /// (the transform is skipped outright, not applied with neutral
    /// parameters), so the fault-free path costs and computes exactly
    /// what today's unfaulted kernels do.
    ///
    /// Layer `li` draws from the decorrelated stream
    /// [`FaultPlan::layer_seed`]`(li)`; within a layer every synapse's
    /// fault is keyed on its physical cross-point coordinate, so the
    /// output-major and input-major planes stay exact transposes of
    /// each other (asserted in tests).
    ///
    /// # Examples
    ///
    /// ```
    /// use resparc_device::FaultPlan;
    /// use resparc_neuro::kernel::CompiledNetwork;
    /// use resparc_neuro::network::Network;
    /// use resparc_neuro::topology::Topology;
    ///
    /// let net = Network::random(Topology::mlp(16, &[8, 4]), 1, 1.0);
    /// let clean = CompiledNetwork::compile(&net);
    /// assert_eq!(clean.with_faults(&FaultPlan::none()), clean);
    /// let faulted = clean.with_faults(&FaultPlan::stuck_at(7, 0.3));
    /// assert_ne!(faulted, clean);
    /// ```
    pub fn with_faults(&self, plan: &FaultPlan) -> Self {
        if plan.is_empty() {
            return self.clone();
        }
        Self {
            input_count: self.input_count,
            layers: self
                .layers
                .iter()
                .enumerate()
                .map(|(li, layer)| layer.with_faults(plan, plan.layer_seed(li)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::spike::SpikeVector;
    use crate::topology::{ChannelTable, Padding, Shape, Topology};
    use std::cell::Cell;

    thread_local! {
        /// Passes over the currents by `accumulate_spikes`'s dense branch
        /// on this thread (each test runs on its own thread).
        pub(super) static PASSES: Cell<u64> = const { Cell::new(0) };
    }

    fn conv_net(seed: u64) -> Network {
        let t = Topology::builder(Shape::new(10, 10, 1))
            .conv(4, 3, Padding::Same, ChannelTable::Full)
            .pool(2)
            .conv(6, 3, Padding::Valid, ChannelTable::Banded { fan: 2 })
            .dense(5)
            .build()
            .expect("consistent");
        Network::random(t, seed, 1.0)
    }

    #[test]
    fn compiled_shapes_match_network() {
        let net = conv_net(3);
        let k = CompiledNetwork::compile(&net);
        assert_eq!(k.layer_count(), 4);
        assert_eq!(k.input_count(), 100);
        assert_eq!(k.output_count(), 5);
        for (cl, l) in k.layers().iter().zip(net.layers()) {
            assert_eq!(cl.inputs(), l.spec().input_count());
            assert_eq!(cl.outputs(), l.spec().output_count());
            assert_eq!(cl.synapse_count(), l.spec().synapse_count());
            assert_eq!(cl.threshold(), l.threshold());
        }
    }

    #[test]
    fn dense_planes_are_transposes() {
        let net = Network::random(Topology::mlp(7, &[5]), 1, 1.0);
        let k = CompiledNetwork::compile(&net);
        let Plane::Dense { fwd, bwd } = &k.layer(0).plane else {
            panic!("dense layer must compile to a dense plane");
        };
        for o in 0..5 {
            for i in 0..7 {
                assert_eq!(fwd[o * 7 + i], bwd[i * 5 + o]);
            }
        }
    }

    /// A dense layer adds four active inputs' rows per pass over its
    /// currents and each of the 0–3 left over in a pass of its own:
    /// ⌊k/4⌋ + k mod 4 passes for k active inputs, where a kernel that
    /// adds one row per pass makes k. A count, so unlike the `snn_step`
    /// timing gate it does not depend on the machine's load.
    #[test]
    fn dense_accumulation_adds_four_rows_per_pass() {
        let kernels = CompiledNetwork::compile(&Network::random(Topology::mlp(40, &[6]), 5, 1.0));
        for k in [0usize, 1, 3, 4, 5, 8, 11, 13] {
            let active: Vec<bool> = (0..40).map(|i| i % 3 == 0 && i / 3 < k).collect();
            let spikes = SpikeVector::from_bools(&active);
            PASSES.with(|p| p.set(0));
            let events = kernels
                .layer(0)
                .accumulate_spikes(spikes.view(), &mut [0.0; 6]);
            assert_eq!(events, 6 * k as u64);
            assert_eq!(PASSES.with(Cell::get), (k / 4 + k % 4) as u64, "k = {k}");
        }
    }

    #[test]
    fn sparse_rows_cover_all_synapses() {
        let net = conv_net(5);
        let k = CompiledNetwork::compile(&net);
        assert_eq!(k.synapse_count(), net.topology().synapse_count());
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        for net in [
            conv_net(11),
            Network::random(Topology::mlp(20, &[12, 5]), 11, 1.0),
        ] {
            let clean = CompiledNetwork::compile(&net);
            let replanned = clean.with_faults(&FaultPlan::none());
            assert_eq!(clean, replanned);
            // PartialEq on f32 treats -0.0 == 0.0; check raw bits too.
            for (a, b) in clean.layers().iter().zip(replanned.layers()) {
                match (&a.plane, &b.plane) {
                    (Plane::Dense { fwd: fa, bwd: ba }, Plane::Dense { fwd: fb, bwd: bb }) => {
                        assert!(fa.iter().zip(fb).all(|(x, y)| x.to_bits() == y.to_bits()));
                        assert!(ba.iter().zip(bb).all(|(x, y)| x.to_bits() == y.to_bits()));
                    }
                    (
                        Plane::Sparse {
                            out_weights: oa,
                            in_weights: ia,
                            ..
                        },
                        Plane::Sparse {
                            out_weights: ob,
                            in_weights: ib,
                            ..
                        },
                    ) => {
                        assert!(oa.iter().zip(ob).all(|(x, y)| x.to_bits() == y.to_bits()));
                        assert!(ia.iter().zip(ib).all(|(x, y)| x.to_bits() == y.to_bits()));
                    }
                    _ => panic!("plane kinds diverged"),
                }
            }
        }
    }

    #[test]
    fn faulted_planes_stay_transposes_of_each_other() {
        let plan = FaultPlan::stuck_at(13, 0.2)
            .with_drift(0.1)
            .with_variation(0.15);
        // Dense: fwd/bwd stay exact transposes.
        let net = Network::random(Topology::mlp(9, &[7]), 2, 1.0);
        let faulted = CompiledNetwork::compile(&net).with_faults(&plan);
        let Plane::Dense { fwd, bwd } = &faulted.layer(0).plane else {
            panic!("dense layer must compile dense");
        };
        for o in 0..7 {
            for i in 0..9 {
                assert_eq!(fwd[o * 9 + i].to_bits(), bwd[i * 7 + o].to_bits());
            }
        }
        // Sparse: the same synapse carries the same faulted weight in
        // both CSR planes.
        let conv = CompiledNetwork::compile(&conv_net(4)).with_faults(&plan);
        for layer in conv.layers() {
            let Plane::Sparse {
                out_indptr,
                out_inputs,
                out_weights,
                in_indptr,
                in_targets,
                in_weights,
            } = &layer.plane
            else {
                continue;
            };
            let mut by_cell = std::collections::BTreeMap::new();
            for o in 0..layer.outputs() {
                let (s, e) = (out_indptr[o] as usize, out_indptr[o + 1] as usize);
                for (k, &i) in out_inputs[s..e].iter().enumerate() {
                    by_cell.insert((o as u32, i), out_weights[s + k].to_bits());
                }
            }
            for i in 0..layer.inputs() {
                let (s, e) = (in_indptr[i] as usize, in_indptr[i + 1] as usize);
                for (k, &o) in in_targets[s..e].iter().enumerate() {
                    assert_eq!(
                        by_cell.get(&(o, i as u32)),
                        Some(&in_weights[s + k].to_bits()),
                        "synapse ({o}, {i}) diverged between planes"
                    );
                }
            }
        }
    }

    #[test]
    fn fault_transform_is_pure_and_deterministic() {
        let net = conv_net(9);
        let clean = CompiledNetwork::compile(&net);
        let reference = clean.clone();
        let plan = FaultPlan::stuck_at(21, 0.4).with_variation(0.2);
        let a = clean.with_faults(&plan);
        let b = clean.with_faults(&plan);
        assert_eq!(a, b, "same plan twice must be bit-identical");
        assert_eq!(clean, reference, "with_faults must not mutate its input");
        assert_ne!(a, clean);
        // Shapes and structure are untouched — only weights change.
        assert_eq!(a.synapse_count(), clean.synapse_count());
        assert_eq!(a.input_count(), clean.input_count());
        for (fa, cl) in a.layers().iter().zip(clean.layers()) {
            assert_eq!(fa.inputs(), cl.inputs());
            assert_eq!(fa.outputs(), cl.outputs());
            assert_eq!(fa.threshold(), cl.threshold());
        }
    }

    #[test]
    fn forward_and_forward_all_agree() {
        let net = conv_net(7);
        let k = CompiledNetwork::compile(&net);
        let x: Vec<f32> = (0..100).map(|i| (i % 9) as f32 / 9.0).collect();
        let all = k.forward_all(&x);
        assert_eq!(all.last().expect("layers"), &k.forward(&x));
    }
}
