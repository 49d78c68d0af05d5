//! Weighted networks and the functional (algorithm-level) SNN simulator.
//!
//! A [`Network`] couples a [`Topology`] with per-layer unique-weight arrays
//! and firing thresholds. It supports two execution modes:
//!
//! * **analog forward** ([`Network::forward_analog`]) — the ANN view
//!   (ReLU between layers), used for training and for the Diehl-style
//!   ANN→SNN normalisation,
//! * **spiking** ([`SnnRunner`]) — timestep-by-timestep IF dynamics on
//!   binary spikes, used to measure accuracy (paper Fig. 14a) and to
//!   extract the spike-activity statistics that drive the architectural
//!   simulators.
//!
//! Both modes execute on [compiled synapse kernels](crate::kernel):
//! resolved-weight planes materialized once per network, cached on the
//! [`Network`] and shared by every runner, batch call and sweep.
//! Mutating weights or thresholds through [`Network::layers_mut`]
//! invalidates the cache; the next execution recompiles. The original
//! closure-walk implementation is preserved in [`reference`](mod@reference) as the
//! equivalence oracle and benchmark baseline — compiled results are
//! bit-identical to it.
//!
//! Batched entry points ([`Network::forward_analog_batch`],
//! [`Network::spiking_batch`], ..) evaluate many stimuli per call with
//! data-parallelism across the batch.
//!
//! # Examples
//!
//! ```
//! use resparc_neuro::network::Network;
//! use resparc_neuro::topology::Topology;
//!
//! let net = Network::random(Topology::mlp(16, &[8, 4]), 42, 0.5);
//! let out = net.forward_analog(&vec![0.5; 16]);
//! assert_eq!(out.len(), 4);
//!
//! // Batched: one call, shared compiled kernels, parallel across stimuli.
//! let batch: Vec<Vec<f32>> = (0..8).map(|i| vec![i as f32 / 8.0; 16]).collect();
//! let outs = net.forward_analog_batch(&batch);
//! assert_eq!(outs.len(), 8);
//! assert_eq!(outs[3], net.forward_analog(&batch[3]));
//! ```

use std::fmt;
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;

use crate::encoding::Readout;
use crate::kernel::CompiledNetwork;
use crate::neuron::Membrane;
use crate::spike::{AsSpikeView, SpikeRaster, SpikeVector};
use crate::topology::{LayerSpec, Topology};
use crate::trace::SpikeTrace;

/// One weighted layer: spec + unique weights + firing threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    spec: LayerSpec,
    /// Unique weights, indexed by the weight ids that
    /// [`LayerSpec::for_each_synapse`] yields.
    weights: Vec<f32>,
    /// IF firing threshold used in spiking mode.
    threshold: f32,
}

impl Layer {
    /// Creates a layer; `weights.len()` must equal
    /// [`LayerSpec::unique_weight_count`].
    ///
    /// # Panics
    ///
    /// Panics on a weight-count mismatch or a threshold that is not
    /// strictly positive and finite.
    pub fn new(spec: LayerSpec, weights: Vec<f32>, threshold: f32) -> Self {
        assert_eq!(
            weights.len(),
            spec.unique_weight_count(),
            "weight count mismatch for {} layer",
            spec.kind()
        );
        assert_valid_threshold(threshold);
        Self {
            spec,
            weights,
            threshold,
        }
    }

    /// The layer's structural spec.
    pub fn spec(&self) -> &LayerSpec {
        &self.spec
    }

    /// The unique-weight array.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Mutable access to the unique-weight array (training, quantization).
    pub fn weights_mut(&mut self) -> &mut [f32] {
        &mut self.weights
    }

    /// The spiking threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Sets the spiking threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not strictly positive and finite.
    pub fn set_threshold(&mut self, threshold: f32) {
        assert_valid_threshold(threshold);
        self.threshold = threshold;
    }
}

/// Checks a threshold where it enters a [`Layer`], so every threshold a
/// runner hands to [`Membrane::step`] has already passed it.
fn assert_valid_threshold(threshold: f32) {
    assert!(
        threshold > 0.0 && threshold.is_finite(),
        "threshold must be positive and finite, got {threshold}"
    );
}

/// A complete weighted network.
///
/// Holds its validated [`Topology`] (built once at construction) and
/// lazily caches its [`CompiledNetwork`] execution kernels and its
/// per-layer [mean weight magnitudes](Network::mean_weight_magnitudes);
/// cloning a network shares the cached values, and
/// [`Network::layers_mut`] invalidates them.
#[derive(Clone)]
pub struct Network {
    input_count: usize,
    layers: Vec<Layer>,
    topology: Topology,
    kernels: OnceLock<Arc<CompiledNetwork>>,
    weight_mags: OnceLock<Vec<f64>>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("input_count", &self.input_count)
            .field("layers", &self.layers)
            .field("kernels_cached", &self.kernels.get().is_some())
            .finish()
    }
}

impl PartialEq for Network {
    fn eq(&self, other: &Self) -> bool {
        // The topology is derived from the layers and the kernel and
        // weight-magnitude caches are derived state; none participates in
        // equality.
        self.input_count == other.input_count && self.layers == other.layers
    }
}

impl Network {
    /// Assembles a network from weighted layers.
    ///
    /// # Panics
    ///
    /// Panics if the layer stack fails [`Topology`] validation.
    pub fn new(input_count: usize, layers: Vec<Layer>) -> Self {
        let specs: Vec<LayerSpec> = layers.iter().map(|l| *l.spec()).collect();
        let topology =
            Topology::new(input_count, specs).expect("layer stack must be size-consistent");
        Self {
            input_count,
            layers,
            topology,
            kernels: OnceLock::new(),
            weight_mags: OnceLock::new(),
        }
    }

    /// Builds a network over `topology` with Gaussian random weights of
    /// standard deviation `scale / sqrt(fan_in)` (He-style), thresholds 1.
    ///
    /// Used for architectural experiments that need realistic weight
    /// *distributions* but not trained accuracy.
    pub fn random(topology: Topology, seed: u64, scale: f32) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = topology
            .layers()
            .iter()
            .map(|&spec| {
                let n = spec.unique_weight_count();
                let std = scale / (spec.max_fan_in().max(1) as f32).sqrt();
                let weights = match spec {
                    LayerSpec::AvgPool { window, .. } => {
                        vec![1.0 / (window * window) as f32]
                    }
                    _ => (0..n).map(|_| gaussian(&mut rng) * std).collect(),
                };
                Layer::new(spec, weights, 1.0)
            })
            .collect();
        Self {
            input_count: topology.input_count(),
            layers,
            topology,
            kernels: OnceLock::new(),
            weight_mags: OnceLock::new(),
        }
    }

    /// Number of input neurons.
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// The weighted layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers. Invalidates the compiled-kernel
    /// and weight-magnitude caches: the next execution recompiles against
    /// the new weights / thresholds.
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        self.kernels.take();
        self.weight_mags.take();
        &mut self.layers
    }

    /// Per-layer mean magnitude of the *normalized* weights (each layer's
    /// |weight| over its largest |weight|) — what a crossbar stores, and
    /// what the RESPARC mapper feeds its crossbar energy model. `0.0`
    /// for a layer without weights. Computed on first use (one
    /// sequential `f64` sum per layer, in weight order) and cached until
    /// [`layers_mut`](Self::layers_mut).
    pub fn mean_weight_magnitudes(&self) -> &[f64] {
        self.weight_mags.get_or_init(|| {
            self.layers
                .iter()
                .map(|l| {
                    let ws = l.weights();
                    if ws.is_empty() {
                        0.0
                    } else {
                        let max = ws.iter().fold(0.0f32, |m, &w| m.max(w.abs())).max(1e-12);
                        (ws.iter().map(|&w| (w.abs() / max) as f64).sum::<f64>()) / ws.len() as f64
                    }
                })
                .collect()
        })
    }

    /// The structural topology of this network (validated once at
    /// construction; borrowing it is free).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The compiled execution kernels, materializing them on first use.
    /// The `Arc` is shared: runners and batch calls all execute the same
    /// planes.
    pub fn compiled(&self) -> Arc<CompiledNetwork> {
        Arc::clone(self.kernels_ref())
    }

    fn kernels_ref(&self) -> &Arc<CompiledNetwork> {
        self.kernels
            .get_or_init(|| Arc::new(CompiledNetwork::compile(self)))
    }

    /// Output class count (size of the last layer).
    pub fn output_count(&self) -> usize {
        self.layers.last().expect("non-empty").spec().output_count()
    }

    /// ANN-mode forward pass: ReLU after every layer except the last;
    /// pooling layers stay linear. Returns the final-layer activations.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_count()`.
    pub fn forward_analog(&self, input: &[f32]) -> Vec<f32> {
        self.kernels_ref().forward(input)
    }

    /// ANN-mode forward pass returning every layer's post-activation
    /// output (used by the conversion normaliser).
    pub fn forward_analog_all(&self, input: &[f32]) -> Vec<Vec<f32>> {
        self.kernels_ref().forward_all(input)
    }

    /// Batched ANN-mode forward pass: evaluates every stimulus on the
    /// shared compiled kernels, in parallel across the batch. Results are
    /// identical to calling [`Self::forward_analog`] per stimulus.
    pub fn forward_analog_batch(&self, inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let kernels = self.kernels_ref();
        inputs.par_iter().map(|x| kernels.forward(x)).collect()
    }

    /// Batched variant of [`Self::forward_analog_all`]: per-stimulus,
    /// per-layer post-activation outputs.
    pub fn forward_analog_all_batch(&self, inputs: &[Vec<f32>]) -> Vec<Vec<Vec<f32>>> {
        let kernels = self.kernels_ref();
        inputs.par_iter().map(|x| kernels.forward_all(x)).collect()
    }

    /// Argmax classification in ANN mode.
    pub fn classify_analog(&self, input: &[f32]) -> usize {
        argmax(&self.forward_analog(input))
    }

    /// Batched argmax classification in ANN mode.
    pub fn classify_analog_batch(&self, inputs: &[Vec<f32>]) -> Vec<usize> {
        let kernels = self.kernels_ref();
        inputs
            .par_iter()
            .map(|x| argmax(&kernels.forward(x)))
            .collect()
    }

    /// Creates a spiking runner with fresh membranes (sharing the compiled
    /// kernels).
    pub fn spiking(&self) -> SnnRunner {
        SnnRunner::new(self)
    }

    /// Runs one spiking classification per raster, in parallel across the
    /// batch. Every runner shares the compiled kernels, so the synapse
    /// structure is enumerated once for the whole sweep. Results are
    /// identical to running each raster on a fresh [`SnnRunner`].
    pub fn spiking_batch(&self, rasters: &[SpikeRaster]) -> Vec<Classification> {
        let kernels = self.kernels_ref();
        rasters
            .par_iter()
            .map(|raster| {
                let mut runner = SnnRunner::from_compiled(Arc::clone(kernels));
                runner.run(raster)
            })
            .collect()
    }

    /// Batched variant of [`SnnRunner::run_traced`]: one classification
    /// *and* one full [`SpikeTrace`] per raster, in parallel across the
    /// batch on the shared compiled kernels. Results are identical to
    /// running each raster on a fresh runner.
    pub fn spiking_batch_traced(
        &self,
        rasters: &[SpikeRaster],
    ) -> Vec<(Classification, SpikeTrace)> {
        let kernels = self.kernels_ref();
        rasters
            .par_iter()
            .map(|raster| {
                let mut runner = SnnRunner::from_compiled(Arc::clone(kernels));
                runner.run_traced(raster)
            })
            .collect()
    }
}

/// Index of the maximum activation (shared by every classification path
/// so tie-breaking and NaN semantics cannot diverge between them).
pub(crate) fn argmax(xs: &[f32]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite activations"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Box–Muller standard normal sample.
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.random_range(1e-12..1.0);
    let u2: f64 = rng.random();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Event-driven functional SNN simulator over a [`Network`]'s compiled
/// kernels.
///
/// Each [`SnnRunner::step`] consumes one timestep of input spikes and
/// sweeps the layers in feed-forward order, the per-step sweep of the
/// Diehl conversion flow: layer `l` integrates the spikes layer `l - 1`
/// emitted in the *same* step, then the output layer's spikes are
/// returned. Like a RESPARC NeuroCell behind its zero-check, a layer whose
/// input step is silent and none of whose membranes is still at or above
/// threshold does no work on that step: no current is accumulated, no
/// membrane is updated and it emits nothing.
///
/// The runner owns an `Arc` of the compiled planes, so constructing one is
/// cheap (no synapse enumeration) and runners are freely movable across
/// threads — [`Network::spiking_batch`] builds one per stimulus.
#[derive(Debug, Clone)]
pub struct SnnRunner {
    kernels: Arc<CompiledNetwork>,
    membranes: Vec<Vec<Membrane>>,
    /// Per-layer input-current scratch, reused across steps.
    currents: Vec<Vec<f32>>,
    spikes: Vec<SpikeVector>,
    /// Per layer: some membrane ended its last update at or above
    /// threshold, so it fires again even on a silent input step.
    armed: Vec<bool>,
    /// Cumulative spike counts per layer (for activity statistics).
    layer_spikes: Vec<u64>,
    /// Cumulative synaptic events (active-input fan-out sum) per layer.
    synaptic_events: Vec<u64>,
    steps_run: u64,
    output_counts: Vec<u32>,
    /// Timestep of each output neuron's first spike (`u32::MAX` =
    /// never fired), for first-spike-latency readouts.
    first_spikes: Vec<u32>,
}

impl SnnRunner {
    /// Creates a runner with silent membranes, compiling (or reusing) the
    /// network's kernels.
    pub fn new(net: &Network) -> Self {
        Self::from_compiled(net.compiled())
    }

    /// Creates a runner directly over compiled kernels.
    pub fn from_compiled(kernels: Arc<CompiledNetwork>) -> Self {
        let membranes = kernels
            .layers()
            .iter()
            .map(|l| vec![Membrane::new(); l.outputs()])
            .collect();
        let currents = kernels
            .layers()
            .iter()
            .map(|l| vec![0.0f32; l.outputs()])
            .collect();
        let spikes = kernels
            .layers()
            .iter()
            .map(|l| SpikeVector::new(l.outputs()))
            .collect();
        let n_layers = kernels.layer_count();
        let output_counts = vec![0; kernels.output_count()];
        let first_spikes = vec![u32::MAX; kernels.output_count()];
        Self {
            kernels,
            membranes,
            currents,
            spikes,
            armed: vec![false; n_layers],
            layer_spikes: vec![0; n_layers],
            synaptic_events: vec![0; n_layers],
            steps_run: 0,
            output_counts,
            first_spikes,
        }
    }

    /// Advances one timestep; returns the output layer's spike vector.
    ///
    /// Accepts anything spike-shaped — `&SpikeVector` or a borrowed
    /// raster step ([`SpikeView`](crate::spike::SpikeView)).
    ///
    /// Skipping a silent layer whose membranes all sit below threshold is
    /// exact because a [`Membrane`] has no leak and no refractory period:
    /// a zero current leaves every potential as it is, so only a neuron
    /// whose post-reset residue is still at or above threshold could
    /// fire, and only a neuron that just fired can hold one. Outcomes,
    /// spikes and synaptic-event counts equal those of the full walk in
    /// [`reference::RefSnnRunner`].
    ///
    /// A layer that runs fires a word of membranes at a time: for each
    /// 64-neuron chunk, one loop without a branch on the outcome steps
    /// every [`Membrane`] and stores a flag byte per neuron, then the
    /// flags are packed into the chunk's spike word, which is stored
    /// whole, and the layer's spike count is the popcount of its words.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != network.input_count()`.
    pub fn step(&mut self, input: impl AsSpikeView) -> &SpikeVector {
        let input = input.as_view();
        assert_eq!(
            input.len(),
            self.kernels.input_count(),
            "input size mismatch"
        );
        let n_layers = self.kernels.layer_count();
        for li in 0..n_layers {
            let layer = self.kernels.layer(li);
            let (done, rest) = self.spikes.split_at_mut(li);
            let in_spikes = if li == 0 { input } else { done[li - 1].view() };
            let out = &mut rest[0];
            if in_spikes.is_silent() && !self.armed[li] {
                out.clear();
                continue;
            }
            let currents = &mut self.currents[li];
            currents.fill(0.0);
            self.synaptic_events[li] += layer.accumulate_spikes(in_spikes, currents);
            let (fired, armed) = fire(
                &mut self.membranes[li],
                currents,
                layer.threshold(),
                out.words_mut(),
            );
            self.layer_spikes[li] += fired;
            self.armed[li] = armed;
        }
        self.steps_run += 1;
        let out = &self.spikes[n_layers - 1];
        for o in out.iter_ones() {
            self.output_counts[o] += 1;
            if self.first_spikes[o] == u32::MAX {
                self.first_spikes[o] = (self.steps_run - 1) as u32;
            }
        }
        out
    }

    /// Runs an entire input raster; returns the classification outcome.
    pub fn run(&mut self, input: &SpikeRaster) -> Classification {
        for step in input.iter() {
            self.step(step);
        }
        self.outcome()
    }

    /// Runs a raster while capturing the full [`SpikeTrace`] — the input
    /// raster plus every layer's output raster on a shared timestep axis,
    /// the workload record the trace-driven architectural simulator
    /// replays. Recording costs one word copy of each boundary's spike
    /// vector into its raster arena per step on top of [`Self::run`].
    pub fn run_traced(&mut self, input: &SpikeRaster) -> (Classification, SpikeTrace) {
        self.capture(input, false)
    }

    /// Early-exit variant of [`Self::run_traced`]: stops at the end of the
    /// first timestep in which any output neuron spikes — the
    /// temporal-coding early exit: under TTFS the earliest output spike
    /// *is* the answer, so the rest of the presentation only burns energy.
    /// The outcome covers exactly the steps consumed
    /// ([`Classification::steps`] tells how many; decode it with
    /// [`Readout::FirstSpike`]), and the trace is the full trace cut at
    /// that step, so replaying it through the event simulator prices
    /// exactly the steps the fabric really ran.
    pub fn run_traced_early_exit(&mut self, input: &SpikeRaster) -> (Classification, SpikeTrace) {
        self.capture(input, true)
    }

    /// The one trace-capture loop: steps through `input`, appending the
    /// input step and every layer's spikes to their boundary rasters, and
    /// with `early_exit` stops after the first step with an output spike.
    fn capture(&mut self, input: &SpikeRaster, early_exit: bool) -> (Classification, SpikeTrace) {
        let mut boundaries = Vec::with_capacity(self.spikes.len() + 1);
        boundaries.push(SpikeRaster::new(input.neurons()));
        boundaries.extend(self.spikes.iter().map(|s| SpikeRaster::new(s.len())));
        for step in input.iter() {
            let fired = !self.step(step).is_silent();
            boundaries[0].push_view(step);
            for (raster, spikes) in boundaries[1..].iter_mut().zip(&self.spikes) {
                raster.push_view(spikes.view());
            }
            if early_exit && fired {
                break;
            }
        }
        (self.outcome(), SpikeTrace::new(boundaries))
    }

    /// The outcome accumulated so far.
    pub fn outcome(&self) -> Classification {
        Classification {
            predicted: self
                .output_counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, c)| c)
                .map(|(i, _)| i)
                .unwrap_or(0),
            output_counts: self.output_counts.clone(),
            layer_rates: self
                .kernels
                .layers()
                .iter()
                .enumerate()
                .map(|(li, l)| {
                    if self.steps_run == 0 {
                        0.0
                    } else {
                        self.layer_spikes[li] as f64 / (self.steps_run as f64 * l.outputs() as f64)
                    }
                })
                .collect(),
            synaptic_events: self.synaptic_events.clone(),
            steps: self.steps_run,
            first_spike_steps: first_spike_options(&self.first_spikes),
        }
    }

    /// Resets membranes and statistics for a fresh stimulus.
    pub fn reset(&mut self) {
        for bank in &mut self.membranes {
            for m in bank {
                m.reset();
            }
        }
        for s in &mut self.spikes {
            s.clear();
        }
        self.armed.fill(false);
        self.layer_spikes.fill(0);
        self.synaptic_events.fill(0);
        self.output_counts.fill(0);
        self.first_spikes.fill(u32::MAX);
        self.steps_run = 0;
    }
}

/// One layer-step's membrane pass: steps membrane `o` on `currents[o]`,
/// writes every spike word of the layer (64 neurons per word, bits past
/// the last neuron zero) and returns the spike count and whether a neuron
/// ended the step at or above threshold. Only a neuron that fired can: one
/// that did not fire ends below threshold or at NaN.
///
/// Each 64-neuron chunk takes two passes. The first steps every membrane
/// without branching on the outcome and stores a 0/1 flag byte per neuron;
/// the second packs the flags eight at a time with one multiply per byte
/// of the word. Split this way, the first pass compiles to packed float
/// compares even on baseline x86-64, where one loop that shifts each
/// outcome into the word stays scalar.
fn fire(
    membranes: &mut [Membrane],
    currents: &[f32],
    threshold: f32,
    words: &mut [u64],
) -> (u64, bool) {
    let (mut fired, mut armed) = (0u64, false);
    let chunks = membranes.chunks_mut(64).zip(currents.chunks(64));
    for ((bank, drive), word) in chunks.zip(words) {
        let mut flags = [[0u8; 8]; 8];
        for ((m, &current), flag) in bank.iter_mut().zip(drive).zip(flags.as_flattened_mut()) {
            *flag = u8::from(m.step(current, threshold));
            armed |= m.potential() >= threshold;
        }
        // The multiply gathers flag byte k of `eight` into bit 56 + k.
        *word = flags.iter().enumerate().fold(0, |bits, (k, &eight)| {
            bits | (u64::from_le_bytes(eight).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k)
        });
        fired += u64::from(word.count_ones());
    }
    (fired, armed)
}

/// Converts sentinel-encoded first-spike steps (`u32::MAX` = never) into
/// the outcome's `Option` representation (shared by both runner flavours).
fn first_spike_options(first_spikes: &[u32]) -> Vec<Option<u32>> {
    first_spikes
        .iter()
        .map(|&t| (t != u32::MAX).then_some(t))
        .collect()
}

/// Result of running a spiking classification.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// Class with the highest output spike count (the rate readout).
    pub predicted: usize,
    /// Spike count per output neuron.
    pub output_counts: Vec<u32>,
    /// Mean per-neuron per-step firing rate of each layer.
    pub layer_rates: Vec<f64>,
    /// Total synaptic events (fan-out of active inputs) per layer.
    pub synaptic_events: Vec<u64>,
    /// Timesteps executed.
    pub steps: u64,
    /// Timestep of each output neuron's first spike (`None` = it never
    /// fired) — the first-spike-latency readout for temporal codes.
    pub first_spike_steps: Vec<Option<u32>>,
}

impl Classification {
    /// Reads out the predicted class under the given decoding rule —
    /// pick the rule matching the input code
    /// ([`Encoding::readout`](crate::encoding::Encoding::readout)).
    pub fn decode(&self, readout: Readout) -> usize {
        match readout {
            Readout::Rate => self.predicted,
            Readout::FirstSpike => self.predicted_by_first_spike(),
        }
    }

    /// First-spike-latency readout: the output neuron that fired
    /// earliest wins (ties broken by higher total spike count, then
    /// lower index). Falls back to the rate readout when no output
    /// spiked at all.
    pub fn predicted_by_first_spike(&self) -> usize {
        self.first_spike_steps
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (t, std::cmp::Reverse(self.output_counts[i]), i)))
            .min()
            .map(|(_, _, i)| i)
            .unwrap_or(self.predicted)
    }
}

pub mod reference {
    //! The original closure-walk execution path.
    //!
    //! Every call re-enumerates the synapse structure through
    //! [`LayerSpec::for_each_synapse`] and resolves weights through the
    //! `weight_ids` indirection — exactly the seed implementation this
    //! crate's compiled kernels replaced. It is kept as
    //!
    //! * the **equivalence oracle**: compiled kernels must reproduce these
    //!   results bit-for-bit (see `tests/compiled_equivalence.rs` and the
    //!   property tests), and
    //! * the **benchmark baseline**: the `snn_step` / `forward_batch` /
    //!   `accuracy_sweep` criterion groups in `resparc-bench` measure the
    //!   compiled speedup against this path.

    use super::{argmax, first_spike_options, Classification, Membrane, Network};
    use crate::spike::{AsSpikeView, SpikeRaster, SpikeVector};
    use crate::topology::LayerSpec;

    /// ANN-mode forward pass over the closure walk, returning every
    /// layer's post-activation output.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != net.input_count()`.
    pub fn forward_analog_all(net: &Network, input: &[f32]) -> Vec<Vec<f32>> {
        assert_eq!(input.len(), net.input_count(), "input size mismatch");
        let mut acts: Vec<Vec<f32>> = Vec::with_capacity(net.layers().len());
        let mut current: &[f32] = input;
        for (li, layer) in net.layers().iter().enumerate() {
            let mut out = vec![0.0f32; layer.spec().output_count()];
            let w = layer.weights();
            layer.spec().for_each_synapse(|o, i, wid| {
                out[o] += w[wid] * current[i];
            });
            let last = li + 1 == net.layers().len();
            if !last && !matches!(layer.spec(), LayerSpec::AvgPool { .. }) {
                for v in &mut out {
                    *v = v.max(0.0);
                }
            }
            acts.push(out);
            current = acts.last().expect("just pushed");
        }
        acts
    }

    /// ANN-mode forward pass over the closure walk (final layer only).
    pub fn forward_analog(net: &Network, input: &[f32]) -> Vec<f32> {
        forward_analog_all(net, input)
            .pop()
            .expect("at least one layer")
    }

    /// Argmax classification over [`forward_analog`].
    pub fn classify_analog(net: &Network, input: &[f32]) -> usize {
        argmax(&forward_analog(net, input))
    }

    /// Input-major adjacency with `weight_ids` indirection (the seed
    /// representation).
    #[derive(Debug, Clone)]
    struct InputMajor {
        indptr: Vec<u32>,
        targets: Vec<u32>,
        weight_ids: Vec<u32>,
    }

    impl InputMajor {
        fn from_spec(spec: &LayerSpec) -> Self {
            let inputs = spec.input_count();
            let mut counts = vec![0u32; inputs];
            spec.for_each_synapse(|_, i, _| counts[i] += 1);
            let mut indptr = Vec::with_capacity(inputs + 1);
            indptr.push(0u32);
            for &c in &counts {
                indptr.push(indptr.last().expect("non-empty") + c);
            }
            let total = *indptr.last().expect("non-empty") as usize;
            let mut targets = vec![0u32; total];
            let mut weight_ids = vec![0u32; total];
            let mut cursor: Vec<u32> = indptr[..inputs].to_vec();
            spec.for_each_synapse(|o, i, w| {
                let at = cursor[i] as usize;
                targets[at] = o as u32;
                weight_ids[at] = w as u32;
                cursor[i] += 1;
            });
            Self {
                indptr,
                targets,
                weight_ids,
            }
        }
    }

    /// The seed's event-driven spiking simulator: per-runner adjacency
    /// rebuilt from the closure walk, weight lookups through
    /// `weight_ids`.
    #[derive(Debug, Clone)]
    pub struct RefSnnRunner<'net> {
        net: &'net Network,
        adjacency: Vec<InputMajor>,
        membranes: Vec<Vec<Membrane>>,
        spikes: Vec<SpikeVector>,
        layer_spikes: Vec<u64>,
        synaptic_events: Vec<u64>,
        steps_run: u64,
        output_counts: Vec<u32>,
        first_spikes: Vec<u32>,
    }

    impl<'net> RefSnnRunner<'net> {
        /// Creates a runner, re-enumerating the whole synapse structure.
        pub fn new(net: &'net Network) -> Self {
            let adjacency = net
                .layers()
                .iter()
                .map(|l| InputMajor::from_spec(l.spec()))
                .collect();
            let membranes = net
                .layers()
                .iter()
                .map(|l| vec![Membrane::new(); l.spec().output_count()])
                .collect();
            let spikes = net
                .layers()
                .iter()
                .map(|l| SpikeVector::new(l.spec().output_count()))
                .collect();
            let n_layers = net.layers().len();
            Self {
                net,
                adjacency,
                membranes,
                spikes,
                layer_spikes: vec![0; n_layers],
                synaptic_events: vec![0; n_layers],
                steps_run: 0,
                output_counts: vec![0; net.output_count()],
                first_spikes: vec![u32::MAX; net.output_count()],
            }
        }

        /// Advances one timestep; returns the output layer's spikes.
        ///
        /// # Panics
        ///
        /// Panics if `input.len() != network.input_count()`.
        pub fn step(&mut self, input: impl AsSpikeView) -> &SpikeVector {
            let input = input.as_view();
            assert_eq!(input.len(), self.net.input_count(), "input size mismatch");
            let n_layers = self.net.layers().len();
            for li in 0..n_layers {
                let layer = &self.net.layers()[li];
                let adj = &self.adjacency[li];
                let w = layer.weights();
                let mut currents = vec![0.0f32; layer.spec().output_count()];
                {
                    let in_spikes = if li == 0 {
                        input
                    } else {
                        self.spikes[li - 1].view()
                    };
                    for i in in_spikes.iter_ones() {
                        let s = adj.indptr[i] as usize;
                        let e = adj.indptr[i + 1] as usize;
                        self.synaptic_events[li] += (e - s) as u64;
                        for k in s..e {
                            currents[adj.targets[k] as usize] += w[adj.weight_ids[k] as usize];
                        }
                    }
                }
                let out = &mut self.spikes[li];
                out.clear();
                for (o, m) in self.membranes[li].iter_mut().enumerate() {
                    if m.step(currents[o], layer.threshold()) {
                        out.set(o, true);
                        self.layer_spikes[li] += 1;
                    }
                }
            }
            self.steps_run += 1;
            let out = &self.spikes[n_layers - 1];
            for o in out.iter_ones() {
                self.output_counts[o] += 1;
                if self.first_spikes[o] == u32::MAX {
                    self.first_spikes[o] = (self.steps_run - 1) as u32;
                }
            }
            out
        }

        /// Runs an entire raster; returns the classification outcome.
        pub fn run(&mut self, input: &SpikeRaster) -> Classification {
            for step in input.iter() {
                self.step(step);
            }
            self.outcome()
        }

        /// The outcome accumulated so far.
        pub fn outcome(&self) -> Classification {
            Classification {
                predicted: self
                    .output_counts
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, c)| c)
                    .map(|(i, _)| i)
                    .unwrap_or(0),
                output_counts: self.output_counts.clone(),
                layer_rates: self
                    .net
                    .layers()
                    .iter()
                    .enumerate()
                    .map(|(li, l)| {
                        if self.steps_run == 0 {
                            0.0
                        } else {
                            self.layer_spikes[li] as f64
                                / (self.steps_run as f64 * l.spec().output_count() as f64)
                        }
                    })
                    .collect(),
                synaptic_events: self.synaptic_events.clone(),
                steps: self.steps_run,
                first_spike_steps: first_spike_options(&self.first_spikes),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::RegularEncoder;

    fn tiny_net() -> Network {
        // 2 -> 2 -> 2 identity chain: with unit weights and unit
        // thresholds, each layer relays its input's firing rate exactly.
        let l0 = Layer::new(
            LayerSpec::Dense {
                inputs: 2,
                outputs: 2,
            },
            vec![1.0, 0.0, 0.0, 1.0],
            1.0,
        );
        let l1 = Layer::new(
            LayerSpec::Dense {
                inputs: 2,
                outputs: 2,
            },
            vec![1.0, 0.0, 0.0, 1.0],
            1.0,
        );
        Network::new(2, vec![l0, l1])
    }

    #[test]
    fn analog_forward_computes_matvec() {
        let net = tiny_net();
        let out = net.forward_analog(&[1.0, 0.25]);
        assert_eq!(out, vec![1.0, 0.25]);
    }

    #[test]
    fn spiking_identity_net_relays_rate() {
        let net = tiny_net();
        let enc = RegularEncoder::new(1.0);
        let raster = enc.encode(&[0.8, 0.1], 100);
        let mut runner = net.spiking();
        let outcome = runner.run(&raster);
        assert_eq!(outcome.predicted, 0);
        // Input 0 spikes 80 times; each spike adds 1.0 ≥ threshold twice
        // through the chain, so output 0 should fire ≈ 80 times.
        assert!(outcome.output_counts[0] >= 75);
        assert!(outcome.output_counts[1] <= 15);
    }

    #[test]
    fn spiking_rates_match_analog_for_linear_chain() {
        // Diehl conversion property: IF + subtract reset approximates the
        // analog activation ratio.
        let net = tiny_net();
        let enc = RegularEncoder::new(1.0);
        let raster = enc.encode(&[0.6, 0.3], 200);
        let mut runner = net.spiking();
        let outcome = runner.run(&raster);
        let r0 = outcome.output_counts[0] as f64 / 200.0;
        let r1 = outcome.output_counts[1] as f64 / 200.0;
        assert!((r0 - 0.6).abs() < 0.05, "r0 {r0}");
        assert!((r1 - 0.3).abs() < 0.05, "r1 {r1}");
    }

    #[test]
    fn reset_clears_state() {
        let net = tiny_net();
        let enc = RegularEncoder::new(1.0);
        let raster = enc.encode(&[1.0, 1.0], 10);
        let mut runner = net.spiking();
        runner.run(&raster);
        runner.reset();
        let outcome = runner.outcome();
        assert_eq!(outcome.steps, 0);
        assert!(outcome.output_counts.iter().all(|&c| c == 0));
        assert!(outcome.first_spike_steps.iter().all(|t| t.is_none()));
    }

    #[test]
    fn first_spike_readout_tracks_ttfs_latency() {
        use crate::encoding::TtfsEncoder;

        // Identity chain: the input with higher intensity spikes earlier
        // (TTFS) and relays straight to its output neuron.
        let net = tiny_net();
        let raster = TtfsEncoder::new().encode(&[0.2, 0.9], 20);
        let mut runner = net.spiking();
        let outcome = runner.run(&raster);
        assert_eq!(outcome.decode(Readout::FirstSpike), 1);
        let t0 = outcome.first_spike_steps[0].expect("input 0 spikes once");
        let t1 = outcome.first_spike_steps[1].expect("input 1 spikes once");
        assert!(t1 < t0, "higher intensity must fire first ({t1} vs {t0})");
        // The rate readout is unchanged by the new bookkeeping.
        assert_eq!(outcome.decode(Readout::Rate), outcome.predicted);
    }

    #[test]
    fn first_spike_readout_falls_back_on_silence() {
        let c = Classification {
            predicted: 2,
            output_counts: vec![0, 0, 0],
            layer_rates: vec![0.0],
            synaptic_events: vec![0],
            steps: 10,
            first_spike_steps: vec![None, None, None],
        };
        assert_eq!(c.predicted_by_first_spike(), 2);
        // Ties on latency break by spike count, then index.
        let c = Classification {
            predicted: 0,
            output_counts: vec![5, 2, 5],
            layer_rates: vec![0.0],
            synaptic_events: vec![0],
            steps: 10,
            first_spike_steps: vec![Some(3), Some(3), Some(1)],
        };
        assert_eq!(c.predicted_by_first_spike(), 2);
        let c = Classification {
            predicted: 0,
            output_counts: vec![5, 7, 5],
            layer_rates: vec![0.0],
            synaptic_events: vec![0],
            steps: 10,
            first_spike_steps: vec![Some(3), Some(3), Some(3)],
        };
        assert_eq!(c.predicted_by_first_spike(), 1);
    }

    #[test]
    fn early_exit_stops_at_first_output_spike_with_matching_trace() {
        use crate::encoding::TtfsEncoder;

        // Identity chain + TTFS input: the brighter input's single spike
        // relays through in order, so the run must stop well before the
        // window ends and the trace must be the full trace truncated at
        // that step.
        let net = tiny_net();
        let raster = TtfsEncoder::new().encode(&[0.3, 0.9], 24);
        let (full, full_trace) = net.spiking().run_traced(&raster);
        let (early, early_trace) = net.spiking().run_traced_early_exit(&raster);

        assert!(early.steps < full.steps, "early {} steps", early.steps);
        assert_eq!(early_trace.steps(), early.steps as usize);
        assert_eq!(early_trace, full_trace.truncated(early.steps as usize));
        // The first-spike decode is decided at the exit step.
        assert_eq!(early.decode(Readout::FirstSpike), 1);
        assert_eq!(
            early.decode(Readout::FirstSpike),
            full.decode(Readout::FirstSpike)
        );
    }

    #[test]
    fn early_exit_on_silent_input_runs_the_whole_window() {
        let net = tiny_net();
        let mut raster = SpikeRaster::new(2);
        for _ in 0..5 {
            raster.push(SpikeVector::new(2));
        }
        let (outcome, trace) = net.spiking().run_traced_early_exit(&raster);
        assert_eq!(outcome.steps, 5, "nothing fires, nothing to exit on");
        assert_eq!(trace.steps(), 5);
        assert!(trace.is_silent());
    }

    /// The per-neuron membrane loop that [`fire`] replaced, kept as its
    /// oracle: one branch per neuron, one `set` per spike.
    fn fire_per_neuron(
        membranes: &mut [Membrane],
        currents: &[f32],
        threshold: f32,
        out: &mut SpikeVector,
    ) -> (u64, bool) {
        out.clear();
        let (mut fired, mut armed) = (0, false);
        for (o, (m, &current)) in membranes.iter_mut().zip(currents).enumerate() {
            if m.step(current, threshold) {
                out.set(o, true);
                fired += 1;
                armed |= m.potential() >= threshold;
            }
        }
        (fired, armed)
    }

    /// Values at the edges of the IF update under threshold 1: exactly the
    /// threshold, just below it, twice it (a residue that fires again),
    /// signed zeros, subnormals, infinities, NaN and ordinary values.
    const EDGE_VALUES: [f32; 15] = [
        1.0,
        f32::from_bits(0x3F7F_FFFF),
        2.0,
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::MIN_POSITIVE / 2.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        0.3,
        -0.45,
        0.7,
        5.5,
        0.55,
    ];

    /// Equal potential bits; NaN payloads are not specified, so any two
    /// NaNs match.
    fn same_potentials(a: &[Membrane], b: &[Membrane]) -> bool {
        a.iter().zip(b).all(|(x, y)| {
            let (x, y) = (x.potential(), y.potential());
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        })
    }

    #[test]
    fn word_pass_matches_per_neuron_loop() {
        for width in 1..=200 {
            let mut bank = vec![Membrane::new(); width];
            let mut scalar_bank = bank.clone();
            // Stale bits everywhere, past `width` too: the pass must
            // overwrite every word.
            let mut words = vec![u64::MAX; width.div_ceil(64)];
            let mut scalar = SpikeVector::new(width);
            for step in 0..6 {
                // Step 4 is silent: only armed neurons fire again.
                let currents: Vec<f32> = (0..width)
                    .map(|o| match step {
                        4 => 0.0,
                        _ => EDGE_VALUES[(o * 7 + step * 3 + width) % EDGE_VALUES.len()],
                    })
                    .collect();
                let got = fire(&mut bank, &currents, 1.0, &mut words);
                let want = fire_per_neuron(&mut scalar_bank, &currents, 1.0, &mut scalar);
                let at = format!("width {width}, step {step}");
                assert_eq!(got, want, "(fired, armed) at {at}");
                // `scalar` keeps its tail bits zero, so this also pins
                // every bit past `width` of the last word at zero.
                assert_eq!(words, scalar.words(), "spike words at {at}");
                assert!(same_potentials(&bank, &scalar_bank), "potentials at {at}");
            }
        }
    }

    #[test]
    fn runner_word_pass_matches_scalar_loop_and_refires_on_silent_steps() {
        let lit: [&[usize]; 6] = [&[0, 1, 2], &[0], &[], &[1, 2], &[], &[]];
        let mut refired = 0;
        for width in 1..=200 {
            let weights = (0..3 * width)
                .map(|k| EDGE_VALUES[(k * 11 + width) % EDGE_VALUES.len()])
                .collect();
            let spec = LayerSpec::Dense {
                inputs: 3,
                outputs: width,
            };
            let net = Network::new(3, vec![Layer::new(spec, weights, 1.0)]);
            let kernels = net.compiled();
            let mut runner = net.spiking();
            let mut raster = SpikeRaster::new(3);
            let (mut bank, mut scalar) = (vec![Membrane::new(); width], SpikeVector::new(width));
            let (mut armed, mut fired) = (false, 0);
            for (step, ones) in lit.iter().enumerate() {
                let mut input = SpikeVector::new(3);
                ones.iter().for_each(|&i| input.set(i, true));
                // Scalar model of `step`: a silent layer runs only when armed.
                scalar.clear();
                if !input.is_silent() || armed {
                    let mut currents = vec![0.0; width];
                    kernels
                        .layer(0)
                        .accumulate_spikes(input.view(), &mut currents);
                    let (f, a) = fire_per_neuron(&mut bank, &currents, 1.0, &mut scalar);
                    (fired, armed) = (fired + f, a);
                }
                let out = runner.step(&input);
                assert_eq!(out, &scalar, "spikes at width {width}, step {step}");
                if input.is_silent() {
                    refired += out.count_ones();
                }
                let at = format!("width {width}, step {step}");
                assert!(same_potentials(&runner.membranes[0], &bank), "{at}");
                raster.push(input);
            }
            let outcome = runner.outcome();
            let rate = fired as f64 / (lit.len() * width) as f64;
            assert_eq!(outcome.layer_rates, vec![rate], "width {width}");
            assert_eq!(outcome, reference::RefSnnRunner::new(&net).run(&raster));
        }
        assert!(refired > 0, "some armed neuron must fire on a silent step");
    }

    #[test]
    fn random_network_has_right_shapes() {
        let t = Topology::mlp(10, &[7, 3]);
        let net = Network::random(t, 1, 1.0);
        assert_eq!(net.layers().len(), 2);
        assert_eq!(net.layers()[0].weights().len(), 70);
        assert_eq!(net.output_count(), 3);
        // Deterministic per seed.
        let net2 = Network::random(Topology::mlp(10, &[7, 3]), 1, 1.0);
        assert_eq!(net, net2);
    }

    #[test]
    fn run_traced_captures_all_boundaries() {
        let net = tiny_net();
        let enc = RegularEncoder::new(1.0);
        let raster = enc.encode(&[1.0, 0.0], 6);
        let mut runner = net.spiking();
        let (outcome, trace) = runner.run_traced(&raster);
        assert_eq!(trace.boundary_count(), 3);
        assert_eq!(trace.steps(), 6);
        assert_eq!(trace.input(), &raster);
        // The recorded output boundary matches the outcome's counts.
        let out_counts = trace.layer_output(1).spike_counts();
        assert_eq!(out_counts, outcome.output_counts);

        // Batched traced run matches the serial one.
        let rasters = vec![raster.clone(), enc.encode(&[0.5, 1.0], 6)];
        let batched = net.spiking_batch_traced(&rasters);
        let mut serial = net.spiking();
        assert_eq!(batched[0], (outcome, trace));
        assert_eq!(batched[1], serial.run_traced(&rasters[1]));
    }

    #[test]
    fn synaptic_events_counted() {
        let net = tiny_net();
        let enc = RegularEncoder::new(1.0);
        let raster = enc.encode(&[1.0, 1.0], 4);
        let mut runner = net.spiking();
        let outcome = runner.run(&raster);
        // Layer 0: 2 active inputs × fan-out 2 × 4 steps = 16 events.
        assert_eq!(outcome.synaptic_events[0], 16);
    }

    #[test]
    fn kernel_cache_is_shared_and_invalidated() {
        let mut net = Network::random(Topology::mlp(6, &[4, 2]), 2, 1.0);
        let a = net.compiled();
        let b = net.compiled();
        assert!(Arc::ptr_eq(&a, &b), "cache must be shared");
        let before = net.forward_analog(&[0.5; 6]);
        for w in net.layers_mut()[0].weights_mut() {
            *w = 0.0;
        }
        let c = net.compiled();
        assert!(!Arc::ptr_eq(&a, &c), "layers_mut must invalidate the cache");
        let after = net.forward_analog(&[0.5; 6]);
        assert_ne!(before, after, "stale kernels would keep old weights");
        assert!(after.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn batch_apis_match_single_calls() {
        let net = Network::random(Topology::mlp(12, &[9, 4]), 8, 1.0);
        let batch: Vec<Vec<f32>> = (0..10)
            .map(|s| (0..12).map(|i| ((s * 5 + i) % 7) as f32 / 7.0).collect())
            .collect();
        let batched = net.forward_analog_batch(&batch);
        let classes = net.classify_analog_batch(&batch);
        for (k, x) in batch.iter().enumerate() {
            assert_eq!(batched[k], net.forward_analog(x));
            assert_eq!(classes[k], net.classify_analog(x));
        }

        let enc = RegularEncoder::new(0.9);
        let rasters: Vec<SpikeRaster> = batch.iter().map(|x| enc.encode(x, 12)).collect();
        let outcomes = net.spiking_batch(&rasters);
        for (k, raster) in rasters.iter().enumerate() {
            let mut runner = net.spiking();
            assert_eq!(outcomes[k], runner.run(raster));
        }
    }

    #[test]
    #[should_panic(expected = "weight count mismatch")]
    fn layer_weight_mismatch_panics() {
        let _ = Layer::new(
            LayerSpec::Dense {
                inputs: 2,
                outputs: 2,
            },
            vec![1.0; 3],
            1.0,
        );
    }

    #[test]
    fn layer_rejects_invalid_thresholds() {
        for threshold in [0.0, -1.0, f32::NAN, f32::INFINITY] {
            let panic = std::panic::catch_unwind(|| {
                Layer::new(
                    LayerSpec::Dense {
                        inputs: 2,
                        outputs: 2,
                    },
                    vec![1.0; 4],
                    threshold,
                )
            })
            .expect_err("an invalid threshold must panic");
            assert_eq!(
                panic.downcast_ref::<String>().expect("formatted message"),
                &format!("threshold must be positive and finite, got {threshold}")
            );
        }
    }

    #[test]
    #[should_panic(expected = "threshold must be positive and finite, got inf")]
    fn set_infinite_threshold_panics() {
        let mut net = Network::random(Topology::mlp(2, &[2]), 0, 1.0);
        net.layers_mut()[0].set_threshold(f32::INFINITY);
    }
}
