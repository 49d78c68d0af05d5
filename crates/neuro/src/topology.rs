//! Network topology descriptions: the MLP and CNN layer structures that
//! RESPARC maps onto crossbars.
//!
//! A [`Topology`] is a validated stack of [`LayerSpec`]s. Every layer can
//! enumerate its synapses as `(output, input, weight-id)` triples via
//! [`LayerSpec::for_each_synapse`]; that enumeration is the source of
//! truth for the functional simulator's kernels and the connectivity
//! matrix. Conv and pool layers also describe their receptive fields in
//! closed form ([`LayerSpec::receptive_fields`]), built from per-axis
//! valid-tap ranges: they list the outputs in the hardware mapper's
//! packing order, as runs of outputs that read identical inputs, and the
//! mapper packs tiles straight from them. [`LayerSpec::synapse_count`]
//! sums the same ranges. Both are property-tested against the
//! enumeration.
//!
//! Convolution layers support LeNet-style *channel tables*
//! ([`ChannelTable::Banded`]) in which each output map connects to only a
//! few input maps — the sparse connectivity the paper's §3.1.1 discussion
//! of CNN crossbar utilization hinges on.
//!
//! # Examples
//!
//! ```
//! use resparc_neuro::topology::Topology;
//!
//! // The paper's MNIST MLP (Fig. 10): 4 weight layers, 2 378 neurons.
//! let t = Topology::mlp(784, &[800, 800, 768, 10]);
//! assert_eq!(t.neuron_count(), 2_378);
//! assert_eq!(t.layer_count(), 4);
//! ```

use std::fmt;
use std::ops::Range;

/// A 3-D activation shape (height × width × channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Rows.
    pub height: usize,
    /// Columns.
    pub width: usize,
    /// Feature maps / channels.
    pub channels: usize,
}

impl Shape {
    /// Creates a shape.
    pub fn new(height: usize, width: usize, channels: usize) -> Self {
        Self {
            height,
            width,
            channels,
        }
    }

    /// Total element count.
    pub fn count(&self) -> usize {
        self.height * self.width * self.channels
    }

    /// Linear index of `(channel, y, x)` in channel-major layout.
    #[inline]
    pub fn index(&self, channel: usize, y: usize, x: usize) -> usize {
        channel * self.height * self.width + y * self.width + x
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.height, self.width, self.channels)
    }
}

/// Spatial padding mode for convolutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Padding {
    /// No padding; output shrinks by `kernel - 1`.
    #[default]
    Valid,
    /// Zero padding so the output keeps the input's spatial size
    /// (stride 1) or `ceil(size/stride)`.
    Same,
}

/// Which input feature maps each output map of a convolution sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChannelTable {
    /// Every output map connects to every input map (dense across
    /// channels).
    #[default]
    Full,
    /// LeNet-style sparse table: output map `m` connects to `fan`
    /// consecutive input maps starting at `m mod c_in` (wrapping). This is
    /// the sparse inter-map connectivity that lowers crossbar utilization
    /// for CNNs in the paper.
    Banded {
        /// Number of input maps each output map connects to.
        fan: usize,
    },
}

/// One layer of an SNN topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerSpec {
    /// Fully-connected layer.
    Dense {
        /// Input neuron count.
        inputs: usize,
        /// Output neuron count.
        outputs: usize,
    },
    /// 2-D convolution.
    Conv2d {
        /// Input activation shape.
        input: Shape,
        /// Number of output feature maps.
        maps: usize,
        /// Square kernel size.
        kernel: usize,
        /// Spatial stride.
        stride: usize,
        /// Padding mode.
        padding: Padding,
        /// Channel connectivity table.
        table: ChannelTable,
    },
    /// Non-overlapping average pooling (window == stride).
    AvgPool {
        /// Input activation shape.
        input: Shape,
        /// Pooling window edge (and stride).
        window: usize,
    },
}

impl LayerSpec {
    /// Short kind name for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            LayerSpec::Dense { .. } => "dense",
            LayerSpec::Conv2d { .. } => "conv",
            LayerSpec::AvgPool { .. } => "pool",
        }
    }

    /// Number of input neurons the layer consumes.
    pub fn input_count(&self) -> usize {
        match self {
            LayerSpec::Dense { inputs, .. } => *inputs,
            LayerSpec::Conv2d { input, .. } => input.count(),
            LayerSpec::AvgPool { input, .. } => input.count(),
        }
    }

    /// The layer's output shape, if it is spatial.
    pub fn output_shape(&self) -> Option<Shape> {
        match *self {
            LayerSpec::Dense { .. } => None,
            LayerSpec::Conv2d {
                input,
                maps,
                kernel,
                stride,
                padding,
                ..
            } => {
                let (h, w) = conv_out_dims(input.height, input.width, kernel, stride, padding);
                Some(Shape::new(h, w, maps))
            }
            LayerSpec::AvgPool { input, window } => Some(Shape::new(
                input.height / window,
                input.width / window,
                input.channels,
            )),
        }
    }

    /// Number of output neurons the layer produces.
    pub fn output_count(&self) -> usize {
        match self {
            LayerSpec::Dense { outputs, .. } => *outputs,
            _ => self.output_shape().expect("spatial layer").count(),
        }
    }

    /// Number of *connections* (physical synapses when mapped onto
    /// crossbars — weight sharing does not reduce this), in closed form:
    /// a convolution has `maps × fan_maps × Σ_oy taps × Σ_ox taps`, summing
    /// the valid kernel taps of every output row and column.
    pub fn synapse_count(&self) -> usize {
        match *self {
            LayerSpec::Dense { inputs, outputs } => inputs * outputs,
            LayerSpec::Conv2d {
                input,
                maps,
                kernel,
                stride,
                padding,
                table,
            } => {
                let (h, w) = conv_out_dims(input.height, input.width, kernel, stride, padding);
                let pad = conv_pad(input.height, h, kernel, stride, padding);
                let taps = |outs: usize, len: usize| -> usize {
                    (0..outs)
                        .map(|o| axis_taps(o, len, kernel, stride, pad).len())
                        .sum()
                };
                maps * fan_maps(input.channels, table)
                    * taps(h, input.height)
                    * taps(w, input.width)
            }
            LayerSpec::AvgPool { window, .. } => self.output_count() * window * window,
        }
    }

    /// Number of *unique* weight values (weight sharing collapses the
    /// kernel reuse of convolutions).
    pub fn unique_weight_count(&self) -> usize {
        match *self {
            LayerSpec::Dense { inputs, outputs } => inputs * outputs,
            LayerSpec::Conv2d {
                input,
                maps,
                kernel,
                table,
                ..
            } => maps * fan_maps(input.channels, table) * kernel * kernel,
            LayerSpec::AvgPool { .. } => 1,
        }
    }

    /// Maximum fan-in over the layer's output neurons.
    pub fn max_fan_in(&self) -> usize {
        match *self {
            LayerSpec::Dense { inputs, .. } => inputs,
            LayerSpec::Conv2d {
                input,
                kernel,
                table,
                ..
            } => kernel * kernel * fan_maps(input.channels, table),
            LayerSpec::AvgPool { window, .. } => window * window,
        }
    }

    /// Whether the layer's connectivity matrix is sparse (CNN-style) as
    /// opposed to dense (MLP-style).
    pub fn is_sparse(&self) -> bool {
        !matches!(self, LayerSpec::Dense { .. })
    }

    /// Checks that the layer's geometry is well formed: a convolution
    /// needs a non-zero kernel and stride, and under `Valid` padding a
    /// kernel that fits its input; a pool needs a non-zero window that
    /// fits its input. The error is the reason the layer is degenerate.
    fn check(&self) -> Result<(), String> {
        let fits = |input: Shape, k: usize| k <= input.height && k <= input.width;
        match *self {
            LayerSpec::Dense { .. } => Ok(()),
            LayerSpec::Conv2d { stride: 0, .. } => Err("conv stride is 0".into()),
            LayerSpec::Conv2d { kernel: 0, .. } => Err("conv kernel is 0".into()),
            LayerSpec::Conv2d {
                input,
                kernel,
                padding: Padding::Valid,
                ..
            } if !fits(input, kernel) => Err(format!(
                "{kernel}x{kernel} kernel does not fit the {}x{} input under Valid padding",
                input.height, input.width
            )),
            LayerSpec::AvgPool { window: 0, .. } => Err("pool window is 0".into()),
            LayerSpec::AvgPool { input, window } if !fits(input, window) => Err(format!(
                "{window}x{window} pool window does not fit the {}x{} input",
                input.height, input.width
            )),
            _ => Ok(()),
        }
    }

    /// Enumerates every synapse as `(output_index, input_index,
    /// weight_id)`, in output-major order. Weight ids index into the
    /// layer's unique-weight array (see [`Self::unique_weight_count`]).
    pub fn for_each_synapse<F: FnMut(usize, usize, usize)>(&self, mut f: F) {
        match *self {
            LayerSpec::Dense { inputs, outputs } => {
                for o in 0..outputs {
                    for i in 0..inputs {
                        f(o, i, o * inputs + i);
                    }
                }
            }
            LayerSpec::Conv2d {
                input,
                maps,
                kernel,
                stride,
                padding,
                table,
            } => {
                let out = self.output_shape().expect("conv output");
                let pad = conv_pad(input.height, out.height, kernel, stride, padding) as isize;
                let fan_maps = fan_maps(input.channels, table);
                for m in 0..maps {
                    for oy in 0..out.height {
                        for ox in 0..out.width {
                            let o = out.index(m, oy, ox);
                            for j in 0..fan_maps {
                                let c = table_channel(table, m, j, input.channels);
                                for ky in 0..kernel {
                                    for kx in 0..kernel {
                                        let iy = (oy * stride) as isize - pad + ky as isize;
                                        let ix = (ox * stride) as isize - pad + kx as isize;
                                        if iy < 0
                                            || ix < 0
                                            || iy >= input.height as isize
                                            || ix >= input.width as isize
                                        {
                                            continue;
                                        }
                                        let i = input.index(c, iy as usize, ix as usize);
                                        let wid = ((m * fan_maps + j) * kernel + ky) * kernel + kx;
                                        f(o, i, wid);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            LayerSpec::AvgPool { input, window } => {
                let out = self.output_shape().expect("pool output");
                for c in 0..input.channels {
                    for oy in 0..out.height {
                        for ox in 0..out.width {
                            let o = out.index(c, oy, ox);
                            for dy in 0..window {
                                for dx in 0..window {
                                    let i = input.index(c, oy * window + dy, ox * window + dx);
                                    f(o, i, 0);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The closed-form receptive fields of a conv or pool layer, built
    /// from per-axis valid-tap ranges without enumerating synapses;
    /// `None` for a dense layer, whose every output reads every input.
    ///
    /// # Panics
    ///
    /// May panic on a degenerate layer, which [`Topology::new`] rejects
    /// ([`TopologyError::InvalidLayer`]).
    pub fn receptive_fields(&self) -> Option<ReceptiveFields> {
        let output = self.output_shape()?;
        let (input, kernel, stride, pad, fan_maps, tap_step, channels) = match *self {
            LayerSpec::Conv2d {
                input,
                maps,
                kernel,
                stride,
                padding,
                table,
            } => {
                let fan = fan_maps(input.channels, table);
                let mut channels = Vec::with_capacity(maps * fan);
                for m in 0..maps {
                    let first = channels.len();
                    channels.extend((0..fan).map(|j| {
                        let c = table_channel(table, m, j, input.channels);
                        (c, (m * fan + j) * kernel * kernel)
                    }));
                    // A banded table wraps around the input maps.
                    channels[first..].sort_unstable();
                }
                let pad = conv_pad(input.height, output.height, kernel, stride, padding);
                (input, kernel, stride, pad, fan, 1, channels)
            }
            LayerSpec::AvgPool { input, window } => {
                let channels = (0..input.channels).map(|c| (c, 0)).collect();
                (input, window, window, 0, 1, 0, channels)
            }
            LayerSpec::Dense { .. } => return None,
        };
        let axis = |outs: usize, len: usize| {
            Axis::new(
                (0..outs)
                    .map(|o| {
                        let taps = axis_taps(o, len, kernel, stride, pad);
                        AxisWindow {
                            first: o * stride + taps.start - pad,
                            taps,
                        }
                    })
                    .collect(),
            )
        };
        // When the table reads no channel, every field is empty and no map
        // is in a run. Otherwise the maps go in the order of their first
        // channel, which at any one position is the order of their fields'
        // first inputs.
        let mut maps: Vec<usize> = (0..output.channels).filter(|_| fan_maps > 0).collect();
        maps.sort_by_key(|&m| channels[m * fan_maps].0);
        let channel_list = |m: usize| channels[m * fan_maps..][..fan_maps].iter().map(|&(c, _)| c);
        let map_runs = runs_by(maps.len(), |a, b| {
            channel_list(maps[a]).eq(channel_list(maps[b]))
        });
        let groups = runs_by(map_runs.len(), |a, b| {
            let first = |run: usize| channels[maps[map_runs[run].start] * fan_maps].0;
            first(a) == first(b)
        });
        Some(ReceptiveFields {
            input,
            output,
            kernel,
            rows: axis(output.height, input.height),
            cols: axis(output.width, input.width),
            channels,
            fan_maps,
            tap_step,
            synapses: self.synapse_count(),
            maps,
            map_runs,
            groups,
        })
    }
}

/// Splits `0..len` into maximal ranges of consecutive indices that `same`
/// puts together; `same(a, b)` must be an equivalence.
fn runs_by(len: usize, mut same: impl FnMut(usize, usize) -> bool) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::new();
    for i in 0..len {
        match runs.last_mut() {
            Some(run) if same(run.start, i) => run.end = i + 1,
            _ => runs.push(i..i + 1),
        }
    }
    runs
}

/// Input maps each output map of a convolution reads.
fn fan_maps(channels: usize, table: ChannelTable) -> usize {
    match table {
        ChannelTable::Full => channels,
        ChannelTable::Banded { fan } => fan.min(channels),
    }
}

/// The input map that entry `j` of output map `m`'s channel table reads.
fn table_channel(table: ChannelTable, m: usize, j: usize, channels: usize) -> usize {
    match table {
        ChannelTable::Full => j,
        ChannelTable::Banded { .. } => (m + j) % channels,
    }
}

/// Zero padding before a convolution's first input row and column. `Same`
/// padding is sized on the height axis and applied to both axes.
fn conv_pad(
    height: usize,
    out_height: usize,
    kernel: usize,
    stride: usize,
    padding: Padding,
) -> usize {
    match padding {
        Padding::Valid => 0,
        Padding::Same => {
            (out_height.saturating_sub(1) * stride + kernel).saturating_sub(height) / 2
        }
    }
}

/// The valid kernel taps of output position `o` along one axis: the
/// offsets `k < kernel` whose input coordinate `o·stride + k − pad` lies
/// in `0..len`.
fn axis_taps(o: usize, len: usize, kernel: usize, stride: usize, pad: usize) -> Range<usize> {
    let origin = o * stride;
    let lo = pad.saturating_sub(origin);
    let hi = kernel.min((len + pad).saturating_sub(origin));
    lo..hi.max(lo)
}

fn conv_out_dims(
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    padding: Padding,
) -> (usize, usize) {
    match padding {
        Padding::Valid => ((h - kernel) / stride + 1, (w - kernel) / stride + 1),
        Padding::Same => (h.div_ceil(stride), w.div_ceil(stride)),
    }
}

/// Where one output row (or column) of a spatial layer reads along that
/// axis.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AxisWindow {
    /// Input coordinate of the first valid tap.
    first: usize,
    /// Valid kernel offsets.
    taps: Range<usize>,
}

/// The windows of one output axis, grouped the way the packing order
/// visits them.
///
/// A window's first coordinate, `max(o·stride − pad, 0)`, never decreases
/// with the position `o`, and it ties only for the positions whose window
/// the padding clips at the axis's start. Among those, the tap count
/// grows with `o` until the kernel covers the whole axis, and it stays
/// there. So `keys` ascend in first coordinate, and the classes of one
/// key ascend in tap count. On a valid layer every window has a tap.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Axis {
    /// Per output position.
    windows: Vec<AxisWindow>,
    /// Maximal ranges of positions that read the same input coordinates:
    /// equal first coordinate and tap count.
    classes: Vec<Range<usize>>,
    /// Maximal ranges of `classes` with the same first coordinate.
    keys: Vec<Range<usize>>,
}

impl Axis {
    fn new(windows: Vec<AxisWindow>) -> Self {
        let classes = runs_by(windows.len(), |a, b| {
            let (a, b) = (&windows[a], &windows[b]);
            a.first == b.first && a.taps.len() == b.taps.len()
        });
        let keys = runs_by(classes.len(), |a, b| {
            windows[classes[a].start].first == windows[classes[b].start].first
        });
        Self {
            windows,
            classes,
            keys,
        }
    }

    /// The widest window's tap count.
    fn max_taps(&self) -> usize {
        self.windows.iter().map(|w| w.taps.len()).max().unwrap_or(0)
    }
}

/// Closed-form receptive fields of a conv or pool layer (see
/// [`LayerSpec::receptive_fields`]), without the layer's connectivity
/// matrix. [`Self::for_each_run`] lists the outputs in the order the
/// hardware mapper packs them, as runs of outputs that read identical
/// inputs; a run reads out its shared field and each output's weight ids.
///
/// An output's field lists its input channels in ascending order; within
/// a channel, its valid kernel rows in order, each a run of consecutive
/// input ids over the valid kernel columns. That is the ascending order
/// of the output's [`LayerSpec::for_each_synapse`] entries, including for
/// banded channel tables that wrap around the input maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceptiveFields {
    input: Shape,
    output: Shape,
    kernel: usize,
    rows: Axis,
    cols: Axis,
    /// Each output map's input channels in ascending order, `fan_maps` per
    /// map, with the weight id of the channel's kernel tap (0, 0).
    channels: Vec<(usize, usize)>,
    fan_maps: usize,
    /// Weight-id step per kernel tap: 1 for a convolution's own kernel
    /// weights, 0 for a pool's one shared weight.
    tap_step: usize,
    synapses: usize,
    /// The output maps that read an input, ordered by (first input
    /// channel, map).
    maps: Vec<usize>,
    /// Maximal ranges of `maps` that read the same input channels.
    map_runs: Vec<Range<usize>>,
    /// Maximal ranges of `map_runs` with the same first input channel.
    groups: Vec<Range<usize>>,
}

impl ReceptiveFields {
    /// Number of input neurons.
    pub fn inputs(&self) -> usize {
        self.input.count()
    }

    /// Number of output neurons.
    pub fn outputs(&self) -> usize {
        self.output.count()
    }

    /// Total synapses: [`LayerSpec::synapse_count`] of the layer.
    pub fn synapse_count(&self) -> usize {
        self.synapses
    }

    /// The largest fan-in of any output; 0 if no output reads an input.
    pub fn max_fan_in(&self) -> usize {
        if self.maps.is_empty() {
            return 0;
        }
        self.fan_maps * self.rows.max_taps() * self.cols.max_taps()
    }

    /// Calls `f` with every output whose field is non-empty, in
    /// (first input, output id) order, as maximal runs of consecutive
    /// outputs that read identical inputs.
    ///
    /// An output's first input is (first channel, first row, first
    /// column), compared in that order, and its id is (map, row, column).
    /// So the outputs with one first input are the maps with one first
    /// channel, at the output rows whose windows start at one input row
    /// and the output columns whose windows start at one input column,
    /// map-major. Two of them read the same inputs when their maps read
    /// the same channels and their windows have the same extent. Windows
    /// start alike only where padding clips them at the start of an axis,
    /// and there they differ in extent unless the kernel spans the whole
    /// axis. When all the positions of one first input read the same
    /// windows, a run is a range of maps with equal channel lists at all
    /// of them: every map of a full-table conv at one position. Otherwise
    /// a run stays within one map: output rows of one extent across the
    /// columns, when those read one extent, else output columns of one
    /// extent within one row.
    pub fn for_each_run<'a>(&'a self, mut f: impl FnMut(FieldRun<'a>)) {
        let run = |maps, rows, cols| FieldRun {
            fields: self,
            maps,
            rows,
            cols,
        };
        let span = |ranges: &[Range<usize>]| ranges[0].start..ranges[ranges.len() - 1].end;
        for group in &self.groups {
            let map_runs = &self.map_runs[group.clone()];
            let group_maps = &self.maps[span(map_runs)];
            for row_key in &self.rows.keys {
                let row_classes = &self.rows.classes[row_key.clone()];
                for col_key in &self.cols.keys {
                    let col_classes = &self.cols.classes[col_key.clone()];
                    match (row_classes, col_classes) {
                        ([rows], [cols]) => {
                            for maps in map_runs {
                                f(run(&self.maps[maps.clone()], rows.clone(), cols.clone()));
                            }
                        }
                        (_, [cols]) => {
                            for map in group_maps.chunks(1) {
                                for rows in row_classes {
                                    f(run(map, rows.clone(), cols.clone()));
                                }
                            }
                        }
                        _ => {
                            for map in group_maps.chunks(1) {
                                for y in span(row_classes) {
                                    for cols in col_classes {
                                        f(run(map, y..y + 1, cols.clone()));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Appends entries `range` of the field that output map `map` reads
    /// through the windows `row` × `col`, in ascending input order: the
    /// inputs to `inputs` and their weight ids to `weight_ids`, each when
    /// given.
    fn extend(
        &self,
        map: usize,
        (row, col): (&AxisWindow, &AxisWindow),
        range: Range<usize>,
        mut inputs: Option<&mut Vec<u32>>,
        mut weight_ids: Option<&mut Vec<u32>>,
    ) {
        assert!(
            range.end <= self.fan_maps * row.taps.len() * col.taps.len(),
            "field range {range:?} reaches past the fan-in"
        );
        if range.is_empty() {
            return;
        }
        let (height, width) = (row.taps.len(), col.taps.len());
        let channels = &self.channels[map * self.fan_maps..][..self.fan_maps];
        // Entry `range.start` is tap `x` of kernel row `y` of the field's
        // `c`-th channel; from there the field is one run of consecutive
        // inputs per kernel row.
        let (run, mut x) = (range.start / width, range.start % width);
        let (mut c, mut y) = (run / height, run % height);
        let mut left = range.len();
        while left > 0 {
            let len = (width - x).min(left);
            let (channel, weight) = channels[c];
            if let Some(inputs) = inputs.as_deref_mut() {
                let first = self.input.index(channel, row.first + y, col.first + x);
                inputs.extend((first..first + len).map(|i| i as u32));
            }
            if let Some(ids) = weight_ids.as_deref_mut() {
                let tap = (row.taps.start + y) * self.kernel + col.taps.start + x;
                ids.extend((tap..tap + len).map(|k| (weight + k * self.tap_step) as u32));
            }
            left -= len;
            x = 0;
            y += 1;
            if y == height {
                y = 0;
                c += 1;
            }
        }
    }
}

/// A maximal run of consecutive outputs, in packing order, that read
/// identical inputs (see [`ReceptiveFields::for_each_run`]): each map of
/// `maps` at each position of `rows` × `cols`, map-major. Its outputs
/// differ only in their weights.
#[derive(Debug, Clone)]
pub struct FieldRun<'a> {
    fields: &'a ReceptiveFields,
    maps: &'a [usize],
    rows: Range<usize>,
    cols: Range<usize>,
}

impl<'a> FieldRun<'a> {
    /// Number of outputs in the run; at least one.
    pub fn output_count(&self) -> usize {
        self.maps.len() * self.rows.len() * self.cols.len()
    }

    /// The fan-in every output of the run shares.
    pub fn fan_in(&self) -> usize {
        let (row, col) = self.windows();
        self.fields.fan_maps * row.taps.len() * col.taps.len()
    }

    /// Appends entries `range` of the run's shared field, in ascending
    /// order, to `inputs`.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the run's fan-in.
    pub fn extend_inputs(&self, range: Range<usize>, inputs: &mut Vec<u32>) {
        self.fields
            .extend(self.maps[0], self.windows(), range, Some(inputs), None);
    }

    /// The run's outputs, in packing order.
    pub fn outputs(&self) -> impl Iterator<Item = RunOutput<'a>> + 'a {
        let fields = self.fields;
        let (rows, cols) = (self.rows.clone(), self.cols.clone());
        self.maps.iter().flat_map(move |&map| {
            let cols = cols.clone();
            rows.clone()
                .flat_map(move |y| cols.clone().map(move |x| RunOutput { fields, map, y, x }))
        })
    }

    /// The row and column windows every output of the run reads through.
    fn windows(&self) -> (&'a AxisWindow, &'a AxisWindow) {
        (
            &self.fields.rows.windows[self.rows.start],
            &self.fields.cols.windows[self.cols.start],
        )
    }
}

/// One output of a [`FieldRun`].
#[derive(Debug, Clone, Copy)]
pub struct RunOutput<'a> {
    fields: &'a ReceptiveFields,
    map: usize,
    y: usize,
    x: usize,
}

impl RunOutput<'_> {
    /// The output's id.
    pub fn id(&self) -> usize {
        self.fields.output.index(self.map, self.y, self.x)
    }

    /// Appends the weight ids of entries `range` of the output's field,
    /// in the field's order, to `weight_ids`.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the output's fan-in.
    pub fn extend_weight_ids(&self, range: Range<usize>, weight_ids: &mut Vec<u32>) {
        let windows = (
            &self.fields.rows.windows[self.y],
            &self.fields.cols.windows[self.x],
        );
        self.fields
            .extend(self.map, windows, range, None, Some(weight_ids));
    }
}

/// A validated stack of layers.
///
/// Constructed with [`Topology::new`] or the [`Topology::mlp`] /
/// [`TopologyBuilder`] conveniences; construction checks that adjacent
/// layer sizes agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    input_count: usize,
    layers: Vec<LayerSpec>,
}

impl Topology {
    /// Builds a topology from an explicit layer stack.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if the stack is empty, a conv or pool
    /// layer is degenerate (zero stride, kernel or window, or a `Valid`
    /// kernel or pool window larger than its input), the first layer does
    /// not consume `input_count` neurons, or adjacent layers disagree on
    /// size.
    pub fn new(input_count: usize, layers: Vec<LayerSpec>) -> Result<Self, TopologyError> {
        if layers.is_empty() {
            return Err(TopologyError::Empty);
        }
        let mut expected = input_count;
        for (i, layer) in layers.iter().enumerate() {
            layer
                .check()
                .map_err(|reason| TopologyError::InvalidLayer { layer: i, reason })?;
            if layer.input_count() != expected {
                return Err(TopologyError::SizeMismatch {
                    layer: i,
                    expected,
                    found: layer.input_count(),
                });
            }
            expected = layer.output_count();
        }
        Ok(Self {
            input_count,
            layers,
        })
    }

    /// Builds an MLP topology: `input -> hidden... -> output`, all dense.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty (an MLP needs at least an output layer).
    pub fn mlp(input: usize, sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty(), "MLP needs at least one layer");
        let mut layers = Vec::with_capacity(sizes.len());
        let mut prev = input;
        for &s in sizes {
            layers.push(LayerSpec::Dense {
                inputs: prev,
                outputs: s,
            });
            prev = s;
        }
        Self::new(input, layers).expect("mlp construction is size-consistent")
    }

    /// Starts a builder for convolutional topologies.
    pub fn builder(input: Shape) -> TopologyBuilder {
        TopologyBuilder {
            input,
            current: input,
            layers: Vec::new(),
        }
    }

    /// Number of input neurons (not counted in [`Self::neuron_count`]).
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// The layer stack.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Total neurons across all layers (excluding the input; the paper's
    /// Fig. 10 counts match this convention).
    pub fn neuron_count(&self) -> usize {
        self.layers.iter().map(|l| l.output_count()).sum()
    }

    /// Total connections (physical synapses when crossbar-mapped).
    pub fn synapse_count(&self) -> usize {
        self.layers.iter().map(|l| l.synapse_count()).sum()
    }

    /// Total unique weights (with convolutional weight sharing).
    pub fn unique_weight_count(&self) -> usize {
        self.layers.iter().map(|l| l.unique_weight_count()).sum()
    }

    /// Output neuron count of the final layer.
    pub fn output_count(&self) -> usize {
        self.layers.last().expect("non-empty").output_count()
    }

    /// Whether any layer uses sparse (conv/pool) connectivity.
    pub fn has_sparse_layers(&self) -> bool {
        self.layers.iter().any(|l| l.is_sparse())
    }
}

/// Builder for spatial (CNN) topologies.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    input: Shape,
    current: Shape,
    layers: Vec<LayerSpec>,
}

impl TopologyBuilder {
    /// Appends a convolution layer.
    pub fn conv(self, maps: usize, kernel: usize, padding: Padding, table: ChannelTable) -> Self {
        let spec = LayerSpec::Conv2d {
            input: self.current,
            maps,
            kernel,
            stride: 1,
            padding,
            table,
        };
        self.spatial(spec)
    }

    /// Appends a non-overlapping average-pool layer.
    pub fn pool(self, window: usize) -> Self {
        let spec = LayerSpec::AvgPool {
            input: self.current,
            window,
        };
        self.spatial(spec)
    }

    /// Appends a conv or pool layer. A degenerate layer has no output
    /// shape, so it leaves the current one in place; [`Self::build`]
    /// reports it.
    fn spatial(mut self, spec: LayerSpec) -> Self {
        if spec.check().is_ok() {
            self.current = spec.output_shape().unwrap_or(self.current);
        }
        self.layers.push(spec);
        self
    }

    /// Appends a dense layer consuming the flattened current shape.
    pub fn dense(mut self, outputs: usize) -> Self {
        self.layers.push(LayerSpec::Dense {
            inputs: self.current.count(),
            outputs,
        });
        self.current = Shape::new(1, 1, outputs);
        self
    }

    /// Finalises the topology.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Empty`] if no layer was added, and
    /// [`TopologyError::InvalidLayer`] for the first degenerate layer.
    pub fn build(self) -> Result<Topology, TopologyError> {
        Topology::new(self.input.count(), self.layers)
    }
}

/// Errors from topology construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The layer stack was empty.
    Empty,
    /// Adjacent layers disagree on activation size.
    SizeMismatch {
        /// Index of the offending layer.
        layer: usize,
        /// Size produced by the previous layer.
        expected: usize,
        /// Size the offending layer consumes.
        found: usize,
    },
    /// A conv or pool layer's geometry is degenerate: a zero stride,
    /// kernel or pool window, or a `Valid` kernel or pool window larger
    /// than its input.
    InvalidLayer {
        /// Index of the offending layer.
        layer: usize,
        /// What is wrong with it.
        reason: String,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "topology has no layers"),
            TopologyError::SizeMismatch {
                layer,
                expected,
                found,
            } => write!(
                f,
                "layer {layer} consumes {found} inputs but previous layer produces {expected}"
            ),
            TopologyError::InvalidLayer { layer, reason } => {
                write!(f, "layer {layer} is degenerate: {reason}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_counts() {
        let t = Topology::mlp(784, &[800, 800, 768, 10]);
        assert_eq!(t.neuron_count(), 2_378);
        assert_eq!(
            t.synapse_count(),
            784 * 800 + 800 * 800 + 800 * 768 + 768 * 10
        );
        assert_eq!(t.unique_weight_count(), t.synapse_count());
        assert_eq!(t.output_count(), 10);
        assert!(!t.has_sparse_layers());
    }

    #[test]
    fn dense_synapse_enumeration_is_exhaustive() {
        let l = LayerSpec::Dense {
            inputs: 3,
            outputs: 2,
        };
        let mut triples = Vec::new();
        l.for_each_synapse(|o, i, w| triples.push((o, i, w)));
        assert_eq!(triples.len(), 6);
        assert!(triples.contains(&(1, 2, 5)));
    }

    #[test]
    fn conv_valid_output_shape() {
        let l = LayerSpec::Conv2d {
            input: Shape::new(28, 28, 1),
            maps: 12,
            kernel: 5,
            stride: 1,
            padding: Padding::Valid,
            table: ChannelTable::Full,
        };
        assert_eq!(l.output_shape(), Some(Shape::new(24, 24, 12)));
        assert_eq!(l.output_count(), 12 * 24 * 24);
        // Every output neuron has full 5x5 fan-in under Valid padding.
        assert_eq!(l.synapse_count(), 12 * 24 * 24 * 25);
        assert_eq!(l.unique_weight_count(), 12 * 25);
        assert_eq!(l.max_fan_in(), 25);
    }

    #[test]
    fn conv_same_padding_trims_border_synapses() {
        let l = LayerSpec::Conv2d {
            input: Shape::new(8, 8, 1),
            maps: 1,
            kernel: 3,
            stride: 1,
            padding: Padding::Same,
            table: ChannelTable::Full,
        };
        assert_eq!(l.output_shape(), Some(Shape::new(8, 8, 1)));
        // Interior neurons have fan-in 9; border ones fewer. Per axis the
        // two border outputs have 2 valid taps and the six interior ones 3.
        assert_eq!(l.synapse_count(), 22 * 22);
        assert_eq!(l.max_fan_in(), 9);
    }

    #[test]
    fn banded_table_reduces_fan_in() {
        let full = LayerSpec::Conv2d {
            input: Shape::new(12, 12, 8),
            maps: 16,
            kernel: 5,
            stride: 1,
            padding: Padding::Valid,
            table: ChannelTable::Full,
        };
        let banded = LayerSpec::Conv2d {
            input: Shape::new(12, 12, 8),
            maps: 16,
            kernel: 5,
            stride: 1,
            padding: Padding::Valid,
            table: ChannelTable::Banded { fan: 2 },
        };
        assert_eq!(banded.synapse_count() * 4, full.synapse_count());
        assert_eq!(banded.max_fan_in(), 50);
    }

    #[test]
    fn pool_counts() {
        let l = LayerSpec::AvgPool {
            input: Shape::new(24, 24, 12),
            window: 2,
        };
        assert_eq!(l.output_shape(), Some(Shape::new(12, 12, 12)));
        assert_eq!(l.synapse_count(), 24 * 24 * 12);
        assert_eq!(l.unique_weight_count(), 1);
    }

    #[test]
    fn builder_chains_shapes() {
        let t = Topology::builder(Shape::new(28, 28, 1))
            .conv(12, 5, Padding::Valid, ChannelTable::Full)
            .pool(2)
            .conv(64, 5, Padding::Valid, ChannelTable::Banded { fan: 4 })
            .pool(2)
            .dense(10)
            .build()
            .unwrap();
        assert_eq!(t.layer_count(), 5);
        // Diehl-style CNN: 24²·12 + 12²·12 + 8²·64 + 4²·64 + 10
        assert_eq!(
            t.neuron_count(),
            24 * 24 * 12 + 12 * 12 * 12 + 8 * 8 * 64 + 4 * 4 * 64 + 10
        );
        assert!(t.has_sparse_layers());
    }

    #[test]
    fn mismatched_layers_rejected() {
        let err = Topology::new(
            10,
            vec![LayerSpec::Dense {
                inputs: 9,
                outputs: 5,
            }],
        )
        .unwrap_err();
        assert_eq!(
            err,
            TopologyError::SizeMismatch {
                layer: 0,
                expected: 10,
                found: 9
            }
        );
        assert!(err.to_string().contains("layer 0"));
    }

    #[test]
    fn empty_topology_rejected() {
        assert_eq!(Topology::new(10, vec![]).unwrap_err(), TopologyError::Empty);
    }

    /// The layer index of a [`TopologyError::InvalidLayer`].
    fn invalid_layer(built: Result<Topology, TopologyError>) -> usize {
        match built {
            Err(TopologyError::InvalidLayer { layer, .. }) => layer,
            other => panic!("expected an invalid-layer error, got {other:?}"),
        }
    }

    fn conv(input: Shape, kernel: usize, stride: usize, padding: Padding) -> LayerSpec {
        LayerSpec::Conv2d {
            input,
            maps: 2,
            kernel,
            stride,
            padding,
            table: ChannelTable::Full,
        }
    }

    #[test]
    fn zero_stride_is_a_typed_error() {
        let layer = conv(Shape::new(6, 6, 1), 3, 0, Padding::Same);
        assert_eq!(invalid_layer(Topology::new(36, vec![layer])), 0);
    }

    #[test]
    fn zero_kernel_is_a_typed_error() {
        let layer = conv(Shape::new(6, 6, 1), 0, 1, Padding::Valid);
        assert_eq!(invalid_layer(Topology::new(36, vec![layer])), 0);
    }

    #[test]
    fn zero_pool_window_is_a_typed_error() {
        let built = Topology::builder(Shape::new(6, 6, 1))
            .conv(2, 3, Padding::Same, ChannelTable::Full)
            .pool(0)
            .dense(10)
            .build();
        assert_eq!(invalid_layer(built), 1);
        let pool = LayerSpec::AvgPool {
            input: Shape::new(6, 6, 1),
            window: 0,
        };
        assert_eq!(invalid_layer(Topology::new(36, vec![pool])), 0);
    }

    #[test]
    fn valid_kernel_larger_than_its_input_is_a_typed_error() {
        // A 3x3 kernel over a 2x2 input once wrapped to a 0-output layer.
        let built = Topology::builder(Shape::new(2, 2, 1))
            .conv(4, 3, Padding::Valid, ChannelTable::Full)
            .dense(10)
            .build();
        assert_eq!(invalid_layer(built.clone()), 0);
        assert!(built
            .unwrap_err()
            .to_string()
            .contains("3x3 kernel does not fit the 2x2 input"));
        let layer = conv(Shape::new(5, 2, 1), 3, 1, Padding::Valid);
        assert_eq!(invalid_layer(Topology::new(10, vec![layer])), 0);
        // Same padding keeps the output size, so the kernel may overhang.
        let same = conv(Shape::new(2, 2, 1), 3, 1, Padding::Same);
        assert!(Topology::new(4, vec![same]).is_ok());
    }

    #[test]
    fn pool_window_larger_than_its_input_is_a_typed_error() {
        let built = Topology::builder(Shape::new(3, 3, 2)).pool(4).build();
        assert_eq!(invalid_layer(built), 0);
    }

    /// An output's sorted (input, weight id) entries.
    type Entries = Vec<(u32, u32)>;

    /// Each run of `l`'s fields: its output ids, and the shared field
    /// paired with each output's weight ids.
    fn runs(l: &LayerSpec) -> Vec<(Vec<usize>, Vec<Entries>)> {
        let fields = l.receptive_fields().unwrap();
        let mut runs = Vec::new();
        fields.for_each_run(|run| {
            let mut inputs = Vec::new();
            run.extend_inputs(0..run.fan_in(), &mut inputs);
            let (ids, entries): (Vec<usize>, _) = run
                .outputs()
                .map(|out| {
                    let mut weight_ids = Vec::new();
                    out.extend_weight_ids(0..run.fan_in(), &mut weight_ids);
                    (out.id(), inputs.iter().copied().zip(weight_ids).collect())
                })
                .unzip();
            assert_eq!(run.output_count(), ids.len());
            runs.push((ids, entries));
        });
        runs
    }

    /// Each output's `for_each_synapse` entries, sorted.
    fn sorted_entries(l: &LayerSpec) -> Vec<Entries> {
        let mut entries = vec![Vec::new(); l.output_count()];
        l.for_each_synapse(|o, i, w| entries[o].push((i as u32, w as u32)));
        for e in &mut entries {
            e.sort_unstable();
        }
        entries
    }

    #[test]
    fn receptive_field_of_a_wrapping_banded_map_is_sorted() {
        // Map 2 of a fan-2 table over 3 input maps reads maps 2 and 0; its
        // field lists map 0 first.
        let l = LayerSpec::Conv2d {
            input: Shape::new(4, 4, 3),
            maps: 3,
            kernel: 3,
            stride: 1,
            padding: Padding::Valid,
            table: ChannelTable::Banded { fan: 2 },
        };
        let o = l.output_shape().unwrap().index(2, 1, 0);
        let (ids, entries) = runs(&l)
            .into_iter()
            .find(|(ids, _)| ids.contains(&o))
            .unwrap();
        let got = &entries[ids.iter().position(|&id| id == o).unwrap()];
        assert_eq!(got[0].0, 4); // map 0, row 1, column 0
        assert_eq!(got, &sorted_entries(&l)[o]);
        assert!(LayerSpec::Dense {
            inputs: 3,
            outputs: 2
        }
        .receptive_fields()
        .is_none());
    }

    #[test]
    fn runs_are_maximal_blocks_of_identical_fields() {
        let conv = |input, maps, kernel, padding, fan: Option<usize>| LayerSpec::Conv2d {
            input,
            maps,
            kernel,
            stride: 1,
            padding,
            table: fan.map_or(ChannelTable::Full, |fan| ChannelTable::Banded { fan }),
        };
        let banded = |padding| conv(Shape::new(4, 4, 3), 9, 3, padding, Some(1));
        let full = conv(Shape::new(5, 5, 2), 4, 3, Padding::Valid, None);
        let pool = LayerSpec::AvgPool {
            input: Shape::new(4, 4, 2),
            window: 2,
        };
        // Maps 0 and 3 read input maps 0 and 1, but map 2 (maps 2 and 0)
        // comes between them.
        let fan2 = conv(Shape::new(4, 4, 3), 6, 3, Padding::Valid, Some(2));
        // Every field is empty.
        let fan0 = conv(Shape::new(4, 4, 3), 3, 3, Padding::Valid, Some(0));
        // The kernel covers the whole 2×2 input from every position.
        let wide = conv(Shape::new(2, 2, 1), 3, 5, Padding::Same, None);
        for l in [
            banded(Padding::Valid),
            banded(Padding::Same),
            full,
            pool,
            fan2,
            fan0,
            wide,
        ] {
            let want = sorted_entries(&l);
            let runs = runs(&l);
            // Every output with a field, in (first input, output id) order.
            let order: Vec<usize> = runs.iter().flat_map(|(ids, _)| ids.clone()).collect();
            let mut sorted: Vec<usize> = (0..want.len()).filter(|&o| !want[o].is_empty()).collect();
            sorted.sort_by_key(|&o| (want[o][0].0, o));
            assert_eq!(order, sorted, "{l:?}");
            for (ids, entries) in &runs {
                for (&o, got) in ids.iter().zip(entries) {
                    assert_eq!(got, &want[o], "{l:?}: output {o}");
                }
            }
            // Maximal: neighbouring runs read different inputs.
            let inputs = |o: usize| want[o].iter().map(|&(i, _)| i).collect::<Vec<_>>();
            for pair in runs.windows(2) {
                let (a, b) = (pair[0].0[0], pair[1].0[0]);
                assert_ne!(inputs(a), inputs(b), "{l:?}: outputs {a} and {b}");
            }
        }
        // Maps 0, 3 and 6 of a fan-1 table over 3 input maps all read
        // input map 0, and map 1 reads map 1: at one position, the first
        // three are one run, unless the position shares its first input
        // with another (row or column 0 or 1 under Same padding). Every map of a full table reads every input
        // map. A pool's maps read their own channels, and the wide conv
        // reads the same inputs from every position.
        let run_of = |l: &LayerSpec, map, y, x| {
            let o = l.output_shape().unwrap().index(map, y, x);
            runs(l)
                .into_iter()
                .map(|(ids, _)| ids)
                .find(|ids| ids.contains(&o))
                .unwrap()
        };
        let at = |l: &LayerSpec, maps: &[usize], y, x| -> Vec<usize> {
            let shape = l.output_shape().unwrap();
            maps.iter().map(|&m| shape.index(m, y, x)).collect()
        };
        let b = banded(Padding::Same);
        assert_eq!(run_of(&b, 3, 2, 2), at(&b, &[0, 3, 6], 2, 2));
        assert_eq!(run_of(&b, 3, 1, 1), at(&b, &[3], 1, 1));
        assert_eq!(run_of(&full, 2, 1, 1), at(&full, &[0, 1, 2, 3], 1, 1));
        assert_eq!(run_of(&pool, 1, 1, 1), at(&pool, &[1], 1, 1));
        assert_eq!(run_of(&fan2, 3, 0, 0), at(&fan2, &[3], 0, 0));
        assert_eq!(run_of(&fan2, 4, 0, 0), at(&fan2, &[1, 4], 0, 0));
        assert_eq!(run_of(&wide, 1, 1, 0).len(), 12);
    }

    #[test]
    fn synapse_enumeration_matches_count_for_conv() {
        let l = LayerSpec::Conv2d {
            input: Shape::new(10, 10, 3),
            maps: 4,
            kernel: 3,
            stride: 1,
            padding: Padding::Same,
            table: ChannelTable::Banded { fan: 2 },
        };
        let mut n = 0usize;
        let mut max_wid = 0usize;
        l.for_each_synapse(|_, _, w| {
            n += 1;
            max_wid = max_wid.max(w);
        });
        assert_eq!(n, l.synapse_count());
        assert!(max_wid < l.unique_weight_count());
    }
}
