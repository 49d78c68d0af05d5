//! Connectivity-matrix partitioning: slicing a layer's synapses into
//! crossbar-sized tiles.
//!
//! This implements §3.1.1 of the paper:
//!
//! * a neuron whose fan-in exceeds the MCA's rows is split into *chunks*
//!   that are integrated into the neuron time-multiplexed (Fig. 5); the
//!   number of chunks is the neuron's **multiplexing degree**,
//! * for sparse (CNN) connectivity, output columns that *share inputs*
//!   are packed into the same tile so one physical row feeds many columns
//!   — the input-sharing optimisation that raises MCA utilization on
//!   small arrays,
//! * dense (MLP) matrices degenerate to the classic grid tiling, filling
//!   every row and column.
//!
//! [`partition_spec`] picks the route by layer kind. Dense layers are
//! grid-tiled directly from their shape, with no connectivity matrix, at
//! a cost independent of their synapse count. Conv/pool layers are packed
//! straight from their geometry, so no connectivity matrix is built
//! either: [`ReceptiveFields::for_each_run`] lists the outputs in
//! (first input, output id) order as maximal runs of outputs that read
//! identical inputs (every map of a full-table conv at one position), and
//! the packer reads each run's fan-in chunk once. A column probes each
//! entry of its chunk once through a flat input-id → row-slot table, and
//! at the first row that does not fit it takes its rows back and goes to
//! a fresh tile. With input sharing on and details off, a run's later
//! columns add no row, so they are counted into the open tile's free
//! columns: a run costs one row fill per tile it spans, not one probe
//! per output. The
//! general path, [`partition_layer`], runs the same packer over a
//! [`ConnectivityMatrix`], whose outputs it orders with a counting sort
//! and packs as runs of one; it is the oracle both fast routes are tested
//! against.
//!
//! The fundamental invariant — checked here and property-tested — is that
//! **every synapse of the layer lands in exactly one tile**.

use std::ops::Range;

use resparc_neuro::connectivity::ConnectivityMatrix;
use resparc_neuro::topology::{FieldRun, LayerSpec, ReceptiveFields};

/// Aggregate description of one crossbar-sized tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Index of the layer this tile belongs to.
    pub layer: usize,
    /// Multiplexing phase (fan-in chunk index) this tile serves.
    pub chunk: u32,
    /// Distinct input rows occupied.
    pub rows: u32,
    /// Columns occupied (one per output-chunk).
    pub cols: u32,
    /// Synapses programmed into the tile.
    pub synapses: u32,
}

impl Tile {
    /// Device utilization of this tile on an `n × n` array.
    pub fn utilization(&self, mca_size: usize) -> f64 {
        self.synapses as f64 / (mca_size * mca_size) as f64
    }
}

/// Full row/column assignment of one tile (for the functional hardware
/// cosimulation of small networks).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TileDetail {
    /// Global input-neuron id of each occupied row, in row order.
    pub row_inputs: Vec<u32>,
    /// Per-column assignments.
    pub columns: Vec<TileColumnDetail>,
}

/// One occupied column of a tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileColumnDetail {
    /// Global output-neuron id this column computes (one chunk of it).
    pub output: u32,
    /// Which fan-in chunk of the output this column carries.
    pub chunk: u32,
    /// `(row_slot, weight_id)` pairs: the devices programmed on this
    /// column, addressed by row slot within the tile.
    pub synapses: Vec<(u32, u32)>,
}

/// The partitioning of one layer into tiles.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPartition {
    /// Layer index within the topology.
    pub layer: usize,
    /// Aggregate tile descriptions.
    pub tiles: Vec<Tile>,
    /// Global input-neuron id of each occupied row, per tile (parallel to
    /// `tiles`, `tile_rows[i].len() == tiles[i].rows`). This is what lets
    /// the trace-driven event simulator decide, per timestep, which tiles
    /// actually receive spikes — without paying for full
    /// per-synapse [`TileDetail`]s.
    pub tile_rows: Vec<Vec<u32>>,
    /// Full assignments, present only when requested.
    pub details: Option<Vec<TileDetail>>,
    /// Maximum multiplexing degree over the layer's outputs.
    pub max_degree: u32,
    /// Mean multiplexing degree over outputs.
    pub mean_degree: f64,
    /// Layer input count.
    pub inputs: u32,
    /// Layer output count.
    pub outputs: u32,
    /// Total synapses across tiles (must equal the layer's count).
    pub total_synapses: u64,
    /// Whether the layer's connectivity is sparse (conv/pool). Sparse
    /// tiles gather 2-D receptive fields, which do not enjoy the 1-D
    /// zero run-length clustering dense rows see (paper §5.3).
    pub sparse: bool,
}

impl LayerPartition {
    /// Number of tiles (crossbars) used.
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Mean device utilization across tiles on `mca_size` arrays.
    pub fn mean_utilization(&self, mca_size: usize) -> f64 {
        if self.tiles.is_empty() {
            return 0.0;
        }
        self.tiles
            .iter()
            .map(|t| t.utilization(mca_size))
            .sum::<f64>()
            / self.tiles.len() as f64
    }

    /// Mean fraction of rows occupied per tile.
    pub fn mean_row_occupancy(&self, mca_size: usize) -> f64 {
        if self.tiles.is_empty() {
            return 0.0;
        }
        self.tiles
            .iter()
            .map(|t| t.rows as f64 / mca_size as f64)
            .sum::<f64>()
            / self.tiles.len() as f64
    }

    /// Mean fraction of columns occupied per tile.
    pub fn mean_col_occupancy(&self, mca_size: usize) -> f64 {
        if self.tiles.is_empty() {
            return 0.0;
        }
        self.tiles
            .iter()
            .map(|t| t.cols as f64 / mca_size as f64)
            .sum::<f64>()
            / self.tiles.len() as f64
    }
}

/// Options controlling partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionOptions {
    /// Crossbar edge length.
    pub mca_size: usize,
    /// Enable input-sharing column packing (§3.1.1). Disabling it is the
    /// ablation: each column's rows are counted privately, so sparse
    /// layers waste rows.
    pub input_sharing: bool,
    /// Record full row/column assignments (needed for hardware cosim;
    /// memory-heavy for large layers).
    pub record_details: bool,
}

impl PartitionOptions {
    /// Default options at a given MCA size (input sharing on, no
    /// details).
    pub fn new(mca_size: usize) -> Self {
        Self {
            mca_size,
            input_sharing: true,
            record_details: false,
        }
    }

    /// Enables detail recording.
    pub fn with_details(mut self) -> Self {
        self.record_details = true;
        self
    }

    /// Disables input-sharing packing (ablation).
    pub fn without_input_sharing(mut self) -> Self {
        self.input_sharing = false;
        self
    }
}

/// Row slot of an input that has no row in the open tile.
const NO_ROW: u32 = u32::MAX;

/// Mutable state of the tile currently being filled. One instance serves
/// a whole layer: closing a tile hands out its rows and resets it.
struct OpenTile {
    /// Row slot of each global input id in the open tile, [`NO_ROW`]
    /// where the input has none. Allocated once per layer and reset only
    /// at the closed tile's `row_inputs`, so a probe is one index.
    slot_of: Vec<u32>,
    row_inputs: Vec<u32>,
    cols: u32,
    /// Per-column assignments, filled only when details are recorded.
    columns: Vec<TileColumnDetail>,
    synapses: u32,
}

impl OpenTile {
    fn new(inputs: usize) -> Self {
        Self {
            slot_of: vec![NO_ROW; inputs],
            row_inputs: Vec::new(),
            cols: 0,
            columns: Vec::new(),
            synapses: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.cols == 0
    }

    /// Adds one column holding `inputs` if it fits an `n × n` tile,
    /// probing each input once: with input sharing an input without a row
    /// takes the next one, and without it every input takes its own. At
    /// the first row that does not fit, the column takes back the rows it
    /// added and the push fails. `column` holds the output, its fan-in
    /// chunk and the weight ids when details are recorded.
    fn try_push(
        &mut self,
        n: usize,
        inputs: &[u32],
        sharing: bool,
        column: Option<(u32, u32, &[u32])>,
    ) -> bool {
        let mark = self.row_inputs.len();
        if self.cols as usize == n || (!sharing && mark + inputs.len() > n) {
            return false;
        }
        if sharing {
            for &i in inputs {
                #[cfg(test)]
                tests::PROBES.with(|p| p.set(p.get() + 1));
                let slot = &mut self.slot_of[i as usize];
                if *slot != NO_ROW {
                    continue;
                }
                if self.row_inputs.len() == n {
                    for &i in &self.row_inputs[mark..] {
                        self.slot_of[i as usize] = NO_ROW;
                    }
                    self.row_inputs.truncate(mark);
                    return false;
                }
                *slot = self.row_inputs.len() as u32;
                self.row_inputs.push(i);
            }
        } else {
            self.row_inputs.extend_from_slice(inputs);
        }
        if let Some((output, chunk, weight_ids)) = column {
            let synapses = inputs
                .iter()
                .zip(weight_ids)
                .enumerate()
                .map(|(j, (&i, &w))| {
                    let slot = if sharing {
                        self.slot_of[i as usize]
                    } else {
                        (mark + j) as u32
                    };
                    (slot, w)
                })
                .collect();
            self.columns.push(TileColumnDetail {
                output,
                chunk,
                synapses,
            });
        }
        self.cols += 1;
        self.synapses += inputs.len() as u32;
        true
    }

    /// Closes the open tile and leaves `self` empty for the next one. The
    /// next tile's row buffer starts at the capacity this one reached, so
    /// it does not regrow from empty.
    fn close(
        &mut self,
        layer: usize,
        chunk_phase: u32,
        record: bool,
    ) -> (Tile, Vec<u32>, Option<TileDetail>) {
        for &i in &self.row_inputs {
            self.slot_of[i as usize] = NO_ROW;
        }
        let capacity = self.row_inputs.capacity();
        let row_inputs = std::mem::replace(&mut self.row_inputs, Vec::with_capacity(capacity));
        let tile = Tile {
            layer,
            chunk: chunk_phase,
            rows: row_inputs.len() as u32,
            cols: std::mem::take(&mut self.cols),
            synapses: std::mem::take(&mut self.synapses),
        };
        let detail = record.then(|| TileDetail {
            row_inputs: row_inputs.clone(),
            columns: std::mem::take(&mut self.columns),
        });
        (tile, row_inputs, detail)
    }
}

/// The packer's state for one layer: its options, the open tile and the
/// tiles closed so far.
struct Packer {
    layer: usize,
    n: usize,
    sharing: bool,
    record: bool,
    open: OpenTile,
    tiles: Vec<Tile>,
    tile_rows: Vec<Vec<u32>>,
    details: Vec<TileDetail>,
}

impl Packer {
    /// Packs fan-in chunk `phase` of every output of `run` that has one.
    ///
    /// The first column probes the chunk's rows. With details, every
    /// output then records its own column and weight ids. Without them
    /// the run's outputs differ in nothing a tile keeps. With input
    /// sharing, each later column adds no row, since the chunk's rows are
    /// all in the open tile, so the rest fill its free columns by count;
    /// when it is full, a fresh tile takes the chunk's rows and the count
    /// goes on. A run then costs one row fill per tile it spans, however
    /// many outputs it holds. Without sharing, every column takes private
    /// rows.
    fn pack_run(
        &mut self,
        run: &impl Run,
        phase: usize,
        field: &mut Vec<u32>,
        weight_ids: &mut Vec<u32>,
    ) {
        let (n, fan_in) = (self.n, run.fan_in());
        let start = phase * n;
        if start >= fan_in {
            return;
        }
        let range = start..(start + n).min(fan_in);
        let inputs = run.inputs(range.clone(), field);
        let phase = phase as u32;
        if self.record {
            run.for_each_column(range, weight_ids, |output, ids| {
                self.push(phase, inputs, Some((output, ids)));
            });
            return;
        }
        self.push(phase, inputs, None);
        let mut left = run.len() - 1;
        if !self.sharing {
            for _ in 0..left {
                self.push(phase, inputs, None);
            }
            return;
        }
        while left > 0 {
            if self.open.cols as usize == n {
                self.push(phase, inputs, None);
                left -= 1;
            }
            let take = (n - self.open.cols as usize).min(left);
            self.open.cols += take as u32;
            self.open.synapses += (take * inputs.len()) as u32;
            left -= take;
        }
    }

    /// Adds one column holding `inputs` to the open tile, or, when its
    /// rows or one more column do not fit, closes the tile and adds the
    /// column to a fresh one.
    fn push(&mut self, phase: u32, inputs: &[u32], column: Option<(u32, &[u32])>) {
        let column = column.map(|(output, ids)| (output, phase, ids));
        if !self.open.try_push(self.n, inputs, self.sharing, column) {
            self.close(phase);
            let pushed = self.open.try_push(self.n, inputs, self.sharing, column);
            debug_assert!(pushed, "a chunk of at most n inputs fits an empty tile");
        }
    }

    fn close(&mut self, phase: u32) {
        let (tile, rows, detail) = self.open.close(self.layer, phase, self.record);
        self.tiles.push(tile);
        self.tile_rows.push(rows);
        self.details.extend(detail);
    }
}

/// Partitions one layer of a topology: dense layers are grid-tiled
/// directly from their shape, conv/pool layers are packed from their
/// receptive-field geometry. Both routes yield the same
/// [`LayerPartition`] as [`partition_layer`] on the layer's connectivity
/// matrix.
///
/// # Panics
///
/// Panics if `options.mca_size` is zero.
pub fn partition_spec(
    spec: &LayerSpec,
    layer: usize,
    options: &PartitionOptions,
) -> LayerPartition {
    match spec.receptive_fields() {
        Some(fields) => pack(&fields, layer, options),
        None => partition_dense(spec.input_count(), spec.output_count(), layer, options),
    }
}

/// Grid tiling of a fully connected `inputs × outputs` layer, equal to
/// [`partition_layer`] on its connectivity matrix without building it.
/// Every output's fan-in chunk `k` is the row window
/// `k·n..min((k+1)·n, inputs)`, so the chunk-major sweep packs outputs in
/// id order into column groups: `n` columns per tile with input sharing,
/// and without it as many columns as fit their private copies of the
/// window into `n` rows.
fn partition_dense(
    inputs: usize,
    outputs: usize,
    layer: usize,
    options: &PartitionOptions,
) -> LayerPartition {
    let n = options.mca_size;
    assert!(n > 0, "MCA size must be non-zero");
    let sharing = options.input_sharing;
    let record = options.record_details;

    let mut tiles = Vec::new();
    let mut tile_rows: Vec<Vec<u32>> = Vec::new();
    let mut details: Vec<TileDetail> = Vec::new();
    for (k, start) in (0..inputs).step_by(n).enumerate() {
        let len = n.min(inputs - start);
        let window: Vec<u32> = (start as u32..(start + len) as u32).collect();
        let per_tile = if sharing { n } else { n / len };
        for first in (0..outputs).step_by(per_tile) {
            let cols = per_tile.min(outputs - first);
            let rows = if sharing {
                window.clone()
            } else {
                window.repeat(cols)
            };
            tiles.push(Tile {
                layer,
                chunk: k as u32,
                rows: rows.len() as u32,
                cols: cols as u32,
                synapses: (cols * len) as u32,
            });
            if record {
                let columns = (0..cols)
                    .map(|c| {
                        let o = first + c;
                        let base = if sharing { 0 } else { c * len };
                        TileColumnDetail {
                            output: o as u32,
                            chunk: k as u32,
                            synapses: (0..len)
                                .map(|j| ((base + j) as u32, (o * inputs + start + j) as u32))
                                .collect(),
                        }
                    })
                    .collect();
                details.push(TileDetail {
                    row_inputs: rows.clone(),
                    columns,
                });
            }
            tile_rows.push(rows);
        }
    }

    // Every output has the same multiplexing degree; an empty matrix has
    // density 0, which the general path classes as sparse.
    let degree = inputs.div_ceil(n).max(1) as u32;
    LayerPartition {
        layer,
        tiles,
        tile_rows,
        details: record.then_some(details),
        max_degree: if outputs == 0 { 0 } else { degree },
        mean_degree: if outputs == 0 { 0.0 } else { f64::from(degree) },
        inputs: inputs as u32,
        outputs: outputs as u32,
        total_synapses: (inputs * outputs) as u64,
        sparse: inputs == 0 || outputs == 0,
    }
}

/// Partitions one layer's connectivity matrix into tiles: the general
/// path, and the oracle of the routes [`partition_spec`] takes.
///
/// # Panics
///
/// Panics if `options.mca_size` is zero. Internal invariant violations
/// (synapse under/over-coverage) also panic — they would indicate a
/// partitioning bug, never bad user input.
pub fn partition_layer(
    conn: &ConnectivityMatrix,
    layer: usize,
    options: &PartitionOptions,
) -> LayerPartition {
    pack(&SortedMatrix::new(conn), layer, options)
}

/// A source of the packer's receptive fields: the layer's geometry, or
/// its connectivity matrix.
trait Fields {
    /// Consecutive outputs, in packing order, that read identical inputs.
    type Run<'a>: Run
    where
        Self: 'a;
    fn inputs(&self) -> usize;
    fn outputs(&self) -> usize;
    fn synapse_count(&self) -> usize;
    fn max_fan_in(&self) -> usize;
    /// Calls `f` with the runs of outputs in (first input, output id)
    /// order. Outputs with empty fields come in runs of fan-in 0 or in
    /// none.
    fn for_each_run<'a>(&'a self, f: impl FnMut(&Self::Run<'a>));
}

/// Outputs that read identical inputs, packed as consecutive columns.
trait Run {
    fn len(&self) -> usize;
    fn fan_in(&self) -> usize;
    /// Entries `range` of the run's shared sorted field. A source that
    /// has no stored fields writes them into `buf`.
    fn inputs<'b>(&'b self, range: Range<usize>, buf: &'b mut Vec<u32>) -> &'b [u32];
    /// Calls `f` with each output of the run, in order, and the weight
    /// ids of entries `range` of its field. A source that has no stored
    /// fields writes them into `buf`.
    fn for_each_column(&self, range: Range<usize>, buf: &mut Vec<u32>, f: impl FnMut(u32, &[u32]));
}

impl Fields for ReceptiveFields {
    type Run<'a> = FieldRun<'a>;

    fn inputs(&self) -> usize {
        ReceptiveFields::inputs(self)
    }

    fn outputs(&self) -> usize {
        ReceptiveFields::outputs(self)
    }

    fn synapse_count(&self) -> usize {
        ReceptiveFields::synapse_count(self)
    }

    fn max_fan_in(&self) -> usize {
        ReceptiveFields::max_fan_in(self)
    }

    fn for_each_run<'a>(&'a self, mut f: impl FnMut(&FieldRun<'a>)) {
        ReceptiveFields::for_each_run(self, |run| f(&run));
    }
}

impl Run for FieldRun<'_> {
    fn len(&self) -> usize {
        self.output_count()
    }

    fn fan_in(&self) -> usize {
        FieldRun::fan_in(self)
    }

    fn inputs<'b>(&'b self, range: Range<usize>, buf: &'b mut Vec<u32>) -> &'b [u32] {
        buf.clear();
        self.extend_inputs(range, buf);
        buf
    }

    fn for_each_column(
        &self,
        range: Range<usize>,
        buf: &mut Vec<u32>,
        mut f: impl FnMut(u32, &[u32]),
    ) {
        for output in self.outputs() {
            buf.clear();
            output.extend_weight_ids(range.clone(), buf);
            f(output.id() as u32, buf);
        }
    }
}

/// A connectivity matrix with its outputs in (first input, output id)
/// order, by a counting sort over first inputs. The general path packs
/// each output as a run of its own.
struct SortedMatrix<'a> {
    conn: &'a ConnectivityMatrix,
    order: Vec<u32>,
}

impl<'a> SortedMatrix<'a> {
    fn new(conn: &'a ConnectivityMatrix) -> Self {
        let first_input = |o: usize| conn.inputs_of(o).first().map_or(0, |&i| i as usize);
        let mut next = vec![0u32; conn.inputs().max(1)];
        for o in 0..conn.outputs() {
            next[first_input(o)] += 1;
        }
        let mut start = 0;
        for slot in &mut next {
            let count = *slot;
            *slot = start;
            start += count;
        }
        let mut order = vec![0u32; conn.outputs()];
        for o in 0..conn.outputs() {
            let key = first_input(o);
            order[next[key] as usize] = o as u32;
            next[key] += 1;
        }
        Self { conn, order }
    }
}

/// One output of a [`SortedMatrix`].
struct MatrixRun<'a> {
    conn: &'a ConnectivityMatrix,
    output: usize,
}

impl Fields for SortedMatrix<'_> {
    type Run<'a>
        = MatrixRun<'a>
    where
        Self: 'a;

    fn inputs(&self) -> usize {
        self.conn.inputs()
    }

    fn outputs(&self) -> usize {
        self.conn.outputs()
    }

    fn synapse_count(&self) -> usize {
        self.conn.synapse_count()
    }

    fn max_fan_in(&self) -> usize {
        self.conn.max_fan_in()
    }

    fn for_each_run<'a>(&'a self, mut f: impl FnMut(&MatrixRun<'a>)) {
        for &output in &self.order {
            f(&MatrixRun {
                conn: self.conn,
                output: output as usize,
            });
        }
    }
}

impl Run for MatrixRun<'_> {
    fn len(&self) -> usize {
        1
    }

    fn fan_in(&self) -> usize {
        self.conn.fan_in(self.output)
    }

    fn inputs<'b>(&'b self, range: Range<usize>, _buf: &'b mut Vec<u32>) -> &'b [u32] {
        &self.conn.inputs_of(self.output)[range]
    }

    fn for_each_column(
        &self,
        range: Range<usize>,
        _buf: &mut Vec<u32>,
        mut f: impl FnMut(u32, &[u32]),
    ) {
        f(
            self.output as u32,
            &self.conn.weight_ids_of(self.output)[range],
        );
    }
}

/// The one packer: sweeps fan-in chunks and packs each run's chunk into
/// the open tile (see [`Packer::pack_run`]), closing it when the chunk's
/// rows or one more column would not fit. Packing in (first input,
/// output id) order puts outputs whose receptive fields overlap into the
/// same tile: it clusters the same spatial position across feature maps
/// (identical or near-identical input sets), which is what makes input
/// sharing effective for convolutions.
fn pack(fields: &impl Fields, layer: usize, options: &PartitionOptions) -> LayerPartition {
    let n = options.mca_size;
    assert!(n > 0, "MCA size must be non-zero");
    let inputs = fields.inputs();
    let outputs = fields.outputs();
    // An output's multiplexing degree is its number of fan-in chunks, and
    // at least 1.
    let max_degree = if outputs == 0 {
        0
    } else {
        fields.max_fan_in().div_ceil(n).max(1)
    };

    let mut packer = Packer {
        layer,
        n,
        sharing: options.input_sharing,
        record: options.record_details,
        open: OpenTile::new(inputs),
        tiles: Vec::new(),
        tile_rows: Vec::new(),
        details: Vec::new(),
    };
    let (mut field, mut weight_ids) = (Vec::new(), Vec::new());
    // Chunk-major sweep: phase k packs the k-th fan-in chunk of every
    // output that has one. Dense layers degenerate to grid tiling because
    // chunk k of every output covers the identical row window.
    for phase in 0..max_degree {
        fields.for_each_run(|run| packer.pack_run(run, phase, &mut field, &mut weight_ids));
        if !packer.open.is_empty() {
            packer.close(phase as u32);
        }
    }
    let Packer {
        tiles,
        tile_rows,
        details,
        ..
    } = packer;

    let total_synapses: u64 = tiles.iter().map(|t| t.synapses as u64).sum();
    assert_eq!(
        total_synapses,
        fields.synapse_count() as u64,
        "partition must cover every synapse exactly once"
    );
    debug_assert!(tiles
        .iter()
        .zip(&tile_rows)
        .all(|(t, r)| t.rows as usize == r.len() && r.len() <= n));
    // Phase 0 holds one column of every output with a non-empty field,
    // and phase k one of every output with more than k chunks. So the
    // degrees sum to one per output, empty fields included, plus the
    // columns of the later phases.
    let degree_sum = outputs as u64
        + tiles
            .iter()
            .filter(|t| t.chunk > 0)
            .map(|t| u64::from(t.cols))
            .sum::<u64>();
    // Connections over the dense matrix's; an empty matrix has density 0.
    let density = if inputs == 0 || outputs == 0 {
        0.0
    } else {
        total_synapses as f64 / (inputs as f64 * outputs as f64)
    };
    LayerPartition {
        layer,
        tiles,
        tile_rows,
        details: options.record_details.then_some(details),
        max_degree: max_degree as u32,
        mean_degree: if outputs == 0 {
            0.0
        } else {
            degree_sum as f64 / outputs as f64
        },
        inputs: inputs as u32,
        outputs: outputs as u32,
        total_synapses,
        sparse: density < 0.999,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resparc_neuro::topology::{ChannelTable, Padding, Shape};
    use std::cell::Cell;

    thread_local! {
        /// Chunk entries that `OpenTile::try_push` has probed on this
        /// thread (each test runs on its own thread).
        pub(super) static PROBES: Cell<u64> = const { Cell::new(0) };
    }

    fn conn(spec: &LayerSpec) -> ConnectivityMatrix {
        ConnectivityMatrix::from_layer(spec)
    }

    /// The packer probes a run's chunk once per tile the run spans, not
    /// once per output: a count, so unlike the mapper's timing gates it
    /// does not depend on the machine's speed. CIFAR10-CNN's conv1 (216
    /// maps over 32×32, 5×5 kernel) packs 784 positions as 784 runs of
    /// 216 outputs; pool1 (2×2 windows over its 28×28×216 output) packs
    /// 42,336 runs of one. A packer that pushed each output of a run on
    /// its own would probe conv1's 25-entry chunk 216 times per position.
    #[test]
    fn conv_and_pool_probe_each_run_chunk_once_per_tile() {
        let conv1 = LayerSpec::Conv2d {
            input: Shape::new(32, 32, 1),
            maps: 216,
            kernel: 5,
            stride: 1,
            padding: Padding::Valid,
            table: ChannelTable::Full,
        };
        let pool1 = LayerSpec::AvgPool {
            input: Shape::new(28, 28, 216),
            window: 2,
        };
        for (spec, expected) in [(conv1, 83_300u64), (pool1, 171_989)] {
            PROBES.with(|p| p.set(0));
            let p = partition_spec(&spec, 0, &PartitionOptions::new(64));
            assert_eq!(p.total_synapses, conn(&spec).synapse_count() as u64);
            let probes = PROBES.with(Cell::get);
            assert_eq!(probes, expected, "{spec:?}: {} tiles", p.tile_count());
        }
    }

    #[test]
    fn dense_layer_grid_tiling() {
        // 100 inputs × 30 outputs on 32-wide MCAs: 4 row chunks (ceil
        // 100/32), each packing all 30 outputs in one tile.
        let c = conn(&LayerSpec::Dense {
            inputs: 100,
            outputs: 30,
        });
        let p = partition_layer(&c, 0, &PartitionOptions::new(32));
        assert_eq!(p.max_degree, 4);
        assert_eq!(p.tile_count(), 4);
        assert_eq!(p.total_synapses, 3000);
        // Chunk 0..2 tiles are full rows; chunk 3 has 100-96=4 rows.
        assert_eq!(p.tiles[0].rows, 32);
        assert_eq!(p.tiles[3].rows, 4);
        assert!(p.tiles.iter().all(|t| t.cols == 30));
    }

    #[test]
    fn dense_layer_splits_columns_too() {
        let c = conn(&LayerSpec::Dense {
            inputs: 64,
            outputs: 100,
        });
        let p = partition_layer(&c, 0, &PartitionOptions::new(64));
        // One row chunk, two column tiles (64 + 36).
        assert_eq!(p.max_degree, 1);
        assert_eq!(p.tile_count(), 2);
        assert_eq!(p.tiles[0].cols, 64);
        assert_eq!(p.tiles[1].cols, 36);
    }

    #[test]
    fn conv_input_sharing_packs_columns() {
        // conv 5×5 on one map: fan-in 25 ≪ 64 rows; neighbouring outputs
        // share 20 inputs, so tiles pack many columns.
        let spec = LayerSpec::Conv2d {
            input: Shape::new(12, 12, 1),
            maps: 4,
            kernel: 5,
            stride: 1,
            padding: Padding::Valid,
            table: ChannelTable::Full,
        };
        let c = conn(&spec);
        let shared = partition_layer(&c, 0, &PartitionOptions::new(64));
        let unshared = partition_layer(&c, 0, &PartitionOptions::new(64).without_input_sharing());
        assert!(shared.tile_count() < unshared.tile_count());
        assert!(shared.mean_utilization(64) > unshared.mean_utilization(64));
        assert_eq!(shared.total_synapses, unshared.total_synapses);
        assert_eq!(shared.max_degree, 1);
    }

    #[test]
    fn smaller_mcas_have_higher_sparse_utilization() {
        // The paper's §3.1.1/Fig. 12(c) mechanism.
        let spec = LayerSpec::Conv2d {
            input: Shape::new(16, 16, 1),
            maps: 8,
            kernel: 5,
            stride: 1,
            padding: Padding::Valid,
            table: ChannelTable::Full,
        };
        let c = conn(&spec);
        let u32_ = partition_layer(&c, 0, &PartitionOptions::new(32)).mean_utilization(32);
        let u64_ = partition_layer(&c, 0, &PartitionOptions::new(64)).mean_utilization(64);
        let u128_ = partition_layer(&c, 0, &PartitionOptions::new(128)).mean_utilization(128);
        // Utilization must not improve with array size, and must drop
        // clearly by 128 (rows/cols saturate at the sharing limit).
        assert!(u32_ + 1e-9 >= u64_, "{u32_} vs {u64_}");
        assert!(u64_ + 1e-9 >= u128_, "{u64_} vs {u128_}");
        assert!(u32_ > 1.5 * u128_, "{u32_} vs {u128_}");
    }

    #[test]
    fn dense_utilization_stays_high_at_all_sizes() {
        let c = conn(&LayerSpec::Dense {
            inputs: 512,
            outputs: 512,
        });
        for n in [32usize, 64, 128] {
            let u = partition_layer(&c, 0, &PartitionOptions::new(n)).mean_utilization(n);
            assert!(u > 0.95, "size {n}: utilization {u}");
        }
    }

    #[test]
    fn details_cover_every_synapse_with_consistent_slots() {
        let spec = LayerSpec::Conv2d {
            input: Shape::new(8, 8, 2),
            maps: 3,
            kernel: 3,
            stride: 1,
            padding: Padding::Valid,
            table: ChannelTable::Full,
        };
        let c = conn(&spec);
        let p = partition_layer(&c, 0, &PartitionOptions::new(32).with_details());
        let details = p.details.as_ref().unwrap();
        assert_eq!(details.len(), p.tile_count());
        let mut covered = 0usize;
        for (tile, det) in p.tiles.iter().zip(details) {
            assert_eq!(det.row_inputs.len() as u32, tile.rows);
            assert_eq!(det.columns.len() as u32, tile.cols);
            for col in &det.columns {
                for &(slot, _) in &col.synapses {
                    assert!((slot as usize) < det.row_inputs.len());
                }
                covered += col.synapses.len();
            }
        }
        assert_eq!(covered, c.synapse_count());
    }

    #[test]
    fn tile_rows_recorded_for_every_tile() {
        let spec = LayerSpec::Conv2d {
            input: Shape::new(10, 10, 2),
            maps: 4,
            kernel: 3,
            stride: 1,
            padding: Padding::Valid,
            table: ChannelTable::Full,
        };
        for (spec, inputs) in [
            (spec, 200usize),
            (
                LayerSpec::Dense {
                    inputs: 100,
                    outputs: 40,
                },
                100,
            ),
        ] {
            let c = conn(&spec);
            let p = partition_layer(&c, 0, &PartitionOptions::new(32));
            assert_eq!(p.tile_rows.len(), p.tile_count());
            for (tile, rows) in p.tiles.iter().zip(&p.tile_rows) {
                assert_eq!(rows.len() as u32, tile.rows);
                assert!(rows.iter().all(|&r| (r as usize) < inputs));
                // With input sharing on, a tile never holds duplicate rows.
                let mut sorted = rows.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), rows.len());
            }
        }
    }

    #[test]
    fn high_fan_in_sparse_outputs_are_chunked() {
        // Full-table conv over many channels: fan-in 3*3*24 = 216 > 64.
        let spec = LayerSpec::Conv2d {
            input: Shape::new(6, 6, 24),
            maps: 2,
            kernel: 3,
            stride: 1,
            padding: Padding::Valid,
            table: ChannelTable::Full,
        };
        let c = conn(&spec);
        let p = partition_layer(&c, 0, &PartitionOptions::new(64));
        assert_eq!(p.max_degree, 4); // ceil(216/64)
        assert_eq!(p.total_synapses, c.synapse_count() as u64);
    }

    #[test]
    fn repeated_fields_pack_like_the_general_path() {
        let conv = |input, maps, kernel, padding, table| LayerSpec::Conv2d {
            input,
            maps,
            kernel,
            stride: 1,
            padding,
            table,
        };
        let banded = |fan| ChannelTable::Banded { fan };
        let layers = [
            // 40 maps outnumber every MCA's columns, so one position's run
            // of repeated fields spans tiles; fan-in 18 spans MCA 8 and 16
            // rows, so the runs repeat in every phase.
            conv(
                Shape::new(6, 6, 2),
                40,
                3,
                Padding::Valid,
                ChannelTable::Full,
            ),
            // Edge positions share a first input, so their runs interleave.
            conv(
                Shape::new(6, 6, 2),
                40,
                3,
                Padding::Same,
                ChannelTable::Full,
            ),
            // The kernel covers the whole input from the edge positions, so
            // some positions read identical inputs and share runs, and
            // others interleave with them.
            conv(Shape::new(3, 4, 2), 5, 5, Padding::Same, ChannelTable::Full),
            // Maps 0, 3 and 6 read input map 0, maps 1, 4 and 7 map 1, ...
            conv(Shape::new(6, 6, 3), 9, 3, Padding::Valid, banded(1)),
            // Maps 0 and 3 read input maps 0 and 1, but map 2 (maps 0 and
            // 2) sorts between them; maps 1, 4 and 7 are adjacent.
            conv(Shape::new(6, 6, 3), 8, 3, Padding::Same, banded(2)),
            // Every field is empty.
            conv(Shape::new(6, 6, 3), 4, 3, Padding::Valid, banded(0)),
            LayerSpec::AvgPool {
                input: Shape::new(6, 6, 3),
                window: 2,
            },
            // Fan-in 9: a position's run of 24 maps spans three tiles at
            // MCA 8 in each of its two phases.
            conv(
                Shape::new(5, 5, 1),
                24,
                3,
                Padding::Valid,
                ChannelTable::Full,
            ),
        ];
        for spec in &layers {
            let c = conn(spec);
            for n in [8usize, 16, 32] {
                for (input_sharing, record_details) in
                    [(true, false), (true, true), (false, false), (false, true)]
                {
                    let options = PartitionOptions {
                        mca_size: n,
                        input_sharing,
                        record_details,
                    };
                    assert_eq!(
                        partition_spec(spec, 0, &options),
                        partition_layer(&c, 0, &options),
                        "{spec:?} under {options:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn rows_never_exceed_mca_size() {
        let spec = LayerSpec::Conv2d {
            input: Shape::new(10, 10, 3),
            maps: 6,
            kernel: 3,
            stride: 1,
            padding: Padding::Same,
            table: ChannelTable::Banded { fan: 2 },
        };
        let c = conn(&spec);
        for n in [16usize, 32, 64] {
            let p = partition_layer(&c, 0, &PartitionOptions::new(n));
            assert!(p
                .tiles
                .iter()
                .all(|t| t.rows <= n as u32 && t.cols <= n as u32));
        }
    }
}
