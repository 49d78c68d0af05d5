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
//! straight from their geometry: each output's sorted receptive field is
//! streamed from [`LayerSpec::receptive_fields`] into the packer, chunk by
//! chunk, so no connectivity matrix is built either. The general path,
//! [`partition_layer`], runs the same packer over a [`ConnectivityMatrix`];
//! it is the oracle both fast routes are tested against. Outputs are
//! ordered by (first input, output id) with a counting sort, and packing
//! costs O(1) work per synapse, except for a repeated field: with input
//! sharing on and details off, an output whose field repeats the previous
//! column's in a tile with a free column is added in O(1), since all its
//! rows are already there. That covers every map of a full-table conv at
//! one position, which the sort makes consecutive.
//!
//! The fundamental invariant — checked here and property-tested — is that
//! **every synapse of the layer lands in exactly one tile**.

use std::ops::Range;

use resparc_neuro::connectivity::ConnectivityMatrix;
use resparc_neuro::topology::{LayerSpec, ReceptiveFields};

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

    /// Rows that would be occupied after adding `inputs`, under the given
    /// sharing rule.
    fn rows_after(&self, inputs: &[u32], sharing: bool) -> u32 {
        let new = if sharing {
            inputs
                .iter()
                .filter(|&&i| self.slot_of[i as usize] == NO_ROW)
                .count()
        } else {
            inputs.len()
        };
        (self.row_inputs.len() + new) as u32
    }

    /// Adds one column holding `inputs`; `weight_ids` is read only when
    /// details are recorded.
    fn push_column(
        &mut self,
        output: u32,
        chunk: u32,
        inputs: &[u32],
        weight_ids: &[u32],
        sharing: bool,
        record: bool,
    ) {
        let mut synapses = Vec::new();
        for (j, &i) in inputs.iter().enumerate() {
            let next = self.row_inputs.len() as u32;
            let slot = if sharing {
                let slot = &mut self.slot_of[i as usize];
                if *slot == NO_ROW {
                    *slot = next;
                    self.row_inputs.push(i);
                }
                *slot
            } else {
                self.row_inputs.push(i);
                next
            };
            if record {
                synapses.push((slot, weight_ids[j]));
            }
        }
        self.synapses += inputs.len() as u32;
        self.cols += 1;
        if record {
            self.columns.push(TileColumnDetail {
                output,
                chunk,
                synapses,
            });
        }
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
    pack(conn, layer, options)
}

/// A source of the packer's receptive fields: the layer's geometry, or
/// its connectivity matrix.
trait Fields {
    fn inputs(&self) -> usize;
    fn outputs(&self) -> usize;
    fn synapse_count(&self) -> usize;
    fn fan_in(&self, o: usize) -> usize;
    /// The smallest input of output `o`'s field; 0 if it is empty.
    fn first_input(&self, o: usize) -> usize;
    /// Whether outputs `a` and `b` are known to read the same inputs. A
    /// source that cannot tell cheaply answers `false`.
    fn same_inputs(&self, _a: usize, _b: usize) -> bool {
        false
    }
    /// Entries `range` of output `o`'s sorted field, and their weight ids
    /// when `record` is set (otherwise the ids may be empty). A source
    /// that has no stored fields writes them into `buf`.
    fn chunk<'a>(
        &'a self,
        o: usize,
        range: Range<usize>,
        record: bool,
        buf: &'a mut FieldBuf,
    ) -> (&'a [u32], &'a [u32]);
}

/// Buffers one streamed field chunk is written into.
#[derive(Default)]
struct FieldBuf {
    inputs: Vec<u32>,
    weight_ids: Vec<u32>,
}

impl Fields for ReceptiveFields {
    fn inputs(&self) -> usize {
        ReceptiveFields::inputs(self)
    }

    fn outputs(&self) -> usize {
        ReceptiveFields::outputs(self)
    }

    fn synapse_count(&self) -> usize {
        ReceptiveFields::synapse_count(self)
    }

    fn fan_in(&self, o: usize) -> usize {
        ReceptiveFields::fan_in(self, o)
    }

    fn first_input(&self, o: usize) -> usize {
        ReceptiveFields::first_input(self, o)
    }

    fn same_inputs(&self, a: usize, b: usize) -> bool {
        ReceptiveFields::same_inputs(self, a, b)
    }

    fn chunk<'a>(
        &'a self,
        o: usize,
        range: Range<usize>,
        record: bool,
        buf: &'a mut FieldBuf,
    ) -> (&'a [u32], &'a [u32]) {
        buf.inputs.clear();
        buf.weight_ids.clear();
        let ids = record.then_some(&mut buf.weight_ids);
        self.extend_field(o, range, &mut buf.inputs, ids);
        (&buf.inputs, &buf.weight_ids)
    }
}

impl Fields for ConnectivityMatrix {
    fn inputs(&self) -> usize {
        ConnectivityMatrix::inputs(self)
    }

    fn outputs(&self) -> usize {
        ConnectivityMatrix::outputs(self)
    }

    fn synapse_count(&self) -> usize {
        ConnectivityMatrix::synapse_count(self)
    }

    fn fan_in(&self, o: usize) -> usize {
        ConnectivityMatrix::fan_in(self, o)
    }

    fn first_input(&self, o: usize) -> usize {
        self.inputs_of(o).first().map_or(0, |&i| i as usize)
    }

    fn chunk<'a>(
        &'a self,
        o: usize,
        range: Range<usize>,
        _record: bool,
        _buf: &'a mut FieldBuf,
    ) -> (&'a [u32], &'a [u32]) {
        (
            &self.inputs_of(o)[range.clone()],
            &self.weight_ids_of(o)[range],
        )
    }
}

/// The outputs in (first input, output id) order, by a counting sort over
/// first inputs. Packing in this order puts outputs whose receptive
/// fields overlap into the same tile: it clusters the same spatial
/// position across feature maps (identical or near-identical input sets),
/// which is what makes input sharing effective for convolutions.
fn output_order(fields: &impl Fields) -> Vec<u32> {
    let keys: Vec<usize> = (0..fields.outputs())
        .map(|o| fields.first_input(o))
        .collect();
    let mut next = vec![0u32; fields.inputs().max(1)];
    for &key in &keys {
        next[key] += 1;
    }
    let mut start = 0;
    for slot in &mut next {
        let count = *slot;
        *slot = start;
        start += count;
    }
    let mut order = vec![0u32; keys.len()];
    for (o, &key) in keys.iter().enumerate() {
        order[next[key] as usize] = o as u32;
        next[key] += 1;
    }
    order
}

/// The one packer: sweeps fan-in chunks and packs each output's chunk
/// into the open tile, closing it when the chunk's rows or one more
/// column would not fit.
///
/// With input sharing on and details off, a chunk whose output reads the
/// same inputs ([`Fields::same_inputs`]) as the last output pushed in this
/// phase is added by count alone when the open tile is non-empty and has
/// a free column: the previous column put every input of the chunk on a
/// row, so the chunk adds no row and needs no probe. Without input
/// sharing each column takes private rows, and with details each synapse
/// records its slot, so both take the general step; a source that cannot
/// tell repeats (the connectivity matrix) always does.
fn pack(fields: &impl Fields, layer: usize, options: &PartitionOptions) -> LayerPartition {
    let n = options.mca_size;
    assert!(n > 0, "MCA size must be non-zero");
    let record = options.record_details;
    let inputs = fields.inputs();
    let outputs = fields.outputs();

    // Multiplexing degree per output.
    let fan_ins: Vec<usize> = (0..outputs).map(|o| fields.fan_in(o)).collect();
    let mut max_degree = 0u32;
    let mut degree_sum = 0u64;
    for &fan_in in &fan_ins {
        let d = fan_in.div_ceil(n).max(1) as u32;
        max_degree = max_degree.max(d);
        degree_sum += d as u64;
    }

    let mut tiles = Vec::new();
    let mut tile_rows: Vec<Vec<u32>> = Vec::new();
    let mut details: Vec<TileDetail> = Vec::new();
    let order = output_order(fields);

    // Chunk-major sweep: phase k packs the k-th fan-in chunk of every
    // output that has one. Dense layers degenerate to grid tiling because
    // chunk k of every output covers the identical row window.
    let mut open = OpenTile::new(inputs);
    let mut buf = FieldBuf::default();
    // Only with input sharing on and details off is a repeated field's
    // column nothing but a column count and a synapse count.
    let repeats = options.input_sharing && !record;
    for k in 0..max_degree as usize {
        // The last output pushed in this phase; its column is in the open
        // tile whenever that tile is non-empty.
        let mut prev = None;
        for &o in &order {
            let o = o as usize;
            let fan_in = fan_ins[o];
            let start = k * n;
            if start >= fan_in {
                continue;
            }
            let range = start..(start + n).min(fan_in);
            if repeats
                && !open.is_empty()
                && open.cols < n as u32
                && prev.is_some_and(|p| fields.same_inputs(p, o))
            {
                // Every input of the chunk already has a row in the open
                // tile, so `rows_after` would find no new row and
                // `push_column` would only count.
                open.cols += 1;
                open.synapses += range.len() as u32;
                prev = Some(o);
                continue;
            }
            let (chunk_inputs, chunk_wids) = fields.chunk(o, range, record, &mut buf);

            let fits_rows = open.rows_after(chunk_inputs, options.input_sharing) <= n as u32;
            let fits_cols = open.cols < n as u32;
            if !(open.is_empty() || (fits_rows && fits_cols)) {
                let (tile, rows, detail) = open.close(layer, k as u32, record);
                tiles.push(tile);
                tile_rows.push(rows);
                if let Some(d) = detail {
                    details.push(d);
                }
            }
            open.push_column(
                o as u32,
                k as u32,
                chunk_inputs,
                chunk_wids,
                options.input_sharing,
                record,
            );
            prev = Some(o);
            debug_assert!(
                open.row_inputs.len() <= n,
                "tile row overflow: {} > {n}",
                open.row_inputs.len()
            );
        }
        if !open.is_empty() {
            let (tile, rows, detail) = open.close(layer, k as u32, record);
            tiles.push(tile);
            tile_rows.push(rows);
            if let Some(d) = detail {
                details.push(d);
            }
        }
    }

    let total_synapses: u64 = tiles.iter().map(|t| t.synapses as u64).sum();
    assert_eq!(
        total_synapses,
        fields.synapse_count() as u64,
        "partition must cover every synapse exactly once"
    );

    debug_assert!(tiles
        .iter()
        .zip(&tile_rows)
        .all(|(t, r)| t.rows as usize == r.len()));
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
        details: record.then_some(details),
        max_degree,
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

    fn conn(spec: &LayerSpec) -> ConnectivityMatrix {
        ConnectivityMatrix::from_layer(spec)
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
        let conv = |input, maps, padding, table| LayerSpec::Conv2d {
            input,
            maps,
            kernel: 3,
            stride: 1,
            padding,
            table,
        };
        let layers = [
            // 40 maps outnumber every MCA's columns, so one position's run
            // of repeated fields spans tiles; fan-in 18 spans MCA 8 and 16
            // rows, so the runs repeat in every phase.
            conv(Shape::new(6, 6, 2), 40, Padding::Valid, ChannelTable::Full),
            // Edge positions share a first input, so their runs interleave.
            conv(Shape::new(6, 6, 2), 40, Padding::Same, ChannelTable::Full),
            // Maps 0, 3 and 6 read input map 0, maps 1, 4 and 7 map 1, ...
            conv(
                Shape::new(6, 6, 3),
                9,
                Padding::Valid,
                ChannelTable::Banded { fan: 1 },
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
