//! The compiled word-level replay plan: per-[`Mapping`] lowering of every
//! layer's `tile_rows` packet windows onto the bit-packed words of the
//! spike trace, so event replay counts a window's active rows with AND +
//! popcount instead of one scalar bit test per row, and visits only the
//! windows a step's spikes can reach.
//!
//! # Plan layout
//!
//! A [`ReplayPlan`] holds one `LayerPlan` per mapped layer. A layer plan
//! lowers each **tile class** once: a class is a run of consecutive tiles
//! with identical `tile_rows`, so its tiles see the same windows and the
//! same counts every step. Dense grid tiling makes one class per fan-in
//! chunk (MNIST-MLP at MCA 64: 506 tiles, 51 classes), and so does a conv
//! run that spans several tiles. `class_tiles` is the CSR of the classes
//! over the tiles, and the classes' windows (`rows.chunks(packet_bits)`
//! of each class's rows) are flattened, in class order, into one windows
//! array. Each window is lowered to one of two shapes:
//!
//! * `WindowPlan::Run` — the window's rows are one contiguous ascending
//!   id run of width ≤ 64 (the shape every dense layer produces): the
//!   active count is read by shifting at most two adjacent trace words
//!   and masking to the run width. No per-row data at all.
//! * `WindowPlan::Masks` — scattered rows (conv layers): the rows are
//!   coalesced into `(word index, bit mask)` pairs stored in the layer's
//!   shared `masks` pool; the active count is
//!   `Σ popcount(trace_word & mask)`, one term per *distinct word* the
//!   window touches instead of one test per row. Without input sharing a
//!   tile may hold one input on several rows; each repeat opens another
//!   mask for its word, so no row is lost to coalescing.
//!
//! Both shapes reproduce the scalar row walk's count exactly (each row
//! sets exactly one mask bit) — every count the replay engines derive
//! from a plan is an integer, which is what makes the plan engine's
//! energy ledger bit-identical to the reference engine's (see
//! [`super::event`]).
//!
//! # Activity index
//!
//! Two more tables make the plan engine's cost follow spikes:
//!
//! * the **class table** — the class each window belongs to, parallel to
//!   the windows array (class `c`'s tiles are
//!   `class_tiles[c]..class_tiles[c + 1]`);
//! * the **inverse index** — for each input word of the layer, the
//!   windows whose count reads it (CSR: `word_ranges` into
//!   `word_windows`). A `Run` is listed under `word`, and under
//!   `word + 1` when it spans two words; a `Masks` window under each
//!   distinct word of its mask pairs.
//!
//! A window whose words are all zero counts zero, so a step visits only
//! the windows listed under its non-zero words, once per class rather
//! than once per tile; the event walk tallies every other window
//! (zero-checked, not delivered, no active rows) in closed form. Both
//! tables are built by counting passes in [`ReplayPlan::compile`].
//!
//! The plan depends only on the mapping's `partitions` and
//! `config.packet_bits` — not on placement — so pool-compaction placement
//! translation never invalidates it. It is compiled lazily and cached on
//! the [`Mapping`] (`OnceLock<Arc<ReplayPlan>>`), mirroring how
//! `CompiledNetwork` is cached on `Network`.

use crate::map::Mapping;

/// One lowered packet window of one tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WindowPlan {
    /// Contiguous ascending row run `[first, first + width)`, width ≤ 64:
    /// spans at most the two words `word` and `word + 1`.
    Run {
        /// Word index of the run's first row.
        word: u32,
        /// Bit offset of the first row within that word (0..64).
        shift: u8,
        /// Whether the run continues into `word + 1` (implies
        /// `shift != 0`, so the `64 - shift` rescue shift is in 1..64).
        spans_two: bool,
        /// Width mask: low `width` bits set.
        mask: u64,
    },
    /// Scattered rows: the coalesced `(word, mask)` pairs at
    /// `masks[start..end]` in the owning [`LayerPlan`].
    Masks {
        /// Start index into the layer's mask pool.
        start: u32,
        /// One past the last mask of this window.
        end: u32,
    },
}

impl WindowPlan {
    /// Active rows of this window in one timestep's trace words.
    #[inline]
    pub(crate) fn count(&self, words: &[u64], masks: &[(u32, u64)]) -> u64 {
        match *self {
            WindowPlan::Run {
                word,
                shift,
                spans_two,
                mask,
            } => {
                let lo = words[word as usize] >> shift;
                let bits = if spans_two {
                    lo | (words[word as usize + 1] << (64 - shift))
                } else {
                    lo
                };
                u64::from((bits & mask).count_ones())
            }
            WindowPlan::Masks { start, end } => masks[start as usize..end as usize]
                .iter()
                .map(|&(w, m)| u64::from((words[w as usize] & m).count_ones()))
                .sum(),
        }
    }

    /// Calls `f` with each distinct trace word [`count`](Self::count)
    /// reads, in ascending order.
    fn for_each_word(&self, masks: &[(u32, u64)], mut f: impl FnMut(u32)) {
        match *self {
            WindowPlan::Run {
                word, spans_two, ..
            } => {
                f(word);
                if spans_two {
                    f(word + 1);
                }
            }
            WindowPlan::Masks { start, end } => {
                let pairs = &masks[start as usize..end as usize];
                for (i, &(w, _)) in pairs.iter().enumerate() {
                    if i == 0 || pairs[i - 1].0 != w {
                        f(w);
                    }
                }
            }
        }
    }
}

/// The lowered packet windows of one layer, one set per tile class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LayerPlan {
    /// CSR ranges over the tiles: class `c` is tiles
    /// `class_tiles[c]..class_tiles[c + 1]`.
    class_tiles: Vec<u32>,
    /// All classes' windows, flattened in class order.
    windows: Vec<WindowPlan>,
    /// Class of each window (parallel to `windows`).
    owners: Vec<u32>,
    /// CSR ranges of the inverse index: the windows whose count reads
    /// input word `w` are `word_windows[word_ranges[w]..word_ranges[w + 1]]`.
    word_ranges: Vec<u32>,
    /// Window indices, grouped by the input word they read.
    word_windows: Vec<u32>,
    /// Shared `(word, mask)` pool for the [`WindowPlan::Masks`] windows.
    masks: Vec<(u32, u64)>,
    /// Packet windows summed over every tile.
    tile_windows: u64,
}

impl LayerPlan {
    /// Splits one layer's tiles into classes (runs of consecutive tiles
    /// with identical rows), lowers each class's windows and builds the
    /// class table and inverse index for a layer of `inputs` input
    /// neurons.
    fn lower(tile_rows: &[Vec<u32>], inputs: usize, pkt: usize) -> Self {
        let mut class_tiles = vec![0u32];
        let mut windows = Vec::new();
        let mut owners = Vec::new();
        let mut masks: Vec<(u32, u64)> = Vec::new();
        for (c, class) in tile_rows.chunk_by(|a, b| a == b).enumerate() {
            for window in class[0].chunks(pkt) {
                windows.push(lower_window(window, &mut masks));
                owners.push(c as u32);
            }
            class_tiles.push(class_tiles[c] + class.len() as u32);
        }

        // Inverse index by counting: count each word's windows, turn the
        // counts into CSR starts, then fill through a per-word cursor.
        let words = inputs.div_ceil(64);
        let mut word_ranges = vec![0u32; words + 1];
        for w in &windows {
            w.for_each_word(&masks, |word| word_ranges[word as usize + 1] += 1);
        }
        for i in 1..=words {
            word_ranges[i] += word_ranges[i - 1];
        }
        let mut cursor = word_ranges[..words].to_vec();
        let mut word_windows = vec![0u32; word_ranges[words] as usize];
        for (wi, w) in windows.iter().enumerate() {
            w.for_each_word(&masks, |word| {
                let slot = &mut cursor[word as usize];
                word_windows[*slot as usize] = wi as u32;
                *slot += 1;
            });
        }

        LayerPlan {
            class_tiles,
            windows,
            owners,
            word_ranges,
            word_windows,
            masks,
            tile_windows: tile_rows
                .iter()
                .map(|rows| rows.len().div_ceil(pkt) as u64)
                .sum(),
        }
    }

    /// Number of tile classes.
    #[inline]
    pub(crate) fn class_count(&self) -> usize {
        self.class_tiles.len() - 1
    }

    /// The class CSR over the tiles: class `c` is tiles
    /// `class_tiles()[c]..class_tiles()[c + 1]`.
    #[inline]
    pub(crate) fn class_tiles(&self) -> &[u32] {
        &self.class_tiles
    }

    /// Number of tiles in class `c`.
    #[inline]
    pub(crate) fn class_size(&self, c: usize) -> u64 {
        u64::from(self.class_tiles[c + 1] - self.class_tiles[c])
    }

    /// All classes' windows, flattened in class order (the indices
    /// [`word_windows`](Self::word_windows) lists).
    #[inline]
    pub(crate) fn windows(&self) -> &[WindowPlan] {
        &self.windows
    }

    /// The class that owns window `wi`.
    #[inline]
    pub(crate) fn owner(&self, wi: usize) -> usize {
        self.owners[wi] as usize
    }

    /// The windows whose count reads input word `w`.
    #[inline]
    pub(crate) fn word_windows(&self, w: usize) -> &[u32] {
        &self.word_windows[self.word_ranges[w] as usize..self.word_ranges[w + 1] as usize]
    }

    /// The layer's shared mask pool.
    #[inline]
    pub(crate) fn masks(&self) -> &[(u32, u64)] {
        &self.masks
    }

    /// Number of tiles covered.
    pub(crate) fn tile_count(&self) -> usize {
        self.class_tiles[self.class_count()] as usize
    }

    /// Packet windows summed over every tile (each class's windows once
    /// per tile): the layer's zero-check candidates per step.
    #[inline]
    pub(crate) fn tile_window_count(&self) -> u64 {
        self.tile_windows
    }
}

/// A compiled word-level replay plan for one [`Mapping`] — see the
/// module docs for the layout and the bit-identity contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayPlan {
    layers: Vec<LayerPlan>,
    packet_bits: u32,
}

impl ReplayPlan {
    /// Lowers every layer's tile classes' windows against the mapping's
    /// packet width, with each layer's class table and inverse index.
    /// Placement-independent: only `mapping.partitions` and
    /// `mapping.config.packet_bits` are read.
    pub fn compile(mapping: &Mapping) -> Self {
        let pkt = mapping.config.packet_bits as usize;
        let layers = mapping
            .partitions
            .iter()
            .map(|part| LayerPlan::lower(&part.tile_rows, part.inputs as usize, pkt))
            .collect();
        Self {
            layers,
            packet_bits: mapping.config.packet_bits,
        }
    }

    /// The plan of layer `l`.
    #[inline]
    pub(crate) fn layer(&self, l: usize) -> &LayerPlan {
        &self.layers[l]
    }

    /// Packet width the plan was lowered against.
    pub fn packet_bits(&self) -> u32 {
        self.packet_bits
    }

    /// Number of layers covered.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Total lowered windows across all layers: each tile class's
    /// windows once, however many tiles the class holds.
    pub fn window_count(&self) -> usize {
        self.layers.iter().map(|l| l.windows.len()).sum()
    }

    /// Fraction of windows lowered to the contiguous-run fast path
    /// (`1.0` for pure dense networks; conv layers under input-sharing
    /// contribute scattered mask windows).
    pub fn run_fraction(&self) -> f64 {
        let total = self.window_count();
        if total == 0 {
            return 1.0;
        }
        let runs: usize = self
            .layers
            .iter()
            .flat_map(|l| &l.windows)
            .filter(|w| matches!(w, WindowPlan::Run { .. }))
            .count();
        runs as f64 / total as f64
    }
}

/// Lowers one packet window's rows to a [`WindowPlan`], appending to the
/// layer's mask pool when the rows are not a contiguous run.
fn lower_window(rows: &[u32], masks: &mut Vec<(u32, u64)>) -> WindowPlan {
    let width = rows.len();
    debug_assert!(width > 0, "chunks never yields an empty window");
    let contiguous = width <= 64 && rows.windows(2).all(|p| p[1] == p[0] + 1);
    if contiguous {
        let first = rows[0] as usize;
        let word = (first / 64) as u32;
        let shift = (first % 64) as u8;
        let spans_two = shift != 0 && shift as usize + width > 64;
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        WindowPlan::Run {
            word,
            shift,
            spans_two,
            mask,
        }
    } else {
        let start = masks.len() as u32;
        // OR the rows into per-word masks. Under input sharing a tile's
        // rows are unique; without it a tile may hold one input on several
        // rows, so a row whose bit its word's masks all hold already opens
        // another mask for that word. Every row then sets exactly one bit,
        // and the popcounts count it once per row, as the scalar walk does.
        let mut pairs: Vec<(u32, u64)> = Vec::new();
        for &gi in rows {
            let (word, bit) = (gi / 64, 1u64 << (gi % 64));
            match pairs.iter_mut().find(|(w, m)| *w == word && m & bit == 0) {
                Some((_, m)) => *m |= bit,
                None => pairs.push((word, bit)),
            }
        }
        // Word order: the engines read the pool sequentially, and
        // `for_each_word` lists a word once.
        pairs.sort_by_key(|&(w, _)| w);
        masks.extend(pairs);
        let end = masks.len() as u32;
        debug_assert_eq!(
            masks[start as usize..end as usize]
                .iter()
                .map(|&(_, m)| m.count_ones() as usize)
                .sum::<usize>(),
            width,
            "every row of a window sets one mask bit"
        );
        WindowPlan::Masks { start, end }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResparcConfig;
    use crate::map::Mapper;
    use resparc_neuro::spike::SpikeVector;
    use resparc_neuro::topology::{ChannelTable, Padding, Shape, Topology};

    /// Scalar oracle: the reference engine's per-window count.
    fn scalar_count(rows: &[u32], spikes: &SpikeVector) -> u64 {
        rows.iter().filter(|&&gi| spikes.get(gi as usize)).count() as u64
    }

    fn pseudo_random_spikes(len: usize, seed: u64) -> SpikeVector {
        let mut v = SpikeVector::new(len);
        let mut state = seed | 1;
        for i in 0..len {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if state & 3 == 0 {
                v.set(i, true);
            }
        }
        v
    }

    fn assert_plan_matches_scalar(mapping: &Mapping) {
        let plan = ReplayPlan::compile(mapping);
        let pkt = mapping.config.packet_bits as usize;
        for (l, part) in mapping.partitions.iter().enumerate() {
            let lp = plan.layer(l);
            assert_eq!(lp.tile_count(), part.tile_count());
            let tiles = lp.class_tiles();
            for seed in [1u64, 99, 12345] {
                let spikes = pseudo_random_spikes(part.inputs as usize, seed);
                for c in 0..lp.class_count() {
                    let planned: Vec<u64> = (0..lp.windows().len())
                        .filter(|&wi| lp.owner(wi) == c)
                        .map(|wi| lp.windows()[wi].count(spikes.words(), lp.masks()))
                        .collect();
                    for ti in tiles[c] as usize..tiles[c + 1] as usize {
                        let scalar: Vec<u64> = part.tile_rows[ti]
                            .chunks(pkt)
                            .map(|win| scalar_count(win, &spikes))
                            .collect();
                        assert_eq!(planned, scalar, "layer {l} tile {ti} seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn dense_layers_lower_to_runs_and_match_scalar() {
        let t = Topology::mlp(200, &[150, 10]);
        let mapping = Mapper::new(ResparcConfig::resparc_64()).map(&t).unwrap();
        let plan = ReplayPlan::compile(&mapping);
        assert!(
            plan.run_fraction() > 0.99,
            "dense tile rows are contiguous runs, got {}",
            plan.run_fraction()
        );
        assert_plan_matches_scalar(&mapping);
    }

    #[test]
    fn conv_input_sharing_lowers_scattered_windows_and_matches_scalar() {
        let t = Topology::builder(Shape::new(12, 12, 1))
            .conv(6, 3, Padding::Same, ChannelTable::Full)
            .pool(2)
            .conv(4, 3, Padding::Valid, ChannelTable::Banded { fan: 2 })
            .dense(10)
            .build()
            .unwrap();
        let mapper = Mapper::new(ResparcConfig::resparc_32());
        assert_plan_matches_scalar(&mapper.map(&t).unwrap());
        // Unshared tiles may hold one input on several rows.
        assert_plan_matches_scalar(&mapper.without_input_sharing().map(&t).unwrap());
    }

    #[test]
    fn run_windows_crossing_word_boundaries_count_exactly() {
        // Hand-built runs at awkward alignments, against a dense vector.
        let mut masks = Vec::new();
        let spikes = pseudo_random_spikes(256, 7);
        for first in [0u32, 1, 31, 63, 64, 65, 100, 127, 190] {
            for width in [1usize, 7, 32, 33, 64] {
                if first as usize + width > 256 {
                    continue;
                }
                let rows: Vec<u32> = (first..first + width as u32).collect();
                let w = lower_window(&rows, &mut masks);
                assert!(matches!(w, WindowPlan::Run { .. }), "contiguous → Run");
                assert_eq!(
                    w.count(spikes.words(), &masks),
                    scalar_count(&rows, &spikes),
                    "first {first} width {width}"
                );
            }
        }
    }

    #[test]
    fn scattered_window_coalesces_per_word() {
        let mut masks = Vec::new();
        let rows = vec![3u32, 5, 64, 66, 130, 7];
        let w = lower_window(&rows, &mut masks);
        let WindowPlan::Masks { start, end } = w else {
            panic!("scattered rows must lower to Masks");
        };
        // Three distinct words → three coalesced pairs.
        assert_eq!((end - start) as usize, 3);
        let spikes = pseudo_random_spikes(192, 3);
        assert_eq!(
            w.count(spikes.words(), &masks),
            scalar_count(&rows, &spikes)
        );
    }

    #[test]
    fn repeated_rows_count_once_per_row() {
        // Without input sharing a conv tile can hold one input on several
        // rows; the scalar walk counts each of them.
        let mut masks = Vec::new();
        let rows = vec![3u32, 5, 3, 64, 3, 70, 5];
        let w = lower_window(&rows, &mut masks);
        let WindowPlan::Masks { start, end } = w else {
            panic!("scattered rows must lower to Masks");
        };
        // Word 0 needs three masks (row 3 appears three times), word 1 one.
        assert_eq!((end - start) as usize, 4);
        let mut words = Vec::new();
        w.for_each_word(&masks, |word| words.push(word));
        assert_eq!(words, [0, 1]);
        for seed in [1u64, 3, 8, 21] {
            let spikes = pseudo_random_spikes(128, seed);
            assert_eq!(
                w.count(spikes.words(), &masks),
                scalar_count(&rows, &spikes),
                "seed {seed}"
            );
        }
        assert_eq!(w.count(&[u64::MAX, u64::MAX], &masks), rows.len() as u64);
    }

    /// Checks the class table and the inverse index of every layer of
    /// `mapping`; returns how many `Run` windows straddle two words and
    /// how many classes hold more than one tile.
    fn assert_index_is_exact(mapping: &Mapping) -> (usize, usize) {
        let plan = ReplayPlan::compile(mapping);
        let (mut spanning, mut shared) = (0, 0);
        for (l, part) in mapping.partitions.iter().enumerate() {
            let lp = plan.layer(l);
            // The classes cover the tiles in order, and two tiles share a
            // class exactly when they are consecutive with identical rows.
            let class_of: Vec<usize> = (0..lp.class_count())
                .flat_map(|c| std::iter::repeat_n(c, lp.class_size(c) as usize))
                .collect();
            assert_eq!(class_of.len(), part.tile_count(), "layer {l}: tiles");
            for ti in 1..class_of.len() {
                assert_eq!(
                    class_of[ti] == class_of[ti - 1],
                    part.tile_rows[ti] == part.tile_rows[ti - 1],
                    "layer {l}: tiles {} and {ti}",
                    ti - 1
                );
            }
            // The class table lists each class's windows once, in class
            // order.
            let pkt = mapping.config.packet_bits as usize;
            let owners: Vec<usize> = (0..lp.windows().len()).map(|wi| lp.owner(wi)).collect();
            let classes: Vec<usize> = (0..lp.class_count())
                .flat_map(|c| {
                    let rows = &part.tile_rows[lp.class_tiles()[c] as usize];
                    std::iter::repeat_n(c, rows.len().div_ceil(pkt))
                })
                .collect();
            assert_eq!(owners, classes, "layer {l}: class table");
            shared += (0..lp.class_count())
                .filter(|&c| lp.class_size(c) > 1)
                .count();
            // A window reads word `w` exactly when it counts rows with
            // only that word's bits set.
            let words = (part.inputs as usize).div_ceil(64);
            for w in 0..words {
                let mut probe = vec![0u64; words];
                probe[w] = u64::MAX;
                let reads: Vec<u32> = (0..lp.windows().len())
                    .filter(|&wi| lp.windows()[wi].count(&probe, lp.masks()) > 0)
                    .map(|wi| wi as u32)
                    .collect();
                assert_eq!(lp.word_windows(w), &reads[..], "layer {l} word {w}");
            }
            spanning += lp
                .windows()
                .iter()
                .filter(|w| {
                    matches!(
                        w,
                        WindowPlan::Run {
                            spans_two: true,
                            ..
                        }
                    )
                })
                .count();
        }
        (spanning, shared)
    }

    #[test]
    fn inverse_index_lists_each_window_under_exactly_the_words_it_reads() {
        let conv = Topology::builder(Shape::new(12, 12, 1))
            .conv(6, 3, Padding::Same, ChannelTable::Full)
            .pool(2)
            .conv(4, 3, Padding::Valid, ChannelTable::Banded { fan: 2 })
            .dense(10)
            .build()
            .unwrap();
        let mlp = Topology::mlp(200, &[150, 10]);
        let (mut spanning, mut shared) = (0, 0);
        for topology in [&mlp, &conv] {
            // MCA 100 and 128 put runs off 64-bit word boundaries.
            for mca in [32, 64, 100, 128] {
                for pkt in [8u32, 24, 64, 100, 128] {
                    let mut cfg = ResparcConfig::with_mca_size(mca);
                    cfg.packet_bits = pkt;
                    for mapper in [
                        Mapper::new(cfg.clone()),
                        Mapper::new(cfg).without_input_sharing(),
                    ] {
                        let (s, c) = assert_index_is_exact(&mapper.map(topology).unwrap());
                        spanning += s;
                        shared += c;
                    }
                }
            }
        }
        assert!(spanning > 0, "no case has a run straddling two words");
        assert!(shared > 0, "no case has a class of several tiles");
    }

    #[test]
    fn plan_is_cached_on_the_mapping_and_shared() {
        let t = Topology::mlp(64, &[32, 8]);
        let mapping = Mapper::new(ResparcConfig::resparc_64()).map(&t).unwrap();
        let a = mapping.replay_plan();
        let b = mapping.replay_plan();
        assert!(std::sync::Arc::ptr_eq(&a, &b), "plan must be compiled once");
        assert_eq!(*a, ReplayPlan::compile(&mapping));
    }
}
