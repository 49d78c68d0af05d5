//! Bit-packed spike vectors, spike rasters and the packet statistics that
//! drive RESPARC's event-driven optimisations.
//!
//! Spikes are binary (paper §2.1), so a population's activity in one
//! timestep is a bit vector ([`SpikeVector`]) and a full stimulus is a
//! raster of those over time ([`SpikeRaster`]). RESPARC moves spikes in
//! fixed-width *packets*; a packet whose bits are all zero is suppressed by
//! the zero-check logic (§3.2), so the fraction of all-zero windows at a
//! given width ([`SpikeRaster::zero_packet_fraction`]) is exactly the
//! statistic the architecture exploits in Fig. 13.
//!
//! The raster stores every timestep in **one contiguous word arena**
//! (`steps × stride` u64 words, `stride = neurons.div_ceil(64)`), so
//! capturing a step is a word copy, truncation is a slice copy, and a
//! timestep is read through a borrowed [`SpikeView`] without allocating.
//! Window tests (`window_is_zero`, `window_count_ones`) are word-masked:
//! mask the head and tail words, popcount the middle.

use std::fmt;

/// Invariant shared by [`SpikeVector`] and [`SpikeView`]: `words` holds
/// `len.div_ceil(64)` little-endian words and every bit at index ≥ `len`
/// is zero. All helpers below rely on that tail-zero invariant.
#[inline]
fn word_get(words: &[u64], len: usize, i: usize) -> bool {
    assert!(i < len, "spike index {i} out of bounds ({len})");
    (words[i / 64] >> (i % 64)) & 1 == 1
}

/// Word-masked popcount of bits `[start, start+width)`, clamped to `len`.
#[inline]
fn word_window_count(words: &[u64], len: usize, start: usize, width: usize) -> u64 {
    let end = (start + width).min(len);
    if start >= end {
        return 0;
    }
    let first = start / 64;
    let last = (end - 1) / 64;
    let head = u64::MAX << (start % 64);
    let tail = u64::MAX >> (63 - (end - 1) % 64);
    if first == last {
        (words[first] & head & tail).count_ones() as u64
    } else {
        let mut total = (words[first] & head).count_ones() as u64;
        for &w in &words[first + 1..last] {
            total += w.count_ones() as u64;
        }
        total + (words[last] & tail).count_ones() as u64
    }
}

/// Word-masked zero test of bits `[start, start+width)`, clamped to `len`.
#[inline]
fn word_window_is_zero(words: &[u64], len: usize, start: usize, width: usize) -> bool {
    let end = (start + width).min(len);
    if start >= end {
        return true;
    }
    let first = start / 64;
    let last = (end - 1) / 64;
    let head = u64::MAX << (start % 64);
    let tail = u64::MAX >> (63 - (end - 1) % 64);
    if first == last {
        words[first] & head & tail == 0
    } else {
        words[first] & head == 0
            && words[last] & tail == 0
            && words[first + 1..last].iter().all(|&w| w == 0)
    }
}

/// A fixed-length, bit-packed vector of spikes (one bit per neuron).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SpikeVector {
    words: Vec<u64>,
    len: usize,
}

impl SpikeVector {
    /// Creates an all-silent vector for `len` neurons.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Builds a vector from boolean spike flags.
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut v = Self::new(bools.len());
        for (i, &b) in bools.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Number of neurons (bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector covers zero neurons.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the spike flag of neuron `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        word_get(&self.words, self.len, i)
    }

    /// Sets the spike flag of neuron `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, spike: bool) {
        assert!(i < self.len, "spike index {i} out of bounds ({})", self.len);
        let w = &mut self.words[i / 64];
        if spike {
            *w |= 1 << (i % 64);
        } else {
            *w &= !(1 << (i % 64));
        }
    }

    /// Number of spiking neurons.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no neuron spikes.
    pub fn is_silent(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Fraction of neurons spiking.
    pub fn activity(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// Returns `true` if all bits in `[start, start+width)` are zero
    /// (the zero-check a RESPARC switch applies to a packet). Bits past
    /// `len` count as zero. Word-masked: at most two masked words plus a
    /// zero test of the words between them.
    #[inline]
    pub fn window_is_zero(&self, start: usize, width: usize) -> bool {
        word_window_is_zero(&self.words, self.len, start, width)
    }

    /// Number of set bits in `[start, start+width)` — the active-spike
    /// count of one packet window, via masked popcount. Bits past `len`
    /// count as zero.
    #[inline]
    pub fn window_count_ones(&self, start: usize, width: usize) -> u64 {
        word_window_count(&self.words, self.len, start, width)
    }

    /// Iterates the indices of spiking neurons in ascending order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes::new(&self.words, self.len)
    }

    /// Clears every spike.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The underlying 64-bit words (little-endian bit order within words).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the words, for writers that fill a whole word at
    /// a time. The caller keeps every bit at index ≥ `len` zero.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// A borrowed view of this vector (same read API, no ownership).
    #[inline]
    pub fn view(&self) -> SpikeView<'_> {
        SpikeView {
            words: &self.words,
            len: self.len,
        }
    }
}

impl fmt::Display for SpikeVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpikeVector[{}/{} firing]", self.count_ones(), self.len)
    }
}

/// A borrowed, bit-packed view of one timestep of spikes.
///
/// Same read API as [`SpikeVector`] but backed by a word slice — rasters
/// hand these out per step without allocating. Tail bits past `len` are
/// zero, exactly as in `SpikeVector`.
#[derive(Debug, Clone, Copy)]
pub struct SpikeView<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> SpikeView<'a> {
    #[inline]
    fn new(words: &'a [u64], len: usize) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        Self { words, len }
    }

    /// Number of neurons (bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the view covers zero neurons.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the spike flag of neuron `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        word_get(self.words, self.len, i)
    }

    /// Number of spiking neurons.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no neuron spikes.
    pub fn is_silent(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Fraction of neurons spiking.
    pub fn activity(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// Word-masked zero test of the packet window `[start, start+width)`.
    /// Bits past `len` count as zero.
    #[inline]
    pub fn window_is_zero(&self, start: usize, width: usize) -> bool {
        word_window_is_zero(self.words, self.len, start, width)
    }

    /// Masked popcount of the packet window `[start, start+width)`. Bits
    /// past `len` count as zero.
    #[inline]
    pub fn window_count_ones(&self, start: usize, width: usize) -> u64 {
        word_window_count(self.words, self.len, start, width)
    }

    /// Iterates the indices of spiking neurons in ascending order.
    pub fn iter_ones(&self) -> IterOnes<'a> {
        IterOnes::new(self.words, self.len)
    }

    /// The underlying 64-bit words (little-endian bit order within words).
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Copies the view into an owned [`SpikeVector`].
    pub fn to_vector(&self) -> SpikeVector {
        SpikeVector {
            words: self.words.to_vec(),
            len: self.len,
        }
    }
}

impl PartialEq for SpikeView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words == other.words
    }
}

impl Eq for SpikeView<'_> {}

impl PartialEq<SpikeVector> for SpikeView<'_> {
    fn eq(&self, other: &SpikeVector) -> bool {
        self.len == other.len && self.words == other.words
    }
}

impl PartialEq<SpikeView<'_>> for SpikeVector {
    fn eq(&self, other: &SpikeView<'_>) -> bool {
        self.len == other.len && self.words == other.words
    }
}

impl fmt::Display for SpikeView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpikeView[{}/{} firing]", self.count_ones(), self.len)
    }
}

/// Borrow anything spike-shaped as a [`SpikeView`]. Lets APIs such as
/// `SnnRunner::step` accept `&SpikeVector` (owned state) and `SpikeView`
/// (a raster step) interchangeably.
pub trait AsSpikeView {
    /// The bit-packed view of these spikes.
    fn as_view(&self) -> SpikeView<'_>;
}

impl AsSpikeView for SpikeVector {
    fn as_view(&self) -> SpikeView<'_> {
        self.view()
    }
}

impl AsSpikeView for SpikeView<'_> {
    fn as_view(&self) -> SpikeView<'_> {
        *self
    }
}

impl<T: AsSpikeView + ?Sized> AsSpikeView for &T {
    fn as_view(&self) -> SpikeView<'_> {
        (**self).as_view()
    }
}

/// Iterator over set-bit indices of a [`SpikeVector`] or [`SpikeView`].
#[derive(Debug)]
pub struct IterOnes<'a> {
    words: &'a [u64],
    len: usize,
    word_idx: usize,
    current: u64,
}

impl<'a> IterOnes<'a> {
    fn new(words: &'a [u64], len: usize) -> Self {
        Self {
            words,
            len,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let idx = self.word_idx * 64 + bit;
                return (idx < self.len).then_some(idx);
            }
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
    }
}

/// A population's spikes over a window of timesteps, stored as one
/// contiguous word arena (`steps × stride` words, step-major).
///
/// Appending a step copies its words to the end of the arena; reading a
/// step borrows a [`SpikeView`] into it. This keeps trace capture,
/// truncation and replay free of per-step `Vec` allocations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpikeRaster {
    words: Vec<u64>,
    /// Words per step: `neurons.div_ceil(64)`.
    stride: usize,
    neurons: usize,
    steps: usize,
}

impl SpikeRaster {
    /// Creates an empty raster for `neurons` neurons.
    pub fn new(neurons: usize) -> Self {
        Self {
            words: Vec::new(),
            stride: neurons.div_ceil(64),
            neurons,
            steps: 0,
        }
    }

    /// Creates an all-silent raster covering `steps` timesteps.
    pub fn zeroed(neurons: usize, steps: usize) -> Self {
        let stride = neurons.div_ceil(64);
        Self {
            words: vec![0; stride * steps],
            stride,
            neurons,
            steps,
        }
    }

    /// Number of neurons covered.
    pub fn neurons(&self) -> usize {
        self.neurons
    }

    /// Number of recorded timesteps.
    pub fn len(&self) -> usize {
        self.steps
    }

    /// Returns `true` if no timesteps are recorded.
    pub fn is_empty(&self) -> bool {
        self.steps == 0
    }

    /// Appends one timestep of spikes.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from the raster's neuron count.
    pub fn push(&mut self, step: SpikeVector) {
        self.push_view(step.view());
    }

    /// Appends one timestep of spikes from a borrowed view — a word copy
    /// into the arena, no intermediate allocation.
    ///
    /// # Panics
    ///
    /// Panics if the view length differs from the raster's neuron count.
    pub fn push_view(&mut self, step: SpikeView<'_>) {
        assert_eq!(step.len(), self.neurons, "spike vector length mismatch");
        self.words.extend_from_slice(step.words());
        self.steps += 1;
    }

    /// The spike vector at timestep `t`, as a borrowed view.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of bounds.
    #[inline]
    pub fn step(&self, t: usize) -> SpikeView<'_> {
        assert!(t < self.steps, "step {t} out of bounds ({})", self.steps);
        SpikeView::new(
            &self.words[t * self.stride..(t + 1) * self.stride],
            self.neurons,
        )
    }

    /// The raw words of timestep `t` (length [`Self::stride`]).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of bounds.
    #[inline]
    pub fn step_words(&self, t: usize) -> &[u64] {
        assert!(t < self.steps, "step {t} out of bounds ({})", self.steps);
        &self.words[t * self.stride..(t + 1) * self.stride]
    }

    /// Sets the spike flag of neuron `i` at timestep `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` or `i` is out of bounds.
    #[inline]
    pub fn set(&mut self, t: usize, i: usize, spike: bool) {
        assert!(t < self.steps, "step {t} out of bounds ({})", self.steps);
        assert!(
            i < self.neurons,
            "spike index {i} out of bounds ({})",
            self.neurons
        );
        let w = &mut self.words[t * self.stride + i / 64];
        if spike {
            *w |= 1 << (i % 64);
        } else {
            *w &= !(1 << (i % 64));
        }
    }

    /// Words per timestep in the arena (`neurons.div_ceil(64)`).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The whole arena: `len() * stride()` words, step-major.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The first `steps` timesteps, copied as one arena slice.
    ///
    /// # Panics
    ///
    /// Panics if `steps` exceeds the recorded length.
    pub fn truncated(&self, steps: usize) -> Self {
        assert!(
            steps <= self.steps,
            "cannot truncate {} steps to {steps}",
            self.steps
        );
        Self {
            words: self.words[..steps * self.stride].to_vec(),
            stride: self.stride,
            neurons: self.neurons,
            steps,
        }
    }

    /// Iterates timesteps in order as borrowed views.
    pub fn iter(&self) -> Steps<'_> {
        Steps { raster: self, t: 0 }
    }

    /// Total spike count across all timesteps (one popcount pass over the
    /// arena — tail bits are always zero).
    pub fn total_spikes(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Mean per-neuron, per-timestep firing probability.
    pub fn mean_rate(&self) -> f64 {
        if self.steps == 0 || self.neurons == 0 {
            return 0.0;
        }
        self.total_spikes() as f64 / (self.steps as f64 * self.neurons as f64)
    }

    /// Per-neuron spike counts over the raster.
    pub fn spike_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.neurons];
        for s in self.iter() {
            for i in s.iter_ones() {
                counts[i] += 1;
            }
        }
        counts
    }

    /// Fraction of `width`-bit packets that are entirely zero, over all
    /// timesteps and all aligned windows — the statistic RESPARC's
    /// zero-check logic exploits (Fig. 13: "zeros with run length of 32
    /// refers to a 32-bit spike-packet with all bits being zero").
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn zero_packet_fraction(&self, width: usize) -> f64 {
        assert!(width > 0, "packet width must be non-zero");
        if self.steps == 0 || self.neurons == 0 {
            return 1.0;
        }
        let windows_per_step = self.neurons.div_ceil(width);
        let mut zero = 0u64;
        for s in self.iter() {
            for w in 0..windows_per_step {
                if s.window_is_zero(w * width, width) {
                    zero += 1;
                }
            }
        }
        zero as f64 / (windows_per_step as u64 * self.steps as u64) as f64
    }
}

/// Iterator over the timesteps of a [`SpikeRaster`], yielding borrowed
/// [`SpikeView`]s.
#[derive(Debug)]
pub struct Steps<'a> {
    raster: &'a SpikeRaster,
    t: usize,
}

impl<'a> Iterator for Steps<'a> {
    type Item = SpikeView<'a>;

    fn next(&mut self) -> Option<SpikeView<'a>> {
        if self.t >= self.raster.steps {
            return None;
        }
        let v = self.raster.step(self.t);
        self.t += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.raster.steps - self.t;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Steps<'_> {}

impl<'a> IntoIterator for &'a SpikeRaster {
    type Item = SpikeView<'a>;
    type IntoIter = Steps<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut v = SpikeVector::new(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1) && !v.get(63) && !v.get(128));
        assert_eq!(v.count_ones(), 3);
        v.set(64, false);
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn from_bools_matches() {
        let flags = [true, false, true, true];
        let v = SpikeVector::from_bools(&flags);
        for (i, &b) in flags.iter().enumerate() {
            assert_eq!(v.get(i), b);
        }
    }

    #[test]
    fn iter_ones_yields_sorted_indices() {
        let mut v = SpikeVector::new(200);
        for &i in &[3usize, 70, 64, 199] {
            v.set(i, true);
        }
        let ones: Vec<usize> = v.iter_ones().collect();
        assert_eq!(ones, vec![3, 64, 70, 199]);
    }

    #[test]
    fn silence_and_activity() {
        let mut v = SpikeVector::new(10);
        assert!(v.is_silent());
        v.set(5, true);
        assert!(!v.is_silent());
        assert!((v.activity() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn window_zero_check() {
        let mut v = SpikeVector::new(100);
        v.set(40, true);
        assert!(v.window_is_zero(0, 32));
        assert!(!v.window_is_zero(32, 32));
        assert!(v.window_is_zero(64, 64)); // tail padding counts as zero
    }

    /// Scalar-bit oracles for the word-masked window ops.
    fn window_is_zero_scalar(v: &SpikeVector, start: usize, width: usize) -> bool {
        (start..(start + width).min(v.len())).all(|i| !v.get(i))
    }

    fn window_count_scalar(v: &SpikeVector, start: usize, width: usize) -> u64 {
        (start..(start + width).min(v.len()))
            .filter(|&i| v.get(i))
            .count() as u64
    }

    #[test]
    fn window_ops_match_scalar_reference() {
        // Deterministic pseudo-random vector crossing several word
        // boundaries, then every (start, width) over a grid of
        // alignments including unaligned and clamped windows.
        let mut v = SpikeVector::new(200);
        let mut state = 0x9e3779b97f4a7c15u64;
        for i in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if state >> 61 == 0 {
                continue;
            }
            if state & 3 == 0 {
                v.set(i, true);
            }
        }
        for start in (0..220).step_by(7) {
            for width in [1, 3, 16, 31, 32, 33, 63, 64, 65, 100, 128, 250] {
                assert_eq!(
                    v.window_is_zero(start, width),
                    window_is_zero_scalar(&v, start, width),
                    "window_is_zero({start}, {width})"
                );
                assert_eq!(
                    v.window_count_ones(start, width),
                    window_count_scalar(&v, start, width),
                    "window_count_ones({start}, {width})"
                );
            }
        }
    }

    #[test]
    fn window_count_counts_partial_words() {
        let mut v = SpikeVector::new(130);
        for i in [0usize, 31, 32, 63, 64, 65, 127, 128, 129] {
            v.set(i, true);
        }
        assert_eq!(v.window_count_ones(0, 32), 2); // 0, 31
        assert_eq!(v.window_count_ones(32, 32), 2); // 32, 63
        assert_eq!(v.window_count_ones(0, 130), 9);
        assert_eq!(v.window_count_ones(64, 64), 3); // 64, 65, 127
        assert_eq!(v.window_count_ones(128, 32), 2); // clamped to len
        assert_eq!(v.window_count_ones(129, 1), 1);
        assert_eq!(v.window_count_ones(130, 64), 0); // fully past len
    }

    #[test]
    fn view_matches_vector() {
        let mut v = SpikeVector::new(150);
        for i in [2usize, 64, 99, 149] {
            v.set(i, true);
        }
        let view = v.view();
        assert_eq!(view.len(), v.len());
        assert_eq!(view.count_ones(), v.count_ones());
        assert_eq!(
            view.iter_ones().collect::<Vec<_>>(),
            v.iter_ones().collect::<Vec<_>>()
        );
        assert!(view == v);
        assert_eq!(view.to_vector(), v);
    }

    #[test]
    fn raster_statistics() {
        let mut r = SpikeRaster::new(64);
        let mut a = SpikeVector::new(64);
        a.set(0, true);
        a.set(33, true);
        r.push(a);
        r.push(SpikeVector::new(64)); // silent step
        assert_eq!(r.total_spikes(), 2);
        assert!((r.mean_rate() - 2.0 / 128.0).abs() < 1e-12);
        // width 32: 2 windows/step, 4 windows total, 3 zero (1st step has
        // one spike in each window).
        assert!((r.zero_packet_fraction(32) - 0.5).abs() < 1e-12);
        // width 64: 1 window/step, 2 windows, step 2 zero.
        assert!((r.zero_packet_fraction(64) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_packet_fraction_decreases_with_width() {
        // A raster with scattered spikes: wider packets are less likely to
        // be all-zero.
        let mut r = SpikeRaster::new(256);
        for t in 0..8 {
            let mut v = SpikeVector::new(256);
            v.set((t * 37) % 256, true);
            v.set((t * 91 + 13) % 256, true);
            r.push(v);
        }
        let f16 = r.zero_packet_fraction(16);
        let f64w = r.zero_packet_fraction(64);
        assert!(f16 > f64w, "16-bit {f16} should exceed 64-bit {f64w}");
    }

    #[test]
    fn spike_counts_accumulate() {
        let mut r = SpikeRaster::new(4);
        r.push(SpikeVector::from_bools(&[true, false, false, true]));
        r.push(SpikeVector::from_bools(&[true, true, false, false]));
        assert_eq!(r.spike_counts(), vec![2, 1, 0, 1]);
    }

    #[test]
    fn arena_layout_and_views() {
        let mut r = SpikeRaster::new(70); // stride 2
        assert_eq!(r.stride(), 2);
        let mut a = SpikeVector::new(70);
        a.set(0, true);
        a.set(69, true);
        r.push_view(a.view());
        r.push(SpikeVector::new(70));
        assert_eq!(r.words().len(), 4);
        assert_eq!(r.step(0), a);
        assert!(r.step(1).is_silent());
        assert_eq!(r.step_words(0), a.words());
        let steps: Vec<usize> = r.iter().map(|s| s.count_ones()).collect();
        assert_eq!(steps, vec![2, 0]);
    }

    #[test]
    fn zeroed_set_and_truncated() {
        let mut r = SpikeRaster::zeroed(40, 3);
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_spikes(), 0);
        r.set(1, 7, true);
        r.set(2, 39, true);
        assert!(r.step(1).get(7));
        assert!(!r.step(0).get(7));
        let t = r.truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_spikes(), 1);
        assert_eq!(t.step(1), r.step(1));
        let empty = r.truncated(0);
        assert!(empty.is_empty());
        assert_eq!(empty.neurons(), 40);
    }

    #[test]
    fn zero_neuron_raster_iterates() {
        let mut r = SpikeRaster::new(0);
        r.push(SpikeVector::new(0));
        r.push(SpikeVector::new(0));
        assert_eq!(r.len(), 2);
        assert_eq!(r.iter().count(), 2);
        assert!(r.step(0).is_silent());
        assert_eq!(r.mean_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn raster_rejects_mismatched_vector() {
        let mut r = SpikeRaster::new(8);
        r.push(SpikeVector::new(9));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn raster_step_bounds_checked() {
        let r = SpikeRaster::zeroed(8, 2);
        let _ = r.step(2);
    }
}
