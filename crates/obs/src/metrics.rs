//! The in-flight metrics plane: mergeable, fixed-memory sketches.
//!
//! A [`MetricSet`] is one rank's worth of observability state between two
//! snapshots: a typed array of u64 [`Counter`]s plus a fixed family of
//! log-bucketed [`Histogram`]s (HDR-style: `SUB_BITS` mantissa bits per
//! power-of-two octave, so any recorded value lands in a bucket whose
//! lower bound is within a `2^-SUB_BITS` = 12.5% relative error of it).
//!
//! Everything here is built for *reduction over the tool plane*:
//!
//! - `merge` is associative, commutative, and has the all-zero set as its
//!   identity (element-wise saturating addition), so a radix tree can fold
//!   deltas in any shape without changing the result;
//! - `encode`/`decode` is a canonical little-endian byte form (sparse,
//!   index-ascending buckets), so equal sketches always serialize to equal
//!   bytes — the property the journal's byte-determinism leans on;
//! - memory is fixed: no allocation ever happens on the record path, and a
//!   histogram is a flat bucket array regardless of how many values it saw.
//!
//! Values are u64. Durations are quantized to integer nanoseconds before
//! recording ([`ns_from_seconds`]) so no float ever enters a sketch.

/// Typed counters, one slot each in a [`MetricSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Signatures computed over closing marker intervals.
    Signatures = 0,
    /// Dynamic events covered by those signature intervals.
    SigEvents = 1,
    /// Pairwise trace merges folded in radix-tree reductions.
    Merges = 2,
    /// LCS dynamic-programming cells touched by those merges.
    DpCells = 3,
    /// Merges fully served by the identical-stream fast path.
    FastPath = 4,
    /// Reliable-protocol frame retransmissions.
    Retries = 5,
    /// Reliable-protocol NACKs sent for corrupt frames.
    Nacks = 6,
    /// Reliable-protocol transfers that exhausted their retry budget.
    GiveUps = 7,
    /// Cluster selections agreed at markers.
    ClusterRounds = 8,
    /// Lead re-elections after a lead died.
    Reelections = 9,
}

impl Counter {
    /// Number of counter slots.
    pub const COUNT: usize = 10;

    /// All counters, in slot order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Signatures,
        Counter::SigEvents,
        Counter::Merges,
        Counter::DpCells,
        Counter::FastPath,
        Counter::Retries,
        Counter::Nacks,
        Counter::GiveUps,
        Counter::ClusterRounds,
        Counter::Reelections,
    ];

    /// Stable label, used in CLI tables and the bench digest.
    pub fn label(self) -> &'static str {
        match self {
            Counter::Signatures => "signatures",
            Counter::SigEvents => "sig_events",
            Counter::Merges => "merges",
            Counter::DpCells => "dp_cells",
            Counter::FastPath => "fast_path",
            Counter::Retries => "retries",
            Counter::Nacks => "nacks",
            Counter::GiveUps => "giveups",
            Counter::ClusterRounds => "cluster_rounds",
            Counter::Reelections => "reelections",
        }
    }
}

/// The fixed histogram family, one slot each in a [`MetricSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistId {
    /// Receive queue waits (arrival minus clock at receive), nanoseconds.
    RecvWaitNs = 0,
    /// LCS cells per pairwise merge.
    DpCellsPerMerge = 1,
    /// Tool-time cost of an All-Tracing marker interval, nanoseconds.
    StateAtNs = 2,
    /// Tool-time cost of a Clustering marker interval, nanoseconds.
    StateCNs = 3,
    /// Tool-time cost of a Lead marker interval, nanoseconds.
    StateLNs = 4,
    /// Tool-time cost of a Final interval (finalize), nanoseconds.
    StateFNs = 5,
}

impl HistId {
    /// Number of histogram slots.
    pub const COUNT: usize = 6;

    /// All histograms, in slot order.
    pub const ALL: [HistId; HistId::COUNT] = [
        HistId::RecvWaitNs,
        HistId::DpCellsPerMerge,
        HistId::StateAtNs,
        HistId::StateCNs,
        HistId::StateLNs,
        HistId::StateFNs,
    ];

    /// Stable label, used in CLI tables and the bench digest.
    pub fn label(self) -> &'static str {
        match self {
            HistId::RecvWaitNs => "recv_wait_ns",
            HistId::DpCellsPerMerge => "dp_cells_per_merge",
            HistId::StateAtNs => "state_at_ns",
            HistId::StateCNs => "state_c_ns",
            HistId::StateLNs => "state_l_ns",
            HistId::StateFNs => "state_f_ns",
        }
    }
}

/// Mantissa bits per octave. 2^3 = 8 sub-buckets per power of two, so a
/// bucket's width is at most `lower_bound >> SUB_BITS` — every recorded
/// value is within 12.5% (relative) above its bucket's lower bound.
pub const SUB_BITS: u32 = 3;

const SUB: usize = 1 << SUB_BITS;

/// Total buckets needed to cover all of `u64`: values below `2*SUB` get
/// exact unit buckets; each of the remaining 63 - SUB_BITS octaves
/// contributes SUB buckets.
pub const NUM_BUCKETS: usize = 2 * SUB + (63 - SUB_BITS as usize) * SUB;

/// The bucket a value lands in.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v < (2 * SUB) as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS + 1
    let mantissa = ((v >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    ((exp - SUB_BITS) as usize) * SUB + SUB + mantissa
}

/// Lower bound of a bucket — the value [`Histogram::quantile`] reports.
#[inline]
pub fn bucket_lo(b: usize) -> u64 {
    if b < 2 * SUB {
        return b as u64;
    }
    let oct = (b - SUB) / SUB; // exp - SUB_BITS
    let mantissa = ((b - SUB) % SUB) as u64;
    let exp = oct as u32 + SUB_BITS;
    (1u64 << exp) + (mantissa << (exp - SUB_BITS))
}

/// Quantize a non-negative duration in seconds to integer nanoseconds.
/// Negative and non-finite inputs clamp to 0; the quantization (not the
/// float) is what enters the sketch, keeping reductions integer-exact.
#[inline]
pub fn ns_from_seconds(s: f64) -> u64 {
    if !s.is_finite() || s <= 0.0 {
        return 0;
    }
    (s * 1e9).round() as u64
}

/// A fixed-memory log-bucketed histogram of u64 values.
///
/// The bucket array lives on the heap: rank threads run on deliberately
/// small stacks (256 KiB default), and a by-value ~4 KiB-per-histogram
/// struct moved through a debug-build reduction would overflow them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket occurrence counts (saturating).
    counts: Box<[u64; NUM_BUCKETS]>,
    /// Total values recorded (saturating).
    count: u64,
    /// Sum of recorded values (saturating).
    sum: u64,
    /// Largest recorded value (exact, not bucketed).
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// The empty histogram — the identity of [`Histogram::merge`].
    pub fn new() -> Self {
        Histogram {
            counts: vec![0u64; NUM_BUCKETS]
                .into_boxed_slice()
                .try_into()
                .expect("exact length"),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one value. Fixed cost, no allocation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        self.counts[b] = self.counts[b].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Element-wise saturating merge: associative, commutative, and
    /// `merge(new())` is a no-op.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The q-quantile as the lower bound of the bucket holding it: always
    /// `<=` the true quantile, and within `2^-SUB_BITS` relative error
    /// below it. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_lo(b);
            }
        }
        self.max
    }

    /// What a `snapshot` keeps of this sketch: count, p50, p99, max.
    pub fn digest(&self) -> Digest {
        Digest([
            self.count,
            self.quantile(0.5),
            self.quantile(0.99),
            self.max,
        ])
    }

    /// Canonical byte form: count, sum, max, then the non-zero buckets as
    /// ascending `(index, count)` pairs — all little-endian u64.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.sum.to_le_bytes());
        out.extend_from_slice(&self.max.to_le_bytes());
        let nonzero = self.counts.iter().filter(|&&c| c != 0).count() as u64;
        out.extend_from_slice(&nonzero.to_le_bytes());
        for (b, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                out.extend_from_slice(&(b as u64).to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
    }

    fn decode_from(cur: &mut Cursor<'_>) -> Result<Histogram, String> {
        let mut h = Histogram::new();
        h.count = cur.u64()?;
        h.sum = cur.u64()?;
        h.max = cur.u64()?;
        let nonzero = cur.u64()?;
        let mut prev: Option<u64> = None;
        for _ in 0..nonzero {
            let b = cur.u64()?;
            let c = cur.u64()?;
            if b >= NUM_BUCKETS as u64 {
                return Err(format!("bucket index {b} out of range"));
            }
            if prev.is_some_and(|p| p >= b) {
                return Err("bucket indices not ascending".into());
            }
            if c == 0 {
                return Err("zero bucket in sparse form".into());
            }
            prev = Some(b);
            h.counts[b as usize] = c;
        }
        Ok(h)
    }
}

/// One rank's full metric state: all counters plus all histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSet {
    /// Counter slots, indexed by [`Counter`].
    pub counters: [u64; Counter::COUNT],
    /// Histogram slots, indexed by [`HistId`].
    pub hists: [Histogram; HistId::COUNT],
}

impl Default for MetricSet {
    fn default() -> Self {
        MetricSet::new()
    }
}

impl MetricSet {
    /// The empty set — the identity of [`MetricSet::merge`].
    pub fn new() -> Self {
        MetricSet {
            counters: [0; Counter::COUNT],
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0) && self.hists.iter().all(|h| h.count == 0)
    }

    /// Bump a counter by `n` (saturating).
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        let slot = &mut self.counters[c as usize];
        *slot = slot.saturating_add(n);
    }

    /// One counter's value.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Record a value into a histogram.
    #[inline]
    pub fn observe(&mut self, h: HistId, v: u64) {
        self.hists[h as usize].record(v);
    }

    /// One histogram.
    pub fn hist(&self, h: HistId) -> &Histogram {
        &self.hists[h as usize]
    }

    /// Element-wise merge: associative, commutative, identity-respecting.
    pub fn merge(&mut self, other: &MetricSet) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }

    /// Canonical little-endian byte form. Equal sets encode to equal
    /// bytes regardless of how they were merged together.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for &c in &self.counters {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for h in &self.hists {
            h.encode_into(&mut out);
        }
        out
    }

    /// Inverse of [`MetricSet::encode`]; validates structure.
    pub fn decode(bytes: &[u8]) -> Result<MetricSet, String> {
        let mut cur = Cursor { bytes, pos: 0 };
        let set = MetricSet::decode_cursor(&mut cur)?;
        if cur.pos != bytes.len() {
            return Err("trailing bytes".into());
        }
        Ok(set)
    }

    fn decode_cursor(cur: &mut Cursor<'_>) -> Result<MetricSet, String> {
        let mut set = MetricSet::new();
        for c in set.counters.iter_mut() {
            *c = cur.u64()?;
        }
        for h in set.hists.iter_mut() {
            *h = Histogram::decode_from(cur)?;
        }
        Ok(set)
    }

    /// Wire form for the tool-plane reduction: a contribution count
    /// followed by the canonical set encoding.
    pub fn encode_with_count(&self, ranks: u64) -> Vec<u8> {
        let mut out = ranks.to_le_bytes().to_vec();
        out.extend_from_slice(&self.encode());
        out
    }

    /// Inverse of [`MetricSet::encode_with_count`].
    pub fn decode_with_count(bytes: &[u8]) -> Result<(MetricSet, u64), String> {
        let mut cur = Cursor { bytes, pos: 0 };
        let ranks = cur.u64()?;
        let set = MetricSet::decode_cursor(&mut cur)?;
        if cur.pos != bytes.len() {
            return Err("trailing bytes".into());
        }
        Ok((set, ranks))
    }

    /// Counter values in slot order — the `snapshot` event's `ctrs` array.
    pub fn counter_values(&self) -> Vec<u64> {
        self.counters.to_vec()
    }

    /// Bounded histogram digest — the `snapshot` event's `hists` array:
    /// `(count, p50, p99, max)` per histogram, in slot order.
    pub fn hist_digest(&self) -> Vec<u64> {
        self.hists.iter().flat_map(|h| h.digest().0).collect()
    }
}

/// Number of u64 slots per histogram in [`MetricSet::hist_digest`].
pub const HIST_DIGEST_STRIDE: usize = 4;

/// One histogram's `(count, p50, p99, max)` digest, a `snapshot` event's
/// per-histogram stride. Displays as the canonical JSON object
/// `{"count":…,"p50":…,"p99":…,"max":…}` — the one spelling the query
/// renderers and the daemon's `/runs` and `/metrics` bodies share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub [u64; HIST_DIGEST_STRIDE]);

impl Digest {
    /// Histogram `h`'s digest out of a flat digest array in slot order
    /// (slots past its end read 0).
    pub fn at(slots: &[u64], h: HistId) -> Digest {
        let base = h as usize * HIST_DIGEST_STRIDE;
        Digest(std::array::from_fn(|k| {
            slots.get(base + k).copied().unwrap_or(0)
        }))
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [count, p50, p99, max] = self.0;
        write!(
            f,
            "{{\"count\":{count},\"p50\":{p50},\"p99\":{p99},\"max\":{max}}}"
        )
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn u64(&mut self) -> Result<u64, String> {
        let end = self.pos.checked_add(8).ok_or("overflow")?;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| "truncated metric bytes".to_string())?;
        self.pos = end;
        Ok(u64::from_le_bytes(chunk.try_into().expect("8-byte slice")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_hold_across_the_range() {
        // lo(bucket(v)) <= v, and the gap is at most lo >> SUB_BITS.
        for v in (0u64..4096).chain([u64::MAX, u64::MAX - 1, 1 << 40, (1 << 40) + 12345]) {
            let b = bucket_of(v);
            let lo = bucket_lo(b);
            assert!(lo <= v, "v={v} b={b} lo={lo}");
            assert!(v - lo <= lo >> SUB_BITS, "v={v} b={b} lo={lo}");
            // Buckets are monotone: the next bucket's lower bound is above v.
            if b + 1 < NUM_BUCKETS {
                assert!(bucket_lo(b + 1) > v, "v={v} b={b}");
            }
        }
        assert_eq!(bucket_of(u64::MAX) + 1, NUM_BUCKETS);
    }

    #[test]
    fn quantiles_of_a_point_mass() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(1000);
        }
        let lo = bucket_lo(bucket_of(1000));
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), lo);
        }
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 10_000);
    }

    #[test]
    fn merge_identity_and_empty_roundtrip() {
        let mut h = Histogram::new();
        h.record(7);
        h.record(7_000_000);
        let before = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, before, "empty histogram is a merge identity");

        let empty = MetricSet::new();
        assert!(empty.is_empty());
        assert_eq!(MetricSet::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn set_roundtrips_and_rejects_corruption() {
        let mut m = MetricSet::new();
        m.add(Counter::DpCells, 12345);
        m.add(Counter::Retries, 2);
        m.observe(HistId::RecvWaitNs, 0);
        m.observe(HistId::RecvWaitNs, 31);
        m.observe(HistId::DpCellsPerMerge, 1 << 20);
        let bytes = m.encode();
        assert_eq!(MetricSet::decode(&bytes).unwrap(), m);
        let (set, n) = MetricSet::decode_with_count(&m.encode_with_count(5)).unwrap();
        assert_eq!((set, n), (m.clone(), 5));

        assert!(MetricSet::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(MetricSet::decode(&extra).is_err());
    }

    #[test]
    fn ns_quantization_clamps() {
        assert_eq!(ns_from_seconds(-1.0), 0);
        assert_eq!(ns_from_seconds(f64::NAN), 0);
        assert_eq!(ns_from_seconds(1.5e-9), 2);
        assert_eq!(ns_from_seconds(2.0), 2_000_000_000);
    }

    #[test]
    fn digest_shape_is_bounded() {
        let m = MetricSet::new();
        assert_eq!(m.counter_values().len(), Counter::COUNT);
        assert_eq!(m.hist_digest().len(), HistId::COUNT * HIST_DIGEST_STRIDE);
    }

    #[test]
    fn counter_and_hist_labels_are_distinct() {
        let mut labels: Vec<&str> = Counter::ALL.iter().map(|c| c.label()).collect();
        labels.extend(HistId::ALL.iter().map(|h| h.label()));
        let n = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), n);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "slot order matches ALL order");
        }
        for (i, h) in HistId::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i, "slot order matches ALL order");
        }
    }
}
