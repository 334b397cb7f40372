//! Timing summaries: nearest-rank percentiles, and the rule that picks
//! the highest percentile a sample can support, and the quiet-block rule
//! the end-to-end timings are summarized with.

use std::time::{Duration, Instant};

/// Percentiles a timing summary may report, lowest first.
pub const LADDER: [f64; 7] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99, 99.999];

/// Samples a percentile must leave beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Timing samples every end-to-end run collects, and keeps in its quiet
/// blocks, at least: p95 leaves ten samples beyond it from 200 on.
pub const MIN_SAMPLES: usize = 220;

/// Wall time per block of [`HistBlocks`].
pub const BLOCK: Duration = Duration::from_millis(20);

/// 1-based nearest rank of percentile `q` in `n` samples: the smallest
/// rank whose share of the sample is at least `q`%.
pub fn rank(n: usize, q: f64) -> usize {
    // Integer arithmetic in parts per million keeps ranks exact at the
    // boundaries (`0.95 * 200` must be 190, not 190.00000000000003).
    let ppm = (q * 10_000.0).round() as u128;
    let r = (ppm * n as u128).div_ceil(1_000_000) as usize;
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond percentile `q` in `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The highest percentile of [`LADDER`] with at least [`TAIL_SAMPLES`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&q| n > 0 && beyond(n, q) >= TAIL_SAMPLES)
}

/// Nearest-rank percentile `q` of an ascending sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// Median, p95 and the highest supported percentile of one timing
/// sample, with its count.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
    /// `(q, value)` of [`highest_percentile`].
    pub top: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `values` (sorted in place).
    pub fn of(values: &mut [f64]) -> Summary {
        values.sort_unstable_by(f64::total_cmp);
        let n = values.len();
        Summary {
            n,
            p50: percentile(values, 50.0),
            p95: percentile(values, 95.0),
            top: highest_percentile(n).map(|q| (q, percentile(values, q))),
        }
    }

    /// True when p95 leaves at least [`TAIL_SAMPLES`] samples beyond it.
    pub fn p95_supported(&self) -> bool {
        beyond(self.n, 95.0) >= TAIL_SAMPLES
    }
}

/// How the end-to-end timing metrics summarize a run.
///
/// On a small shared machine other tenants slow the core by 1.5–2× for
/// seconds to minutes at a time (through the caches and core they share;
/// the thread's CPU time slows with its wall time), so a whole-run
/// median swings by half from one run to the next. Such noise only ever
/// slows a sample, so each timing statistic is taken over the run's
/// fastest samples of a like mix of work, at least [`MIN_SAMPLES`] of
/// them — the fleets' fastest rounds at each position in the video
/// ([`Positions`]), the scalar workload's fastest short blocks of calls
/// ([`HistBlocks`]). They are the closest to the program's own speed,
/// and a change that slows the program slows them too.
#[derive(Clone, Debug)]
pub struct Timing {
    /// The quiet samples p50 is read from.
    pub by_p50: Summary,
    /// The quiet samples p95 is read from.
    pub by_p95: Summary,
    /// Throughput over the quiet samples, in samples per second.
    pub per_s: f64,
    /// Every sample of the run.
    pub all: Summary,
    /// How the quiet samples were picked, for the notes.
    pub picked: String,
}

/// One block's statistics: the keys blocks are ranked by.
#[derive(Clone, Copy, Debug)]
struct BlockStats {
    n: usize,
    p50: f64,
    p95: f64,
    mean: f64,
}

impl BlockStats {
    /// Each block's `(key, count)` under the `k`-th ranking: by median,
    /// by p95, by mean.
    fn keyed<'a>(blocks: impl Iterator<Item = &'a BlockStats>, k: usize) -> Vec<(f64, usize)> {
        blocks.map(|b| ([b.p50, b.p95, b.mean][k], b.n)).collect()
    }

    /// The blocks picked under each of the three rankings.
    fn picks<'a>(blocks: impl Iterator<Item = &'a BlockStats> + Clone) -> [Vec<usize>; 3] {
        [0, 1, 2].map(|k| pick_quiet(&BlockStats::keyed(blocks.clone(), k), MIN_SAMPLES))
    }
}

/// Indices of the blocks to keep, given each block's `(key, count)`:
/// ranked by key, lowest first (ties by position), taken until they hold
/// at least `min` samples (or all there are).
pub fn pick_quiet(blocks: &[(f64, usize)], min: usize) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..blocks.len()).filter(|&i| blocks[i].1 > 0).collect();
    ranked.sort_by(|&a, &b| blocks[a].0.total_cmp(&blocks[b].0).then(a.cmp(&b)));
    let mut held = 0;
    ranked
        .into_iter()
        .take_while(|&i| {
            let more = held < min;
            held += blocks[i].1;
            more
        })
        .collect()
}

/// Raw round times (ns) grouped by the round's position in the video —
/// for the fleets, a few thousand rounds per run. Every session rolls
/// over on the same round, so the fleet's work repeats with the video
/// (the first rounds of a video score no U_S window yet, the last one
/// rolls every session over), and rounds at the same position carry the
/// same mix of work. The quiet sample is the fastest
/// `MIN_SAMPLES / period` rounds (rounded up) at every position, so it
/// keeps the video's mix and needs only that many quiet rounds per
/// position anywhere in the run.
pub struct Positions {
    /// `at[p]`: the samples of every round at position `p`.
    at: Vec<Vec<f64>>,
    len: usize,
}

impl Positions {
    pub fn new(period: usize) -> Positions {
        Positions {
            at: vec![Vec::new(); period],
            len: 0,
        }
    }

    /// Record the next round's time, outside the timed window.
    pub fn push(&mut self, ns: f64) {
        let p = self.len % self.at.len();
        self.at[p].push(ns);
        self.len += 1;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Summarize a run of at least [`MIN_SAMPLES`] rounds.
    pub fn timing(&self) -> Timing {
        let period = self.at.len();
        let each = MIN_SAMPLES.div_ceil(period);
        let mut quiet: Vec<f64> = Vec::with_capacity(each * period);
        for samples in &self.at {
            let mut v = samples.clone();
            v.sort_unstable_by(f64::total_cmp);
            quiet.extend_from_slice(&v[..each.min(v.len())]);
        }
        let per_s = quiet.len() as f64 / (quiet.iter().sum::<f64>() / 1e9);
        let summary = Summary::of(&mut quiet);
        Timing {
            by_p50: summary,
            by_p95: summary,
            per_s,
            all: Summary::of(&mut self.at.concat()),
            picked: format!(
                "the fastest {each} of {}+ at each of {period} positions in the video",
                self.len / period
            ),
        }
    }
}

/// Width of a [`NanoHistogram`] bucket: 8 ns, 0.1% of a 9 µs decision.
pub const BUCKET_NS: u64 = 8;

/// Latency histogram for per-call timings too many to keep: `O(1)`
/// record, percentiles as sorting the samples rounded to [`BUCKET_NS`]
/// (a bucket reads as its midpoint), and sums exact. Every bucket is
/// written when the histogram is made, so its resident memory is the
/// same whatever latencies land in it (a lazily mapped one grows by a
/// page for each scattered slow call).
#[derive(Clone)]
pub struct NanoHistogram {
    counts: Vec<u32>,
    /// Samples at or above the last bucket, kept raw (rare).
    overflow: Vec<u64>,
    n: usize,
    sum_ns: u128,
}

impl NanoHistogram {
    // `vec![0; n]` would map its pages lazily, on first touch.
    #[allow(clippy::slow_vector_initialization)]
    pub fn new(cap_ns: u64) -> NanoHistogram {
        let buckets = (cap_ns / BUCKET_NS) as usize;
        let mut counts = Vec::with_capacity(buckets);
        counts.resize(buckets, 0);
        NanoHistogram {
            counts,
            overflow: Vec::new(),
            n: 0,
            sum_ns: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        match self.counts.get_mut((ns / BUCKET_NS) as usize) {
            Some(c) => *c += 1,
            None => self.overflow.push(ns),
        }
        self.n += 1;
        self.sum_ns += ns as u128;
    }

    pub fn len(&self) -> usize {
        self.n
    }

    fn merge(&mut self, other: &NanoHistogram) {
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            if o != 0 {
                *c += o;
            }
        }
        self.overflow.extend_from_slice(&other.overflow);
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    /// Nearest-rank percentile `q` in ns.
    fn percentile_ns(&mut self, q: f64) -> f64 {
        let mut left = rank(self.n, q);
        for (b, &c) in self.counts.iter().enumerate() {
            if left <= c as usize {
                return (b as u64 * BUCKET_NS) as f64 + BUCKET_NS as f64 / 2.0;
            }
            left -= c as usize;
        }
        self.overflow.sort_unstable();
        self.overflow[left - 1] as f64
    }

    fn stats(&mut self) -> BlockStats {
        BlockStats {
            n: self.n,
            p50: self.percentile_ns(50.0),
            p95: self.percentile_ns(95.0),
            mean: self.sum_ns as f64 / self.n as f64,
        }
    }

    fn summary(&mut self) -> Summary {
        assert!(self.n > 0, "summary of an empty histogram");
        let top = highest_percentile(self.n).map(|q| (q, self.percentile_ns(q)));
        Summary {
            n: self.n,
            p50: self.percentile_ns(50.0),
            p95: self.percentile_ns(95.0),
            top,
        }
    }
}

/// Per-call timings (ns) in 20 ms blocks of histograms — for the
/// scalar workload's millions of `decide` calls. Blocks end between
/// sessions and hold about a dozen, each streamed under all three
/// agents, so every block carries much the same mix.
///
/// Each statistic ranks the blocks by that statistic and keeps the
/// fastest until they hold at least [`MIN_SAMPLES`] calls. Only the
/// finished blocks that can still be picked are kept, beside
/// one histogram of the whole run, so the benchmark's own resident
/// memory does not grow with the run's length.
pub struct HistBlocks {
    cap_ns: u64,
    current: NanoHistogram,
    block_start: Instant,
    /// The kept finished blocks, in the order they ran.
    kept: Vec<(BlockStats, NanoHistogram)>,
    all: NanoHistogram,
    blocks: usize,
}

impl HistBlocks {
    pub fn new(cap_ns: u64) -> HistBlocks {
        HistBlocks {
            cap_ns,
            current: NanoHistogram::new(cap_ns),
            block_start: Instant::now(),
            kept: Vec::new(),
            all: NanoHistogram::new(cap_ns),
            blocks: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.current.record(ns);
    }

    /// Start a new block once the current one is [`BLOCK`] old. Call
    /// between timed calls.
    pub fn tick(&mut self) {
        if self.block_start.elapsed() >= BLOCK {
            self.finish_block();
            self.block_start = Instant::now();
        }
    }

    /// Close the current block: fold it into the whole run, and keep it
    /// while any ranking still picks it. A block no ranking picks now
    /// is never picked later: later blocks only push it down.
    fn finish_block(&mut self) {
        let mut b = std::mem::replace(&mut self.current, NanoHistogram::new(self.cap_ns));
        if b.len() == 0 {
            return;
        }
        self.blocks += 1;
        self.all.merge(&b);
        self.kept.push((b.stats(), b));
        let picks = BlockStats::picks(self.kept.iter().map(|k| &k.0));
        let mut i = 0;
        self.kept.retain(|_| {
            i += 1;
            picks.iter().any(|p| p.contains(&(i - 1)))
        });
    }

    pub fn len(&self) -> usize {
        self.all.len() + self.current.len()
    }

    pub fn timing(&mut self) -> Timing {
        self.finish_block();
        let picks = BlockStats::picks(self.kept.iter().map(|k| &k.0));
        let merged = |p: &[usize]| {
            let mut h = NanoHistogram::new(self.cap_ns);
            for &i in p {
                h.merge(&self.kept[i].1);
            }
            h
        };
        let mean = merged(&picks[2]);
        let [k50, k95, kmean] = picks.each_ref().map(Vec::len);
        Timing {
            by_p50: merged(&picks[0]).summary(),
            by_p95: merged(&picks[1]).summary(),
            per_s: mean.n as f64 / (mean.sum_ns as f64 / 1e9),
            all: self.all.summary(),
            picked: format!(
                "of {} {} ms blocks, the {k50} with the lowest medians for p50, \
                 the {k95} with the lowest p95s for p95, the {kmean} with the lowest \
                 means for throughput",
                self.blocks,
                BLOCK.as_millis()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_leaves_ten_samples_beyond_it() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(19), None, "p50 of 19 leaves 9 beyond");
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0), "p90 of 99 leaves 9");
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(199), Some(90.0), "p95 of 199 leaves 9");
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(1_000_000), Some(99.999));
        // The boundary is exact: one sample fewer drops a rung.
        for q in LADDER {
            let n = min_samples_for(q);
            assert_eq!(beyond(n, q), TAIL_SAMPLES, "q = {q}");
            assert!(beyond(n - 1, q) < TAIL_SAMPLES, "q = {q}");
            assert_eq!(highest_percentile(n), Some(q));
        }
        assert_eq!(min_samples_for(95.0), 200);
        assert!(MIN_SAMPLES >= min_samples_for(95.0));
    }

    /// Fewest samples that leave [`TAIL_SAMPLES`] beyond percentile `q`.
    fn min_samples_for(q: f64) -> usize {
        (1..)
            .find(|&n| beyond(n, q) >= TAIL_SAMPLES)
            .expect("unbounded search")
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        let mut shuffled: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = Summary::of(&mut shuffled);
        assert_eq!((s.n, s.p50, s.p95), (200, 100.0, 190.0));
        assert_eq!(s.top, Some((95.0, 190.0)));
        assert!(s.p95_supported());
    }

    #[test]
    fn pick_quiet_keeps_the_fastest_blocks() {
        // (median, count): a slow 10-sample block, two fast blocks that
        // tie, a middling one.
        let blocks = [(30.0, 10), (22.0, 5), (25.0, 5), (22.0, 5)];
        // Two 5-sample blocks hold 7; of the tied pair the earlier
        // ranks first.
        assert_eq!(pick_quiet(&blocks, 7), [1, 3]);
        assert_eq!(pick_quiet(&blocks, 10), [1, 3]);
        // Needing 11 samples reaches into the next-fastest block.
        assert_eq!(pick_quiet(&blocks, 11), [1, 3, 2]);
        // Never more than there is; empty blocks are never kept.
        assert_eq!(pick_quiet(&blocks, 1_000), [1, 3, 2, 0]);
        assert_eq!(pick_quiet(&[(1.0, 0), (2.0, 4)], 1), [1]);
    }

    #[test]
    fn histogram_blocks_match_sorting() {
        let mut h = HistBlocks::new(1_000);
        let mut raw = Vec::new();
        let mut x = 12_345u64;
        for _ in 0..5_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let ns = (x >> 33) % 1_100; // some land in the overflow
            h.record(ns);
            // What the histogram reads the sample as.
            let read = if ns < 1_000 {
                (ns / BUCKET_NS * BUCKET_NS) as f64 + BUCKET_NS as f64 / 2.0
            } else {
                ns as f64
            };
            raw.push((ns, read));
        }
        // One block: the quiet sample is the whole run.
        let t = h.timing();
        let mut read: Vec<f64> = raw.iter().map(|r| r.1).collect();
        let want = Summary::of(&mut read);
        for got in [t.by_p50, t.by_p95, t.all] {
            assert_eq!(
                (got.n, got.p50, got.p95, got.top),
                (want.n, want.p50, want.p95, want.top)
            );
        }
        assert_eq!((h.blocks, h.kept.len()), (1, 1));
        // Throughput uses the exact sum.
        let mean_ns = raw.iter().map(|r| r.0 as f64).sum::<f64>() / raw.len() as f64;
        assert!((t.per_s - 1e9 / mean_ns).abs() < 1e-6 * t.per_s);
    }

    #[test]
    fn histogram_blocks_keep_only_what_a_ranking_picks() {
        // 100 samples a block, so three blocks hold MIN_SAMPLES. Each
        // block is `lo` 90 times and `hi` 10 times: its median is `lo`,
        // its p95 `hi`.
        let blocks = [
            (50, 60),
            (30, 900),
            (70, 80),
            (30, 40),
            (20, 800),
            (90, 100),
            (40, 50),
        ];
        let mut h = HistBlocks::new(1_000);
        for &(lo, hi) in &blocks {
            for j in 0..100 {
                h.record(if j < 90 { lo } else { hi });
            }
            h.finish_block();
            assert!(h.kept.len() <= 9, "only pickable blocks are kept");
        }
        let read = |ns: u64| (ns / BUCKET_NS * BUCKET_NS) as f64 + BUCKET_NS as f64 / 2.0;
        let t = h.timing();
        // By median: blocks 4, 1, 3; by p95: 3, 6, 0; by mean: 3, 6, 0.
        assert_eq!(t.by_p50.p50, read(30));
        assert_eq!(t.by_p95.p95, read(50));
        assert_eq!((t.by_p50.n, t.by_p95.n, t.all.n), (300, 300, 700));
        // Blocks 2 and 5 no ranking picks; the rest stay, in run order.
        let kept: Vec<f64> = h.kept.iter().map(|k| k.0.p50).collect();
        assert_eq!(kept, [50, 30, 30, 20, 40].map(read));
        assert_eq!(h.blocks, 7);
        // Throughput uses the exact sums: means 31, 41 and 51 ns.
        let mean_ns = 41.0;
        assert!((t.per_s - 1e9 / mean_ns).abs() < 1e-6 * t.per_s);
    }

    #[test]
    fn positions_keep_the_fastest_rounds_at_each_position() {
        // Four positions, so each keeps its fastest 55 (220 / 4) rounds.
        // Position k reads 10k + 1 ns, three times that on every fourth
        // (contended) pass; two rounds of a last, partial pass.
        let mut p = Positions::new(4);
        for pass in 0..100 {
            for k in 0..4 {
                let quiet = 10.0 * k as f64 + 1.0;
                p.push(if pass % 4 == 0 { 3.0 * quiet } else { quiet });
            }
        }
        p.push(1.0);
        p.push(11.0);
        assert_eq!(p.len(), 402);
        let t = p.timing();
        // 55 each of 1, 11, 21 and 31 ns: no contended round.
        assert_eq!((t.by_p50.n, t.by_p50.p50, t.by_p95.p95), (220, 11.0, 31.0));
        assert_eq!(t.per_s, 220.0 / (55.0 * 64.0 * 1e-9));
        assert_eq!(t.all.n, 402);
    }
}
