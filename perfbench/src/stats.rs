//! Timing samples and their summary.
//!
//! A run can take millions of steps (the shm-plane lock cycle is well
//! under a microsecond per step), so [`Samples`] keeps a bounded,
//! evenly spaced subset: every `stride`-th observation, with the stride
//! doubling whenever the buffer fills. The subset stays uniform over the
//! whole run, not biased toward its start, and every kept value is a raw
//! nanosecond reading.

/// Sample cap per recorder: p99 keeps well over a hundred samples beyond
/// it, while the buffers stay a small, nearly fixed share of the peak
/// resident set that `peak_rss_mb` reports.
const CAP: usize = 1 << 15;

/// Bounded, evenly decimated nanosecond samples of one quantity.
#[derive(Clone, Debug, PartialEq)]
pub struct Samples {
    buf: Vec<u32>,
    stride: u64,
    seen: u64,
}

impl Default for Samples {
    fn default() -> Self {
        Samples { buf: Vec::with_capacity(CAP), stride: 1, seen: 0 }
    }
}

impl Samples {
    /// Offer one observation in nanoseconds.
    pub fn push(&mut self, ns: u64) {
        let i = self.seen;
        self.seen += 1;
        if !i.is_multiple_of(self.stride) {
            return;
        }
        if self.buf.len() == CAP {
            // Keep entries at even positions, in place: indices that are
            // multiples of the doubled stride.
            for j in 0..CAP / 2 {
                self.buf[j] = self.buf[2 * j];
            }
            self.buf.truncate(CAP / 2);
            self.stride *= 2;
            if !i.is_multiple_of(self.stride) {
                return;
            }
        }
        self.buf.push(ns.min(u64::from(u32::MAX)) as u32);
    }

    /// Time `f` and offer its duration.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = std::time::Instant::now();
        let out = f();
        self.push(t.elapsed().as_nanos() as u64);
        out
    }

    /// Bytes [`Samples::encode`] appends.
    pub fn encoded_len(&self) -> usize {
        24 + 4 * self.buf.len()
    }

    /// Append to `out`: stride, then the kept samples.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.stride.to_le_bytes());
        out.extend_from_slice(&self.seen.to_le_bytes());
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        for &v in &self.buf {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Inverse of [`Samples::encode`]; advances `rd`.
    pub fn decode(rd: &mut &[u8]) -> Samples {
        let stride = take_u64(rd);
        let seen = take_u64(rd);
        let len = take_u64(rd) as usize;
        assert!(len <= CAP && rd.len() >= len * 4, "malformed sample block");
        let (body, rest) = rd.split_at(len * 4);
        *rd = rest;
        let buf = body.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk"))).collect();
        Samples { buf, stride, seen }
    }

    /// Pool the samples of several ranks. Each rank is first thinned to
    /// the coarsest stride among them, so every rank is represented in
    /// proportion to the observations it made.
    pub fn merge(parts: &[Samples]) -> Vec<u64> {
        let stride = parts.iter().map(|s| s.stride).max().unwrap_or(1);
        let mut all = Vec::new();
        for s in parts {
            let step = (stride / s.stride) as usize;
            all.extend(s.buf.iter().step_by(step.max(1)).map(|&v| u64::from(v)));
        }
        all
    }
}

/// Read one little-endian `u64` off the front of `rd`.
pub fn take_u64(rd: &mut &[u8]) -> u64 {
    assert!(rd.len() >= 8, "truncated report");
    let (head, rest) = rd.split_at(8);
    *rd = rest;
    u64::from_le_bytes(head.try_into().expect("8-byte head"))
}

/// Median, p99 and the deepest well-populated tail of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples summarised.
    pub n: usize,
    /// Median (ns).
    pub p50: u64,
    /// 99th percentile (ns).
    pub p99: u64,
    /// Samples strictly above `p99`.
    pub beyond_p99: usize,
    /// The highest percentile of the ladder 99.9, 99.99, ... that still
    /// has at least ten samples beyond it (falls back to 99).
    pub tail_pct: f64,
    /// Value at `tail_pct` (ns).
    pub tail: u64,
}

impl Summary {
    /// Summarise `samples` (in any order); `None` when empty.
    pub fn of(mut samples: Vec<u64>) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let n = samples.len();
        // Nearest-rank percentile, in parts per million to stay exact.
        let rank = |ppm: usize| (ppm * n).div_ceil(1_000_000).clamp(1, n);
        let at = |ppm: usize| samples[rank(ppm) - 1];
        let mut tail_ppm = 990_000;
        for ppm in [999_000, 999_900, 999_990, 999_999] {
            if n - rank(ppm) >= 10 {
                tail_ppm = ppm;
            }
        }
        let p99 = at(990_000);
        Some(Summary {
            n,
            p50: at(500_000),
            p99,
            beyond_p99: n - samples.partition_point(|&v| v <= p99),
            tail_pct: tail_ppm as f64 / 10_000.0,
            tail: at(tail_ppm),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_a_ramp() {
        let s = Summary::of((1..=10_000).collect()).unwrap();
        assert_eq!((s.n, s.p50, s.p99), (10_000, 5_000, 9_900));
        assert_eq!(s.beyond_p99, 100);
        assert_eq!((s.tail_pct, s.tail), (99.9, 9_990));
    }

    #[test]
    fn decimation_stays_uniform_and_bounded() {
        let mut s = Samples::default();
        let total = 3 * CAP as u64 + 17;
        for i in 0..total {
            s.push(i);
        }
        assert_eq!(s.seen, total);
        assert!(s.buf.len() <= CAP && s.buf.len() > CAP / 2);
        // Kept values are exactly the multiples of the stride.
        assert!(s.buf.iter().enumerate().all(|(k, &v)| u64::from(v) == k as u64 * s.stride));
    }

    #[test]
    fn encode_decode_and_merge() {
        let mut a = Samples::default();
        let mut b = Samples::default();
        for i in 0..(CAP as u64 + 1) {
            a.push(i); // ends with stride 2
        }
        for i in 0..10 {
            b.push(i);
        }
        let mut bytes = Vec::new();
        a.encode(&mut bytes);
        b.encode(&mut bytes);
        let mut rd = bytes.as_slice();
        let (a2, b2) = (Samples::decode(&mut rd), Samples::decode(&mut rd));
        assert!(rd.is_empty());
        assert_eq!((a2.clone(), b2.clone()), (a, b));
        // b is thinned to a's stride: 0, 2, 4, 6, 8.
        assert_eq!(Samples::merge(&[a2.clone(), b2]).len(), a2.buf.len() + 5);
    }
}
