//! Seeded input generation, the order statistics every metric is reported
//! with, and the calibration of timings against a reference computation.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny, fully deterministic generator. The benchmark's
/// inputs (session order, target order, request streams) all come from
/// one of these seeded with `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fbe_9c41_1e55)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Samples of one timing, in seconds.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    pub fn push_secs(&mut self, s: f64) {
        self.0.push(s);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        ratio(self.sum(), self.0.len() as f64)
    }

    /// Linear-interpolated percentile (`p` in 0..=100); 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = p / 100.0 * (v.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Appends the samples of `raw` this one does not hold yet, each
    /// multiplied by `scale`.
    pub fn extend_scaled(&mut self, raw: &Samples, scale: f64) {
        let new = raw.0[self.0.len()..].iter().map(|v| v * scale);
        self.0.extend(new);
    }
}

/// The scale of calibrated times, in seconds: a calibrated time is what
/// the operation would take on a machine on which [`reference`] takes this
/// long. On the machine the benchmark was written on (2 shared x86_64
/// vCPUs) the reference took 5.5 to 12 ms.
pub const REFERENCE_S: f64 = 0.010;

/// A fixed computation of the kind the pipeline does (hashing, small
/// allocations, string formatting, sorting), timed. Workloads run it
/// between units of measured work; see [`Timings`].
pub fn reference() -> f64 {
    let t0 = Instant::now();
    let mut rng = Rng::new(0x7e7e);
    let mut buckets: HashMap<u64, Vec<u64>> = HashMap::new();
    for _ in 0..80_000 {
        let key = rng.next_u64() % 4096;
        buckets.entry(key).or_default().push(rng.next_u64());
    }
    let mut values: Vec<u64> = buckets.values().flatten().copied().collect();
    values.sort_unstable();
    let mut names: Vec<String> = values.iter().step_by(8).map(|v| format!("x%{v}")).collect();
    names.sort();
    black_box((values, names));
    t0.elapsed().as_secs_f64()
}

/// The set-up, operation and request times of a run, as measured and
/// calibrated.
///
/// The machine's speed changes during a run and between runs by up to a
/// half while the thread stays on the CPU, so raw times of unchanged code
/// spread wider between runs than the bounds the benchmark gates on. The
/// reference computation is timed at every boundary between units of work
/// (a pass, an epoch, a cycle); each sample of a unit is divided by the
/// mean reference time on either side of it and multiplied by
/// [`REFERENCE_S`]. Calibrated figures move with the program, not the
/// machine.
#[derive(Default)]
pub struct Timings {
    pub setup: Samples,
    pub op: Samples,
    pub req: Samples,
    /// The same samples, calibrated.
    pub cal_setup: Samples,
    pub cal_op: Samples,
    pub cal_req: Samples,
    /// The reference time at each boundary.
    pub reference: Samples,
}

impl Timings {
    /// Marks a boundary between units: times the reference and calibrates
    /// the samples of the unit that ended here. Call it before the first
    /// measured unit and after every unit.
    pub fn boundary(&mut self) {
        let now = reference();
        if self.reference.len() > 0 {
            let before = self.reference.0[self.reference.len() - 1];
            let scale = REFERENCE_S / ((before + now) / 2.0);
            self.cal_setup.extend_scaled(&self.setup, scale);
            self.cal_op.extend_scaled(&self.op, scale);
            self.cal_req.extend_scaled(&self.req, scale);
        }
        self.reference.push_secs(now);
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let mut s = Samples::default();
        for i in 0..100 {
            s.push_secs(i as f64);
        }
        assert_eq!(s.median(), 49.5);
        assert!((s.percentile(90.0) - 89.1).abs() < 1e-9);
    }

    #[test]
    fn boundaries_calibrate_the_unit_between_them() {
        let mut t = Timings::default();
        t.boundary();
        t.op.push_secs(1.0);
        t.req.push_secs(0.5);
        t.boundary();
        assert_eq!(
            (t.cal_op.len(), t.cal_req.len(), t.cal_setup.len()),
            (1, 1, 0)
        );
        let mean_ref = t.reference.mean();
        let want = REFERENCE_S / mean_ref;
        assert!((t.cal_op.median() - want).abs() < 1e-9 * want);
    }

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert!((0..64).all(|_| a.next_u64() == b.next_u64()));
    }
}
