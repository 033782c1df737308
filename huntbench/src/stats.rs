//! Measurement primitives: raw-sample series with nearest-rank
//! percentiles, hashing for fingerprints and row digests, the seeded
//! mixer the workload generators draw from, and the process high-water
//! mark.

use std::time::Duration;

/// Fewest samples a percentile must have beyond it before it is
/// reported; below that the value is withheld (reported as 0 with its
/// sample count).
pub const MIN_BEYOND: usize = 10;

/// Raw samples of one timed quantity, kept in full so percentiles are
/// exact (nearest-rank) rather than read from histogram buckets.
#[derive(Debug, Clone, Default)]
pub struct Series {
    samples: Vec<f64>,
    sorted: bool,
}

impl Series {
    pub fn push(&mut self, value: f64) {
        self.samples.push(value);
        self.sorted = false;
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_us(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    pub fn extend_from(&mut self, other: &Series) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The nearest-rank `p`-th percentile: the smallest sample with at
    /// least `p`% of the samples at or below it. `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond that rank.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        if n == 0 || n - rank.min(n) < MIN_BEYOND {
            return None;
        }
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        Some(self.samples[rank - 1])
    }
}

/// A metric as reported: value, unit, and the number of samples behind
/// it (`None` for counts and ratios that are not sample statistics).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Option<usize>,
    /// Set for percentiles, which are withheld (0) below
    /// [`MIN_BEYOND`] samples beyond.
    pub percentile: bool,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: None,
            percentile: false,
        }
    }

    /// A percentile of `series`; 0 with the sample count when the series
    /// cannot support it.
    pub fn pct(name: &'static str, unit: &'static str, series: &mut Series, p: f64) -> Metric {
        Metric {
            name,
            unit,
            value: series.percentile(p).unwrap_or(0.0),
            samples: Some(series.len()),
            percentile: true,
        }
    }

    /// Whether this is a percentile withheld for lack of samples.
    pub fn withheld(&self) -> bool {
        self.percentile && self.samples.is_some_and(|n| n > 0) && self.value == 0.0
    }
}

/// FNV-1a over a byte stream: fingerprints and row digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Order-independent digest of result rows: rows are sorted first, so
/// executors that return the same rows in another order agree.
pub fn rows_digest(rows: &[Vec<String>]) -> u64 {
    let mut sorted: Vec<&Vec<String>> = rows.iter().collect();
    sorted.sort();
    let mut h = Fnv::default();
    for row in sorted {
        for cell in row {
            h.write(cell.as_bytes());
        }
        h.write(b"\n");
    }
    h.finish()
}

/// SplitMix64 finalizer over `(seed, i)`: the workload generators'
/// only source of randomness, so job `i` of a seed is a pure function.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Busy-waits for `d` on the calling thread (used to inject a known
/// slowdown for the sensitivity self-check).
pub fn spin(d: Duration) {
    let until = std::time::Instant::now() + d;
    while std::time::Instant::now() < until {
        std::hint::spin_loop();
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod rusage {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
    #[repr(C)]
    pub struct RUsage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
}

/// The process's resident-set high-water mark in MiB (`getrusage`,
/// `RUSAGE_SELF`); NaN where unsupported.
pub fn peak_rss_mb() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut usage = rusage::RUsage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `usage` is a live, writable value with the layout of
        // `struct rusage` on 64-bit Linux, and 0 is RUSAGE_SELF, a valid
        // `who`; getrusage writes only within that struct.
        let rc = unsafe { rusage::getrusage(0, &mut usage) };
        if rc == 0 {
            // Linux reports ru_maxrss in KiB.
            return usage.maxrss as f64 / 1024.0;
        }
    }
    f64::NAN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_needs_ten_beyond() {
        let mut s = Series::default();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(90.0), Some(90.0));
        assert_eq!(s.percentile(95.0), None);
        let mut small = Series::default();
        for v in 1..=19 {
            small.push(v as f64);
        }
        assert_eq!(small.percentile(50.0), None);
    }

    #[test]
    fn digest_ignores_row_order() {
        let a = vec![vec!["x".to_string()], vec!["y".to_string()]];
        let b = vec![vec!["y".to_string()], vec!["x".to_string()]];
        assert_eq!(rows_digest(&a), rows_digest(&b));
        assert_ne!(rows_digest(&a), rows_digest(&a[..1]));
    }
}
