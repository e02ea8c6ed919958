//! Small helpers shared by every part of the benchmark: a seeded generator,
//! order statistics and the process's peak resident set.

use std::time::{Duration, Instant};

/// SplitMix64: a tiny, seedable generator. The benchmark owns its stream so
/// that its inputs depend only on `--seed`, never on a library's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_BA5E_D00D_F00D)
    }

    /// An independent stream for one purpose (a thread, a connection).
    pub fn fork(&mut self, salt: u64) -> Self {
        Self(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "Rng::below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Nearest-rank percentile of an ascending slice; `p` in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Latency samples of one operation kind, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn p50(&self) -> f64 {
        percentile(&self.sorted(), 0.5)
    }

    pub fn p99(&self) -> f64 {
        percentile(&self.sorted(), 0.99)
    }

    /// Whether a p99 rests on at least ten samples beyond it.
    pub fn p99_has_tail(&self) -> bool {
        let n = self.0.len();
        n >= 1 && n - (0.99 * n as f64).ceil() as usize >= 10
    }
}

/// Ticks (1/100 s) of processor time the hypervisor gave to others, over
/// all processors, from `/proc/stat`; 0 where unavailable.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|t| t.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metric name → (value, unit).
pub type Metrics = std::collections::BTreeMap<String, (f64, &'static str)>;

/// Set-ups per run: at least `SETUP_BUILDS`, more while they have taken
/// under `SETUP_SECONDS` in all, at most `SETUP_MAX`, so that a cheap set-up
/// is timed often enough for its median to hold still.
const SETUP_BUILDS: usize = 5;
const SETUP_SECONDS: f64 = 1.5;
const SETUP_MAX: usize = 30;

/// Runs `build` (given its attempt number) repeatedly, keeps the last
/// result and returns it with every attempt's time in seconds. Each earlier
/// result is dropped before the next build starts, outside the timed
/// region, so that no two set-ups are held at once.
pub fn repeat_setup<T>(
    mut build: impl FnMut(usize) -> std::io::Result<T>,
) -> std::io::Result<(T, Vec<f64>)> {
    let mut times: Vec<f64> = Vec::new();
    let mut kept = None;
    while times.len() < SETUP_BUILDS
        || (times.iter().sum::<f64>() < SETUP_SECONDS && times.len() < SETUP_MAX)
    {
        drop(kept.take());
        let start = Instant::now();
        let built = build(times.len())?;
        times.push(start.elapsed().as_secs_f64());
        kept = Some(built);
    }
    Ok((kept.expect("at least one set-up"), times))
}
