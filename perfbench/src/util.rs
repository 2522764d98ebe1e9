//! Small measurement helpers: seeded PRNG, a log-linear histogram with
//! interpolated quantiles, `/proc` readers and the host stamp.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The benchmark's monotonic epoch. Generator due times and sink arrival
/// times are both nanoseconds since this instant.
pub fn now_ns() -> i64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as i64
}

/// SplitMix64: the workload generator's only source of randomness.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// Linear sub-buckets per power of two: relative bucket width < 1/128.
const SUB: usize = 128;
const SUB_BITS: u32 = 7;

/// Log-linear histogram of non-negative integers (ns or µs). Values
/// below 128 get one bucket each; above, each power of two splits into
/// 128 linear buckets. Memory is constant, so the record count of a run
/// does not show up in its own RSS.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; SUB * 58],
            n: 0,
            max: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let e = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = e - SUB_BITS;
        let sub = ((v >> shift) as usize) - SUB;
        (shift as usize + 1) * SUB + sub
    }

    /// `[lo, hi)` value range of bucket `b`.
    fn range(b: usize) -> (f64, f64) {
        if b < SUB {
            return (b as f64, b as f64 + 1.0);
        }
        let shift = (b / SUB - 1) as u32;
        let sub = (b % SUB + SUB) as u64;
        let lo = (sub << shift) as f64;
        (lo, lo + (1u64 << shift) as f64)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Quantile `q` in `[0, 1]`, interpolated linearly inside the bucket
    /// that holds it (samples are treated as spread evenly over their
    /// bucket, so an integer-ns clock still gives a continuous estimate).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.n as f64;
        let mut seen = 0.0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = c as f64;
            if seen + c >= rank {
                if b == 0 {
                    return 0.0; // exact zeros stay zero
                }
                let (lo, hi) = Self::range(b);
                return lo + (hi - lo) * ((rank - seen) / c);
            }
            seen += c;
        }
        self.max as f64
    }
}

/// Quarter-second blocks of the measured window. Reporting the median
/// over blocks of a per-block statistic keeps one disturbed moment (a
/// neighbour's burst on a shared host) from moving the run's figure.
#[derive(Clone, Default)]
pub struct Blocks(Vec<Hist>);

pub const BLOCK_NS: i64 = 250_000_000;

impl Blocks {
    pub fn record(&mut self, block: usize, v: u64) {
        if self.0.len() <= block {
            self.0.resize(block + 1, Hist::default());
        }
        self.0[block].record(v);
    }

    /// Every block's samples together.
    pub fn merged(&self) -> Hist {
        let mut all = Hist::default();
        for h in &self.0 {
            all.merge(h);
        }
        all
    }

    /// Median over the non-empty blocks of each block's quantile `q`.
    pub fn median_of(&self, q: f64) -> f64 {
        let v: Vec<f64> = self
            .0
            .iter()
            .filter(|h| h.count() > 0)
            .map(|h| h.quantile(q))
            .collect();
        median(&v)
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn pthread_getcpuclockid(thread: std::os::unix::thread::RawPthread, clock: *mut i32) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// A CPU-time clock: the whole process's, or one thread's.
#[derive(Clone, Copy)]
pub struct CpuClock(i32);

impl CpuClock {
    pub fn process() -> CpuClock {
        CpuClock(CLOCK_PROCESS_CPUTIME_ID)
    }

    /// The CPU-time clock of a spawned, still running thread.
    pub fn of<T>(h: &std::thread::JoinHandle<T>) -> CpuClock {
        use std::os::unix::thread::JoinHandleExt;
        let mut id = 0;
        // SAFETY: `as_pthread_t` names a thread that has not been joined
        // (the handle still owns it), and `id` is a valid out-pointer.
        let rc = unsafe { pthread_getcpuclockid(h.as_pthread_t(), &mut id) };
        assert_eq!(rc, 0, "pthread_getcpuclockid failed");
        CpuClock(id)
    }

    /// CPU time consumed so far, in µs (nanosecond resolution).
    pub fn us(self) -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec and the clock id came
        // from the kernel (process clock or `pthread_getcpuclockid`).
        let rc = unsafe { clock_gettime(self.0, &mut ts) };
        if rc != 0 {
            return 0.0;
        }
        ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
    }
}

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`: time
/// the hypervisor gave this machine's CPUs to someone else.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Reset the process's peak resident set (`VmHWM`) to its current RSS,
/// so a later [`peak_rss_mb`] covers only what ran since.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Sleep until `deadline_ns` on the [`now_ns`] clock; returns at once
/// if it already passed.
pub fn sleep_until(deadline_ns: i64) {
    let wait = deadline_ns - now_ns();
    if wait > 0 {
        std::thread::sleep(Duration::from_nanos(wait as u64));
    }
}

/// Milliseconds taken by a fixed integer loop: a coarse speed stamp of
/// the host, so results from different machines are not compared.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..50_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// One line naming the host the result came from.
pub fn host_stamp() -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" kernel={kernel} commit={} calibration_ms={:.1}",
        commit(),
        calibration_ms()
    )
}

/// The commit under test: `git rev-parse HEAD` when the working directory
/// is a git checkout, else an FNV-1a fingerprint of the sources the
/// benchmark builds (`Cargo.toml`, `Cargo.lock`, `src/`, `crates/`,
/// `vendor/`).
fn commit() -> String {
    // Only ask git inside a checkout of its own: in a plain copy, git
    // would walk up and report whatever repository encloses it.
    if !std::path::Path::new(".git").exists() {
        return source_fingerprint();
    }
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
    {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    source_fingerprint()
}

fn source_fingerprint() -> String {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"] {
        collect_files(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
    }
    format!("src-fnv-{h:016x}")
}

fn collect_files(p: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    match std::fs::metadata(p) {
        Ok(m) if m.is_dir() => {
            for e in std::fs::read_dir(p).into_iter().flatten().flatten() {
                let path = e.path();
                if path.file_name().is_some_and(|n| n != "target") {
                    collect_files(&path, out);
                }
            }
        }
        Ok(_) => out.push(p.to_path_buf()),
        Err(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_inside_buckets() {
        let mut h = Hist::default();
        for v in 0..1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 500.0).abs() < 5.0, "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 990.0).abs() < 10.0, "p99 {p99}");
        let mut small = Hist::default();
        for _ in 0..10 {
            small.record(40);
        }
        assert!((40.0..41.0).contains(&small.quantile(0.5)));
    }

    #[test]
    fn bucket_ranges_cover_their_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1_000,
            123_456_789,
            u32::MAX as u64,
        ] {
            let (lo, hi) = Hist::range(Hist::bucket(v));
            assert!(lo <= v as f64 && (v as f64) < hi, "{v} not in [{lo}, {hi})");
        }
    }
}
