//! Host readings taken around each timed window: peak resident memory,
//! CPU steal, and a fixed reference loop, so that a run on a slow
//! stretch of a shared host reads as drift rather than as a regression.

use std::time::Instant;

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Aggregate CPU jiffies from `/proc/stat`: (steal, total).
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user/nice.
    let total = fields.iter().take(8).sum();
    Some((fields.get(7).copied().unwrap_or(0), total))
}

/// A fixed CPU-and-memory reference loop, ms: xorshift fills of a
/// 4 MiB buffer followed by strided read-modify-write passes. The work
/// never changes, so its time tracks only the host.
pub fn reference_ms() -> f64 {
    const WORDS: usize = 1 << 19;
    let started = Instant::now();
    let mut buf = vec![0u64; WORDS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for pass in 0..24u64 {
        for w in buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w ^= x;
        }
        let stride = 1 + (pass as usize * 8) % 61;
        let mut i = 0;
        while i < WORDS {
            acc = acc.wrapping_add(buf[i]);
            buf[i] = acc;
            i += stride;
        }
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() * 1e3
}

/// What one timed window left on the host.
#[derive(Debug, Clone, Copy)]
pub struct HostReading {
    /// `VmHWM` at the end of the window (reset when it opened), MiB.
    pub peak_rss_mib: f64,
    /// CPU steal over the window, % of all CPU time.
    pub steal_pct: f64,
    /// Reference loop before the window, ms.
    pub ref_before_ms: f64,
    /// Reference loop after the window, ms.
    pub ref_after_ms: f64,
}

impl HostReading {
    /// Mean of the two reference-loop times, ms.
    pub fn ref_ms(&self) -> f64 {
        (self.ref_before_ms + self.ref_after_ms) / 2.0
    }

    /// The reading of this window and a later one taken as one: the
    /// higher peak, the mean steal, the reference loop before this one
    /// and after the later one.
    pub fn then(self, later: HostReading) -> HostReading {
        HostReading {
            peak_rss_mib: self.peak_rss_mib.max(later.peak_rss_mib),
            steal_pct: (self.steal_pct + later.steal_pct) / 2.0,
            ref_before_ms: self.ref_before_ms,
            ref_after_ms: later.ref_after_ms,
        }
    }
}

/// An open timed window: opened at the end of setup, closed when the
/// timed work is done.
pub struct Window {
    ref_before_ms: f64,
    cpu: Option<(u64, u64)>,
}

impl Window {
    /// Runs the reference loop, then resets the peak-RSS mark and
    /// samples CPU counters (in that order, so the loop's buffer never
    /// counts towards the window's peak).
    pub fn open() -> Window {
        let ref_before_ms = reference_ms();
        reset_peak_rss();
        Window {
            ref_before_ms,
            cpu: cpu_jiffies(),
        }
    }

    /// Reads peak RSS and steal, then runs the reference loop again.
    pub fn close(self) -> HostReading {
        let peak_rss_mib = peak_rss_mib().unwrap_or(0.0);
        let steal_pct = match (self.cpu, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        };
        HostReading {
            peak_rss_mib,
            steal_pct,
            ref_before_ms: self.ref_before_ms,
            ref_after_ms: reference_ms(),
        }
    }
}
