//! What the host is and what this process has cost it so far. Every
//! result carries the fingerprint, so a number is never read without the
//! machine it was taken on.

use std::time::Instant;

/// Hardware threads; the only worker counts the benchmark uses are 1 and
/// this, so no oversubscribed run is ever printed as scaling.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line(path: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

/// `git rev-parse HEAD` of the tree the benchmark was built from, or
/// `unknown` outside a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The fingerprint as the members of a JSON object.
pub fn fingerprint_json() -> String {
    format!(
        "\"available_parallelism\":{},\"simd\":\"{:?}\",\"force_scalar\":{},\"profile\":\"{}\",\"commit\":\"{}\",\"kernel\":\"{}\"",
        hw_threads(),
        media::simd::level(),
        media::simd::forced_scalar(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        commit(),
        first_line("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
    )
}

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` is 100 on every
/// Linux this repo targets; CPU times therefore resolve to 10 ms, which is
/// why they are summed over a whole phase and never read per run.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of this process, dead threads included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after it (1-based).
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_ascii_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    let utime = ticks(fields.next());
    let stime = ticks(fields.next());
    (utime + stime) / CLK_TCK
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed ALU loop, timed before every run: when a neighbour takes a
/// core the loop slows with the run, and the result shows a disturbed
/// host instead of a regression. Returns milliseconds.
pub fn calib_spin_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..400_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_values() {
        assert!(hw_threads() >= 1);
        assert!(peak_rss_mib() > 0.0);
        let before = cpu_seconds();
        let t = Instant::now();
        while t.elapsed().as_millis() < 60 {
            std::hint::black_box(calib_spin_ms());
        }
        assert!(cpu_seconds() > before, "60 ms of spinning is several ticks");
    }
}
