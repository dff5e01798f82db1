//! What the run reads about its host and its own process, all from procfs.

use std::fs;

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line[key.len()..].trim().trim_start_matches(':').trim().to_string())
}

fn status_mib(key: &str) -> f64 {
    proc_field("/proc/self/status", key)
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// High-water resident set of this process in MiB (`VmHWM`). A procfs read:
/// the one file an untraced run opens before its last timed repetition.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM")
}

/// Current resident set in MiB (`VmRSS`).
pub fn rss_mib() -> f64 {
    status_mib("VmRSS")
}

/// CPU seconds (user + system, all threads) this process has used, from
/// `/proc/self/stat` in clock ticks of 1/100 s.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, the 12th and 13th after the command.
    let fields: Vec<&str> =
        stat.rsplit_once(')').map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Bytes this process caused to be written to storage (`write_bytes` of
/// `/proc/self/io`): the evidence that a run did no file output while timing.
pub fn storage_write_bytes() -> u64 {
    proc_field("/proc/self/io", "write_bytes").and_then(|v| v.parse().ok()).unwrap_or(0)
}

fn cache_size(index: usize) -> Option<String> {
    let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
    let read =
        |f: &str| fs::read_to_string(format!("{dir}/{f}")).ok().map(|s| s.trim().to_string());
    Some(format!("L{}{} {}", read("level")?, &read("type")?[..1].to_lowercase(), read("size")?))
}

/// The host line every run prints: parallelism, CPU model, cache sizes and
/// the commit (when the checkout is a git repository; the driver's is not).
pub fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let model = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    let caches: Vec<String> = (0..4).filter_map(cache_size).collect();
    format!(
        "host: nproc={nproc}; cpu={model}; caches={}; commit={}",
        if caches.is_empty() { "unknown".to_string() } else { caches.join(", ") },
        commit().unwrap_or_else(|| "unknown".into())
    )
}

/// HEAD of the repository this package sits in, read from `.git` directly.
fn commit() -> Option<String> {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let head = fs::read_to_string(format!("{git}/HEAD")).ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    let loose = fs::read_to_string(format!("{git}/{reference}")).ok();
    let packed = || {
        let refs = fs::read_to_string(format!("{git}/packed-refs")).ok()?;
        let line = refs.lines().find(|l| l.ends_with(reference))?;
        line.split_whitespace().next().map(str::to_string)
    };
    loose.map(|s| s.trim().to_string()).or_else(packed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_readable_on_linux() {
        assert!(peak_rss_mib() > 0.0);
        assert!(rss_mib() > 0.0 && rss_mib() <= peak_rss_mib() + 1.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() < before + 0.02 {
            x = std::hint::black_box(x + 1);
        }
        assert!(host_line().starts_with("host: nproc="));
    }
}
