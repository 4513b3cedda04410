//! Process figures from Linux `/proc/self`: peak and current resident
//! memory, thread count and CPU time. Each reads 0 where `/proc` is
//! missing, so the benchmark still runs (with those figures absent)
//! elsewhere.

fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(field)?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

/// Resets the peak resident set mark to the current resident set, so
/// the next [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Current resident set (`VmRSS`), MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") as f64 / 1024.0
}

/// Threads of this process (`Threads:`).
pub fn threads() -> u64 {
    status_kb("Threads:")
}

/// User plus system CPU time of the whole process, seconds. `/proc`
/// reports it in clock ticks of 1/100 s (`USER_HZ`).
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name may hold spaces; fields resume after ')'.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split(' ').collect();
            let utime: u64 = f.get(11)?.parse().ok()?;
            let stime: u64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) as f64 / 100.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_mb() > 0.0 && rss_mb() <= peak_rss_mb());
        assert!(threads() >= 1);
        let grown = vec![1u8; 64 << 20];
        let high = peak_rss_mb();
        drop(std::hint::black_box(grown));
        reset_peak();
        assert!(peak_rss_mb() < high, "the reset lowers the mark");
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_s() > 0.0);
    }
}
