//! Process-level resource introspection.
//!
//! The scaling benches (X16) gate on *peak* memory, which no in-process
//! allocator counter captures once buffers have been freed — the kernel's
//! high-water mark is the ground truth. On Linux it is `VmHWM` in
//! `/proc/self/status`; elsewhere the probes return 0 and callers treat the
//! measurement as unavailable.

/// Peak resident set size of the current process in KiB (`VmHWM`),
/// or 0 when the platform exposes no such counter.
pub fn peak_rss_kb() -> u64 {
    proc_status_kb("VmHWM:")
}

/// Current resident set size of the current process in KiB (`VmRSS`),
/// or 0 when unavailable.
pub fn current_rss_kb() -> u64 {
    proc_status_kb("VmRSS:")
}

fn proc_status_kb(key: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn linux_reports_nonzero_rss() {
        assert!(peak_rss_kb() > 0);
        assert!(current_rss_kb() > 0);
        // The high-water mark can never be below the current level. Read
        // the current level first: tests on other threads allocate, so a
        // later `VmRSS` read can exceed an earlier `VmHWM` read.
        let current = current_rss_kb();
        assert!(peak_rss_kb() >= current);
    }

    #[test]
    fn growth_is_observed_in_peak() {
        let before = peak_rss_kb();
        // Touch ~32 MiB so the high-water mark must move on any platform
        // that reports one.
        let block: Vec<u8> = (0..32 * 1024 * 1024).map(|i| (i % 251) as u8).collect();
        let after = peak_rss_kb();
        assert!(block.iter().map(|&b| b as u64).sum::<u64>() > 0);
        if before > 0 {
            assert!(after >= before);
        }
    }
}
