//! Peak resident set of this process, from the kernel's high-water mark.

/// `VmHWM` of the current process in MB, or `None` where
/// `/proc/self/status` cannot be read (the caller fails the run: the
/// contract requires every end-to-end metric, and a made-up 0 would poison
/// the trajectory).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn linux_reports_a_plausible_high_water_mark() {
        if std::fs::metadata("/proc/self/status").is_ok() {
            let mb = super::peak_rss_mb().expect("VmHWM readable on Linux");
            assert!(mb > 1.0, "implausible peak RSS: {mb} MB");
        }
    }
}
