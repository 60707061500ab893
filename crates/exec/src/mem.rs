//! Process resident-memory probes.
//!
//! The million-client example (`examples/million_clients.rs`, whose
//! `--smoke` mode is the bounded-RSS step in `scripts/verify.sh`), the
//! telemetry memory probes and the benchmark reporter need to *observe*
//! server memory, not model it: the whole point of the streamed cohort
//! engine is that a million-client round runs in `O(cohort · k)` resident
//! memory, and only the OS can attest to that.
//!
//! Both probes read `/proc/self/status` on Linux. On any other platform
//! they are compiled to return `None` without touching the filesystem, and
//! even on Linux a failed read (procfs unmounted, sandboxed, or a field
//! missing) degrades to `None` rather than panicking. Callers must degrade
//! gracefully — print `null`/`n/a`, skip the assertion — so
//! `million_clients --smoke` and `bench-report` keep working off-procfs.

/// Current resident set size of this process in bytes (`VmRSS`), or `None`
/// if the platform does not expose `/proc/self/status` (non-Linux, or a
/// Linux environment where procfs is unavailable).
///
/// # Examples
///
/// ```
/// if let Some(rss) = agsfl_exec::mem::current_rss_bytes() {
///     assert!(rss > 0);
/// }
/// ```
pub fn current_rss_bytes() -> Option<u64> {
    status_field("VmRSS:").map(|kib| kib * 1024)
}

/// Peak resident set size of this process in bytes (`VmHWM`, the
/// high-water mark since process start), or `None` if unavailable.
///
/// Note the kernel never lowers this value; per-phase deltas need
/// [`current_rss_bytes`] samples instead.
pub fn peak_rss_bytes() -> Option<u64> {
    status_field("VmHWM:").map(|kib| kib * 1024)
}

/// Number of OS threads in this process (`Threads`), or `None` if
/// unavailable. The pool lifecycle tests use this to assert that the
/// persistent worker pool is spawned once and *reused* — the count stays
/// flat across rounds instead of growing with every parallel region.
pub fn thread_count() -> Option<u64> {
    // The `Threads` field has no `kB` suffix; the shared parser's suffix
    // strip is a no-op on it.
    status_field("Threads:")
}

/// Reads a numeric field from `/proc/self/status` (stripping a trailing
/// `kB` unit when present). Every failure
/// mode — unreadable file, absent field, malformed number — is `None`.
#[cfg(target_os = "linux")]
fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

/// Non-Linux fallback: there is no procfs to consult, so the probes report
/// `None` without any filesystem traffic.
#[cfg(not(target_os = "linux"))]
fn status_field(_key: &str) -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_plausible_values_on_linux() {
        // On Linux both fields exist and peak >= current > 0; elsewhere the
        // probes must simply return None instead of panicking.
        match (current_rss_bytes(), peak_rss_bytes()) {
            (Some(rss), Some(peak)) => {
                assert!(rss > 0);
                assert!(peak >= rss, "peak {peak} < current {rss}");
            }
            (None, None) => {}
            other => panic!("probes disagree about procfs availability: {other:?}"),
        }
    }

    #[test]
    fn rss_grows_when_memory_is_held() {
        let Some(before) = current_rss_bytes() else {
            return; // no procfs on this platform
        };
        // `black_box`: the buffer is never read, so an optimized build would
        // otherwise elide the allocation and the test would mean nothing.
        let held = std::hint::black_box(vec![1u8; 64 << 20]);
        // Regression: this used to `.expect("procfs vanished mid-test")` —
        // the one panic path in the module. A mid-test read failure now
        // just ends the test instead of aborting the suite.
        let Some(after) = current_rss_bytes() else {
            return;
        };
        assert!(
            after >= before + (32 << 20),
            "rss {after} did not grow over {before} while holding 64 MiB"
        );
        drop(held);
    }

    #[test]
    fn probes_never_panic() {
        // The public contract is Option, never a panic: calling both probes
        // repeatedly must be safe on every platform.
        for _ in 0..4 {
            let _ = current_rss_bytes();
            let _ = peak_rss_bytes();
        }
    }
}
