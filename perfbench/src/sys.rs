//! Process and machine facts: allocation counts, peak resident set
//! size, and the machine descriptor every result carries.

use std::path::Path;

/// A counting wrapper around the system allocator: one relaxed atomic
/// per allocation, read around the warts decode to report
/// allocations per record.
pub mod counting_alloc {
    #![allow(unsafe_code)]

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// Forwards to [`System`], counting calls.
    pub struct CountingAlloc;

    // SAFETY: defers every allocation verbatim to `System`; the only
    // addition is a relaxed counter increment, which allocates nothing.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Allocation calls since process start.
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// Returning freed heap memory to the kernel.
pub mod heap {
    #![allow(unsafe_code)]

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }

    /// Releases the free memory of every malloc arena (glibc
    /// `malloc_trim`), so the resident set holds the live data and not
    /// what earlier work happened to leave behind; a no-op elsewhere.
    pub fn trim() {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        // SAFETY: malloc_trim only returns free pages to the kernel; it
        // touches no live allocation and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so
/// the next [`peak_rss_mb`] covers only what follows. Returns whether
/// the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// This process's peak resident set size (`VmHWM`), MiB; 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine a result was measured on.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Threads the process may run on.
    pub nproc: usize,
    /// `/proc/cpuinfo` model name.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
}

impl Machine {
    /// Reads the descriptor from the running system.
    pub fn detect() -> Machine {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
        }
    }
}

/// The git revision of the checkout under `root`, read from `.git`
/// without running git; `"unknown"` outside a repository.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
