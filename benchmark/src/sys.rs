//! The few operating-system facts the benchmark needs: which CPUs it may
//! run on (and pinning to one of them), process CPU time, peak resident
//! memory and free disk space.
//!
//! The libc symbols are declared by hand, in the style of
//! `mpisim::cputime`: the build is hermetic, so there is no `libc` crate.
//! Layouts are the Linux LP64 ABI (x86_64, aarch64). Off Linux every
//! function reports "unknown" and the sim-backed timings are marked
//! unresolved instead of being printed bimodal.

use std::path::Path;
use std::time::Duration;

/// Bytes in the affinity mask handed to the kernel: room for 1024 CPUs.
const MASK_BYTES: usize = 128;

#[cfg(target_os = "linux")]
mod ffi {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
        pub fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
        pub fn statvfs(path: *const std::ffi::c_char, buf: *mut u64) -> i32;
    }
}

/// CPUs the calling thread may run on, ascending. Empty when unknown.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u8; MASK_BYTES];
        // SAFETY: `mask` is writable for the MASK_BYTES passed; pid 0 is
        // the calling thread.
        let rc = unsafe { ffi::sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) };
        if rc == 0 {
            return (0..MASK_BYTES * 8)
                .filter(|cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
                .collect();
        }
    }
    Vec::new()
}

/// Restrict the calling thread — and every thread it spawns afterwards —
/// to `cpus`. Returns whether the kernel accepted the mask.
pub fn set_cpus(cpus: &[usize]) -> bool {
    #[cfg(target_os = "linux")]
    if !cpus.is_empty() {
        let mut mask = [0u8; MASK_BYTES];
        for &cpu in cpus.iter().filter(|&&cpu| cpu < MASK_BYTES * 8) {
            mask[cpu / 8] |= 1 << (cpu % 8);
        }
        // SAFETY: `mask` is readable for the MASK_BYTES passed; pid 0 is
        // the calling thread.
        return unsafe { ffi::sched_setaffinity(0, MASK_BYTES, mask.as_ptr()) } == 0;
    }
    let _ = cpus;
    false
}

/// The CPUs this process started with, and where the benchmark puts its
/// threads. A thread inherits the mask of the thread that spawns it.
///
/// Sim-backed work runs on one CPU: the `mpisim` scheduler is bimodal
/// when its rank threads migrate. The `serve_*` workloads split the
/// machine: the daemon's threads share the second allowed CPU, the
/// client threads the first, so neither side's placement is left to the
/// host scheduler and a run does not saturate every CPU it may use.
pub struct Pinning {
    all: Vec<usize>,
}

impl Pinning {
    pub fn detect() -> Pinning {
        Pinning {
            all: allowed_cpus(),
        }
    }

    /// CPUs available to the benchmark (0 when unknown).
    pub fn nproc(&self) -> usize {
        self.all.len()
    }

    /// Pin to the first allowed CPU: sims, library probes, clients.
    /// False when pinning is impossible.
    pub fn one(&self) -> bool {
        self.all.first().is_some_and(|&cpu| set_cpus(&[cpu]))
    }

    /// Pin to the CPU the daemon's threads run on: the second allowed
    /// one, or the only one.
    pub fn daemon(&self) -> bool {
        let cpu = self.all.get(1).or(self.all.first());
        cpu.is_some_and(|&cpu| set_cpus(&[cpu]))
    }

    /// Back to every CPU the process started with.
    pub fn all(&self) -> bool {
        set_cpus(&self.all)
    }
}

/// User + system CPU time of the whole process so far.
pub fn process_cpu() -> Duration {
    #[cfg(target_os = "linux")]
    {
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = ffi::Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec and the clock id is
        // a constant every Linux kernel supports.
        if unsafe { ffi::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32);
        }
    }
    Duration::ZERO
}

/// Peak resident set of this process in MiB (`VmHWM`), if the kernel
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Bytes an unprivileged process may still write under `path`, if known.
pub fn free_bytes(path: &Path) -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::ffi::OsStrExt;
        let c_path = std::ffi::CString::new(path.as_os_str().as_bytes()).ok()?;
        // struct statvfs on LP64 Linux is eleven unsigned longs followed
        // by six ints: 112 bytes. f_frsize is word 1, f_bavail word 4.
        let mut buf = [0u64; 14];
        // SAFETY: `c_path` is NUL-terminated and `buf` is writable for
        // the 112 bytes the kernel fills.
        if unsafe { ffi::statvfs(c_path.as_ptr(), buf.as_mut_ptr()) } == 0 {
            return buf[1].checked_mul(buf[4]);
        }
    }
    let _ = path;
    None
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pin_to_one_cpu_and_back() {
        let pin = Pinning::detect();
        assert!(pin.nproc() >= 1);
        assert!(pin.one());
        assert_eq!(allowed_cpus().len(), 1);
        assert!(pin.daemon());
        assert_eq!(allowed_cpus().len(), 1);
        assert!(pin.all());
        assert_eq!(allowed_cpus().len(), pin.nproc());
    }

    #[test]
    fn process_cpu_advances_with_work() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i) * i);
        }
        std::hint::black_box(x);
        assert!(process_cpu() > before);
    }

    #[test]
    fn memory_and_disk_are_reported() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        assert!(free_bytes(Path::new("/")).expect("statvfs") > 0);
    }
}
