//! CPU pinning for the latency-bound slider phases (Linux).
//!
//! A warm slider move costs the server a few microseconds, so its
//! round trip is dominated by how the scheduler places the client and
//! the server's connection thread: on one CPU the reply is a direct
//! hand-off, on two CPUs it is a cross-CPU wake-up, and the mix of the
//! two changes from run to run. Pinning each client thread and the
//! server thread that serves its connection to the same CPU fixes the
//! placement, so run-to-run differences reflect the program rather than
//! the scheduler. Where pinning is unavailable the benchmark runs
//! unpinned and says so.

use std::collections::BTreeSet;

/// A CPU set as the kernel's `cpu_set_t` (1024 bits).
type CpuSet = [u64; 16];

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
}

/// The calling thread's kernel thread id.
#[must_use]
pub fn current_tid() -> Option<i32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Every thread id of this process.
#[must_use]
pub fn threads() -> BTreeSet<i32> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// The CPUs thread `tid` may run on.
#[must_use]
pub fn allowed(tid: i32) -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size
    // passed, which is what sched_getaffinity requires.
    let rc = unsafe { sched_getaffinity(tid, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restrict thread `tid` to `cpus`. Returns whether the kernel agreed.
pub fn set(tid: i32, cpus: &[usize]) -> bool {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 1024) {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a live, initialized buffer of exactly the size
    // passed; the kernel only reads it.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &set) };
    rc == 0
}

/// Pin the calling thread to `cpu`.
pub fn pin_current(cpu: usize) -> bool {
    current_tid().is_some_and(|tid| set(tid, &[cpu]))
}

/// Run `f` and return the one thread it left behind, if exactly one
/// appeared (the server thread of a connection `f` opened and used).
pub fn spawned_during<R>(f: impl FnOnce() -> R) -> (R, Option<i32>) {
    let before = threads();
    let out = f();
    let new: Vec<i32> = threads().difference(&before).copied().collect();
    (out, (new.len() == 1).then(|| new[0]))
}

/// The calling thread and one server thread, pinned together to one
/// CPU on demand and released back to the calling thread's mask.
#[derive(Debug, Clone)]
pub struct Pair {
    client: i32,
    server: i32,
    original: Vec<usize>,
}

impl Pair {
    /// A pair of the calling thread and `server`, when both are known.
    #[must_use]
    pub fn new(server: Option<i32>) -> Option<Pair> {
        let client = current_tid()?;
        let original = allowed(client);
        (!original.is_empty()).then_some(Pair {
            client,
            server: server?,
            original,
        })
    }

    /// Pin both threads to the first allowed CPU.
    pub fn pin(&self) -> bool {
        let cpu = [self.original[0]];
        set(self.client, &cpu) & set(self.server, &cpu)
    }

    /// Give both threads the calling thread's original mask back.
    pub fn release(&self) {
        set(self.client, &self.original);
        set(self.server, &self.original);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_round_trips_through_the_kernel() {
        let tid = current_tid().expect("thread id");
        let before = allowed(tid);
        assert!(!before.is_empty());
        assert!(threads().contains(&tid));
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(pin_current(before[0]));
                let me = current_tid().expect("thread id");
                assert_eq!(allowed(me), vec![before[0]]);
            });
        });
        assert_eq!(allowed(tid), before, "other threads keep their mask");
    }
}
