//! Moving the calling thread from CPU to CPU between repetitions.
//!
//! On a shared host one CPU can run the engine at half speed for minutes
//! while another tenant loads the core beneath it, and the other CPU at
//! full speed at the same time. A single-threaded workload keeps its CPU
//! for that long, so without moving it a whole run can sit on the slow one.

/// `cpu_set_t` of glibc: a bit mask of 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on when it is made. It pins the
/// thread to one of them at a time and gives it all of them back when
/// dropped.
pub struct Rotation {
    allowed: CpuSet,
    cpus: Vec<usize>,
}

impl Rotation {
    /// The calling thread's CPUs. If they cannot be read, the rotation is
    /// empty and [`Rotation::pin`] leaves the thread where it is.
    pub fn new() -> Rotation {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a live, exclusively borrowed mask of the
        // size passed; pid 0 is the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } == 0;
        let cpus = if ok {
            (0..allowed.len() * 64)
                .filter(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
                .collect()
        } else {
            Vec::new()
        };
        Rotation { allowed, cpus }
    }

    /// Pin the calling thread to the `i`-th CPU, counting round the
    /// rotation. Returns that CPU, or `None` when the thread stays where it
    /// is.
    pub fn pin(&self, i: usize) -> Option<usize> {
        let cpu = *self.cpus.get(i % self.cpus.len().max(1))?;
        let mut mask: CpuSet = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        set(&mask).then_some(cpu)
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        if !self.cpus.is_empty() {
            set(&self.allowed);
        }
    }
}

fn set(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a live mask of the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
}
