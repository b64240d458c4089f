//! What the kernel says about this process from outside the code under
//! test: resident memory, and per-thread CPU time, read/write system calls
//! and voluntary context switches, keyed by thread name.
//!
//! A field the sandbox hides stays `None` with the reason kept in
//! [`TaskSample::hidden`]; it is never reported as 0.

use std::collections::BTreeMap;
use std::fs;

/// Counters of one thread at one instant.
#[derive(Clone, Debug, Default)]
pub struct TaskSample {
    /// Nanoseconds on a CPU (`schedstat`, else `stat` ticks at 100 Hz).
    pub cpu_ns: Option<u64>,
    /// `syscr + syscw` of `io`.
    pub syscalls: Option<u64>,
    /// `voluntary_ctxt_switches` of `status`.
    pub wakeups: Option<u64>,
    /// Why a field above is `None`.
    pub hidden: Vec<String>,
}

/// All threads of this process at one instant, by thread name. Threads that
/// share a name (there are none among the server's) are summed.
pub type Snapshot = BTreeMap<String, TaskSample>;

/// The first number after `name` at the start of a line.
fn field(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        line.strip_prefix(name)?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    })
}

fn read_task(dir: &str) -> TaskSample {
    let mut sample = TaskSample::default();
    let read = |file: &str| {
        fs::read_to_string(format!("{dir}/{file}")).map_err(|e| format!("{file}: {e}"))
    };
    match read("schedstat") {
        Ok(text) => sample.cpu_ns = text.split_whitespace().next().and_then(|v| v.parse().ok()),
        Err(why) => sample.hidden.push(why),
    }
    if sample.cpu_ns.is_none() {
        // utime and stime are the 14th and 15th fields; the thread name in
        // parentheses may hold spaces, so count from the closing one.
        match read("stat") {
            Ok(text) => {
                let rest = text.rsplit_once(')').map_or("", |(_, rest)| rest);
                let ticks: Vec<u64> = rest
                    .split_whitespace()
                    .skip(11)
                    .take(2)
                    .filter_map(|v| v.parse().ok())
                    .collect();
                if ticks.len() == 2 {
                    sample.cpu_ns = Some((ticks[0] + ticks[1]) * 10_000_000);
                }
            }
            Err(why) => sample.hidden.push(why),
        }
    }
    match read("io") {
        Ok(text) => {
            sample.syscalls = field(&text, "syscr:")
                .zip(field(&text, "syscw:"))
                .map(|(r, w)| r + w);
        }
        Err(why) => sample.hidden.push(why),
    }
    match read("status") {
        Ok(text) => sample.wakeups = field(&text, "voluntary_ctxt_switches:"),
        Err(why) => sample.hidden.push(why),
    }
    sample
}

fn add(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    a.zip(b).map(|(a, b)| a + b)
}

/// Samples every live thread of this process.
pub fn snapshot() -> Snapshot {
    let mut out = Snapshot::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let dir = task.path().to_string_lossy().into_owned();
        let Ok(name) = fs::read_to_string(format!("{dir}/comm")) else {
            continue; // the thread ended between readdir and open
        };
        let sample = read_task(&dir);
        match out.entry(name.trim().to_string()) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(sample);
            }
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                let have = slot.get_mut();
                have.cpu_ns = add(have.cpu_ns, sample.cpu_ns);
                have.syscalls = add(have.syscalls, sample.syscalls);
                have.wakeups = add(have.wakeups, sample.wakeups);
                have.hidden.extend(sample.hidden);
            }
        }
    }
    out
}

/// The calling thread's counters (client threads sample themselves at the
/// edges of a phase, since they do not outlive it).
pub fn this_thread() -> TaskSample {
    read_task("/proc/thread-self")
}

/// `after - before` of one counter, summed over the threads whose name
/// starts with `prefix`. `Err` carries the reason when the counter is
/// hidden or no such thread exists.
pub fn delta(
    before: &Snapshot,
    after: &Snapshot,
    prefix: &str,
    counter: fn(&TaskSample) -> Option<u64>,
) -> Result<u64, String> {
    let mut total = 0u64;
    let mut seen = false;
    for (name, late) in after.iter().filter(|(name, _)| name.starts_with(prefix)) {
        let early = before
            .get(name)
            .ok_or_else(|| format!("thread {name} started inside the phase"))?;
        match (counter(early), counter(late)) {
            (Some(a), Some(b)) => total += b.saturating_sub(a),
            _ => return Err(late.hidden.join("; ")),
        }
        seen = true;
    }
    if seen {
        Ok(total)
    } else {
        Err(format!("no thread named {prefix}*"))
    }
}

/// Resident set size of this process in bytes (`VmRSS`).
pub fn rss_bytes() -> Result<u64, String> {
    let text = fs::read_to_string("/proc/self/status").map_err(|e| format!("status: {e}"))?;
    field(&text, "VmRSS:")
        .map(|kb| kb * 1024)
        .ok_or_else(|| "VmRSS missing from /proc/self/status".to_string())
}

/// How much the resident set grew from `base` to `end`, in MiB.
pub fn rss_growth_mb(base: Result<u64, String>, end: Result<u64, String>) -> Result<f64, String> {
    Ok(end?.saturating_sub(base?) as f64 / (1u64 << 20) as f64)
}

/// Kernel release and CPU count, for the conditions block of a result.
pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a writable `struct timespec`; both clock ids exist
    // on every Linux this benchmark can run on, so the call cannot fail.
    unsafe { clock_gettime(clock, &mut time) };
    time.sec as u64 * 1_000_000_000 + time.nsec as u64
}

/// Nanoseconds the calling thread has spent on a CPU. Time the hypervisor
/// gave to another guest, or the scheduler to another thread, is not in it.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Nanoseconds all threads of this process together have spent on a CPU.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Pins the calling thread, and so every thread it starts from now on, to
/// the highest-numbered CPU it may run on, and returns that CPU.
///
/// In a small VM a wake-up that crosses virtual CPUs costs an inter-
/// processor interrupt and an exit to the hypervisor. Whether the scheduler
/// puts a client and the server loop it talks to on one CPU or on two then
/// swings throughput by 2.5x from run to run; with client and server on one
/// CPU every run takes the same, cheaper, path.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    const WORDS: usize = 16; // room for 1024 CPUs
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is writable and exactly `size_of_val(&allowed)`
    // bytes long; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or("sched_getaffinity: empty CPU set")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is readable and exactly `size_of_val(&one)` bytes long.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// What a result says about pinning.
pub fn pin_note(pinned: &Result<usize, String>) -> String {
    match pinned {
        Ok(cpu) => format!("all threads pinned to CPU {cpu} of {}", nproc()),
        Err(why) => format!("threads are NOT pinned to one CPU, expect noise: {why}"),
    }
}

/// CPUs the machine has online, whatever this process is pinned to.
pub fn nproc() -> usize {
    fs::read_to_string("/proc/cpuinfo")
        .map(|text| text.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sees_named_threads_and_deltas_grow() {
        use std::sync::mpsc::channel;
        let (to_worker, from_main) = channel::<()>();
        let (to_main, from_worker) = channel::<()>();
        let worker = std::thread::Builder::new()
            .name("probe-spin".to_string())
            .spawn(move || {
                to_main.send(()).unwrap(); // alive and named
                from_main.recv().unwrap(); // first snapshot taken
                let mut x = 0u64;
                for i in 0..20_000_000u64 {
                    x = std::hint::black_box(x.wrapping_add(i));
                }
                to_main.send(()).unwrap(); // work done
                from_main.recv().unwrap(); // second snapshot taken
            })
            .unwrap();
        from_worker.recv().unwrap();
        let before = snapshot();
        to_worker.send(()).unwrap();
        from_worker.recv().unwrap();
        let after = snapshot();
        to_worker.send(()).unwrap();
        worker.join().unwrap();
        assert!(before.contains_key("probe-spin"));
        match delta(&before, &after, "probe-spin", |t| t.cpu_ns) {
            Ok(ns) => assert!(ns > 0, "a spinning thread uses CPU"),
            Err(why) => assert!(!why.is_empty(), "a hidden field must say why"),
        }
        assert!(delta(&before, &after, "no-such-thread", |t| t.cpu_ns).is_err());
    }

    #[test]
    fn cpu_clocks_count_work_and_not_sleep() {
        let (thread, process) = (thread_cpu_ns(), process_cpu_ns());
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_cpu_ns() - thread;
        assert!(
            slept < 20_000_000,
            "a sleeping thread used {slept} ns of CPU"
        );
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let worked = thread_cpu_ns() - thread - slept;
        assert!(worked > 0, "a spinning thread used no CPU");
        assert!(process_cpu_ns() - process >= worked);
    }

    #[test]
    fn rss_is_reported_in_bytes() {
        assert!(rss_bytes().unwrap() > 1 << 20);
    }
}
