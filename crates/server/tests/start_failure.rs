//! A server whose event loop fails to start leaves no thread of its own
//! running: `CacheServer::start` stops and joins the control thread and
//! the loops already spawned before it returns the error.
//!
//! The test re-executes itself under a 64-descriptor limit, leaves five
//! descriptors free and starts a four-loop server. The listener takes one
//! and each loop two (its eventfd and epoll instance), so two loops start
//! and the third cannot get its eventfd.

use cache_server::{CacheServer, ServerConfig};
use std::fs::File;
use std::time::{Duration, Instant};

const CHILD: &str = "START_FAILURE_CHILD";
const EMFILE: i32 = 24;

/// The names of this process's threads that start with `prefix`. A thread
/// that exits while they are read is left out.
fn threads_named(prefix: &str) -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with(prefix))
        .collect()
}

#[test]
fn a_loop_that_fails_to_start_leaves_no_thread_running() {
    let name = "a_loop_that_fails_to_start_leaves_no_thread_running";
    if std::env::var_os(CHILD).is_none() {
        let status = std::process::Command::new("sh")
            .args([
                "-c",
                "ulimit -n 64 && exec \"$0\" --exact \"$1\" --nocapture",
            ])
            .arg(std::env::current_exe().unwrap())
            .arg(name)
            .env(CHILD, "1")
            .status()
            .expect("re-executing the test binary");
        assert!(status.success(), "the run under a descriptor limit failed");
        return;
    }
    let mut held = Vec::new();
    while let Ok(file) = File::open("/dev/null") {
        held.push(file);
    }
    held.truncate(held.len() - 5);
    let started = CacheServer::start(ServerConfig::default());
    let error = started.err().expect("a loop has no descriptor left");
    assert_eq!(error.raw_os_error(), Some(EMFILE), "{error}");
    // Reading the thread names takes descriptors of its own.
    drop(held);
    // A joined thread may still be listed for a moment while it exits.
    let deadline = Instant::now() + Duration::from_secs(2);
    while !threads_named("cache-").is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads_named("cache-"), Vec::<String>::new());
}
