//! Small helpers: the seeded generator, host facts, and child processes.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// SplitMix64: every generated input derives from the run's `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A fresh, empty directory under the run's work directory.
pub fn fresh_dir(root: &Path, name: &str) -> PathBuf {
    let d = root.join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create a work directory inside the checkout");
    d
}

/// Median wall time of 200 calls of `call`, in microseconds (the
/// benchmark's round-trip probe).
pub fn median_us(mut call: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut v = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        call()?;
        v.push(us(t.elapsed()));
    }
    Ok(crate::stats::median(&v))
}

/// One busy thread per CPU at the `SCHED_IDLE` policy, for as long as it
/// is alive. A virtual CPU with nothing to run halts, and waking it costs
/// the hypervisor a tenth of a millisecond or more per wake-up, several
/// times that while the shared host is busy; a durable write crosses three
/// processes and several threads, so those wake-ups were a third of its
/// latency and most of its run-to-run spread. The spinners keep the CPUs
/// from halting. `SCHED_IDLE` threads run only when nothing else wants the
/// CPU, and a waking thread preempts them at once.
pub struct IdleSpinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl IdleSpinners {
    pub fn start(n: usize) -> Result<IdleSpinners, String> {
        let mut spinners = IdleSpinners {
            stop: Arc::new(AtomicBool::new(false)),
            threads: Vec::with_capacity(n),
        };
        for _ in 0..n {
            let stop = Arc::clone(&spinners.stop);
            let (tx, rx) = mpsc::channel();
            spinners.threads.push(std::thread::spawn(move || {
                let idle = set_sched_idle();
                let ok = idle.is_ok();
                let _ = tx.send(idle);
                while ok && !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }));
            // On an error, dropping `spinners` stops the ones started.
            rx.recv()
                .map_err(|_| "idle spinner thread died".to_string())??;
        }
        Ok(spinners)
    }
}

/// Put the calling thread under `SCHED_IDLE` (`chrt --idle --pid 0 <tid>`).
fn set_sched_idle() -> Result<(), String> {
    let tid = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse::<u32>().ok())
        .ok_or("no thread id in /proc/thread-self")?;
    let status = Command::new("chrt")
        .args(["--idle", "--pid", "0", &tid.to_string()])
        .status()
        .map_err(|e| format!("chrt: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("chrt --idle for thread {tid}: {status}"))
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A server child process: this binary re-run in one of its `serve-*`
/// modes. It prints `LISTEN <addr>` once it accepts connections and
/// stops when asked over the wire or when its stdin closes.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: String,
}

impl ServerProc {
    pub fn spawn(args: &[&str]) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {args:?}: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut proc = ServerProc {
            child,
            stdin,
            addr: String::new(),
        };
        match (read, line.trim().strip_prefix("LISTEN ")) {
            (Ok(_), Some(addr)) => {
                proc.addr = addr.to_string();
                Ok(proc)
            }
            _ => Err(format!("{args:?} did not start: {line:?}")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Close the child's stdin (its stop signal) and wait for it to exit,
    /// killing it if it has not ended within `grace`.
    pub fn stop(mut self, grace: Duration) -> bool {
        self.stdin.take();
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return false;
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Error paths: never leave a server running.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
