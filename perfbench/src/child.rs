//! Child processes of this benchmark: the daemon a daemon workload
//! drives, and the one-pass sweeps whose peak RSS a sweep workload
//! reports. Each is this same executable, started with `--child`.
//!
//! A child is always waited for: [`Child::finish`] waits (killing it
//! after a grace period), and dropping a child that is still running
//! kills and reaps it.

use std::io::{BufRead, BufReader};
use std::process::{ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// A running child process whose standard output the parent reads.
pub struct Child {
    proc: Option<std::process::Child>,
    stdout: BufReader<ChildStdout>,
}

impl Child {
    /// Starts this executable with `args`.
    pub fn spawn(args: &[String]) -> Result<Child, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
        let mut proc = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn child: {e}"))?;
        let stdout = proc.stdout.take().ok_or("child without stdout")?;
        Ok(Child {
            proc: Some(proc),
            stdout: BufReader::new(stdout),
        })
    }

    /// The next line the child printed (without its newline).
    pub fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("child exited before answering".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("read child: {e}")),
        }
    }

    /// Peak resident set size of the child in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let pid = self.proc.as_ref()?.id();
        crate::stats::peak_rss_mb_of(&format!("/proc/{pid}/status"))
    }

    /// Waits up to `grace` for the child to exit, then kills it; always
    /// reaps it.
    pub fn finish(mut self, grace: Duration) -> Result<ExitStatus, String> {
        let mut proc = self.proc.take().ok_or("child already finished")?;
        let deadline = Instant::now() + grace;
        loop {
            match proc.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = proc.kill();
                    let _ = proc.wait();
                    return Err("child did not exit in time; killed".into());
                }
            }
        }
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        if let Some(mut proc) = self.proc.take() {
            let _ = proc.kill();
            let _ = proc.wait();
        }
    }
}
