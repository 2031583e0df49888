//! Host facts, process memory and the scratch directory captures are
//! written to.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Peak resident set size of this process so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Start a fresh peak: return the allocator's free pages to the kernel
/// (glibc `malloc_trim`), then reset the peak resident set size
/// (`VmHWM`) to the resident size left, so that `peak_rss_mb` reads the
/// live heap's peak since the reset rather than what earlier work left
/// cached. Returns false where the kernel refuses the reset;
/// `peak_rss_mb` then keeps reading the peak since the process started.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases free
        // heap pages; glibc allows it at any time, from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!s.is_empty()).then_some(s)
}

/// The facts recorded next to every result.
pub fn facts() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        (
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "commit",
            command_line("git", &["rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(|| "unknown (not a git checkout)".into()),
        ),
    ]
}

/// Free space on the file system holding `dir`, in MB, from `df`.
pub fn free_mb(dir: &Path) -> Option<u64> {
    let out = command_line("df", &["-Pk", dir.to_str()?])?;
    let kb: u64 = out
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(kb / 1024)
}

/// This process's file-size limit (`RLIMIT_FSIZE`), in MB, or `None`
/// when unlimited or unreadable. A write past it kills the process with
/// `SIGXFSZ`.
pub fn file_size_limit_mb() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let soft = limits
        .lines()
        .find_map(|l| l.strip_prefix("Max file size"))?
        .split_whitespace()
        .next()?;
    soft.parse::<u64>().ok().map(|b| b / 1_000_000)
}

/// A directory under the working directory that is removed when
/// dropped, on success, on error returns and while unwinding a panic.
pub struct ScratchDir {
    path: PathBuf,
}

/// Parent of every scratch directory (listed in `.gitignore`).
pub const SCRATCH_ROOT: &str = ".perfbench_tmp";

impl ScratchDir {
    /// Create `.perfbench_tmp/<label>-<pid>` and check that it has at
    /// least `need_mb` MB free.
    pub fn create(label: &str, need_mb: u64) -> Result<ScratchDir, String> {
        let path = PathBuf::from(SCRATCH_ROOT).join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let dir = ScratchDir { path };
        match free_mb(&dir.path) {
            Some(free) if free < need_mb => Err(format!(
                "only {free} MB free under {}, the run writes up to {need_mb} MB",
                dir.path.display()
            )),
            Some(_) => Ok(dir),
            None => Err("cannot read free disk space (df failed)".into()),
        }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Removes the parent too once no other run is using it.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}
