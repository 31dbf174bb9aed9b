//! The host the numbers were taken on, and where the benchmark may write.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repository root")
        .to_path_buf()
}

/// Scratch directory, relative to the repository root (the process runs
/// with the root as its working directory, which keeps the daemon's Unix
/// socket path short of the 108-byte `sun_path` limit however deep the
/// checkout sits). On the repository's own filesystem so that the journal's
/// `fsync` is a real one.
pub const WORK_DIR: &str = "benchmark/.work";

/// Creates and returns a fresh subdirectory of [`WORK_DIR`].
///
/// # Errors
///
/// The directory cannot be created.
pub fn fresh_work_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = Path::new(WORK_DIR).join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_owned)
    })?
}

/// `rustc --version`, or `unknown`.
pub fn rustc_version() -> String {
    first_line_of(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".to_owned())
}

/// The checked-out commit (with `-dirty` when the tree has changes), or
/// `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let Some(head) = first_line_of(Command::new("git").args(["rev-parse", "HEAD"])) else {
        return "unknown".to_owned();
    };
    let dirty = Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output()
        .is_ok_and(|o| !o.stdout.is_empty());
    if dirty {
        format!("{head}-dirty")
    } else {
        head
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, from `/proc`.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
