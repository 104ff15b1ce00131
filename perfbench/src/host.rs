//! The host a result was measured on, and its memory high-water mark.

use std::path::Path;

/// Identity of the measuring host and of the code measured.
#[derive(Clone, Debug)]
pub struct HostInfo {
    /// CPUs available to this process.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
    /// Git commit of the checkout, when it is a git work tree.
    pub commit: String,
    /// FNV-1a digest of the workspace sources (`Cargo.toml`,
    /// `Cargo.lock`, `crates/`, `examples/omini/`), which identifies the
    /// code even in a checkout without git metadata.
    pub source_digest: String,
}

/// CPUs available to this process (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl HostInfo {
    /// Collects the host description; `root` is the checkout root.
    pub fn collect(root: &Path) -> HostInfo {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        HostInfo {
            nproc: nproc(),
            cpu_model,
            rustc,
            commit: git_commit(root).unwrap_or_else(|| "none".into()),
            source_digest: format!("{:016x}", source_digest(root)),
        }
    }

    /// The description as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"source_digest\":\"{}\"}}",
            self.nproc,
            escape(&self.cpu_model),
            escape(&self.rustc),
            escape(&self.commit),
            self.source_digest
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .collect::<String>()
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
}

/// Reads `HEAD` from `root/.git` without running git (which would
/// search parent directories outside the checkout).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for name in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(name));
    }
    for dir in ["crates", "examples/omini"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.sort();
    // One file at a time, so the sources never sit on the heap at once
    // (the heap's high-water mark is a metric).
    let mut hash = crate::stats::fnv1a(&[]);
    for file in files {
        if let Ok(content) = std::fs::read(&file) {
            let name = file.strip_prefix(root).unwrap_or(&file).to_string_lossy();
            hash = crate::stats::fnv1a_extend(hash, name.as_bytes());
            hash = crate::stats::fnv1a_extend(hash, &content);
        }
    }
    hash
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), for the
/// latency line. It is not a metric: glibc's heap layout, and so the
/// resident size, changes between identical runs (see `README.md`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
