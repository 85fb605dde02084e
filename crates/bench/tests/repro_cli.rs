//! The `repro` and `graphgen` binaries' contracts, driven as a process:
//! everything `repro` writes is `--jobs`-invariant, and a failed write
//! fails the run of either.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory under the OS temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn repro(experiment: &str, jobs: &str, out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([experiment, "--scale", "0.02", "--jobs", jobs, "--out"])
        .arg(out)
        .output()
        .expect("spawn repro")
}

/// File name → bytes of everything directly under `dir`.
fn artifacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("read output dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("read artifact"))
        })
        .collect()
}

#[test]
fn output_directory_is_byte_identical_at_any_job_count() {
    for experiment in ["table5", "giant"] {
        let scratch = Scratch::new(experiment);
        let outputs = ["1", "2"].map(|jobs| {
            let out = scratch.0.join(format!("jobs{jobs}"));
            let run = repro(experiment, jobs, &out);
            assert!(run.status.success(), "{experiment} --jobs {jobs}: {run:?}");
            artifacts(&out)
        });
        let names: Vec<&String> = outputs[0].keys().collect();
        assert_eq!(
            names,
            [&format!("{experiment}.csv"), &format!("{experiment}.md")]
        );
        // Same file list, same bytes — and no host-clock file to exclude.
        assert_eq!(outputs[0], outputs[1], "{experiment}");
    }
}

#[test]
fn a_failed_write_fails_the_run() {
    let scratch = Scratch::new("badout");
    let file = scratch.0.join("regular-file");
    std::fs::write(&file, b"not a directory").expect("write blocker file");
    let run = repro("table1", "1", &file.join("out"));
    assert!(
        !run.status.success(),
        "exit status must be non-zero: {run:?}"
    );
    // The table itself was still computed and printed.
    assert!(String::from_utf8_lossy(&run.stdout).contains("Table 1"));
    assert!(String::from_utf8_lossy(&run.stderr).contains("could not write table1"));
}

/// `graphgen` reports a write it lost: the buffered tail fails on flush.
#[test]
fn graphgen_failed_write_fails_the_run() {
    if !Path::new("/dev/full").exists() {
        return;
    }
    let run = Command::new(env!("CARGO_BIN_EXE_graphgen"))
        .args(["rodinia4096", "--scale", "0.001", "--format", "snap"])
        .args(["--out", "/dev/full"])
        .output()
        .expect("spawn graphgen");
    assert!(
        !run.status.success(),
        "exit status must be non-zero: {run:?}"
    );
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("error: write failed"), "{stderr}");
    assert!(!stderr.contains("wrote"), "{stderr}");
}

#[test]
fn graphgen_out_without_a_value_is_a_usage_error() {
    let run = Command::new(env!("CARGO_BIN_EXE_graphgen"))
        .args(["rodinia4096", "--out"])
        .output()
        .expect("spawn graphgen");
    assert!(
        !run.status.success(),
        "exit status must be non-zero: {run:?}"
    );
    assert!(String::from_utf8_lossy(&run.stderr).contains("--out needs a value"));
}
