//! `twob` reads and writes the checkout it runs in, found from the working
//! directory, never the checkout it was built in: a copied binary run in
//! a scratch checkout writes there and leaves this one alone.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Mutex;
use std::time::SystemTime;

/// Held while a binary is copied or started: a child forked by another
/// test while a copy is open for writing would keep it open, and starting
/// that copy would fail with "text file busy".
static EXEC: Mutex<()> = Mutex::new(());

/// A scratch checkout — a workspace manifest beside `crates/bench`, with
/// no fixture directory — holding a copy of the built `twob`; removed on
/// drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let root = std::env::temp_dir().join(format!("twob-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/bench/src")).unwrap();
        fs::write(
            root.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n",
        )
        .unwrap();
        let _exec = EXEC.lock().unwrap_or_else(|e| e.into_inner());
        fs::copy(env!("CARGO_BIN_EXE_twob"), root.join("twob")).unwrap();
        Scratch(root)
    }

    /// Runs the copied `twob` with `args` from `dir` under the checkout.
    fn run(&self, dir: &str, args: &[&str]) -> Output {
        let _exec = EXEC.lock().unwrap_or_else(|e| e.into_inner());
        Command::new(self.0.join("twob"))
            .args(args)
            .current_dir(self.0.join(dir))
            .output()
            .unwrap()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A file of the checkout this test was built in, and when it last changed.
fn built(file: &str) -> (PathBuf, SystemTime) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    let modified = fs::metadata(&path).unwrap().modified().unwrap();
    (path, modified)
}

#[test]
fn regen_writes_the_working_checkouts_fixtures() {
    // No fixture directory: the first write fails and names where it aimed.
    let scratch = Scratch::new("regen");
    let (fixture, before) = built("crates/bench/tests/golden/fig7_latency.json");
    // From a subdirectory: the root is found by walking up.
    let out = scratch.run("crates/bench/src", &["regen"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let aimed = scratch
        .0
        .join("crates/bench/tests/golden/fig7_latency.json");
    assert!(stderr.contains(&*aimed.to_string_lossy()), "{stderr}");
    assert_eq!(fs::metadata(&fixture).unwrap().modified().unwrap(), before);
}

#[test]
fn outside_a_checkout_nothing_is_written() {
    let scratch = Scratch::new("outside");
    fs::remove_file(scratch.0.join("Cargo.toml")).unwrap();
    let out = scratch.run(".", &["regen"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("is not inside a twob checkout"), "{stderr}");
}
