//! Records the compiler version and build profile in the binary, so
//! every result can be stamped with the toolchain that produced it.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .unwrap_or_default();
    let version = version.trim();
    let version = if version.is_empty() {
        "unknown"
    } else {
        version
    };
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
