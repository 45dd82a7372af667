//! A bench bin refuses a bad command line before it prints anything: exit
//! status 2, an empty stdout, and stderr naming the flag. (The banner used
//! to come first, and a malformed `wallclock --cache-rows` panicked under
//! it with exit status 101.)

use std::process::Command;

fn refused(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("run the bench bin");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stdout.is_empty(),
        "{args:?} printed before refusing: {stdout}"
    );
    assert!(
        stderr.contains(flag),
        "{args:?}: stderr does not name {flag}: {stderr}"
    );
}

#[test]
fn wallclock_refuses_malformed_tier_flags_before_its_banner() {
    let bin = env!("CARGO_BIN_EXE_wallclock");
    refused(bin, &["--cache-rows", "abc"], "`--cache-rows`");
    refused(
        bin,
        &["--cache-rows", "8", "--cache-mode", "lru"],
        "`--cache-mode`",
    );
    refused(bin, &["--storage-rows", "x"], "`--storage-rows`");
}

#[test]
fn sweeps_refuse_before_their_banners() {
    refused(
        env!("CARGO_BIN_EXE_cache_sweep"),
        &["--bogus", "1"],
        "`--bogus`",
    );
    refused(
        env!("CARGO_BIN_EXE_storage_sweep"),
        &["--bogus", "1"],
        "`--bogus`",
    );
    refused(
        env!("CARGO_BIN_EXE_multinode_sweep"),
        &["--trace"],
        "`--trace`",
    );
}
