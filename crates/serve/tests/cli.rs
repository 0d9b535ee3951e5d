//! The `cfa-serve` binary rejects flags a verb does not accept, so a
//! misspelt or retired flag fails loudly instead of being ignored.

use std::process::Command;

#[test]
fn unknown_flags_exit_2_and_name_the_flag() {
    for (args, flag) in [
        (
            &["serve", "--model", "x.cfam", "--engine", "compiled"][..],
            "--engine",
        ),
        (&["bench", "--timeout-secs", "5"][..], "--timeout-secs"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cfa-serve"))
            .args(args)
            .output()
            .expect("run cfa-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {stderr}"
        );
    }
}
