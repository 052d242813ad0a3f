//! A reader that stops early (`spothost-cli markets | head -1`) closes
//! stdout under the binary. That must end the process quietly with
//! status 0, not with a "failed printing to stdout" panic (status 101).

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spothost-cli"))
}

fn assert_quiet_exit(out: &std::process::Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{what} panicked: {stderr}");
    assert_eq!(out.status.code(), Some(0), "{what}: {stderr}");
}

#[test]
fn closed_stdout_exits_quietly() {
    for args in [&["markets"][..], &["--help"], &["simulate", "--days", "2"]] {
        // The read end is gone before the binary writes its first byte.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = cli()
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawn");
        assert_quiet_exit(&out, &args.join(" "));
    }
}

#[test]
fn reader_that_takes_one_line_then_leaves() {
    let mut child = cli()
        .args(["markets"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("stdout"))
        .read_line(&mut first)
        .expect("read");
    assert!(!first.is_empty());
    let out = child.wait_with_output().expect("wait");
    assert_quiet_exit(&out, "markets | head -1");
}
