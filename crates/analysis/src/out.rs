//! Program output on stdout for the command-line binaries.
//!
//! A reader that stops early (`repro all | head -1`) closes the pipe; the
//! next write fails with `BrokenPipe`, on which `println!` panics. Output
//! written through [`outln!`](crate::outln!) and [`out!`](crate::out!)
//! instead ends the process quietly with status 0, because a reader that
//! has seen enough is not an error. Any other write error is reported on
//! stderr and ends the process with status 1.

use std::fmt;
use std::io::{self, Write};

/// Write `args` to stdout, exiting the process on a write error: status
/// 0 on a closed pipe, status 1 on anything else.
pub fn write_stdout(args: fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`write_stdout`]. In the calling crate's own unit
/// tests it is plain `print!`, so the test harness still captures it.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {{
        #[cfg(test)]
        ::std::print!($($arg)*);
        #[cfg(not(test))]
        $crate::out::write_stdout(::std::format_args!($($arg)*));
    }};
}

/// `println!` through [`write_stdout`]. In the calling crate's own unit
/// tests it is plain `println!`, so the test harness still captures it.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::out!("\n")
    };
    ($($arg:tt)*) => {
        $crate::out!("{}\n", ::std::format_args!($($arg)*))
    };
}
