//! `warpstl` — command-line front end for the STL compaction toolkit.
//!
//! ```text
//! warpstl generate <IMM|MEM|CNTRL|RAND|TPGEN|SFU_IMM|FPU> [--sb-count N]
//!                  [--patterns N] [--seed N] [--out FILE]
//! warpstl features <PTP-FILE>
//! warpstl compact  <PTP-FILE> [--out FILE] [--reverse] [--no-arc]
//! warpstl lint     <PTP-FILE> [--json]
//! warpstl run      <PTP-FILE> [--trace]
//! warpstl modules
//! ```
//!
//! PTP files use the text container of
//! [`warpstl_programs::serialize`] (assembly plus `; PTP` headers).

use std::io::{self, Write};
use std::process::ExitCode;

/// `print!` that returns the write error instead of panicking (see
/// [`emit`]).
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::emit(format_args!($($arg)*))
    };
}

/// `println!` that returns the write error instead of panicking (see
/// [`emit`]).
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod cli;
mod xlint;

/// Writes command output to stdout. Every summary line goes through here
/// (via `out!`/`outln!`), so a reader that closes the pipe early
/// (`warpstl analyze decoder_unit | head -1`) surfaces as a `BrokenPipe`
/// error that `main` turns into a quiet exit instead of a panic.
fn emit(text: std::fmt::Arguments<'_>) -> io::Result<()> {
    io::stdout().lock().write_fmt(text)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader has gone: nothing is left to say, and nobody to say
        // it to.
        Err(e)
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
