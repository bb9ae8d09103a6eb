//! The `monilog` binary — see [`monilog_core::cli`] for the commands.

use monilog_core::cli;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse_args(&args) {
        Ok(c) => c,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    // The monitor flushes after each batch that printed, never per line.
    let mut out = std::io::BufWriter::new(std::io::stdout());
    let result = cli::run(command, &mut out);
    let flushed = out
        .flush()
        .map_err(|e| format!("cannot write to stdout: {e}"));
    if let Err(message) = result.and(flushed) {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}
