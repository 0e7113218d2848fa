//! `secbus` — the command-line front end.
//!
//! ```text
//! secbus asm <file.s>              assemble MB32 source to hex words
//! secbus disasm <file.hex>         disassemble hex words (one per line)
//! secbus run <file.s> [opts]       run a program on a one-core protected SoC
//!     --cycles <n>                 cycle budget (default 1_000_000)
//!     --unprotected                build without firewalls
//!     --policy <file.policy>       load cpu0's table from a verified DSL
//!                                  program (default: all of BRAM and DDR)
//!     --image <boot.ihex>          preload the external DDR
//!     --trace                      append the bus trace
//!     --audit | --audit-json       append the security audit
//! secbus observe [opts]            run the case study with tracing armed
//!     --metrics                    print the key-sorted metrics snapshot
//!     --trace-out <file.json>      write a Chrome trace_event timeline
//!     --tail <n>                   print the last n trace events
//!     --attack                     hijack cpu0 so the timeline shows an alert
//! secbus attacks [--seed <n>]      run the §III threat-model scenarios
//! secbus overload [--seed <n>] [--rate <n>]
//!                                  flood the SoC and a 4x4 mesh open-loop;
//!                                  show shedding, brownout and conservation
//! secbus table1                    regenerate the paper's Table I
//! secbus fig1                      regenerate the architecture figure
//! secbus policy check <file.policy>
//!                                  parse, compile and exhaustively verify a
//!                                  policy DSL program
//! secbus policy compile <file.policy>
//!                                  print the verified per-master tables
//! secbus policy template           print a policy DSL skeleton
//! ```

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let output = match commands::dispatch(&args) {
        Ok(output) => output,
        Err(e) => {
            eprintln!("secbus: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(output.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`secbus ... | head`): nothing is left to
        // tell anyone, so exit quietly.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("secbus: writing output: {e}");
            ExitCode::FAILURE
        }
    }
}
