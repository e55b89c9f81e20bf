//! The experiment runner: `exp <id>` runs one experiment of the registry
//! (`radionet_bench::experiments::ALL`), `exp all` runs every one in
//! registry order. Scale via `RADIONET_SCALE=quick|full` (unset means
//! full). Records land in `results/`.
//!
//! ```text
//! RADIONET_SCALE=quick cargo run --release -p radionet-bench --bin exp -- E15
//! ```

use radionet_bench::{experiments, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let (defs, scale) = match (experiments::select(&arg), Scale::from_env()) {
        (Ok(defs), Ok(scale)) => (defs, scale),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("exp: {e}");
            eprintln!("usage: [RADIONET_SCALE=quick|full] exp <id|all>");
            return ExitCode::from(2);
        }
    };
    if defs.len() > 1 {
        println!("# radionet experiment suite ({scale:?} scale)\n");
    }
    let dir = std::path::Path::new("results");
    for def in &defs {
        let record = (def.run)(scale);
        match record.save(dir) {
            Ok(path) => eprintln!("record written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", record.id),
        }
    }
    if defs.len() > 1 {
        println!("\n{} experiments complete.", defs.len());
    }
    ExitCode::SUCCESS
}
