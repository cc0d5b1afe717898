//! Writes the per-processor command files for any built-in pattern to a
//! directory — the on-disk artifact the paper's simulator consumed
//! ("contains a command file that defines the type and sequence of
//! communications").
//!
//! ```text
//! cargo run -p pms-bench --bin dump_cmdfiles -- scatter 16 64 out/
//! cargo run -p pms-bench --bin dump_cmdfiles -- ordered-mesh 128 512 out/
//! ```
//!
//! Patterns come from the same registry and default seed as `simulate`'s
//! `--pattern`, so `simulate --pattern dir:out/` replays exactly the
//! traffic of `simulate --pattern P` with the same ports and bytes.

use pms_trace::cli::{self, die, fail};
use pms_workloads::{build_pattern, DEFAULT_SEED};

const USAGE: &str = "\
usage: dump_cmdfiles <pattern> <ports> <bytes> <dir>
patterns: scatter gather ring uniform hotspot permutation butterfly
          transpose stencil3d ordered-mesh random-mesh two-phase";

fn main() {
    let (pattern, ports, bytes, dir) = cli::parse_env(USAGE, |f| {
        Ok((
            f.required::<String>("<pattern>")?,
            f.required("<ports>")?,
            f.required("<bytes>")?,
            f.required::<String>("<dir>")?,
        ))
    });
    let workload = build_pattern(&pattern, ports, bytes, None, DEFAULT_SEED)
        .unwrap_or_else(|e| fail(format!("dump_cmdfiles: {e}")));
    let dir = std::path::Path::new(&dir);

    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| die(format!("cannot create {}: {e}", dir.display())));
    let files = workload.to_command_files();
    let width = files.len().to_string().len();
    for (p, text) in files.iter().enumerate() {
        let path = dir.join(format!("proc{p:0width$}.cmd"));
        std::fs::write(&path, text)
            .unwrap_or_else(|e| die(format!("cannot write {}: {e}", path.display())));
    }
    println!(
        "wrote {} command files for `{}` ({} messages, {} bytes) to {}",
        files.len(),
        workload.name,
        workload.message_count(),
        workload.total_bytes(),
        dir.display()
    );
}
