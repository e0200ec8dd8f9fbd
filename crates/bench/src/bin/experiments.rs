//! The experiment driver: regenerates every table of `EXPERIMENTS.md`.
//!
//! ```bash
//! cargo run --release -p bench --bin experiments -- all quick
//! cargo run --release -p bench --bin experiments -- e1 full
//! cargo run --release -p bench --bin experiments -- e4 quick --csv results/
//! ```
//!
//! The first argument selects the experiment (`e1` … `e11`, `fleet`, `p1`,
//! `sweep`, or `all`), the second the scale (`tiny`, `quick`, `full`;
//! default `quick`; any other token is rejected). With
//! `--csv <dir>` every table is additionally written as a CSV file and as a
//! JSON document into the given directory. With `--trace <path>` the driver
//! additionally runs one telemetry-instrumented adaptive epidemic (the P1
//! reference workload) and writes its trace as JSONL: the deterministic
//! event stream first, the wall-clock timing stream after.
//!
//! Two service modes ride along:
//!
//! * `experiments serve [--addr HOST:PORT] [--workers N] [--cache DIR]`
//!   runs the `ssle-server` experiment daemon in the foreground;
//! * `--remote HOST:PORT` routes a single-experiment selection through a
//!   running daemon instead of executing locally, printing the returned
//!   result-table JSON document (byte-identical to a local run) to stdout.

#![forbid(unsafe_code)]

use analysis::{experiments, ExperimentService, JobSpec, Scale, Table};
use ssle_client::HttpClient;
use ssle_server::ServerConfig;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return;
    }
    if args.first().map(String::as_str) == Some("serve") {
        run_serve(&args[1..]);
        return;
    }

    let csv_at = args.iter().position(|a| a == "--csv");
    let csv_dir: Option<PathBuf> = csv_at.and_then(|i| args.get(i + 1)).map(PathBuf::from);
    let trace_at = args.iter().position(|a| a == "--trace");
    let trace_path: Option<PathBuf> = trace_at.and_then(|i| args.get(i + 1)).map(PathBuf::from);
    let remote_at = args.iter().position(|a| a == "--remote");
    let remote_addr: Option<String> = remote_at.and_then(|i| args.get(i + 1)).cloned();
    // Positionals are whatever remains once `--csv <dir>`, `--trace <path>`,
    // and `--remote <addr>` are stripped, so the flags may appear before,
    // between, or after them.
    let flag_index = |i: usize| -> bool {
        csv_at.is_some_and(|c| i == c || i == c + 1)
            || trace_at.is_some_and(|t| i == t || i == t + 1)
            || remote_at.is_some_and(|r| i == r || i == r + 1)
    };
    let positionals: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|(i, _)| !flag_index(*i))
        .map(|(_, a)| a)
        .collect();
    let selection = positionals
        .first()
        .map(|s| s.as_str())
        .unwrap_or("all")
        .to_string();
    let scale = match parse_scale(positionals.get(1).map(|s| s.as_str())) {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("{e}");
            print_usage();
            std::process::exit(1);
        }
    };

    if let Some(addr) = remote_addr {
        run_remote(&addr, &selection, scale);
        return;
    }

    let started = Instant::now();
    let tables: Vec<Table> = if selection == "all" {
        experiments::all(scale)
    } else {
        match experiments::by_id(&selection, scale) {
            Some(table) => vec![table],
            None => {
                eprintln!("unknown experiment id '{selection}'");
                print_usage();
                std::process::exit(1);
            }
        }
    };

    for table in &tables {
        println!("{}", table.to_markdown());
    }
    eprintln!(
        "ran {} experiment(s) at {:?} scale in {:.1}s",
        tables.len(),
        scale,
        started.elapsed().as_secs_f64()
    );
    // Machine-readable footer for CI: the smoke jobs parse this line into the
    // timings artifact and alarm if the driver's memory footprint regresses.
    if let Some(peak) = ppsim::peak_rss_bytes() {
        eprintln!("peak-rss-mib: {:.1}", peak as f64 / (1u64 << 20) as f64);
    }

    if let Some(dir) = csv_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
        for (index, table) in tables.iter().enumerate() {
            let stem = table
                .title
                .split(['—', ' '])
                .find(|s| !s.trim().is_empty())
                .map(|s| s.trim().to_lowercase())
                .unwrap_or_else(|| format!("table{index}"));
            let csv_path = dir.join(format!("{stem}.csv"));
            let json_path = dir.join(format!("{stem}.json"));
            if let Err(e) = std::fs::write(&csv_path, table.to_csv()) {
                eprintln!("cannot write {}: {e}", csv_path.display());
            }
            if let Err(e) = std::fs::write(&json_path, table.to_json()) {
                eprintln!("cannot write {}: {e}", json_path.display());
            }
        }
        eprintln!("wrote CSV/JSON results to {}", dir.display());
    }

    if let Some(path) = trace_path {
        let jsonl = analysis::experiments::profiling::reference_trace_jsonl(scale);
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                std::process::exit(1);
            }
        }
        if let Err(e) = std::fs::write(&path, jsonl) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote reference telemetry trace to {}", path.display());
    }
}

/// The scale named by the second positional argument: [`Scale::Quick`] when
/// it is absent, an "unknown scale" error when it names no scale.
fn parse_scale(token: Option<&str>) -> Result<Scale, String> {
    match token {
        None => Ok(Scale::Quick),
        Some(token) => Scale::parse(token).ok_or_else(|| format!("unknown scale '{token}'")),
    }
}

/// Runs the experiment service daemon in the foreground (`serve` mode).
fn run_serve(args: &[String]) {
    let mut config = ServerConfig::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| match iter.next() {
            Some(v) => v.clone(),
            None => {
                eprintln!("{name} needs a value");
                std::process::exit(1);
            }
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--workers" => match value("--workers").parse() {
                Ok(n) => config.workers = n,
                Err(_) => {
                    eprintln!("--workers needs an unsigned integer");
                    std::process::exit(1);
                }
            },
            "--cache" => config.cache_dir = Some(PathBuf::from(value("--cache"))),
            other => {
                eprintln!("unknown serve flag `{other}`");
                print_usage();
                std::process::exit(1);
            }
        }
    }
    match ssle_server::spawn(config) {
        Ok(handle) => {
            eprintln!("experiments serve: listening on {}", handle.addr());
            handle.join();
        }
        Err(e) => {
            eprintln!("experiments serve: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs one experiment through a remote daemon and prints the result
/// document — the same bytes `Table::to_json` produces locally.
fn run_remote(addr: &str, selection: &str, scale: Scale) {
    if selection == "all" {
        eprintln!("--remote runs a single experiment id, not `all`");
        std::process::exit(1);
    }
    let spec = JobSpec::new(selection, scale);
    let client = HttpClient::new(addr);
    match client.run_job(&spec) {
        // `print!`, not `println!`: stdout must carry the document's exact
        // bytes (CI byte-diffs it against a locally written `--csv` JSON
        // file, which has no trailing newline).
        Ok(document) => {
            use std::io::Write;
            let mut stdout = std::io::stdout();
            let _ = stdout.write_all(document.as_bytes());
            let _ = stdout.flush();
        }
        Err(e) => {
            eprintln!("remote job against {addr} failed: {e}");
            std::process::exit(1);
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: experiments [e1|e2|...|e11|fleet|p1|sweep|all] [tiny|quick|full] [--csv <dir>] \
         [--trace <path>] [--remote <host:port>]"
    );
    eprintln!("       experiments serve [--addr HOST:PORT] [--workers N] [--cache DIR]");
    eprintln!();
    eprintln!("  e1  stabilization time vs r          (Theorem 1.1, time axis)");
    eprintln!("  e2  state-space size vs r            (Theorem 1.1, space axis)");
    eprintln!("  e3  stabilization after a full reset (Lemma 6.2)");
    eprintln!("  e4  recovery from adversarial starts (Lemma 6.3)");
    eprintln!("  e5  collision-detection latency      (Lemma E.1)");
    eprintln!("  e6  ElectLeader_r vs baselines");
    eprintln!("  e7  soft-reset safety                (Section 3.2)");
    eprintln!("  e8  epidemic & load-balancing substrate (Lemmas A.2, E.6)");
    eprintln!("  e9  synthetic-coin quality           (Appendix B)");
    eprintln!("  e10 engine scale sweep: batched vs multi-batch vs per-step at large n");
    eprintln!("  e11 ElectLeader_r stabilization curves + r trade-off surface (dynamic indexing)");
    eprintln!("  fleet trial-fleet throughput: trials/sec at 1 vs N worker threads");
    eprintln!("  p1  engine instrumentation profile: ns/interaction by mode (telemetry spans)");
    eprintln!("  sweep deterministic epidemic sweep (timing-free; the service's native workload)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_token_defaults_to_quick_and_rejects_unknown_tokens() {
        assert_eq!(parse_scale(None), Ok(Scale::Quick));
        assert_eq!(parse_scale(Some("tiny")), Ok(Scale::Tiny));
        assert_eq!(parse_scale(Some("full")), Ok(Scale::Full));
        assert_eq!(
            parse_scale(Some("ful")),
            Err("unknown scale 'ful'".to_string())
        );
    }
}
