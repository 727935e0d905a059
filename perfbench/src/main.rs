//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes, then (traced runs) the layer tables, then one JSON result
//! line. Untraced runs report the end-to-end metrics, traced runs the
//! per-layer metrics; traced runs also write their spans under `out/`
//! beside this crate. Exits 2 on bad arguments or debug settings.

use perfbench::{spans, sys, Params, Scale, Workload};
use std::process::{Command, ExitCode};

/// Fresh processes that each measure one cold set-up; with the run's own
/// set-up they give `setup_s` its median.
const SETUP_PROBES: usize = 12;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut probe = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            probe = true;
            continue;
        }
        let Some(value) = it.next() else { return usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return usage("--workload and --seed are required");
    };
    let debug = sys::debug_settings(|v| std::env::var(v).ok());
    if !debug.is_empty() {
        eprintln!(
            "perfbench: refusing to measure with debug settings ({}); each measures a \
             different program than users run",
            debug.join(", ")
        );
        return ExitCode::from(2);
    }
    let scale = Scale::full();
    if probe {
        println!("setup_s {}", perfbench::setup_only(workload, seed, scale));
        return ExitCode::SUCCESS;
    }
    let (Some(seconds), Some(trace)) = (seconds, trace) else {
        return usage("--seconds and --trace are required");
    };
    let params = Params { workload, seed, seconds, trace, scale };
    println!(
        "perfbench workload={} seed={seed} seconds={seconds} trace={}",
        workload.name(),
        u8::from(trace)
    );
    println!("provenance: {}", sys::provenance());

    let mut setup_samples = Vec::new();
    if !trace {
        for _ in 0..SETUP_PROBES {
            match setup_probe(workload, seed) {
                Ok(s) => setup_samples.push(s),
                Err(e) => {
                    eprintln!("perfbench: set-up probe failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let steal0 = sys::host_steal_s();
    let t0 = std::time::Instant::now();
    let out = perfbench::run(&params);
    let (steal, wall) = (sys::host_steal_s() - steal0, t0.elapsed().as_secs_f64());
    setup_samples.push(out.setup_s);
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "host: {steal:.2} vCPU-s stolen by the hypervisor in {wall:.1} s ({:.1}% of {} vCPUs)",
        100.0 * steal / wall / sys::vcpus() as f64,
        sys::vcpus()
    );
    for reason in &out.tally.reasons {
        println!("FAILED: {reason}");
    }
    println!(
        "error_rate = {} ({} failed of {} attempted)",
        out.tally.error_rate(),
        out.tally.failed,
        out.tally.attempted
    );
    let metrics = if trace {
        for (title, table) in &out.tables {
            print!("{}", table.render(title));
            println!(
                "  remainder {:.2}% of wall (bound {:.0}%): {}",
                100.0 * table.remainder_share(),
                100.0 * perfbench::common::REMAINDER_BOUND,
                if table.remainder_share() <= perfbench::common::REMAINDER_BOUND {
                    "within"
                } else {
                    "EXCEEDED"
                }
            );
        }
        if let Err(e) = write_spans(&params, &out.spans) {
            eprintln!("perfbench: could not write spans: {e}");
        }
        out.layers.clone().unwrap_or_default().metrics()
    } else {
        println!("setup_s samples: {setup_samples:?}");
        perfbench::end_to_end(&out, &setup_samples)
    };
    for m in &metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", perfbench::result_line(&out, &metrics));
    ExitCode::SUCCESS
}

/// Measures one cold set-up in a fresh copy of this program.
fn setup_probe(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", workload.name(), "--seed", &seed.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{} {}", out.status, String::from_utf8_lossy(&out.stderr)));
    }
    text.lines()
        .find_map(|l| l.strip_prefix("setup_s ").and_then(|v| v.trim().parse().ok()))
        .ok_or_else(|| format!("no set-up time in {text:?}"))
}

/// Writes a traced run's spans to `out/<workload>-seed<seed>.spans.json`
/// beside this crate's manifest.
fn write_spans(p: &Params, spans: &[spans::Span]) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let doc = serde_json::json!({
        "workload": p.workload.name(),
        "seed": p.seed,
        "provenance": sys::provenance(),
        "spans": spans::to_json(spans),
    });
    let text = serde_json::to_string(&doc).map_err(std::io::Error::other)?;
    let path = dir.join(format!("{}-seed{}.spans.json", p.workload.name(), p.seed));
    std::fs::write(&path, text)?;
    println!("spans: {} written to {}", spans.len(), path.display());
    Ok(())
}
