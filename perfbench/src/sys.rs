//! Process facts (peak memory, CPU time), the run's provenance, and the
//! guard against debug settings.

/// Environment settings under which the program measures something other
/// than what users run: tracing, profiling, the shadow sanitizer and the
/// differential engine each add work to every launch. Returns one line
/// per offending setting; `get` reads a variable.
pub fn debug_settings(get: impl Fn(&str) -> Option<String>) -> Vec<String> {
    let mut found = Vec::new();
    let on = |v: &Option<String>| v.as_deref().is_some_and(|s| !s.is_empty() && s != "off");
    for var in ["VGPU_TRACE", "VGPU_PROFILE"] {
        let v = get(var);
        if on(&v) {
            found.push(format!("{var}={}", v.unwrap_or_default()));
        }
    }
    if let Some(v) = get("VGPU_SANITIZE").filter(|v| v.eq_ignore_ascii_case("shadow")) {
        found.push(format!("VGPU_SANITIZE={v}"));
    }
    if let Some(v) = get("VGPU_ENGINE").filter(|v| v == "diff" || v == "differential") {
        found.push(format!("VGPU_ENGINE={v}"));
    }
    found
}

/// Engine, ladder leg, threads, devices and sanitizer mode this process
/// runs with, as stamped on the repository's bench snapshots.
pub fn provenance() -> String {
    format!(
        "engine={} ladder={} threads={} devices={} sanitize={} nproc={}",
        bench::provenance::engine_label(),
        bench::provenance::ladder_leg(),
        bench::provenance::threads(),
        bench::provenance::device_count(),
        bench::provenance::sanitize_label(),
        vcpus(),
    )
}

/// Processors this process may run on.
pub fn vcpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds of the whole process, exited threads
/// included (`/proc/self/stat`, in the kernel's fixed 100 Hz user ticks).
pub fn process_cpu_s() -> f64 {
    const USER_HZ: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are the 14th and 15th fields of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ut: f64 = f.get(11)?.parse().ok()?;
            let st: f64 = f.get(12)?.parse().ok()?;
            Some((ut + st) / USER_HZ)
        })
        .unwrap_or(0.0)
}

/// CPU seconds the hypervisor has taken from this machine's vCPUs since
/// boot (the `steal` column of `/proc/stat`), 0 where not reported. Time
/// stolen during a timed loop slows it for reasons outside the program.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}
