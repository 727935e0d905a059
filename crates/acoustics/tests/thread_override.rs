//! `VGPU_THREADS=1` gives single-threaded launches even when parallel work
//! ran before the first `Device` read it: `SimSetup::new` builds the room
//! with parallel iterators, so the worker pool is already running on the
//! host's default size by then.
//!
//! Own test binary with a single test: it sets `VGPU_THREADS` and the
//! process-wide pool size.

use room_acoustics::{
    BoundaryKernel, GridDims, HandwrittenSim, Precision, RoomShape, SimConfig, SimSetup,
};
use std::time::{Duration, Instant};
use vgpu::Device;

/// CPU clock ticks (user + system) spent so far by the pool's helper
/// threads, which the shim names `rayon-shim-<i>`.
#[cfg(target_os = "linux")]
fn helper_ticks() -> u64 {
    let mut ticks = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("list own threads") {
        let dir = task.expect("thread entry").path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !comm.starts_with("rayon-shim") {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("stat")).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        if fields.len() > 12 {
            ticks +=
                fields[11].parse::<u64>().unwrap_or(0) + fields[12].parse::<u64>().unwrap_or(0);
        }
    }
    ticks
}

#[test]
fn vgpu_threads_one_after_setup_runs_launches_on_one_thread() {
    let setup = SimSetup::new(&SimConfig::fimm(GridDims::cube(40), RoomShape::Box));
    std::env::set_var("VGPU_THREADS", "1");
    let mut sim = HandwrittenSim::new(
        setup,
        Precision::Single,
        BoundaryKernel::FiMm { beta_constant: false },
        Device::gtx780(),
    );
    assert_eq!(rayon::current_num_threads(), 1);

    sim.impulse(20, 20, 20, 1.0);
    #[cfg(target_os = "linux")]
    let before = helper_ticks();
    // Long enough that launches fanned out over two or more threads would
    // give the helpers many clock ticks (10 ms each).
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(400) {
        sim.run(1);
    }
    #[cfg(target_os = "linux")]
    {
        let spent = helper_ticks() - before;
        assert!(spent <= 1, "pool helpers ran launch work for {spent} ticks");
    }
    assert!(sim.energy().is_finite());
}
