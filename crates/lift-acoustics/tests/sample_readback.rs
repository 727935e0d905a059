//! `LiftSim::sample` reads back one element, not the whole field.
//!
//! Own test binary with a single test: the transfer counters are
//! process-global, so nothing else may move bytes concurrently.

use lift_acoustics::{LiftBoundary, LiftSim};
use room_acoustics::{GridDims, Precision, RoomShape, SimConfig, SimSetup};
use vgpu::{telemetry, Device};

#[test]
fn sample_reads_back_exactly_one_element() {
    let s = SimSetup::new(&SimConfig::fdmm(GridDims::cube(10), RoomShape::Dome));
    let mut sim = LiftSim::new(s.clone(), Precision::Single, LiftBoundary::FdMm, Device::gtx780());
    sim.impulse(5, 5, 4, 1.0);
    sim.run(3);
    let to_host = || telemetry::registry().counter("vgpu.xfer.to_host.bytes").get();
    let field = sim.read_curr();
    let b0 = to_host();
    let p = sim.sample(5, 4, 4);
    assert_eq!(to_host() - b0, 4, "one f32 element");
    assert_eq!(p.to_bits(), field[s.dims().idx(5, 4, 4)].to_bits());
}
