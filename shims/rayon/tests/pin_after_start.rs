//! A `build_global` that comes after parallel calls already ran still sizes
//! every later call: the pool is not sized by its first use.
//!
//! Own test binary with a single test: the pin is process-wide.

use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::Mutex;

#[test]
fn build_global_after_fan_out_takes_effect() {
    // Runs on the host default, starting helpers on a multi-CPU host.
    let warm: Vec<usize> = (0..4096usize).into_par_iter().map(|i| i + 1).collect();
    assert_eq!(warm.len(), 4096);

    rayon::ThreadPoolBuilder::new().num_threads(1).build_global().unwrap();
    assert_eq!(rayon::current_num_threads(), 1);

    let seen = Mutex::new(HashSet::new());
    (0..4096usize).into_par_iter().for_each(|_| {
        seen.lock().unwrap().insert(std::thread::current().id());
    });
    let seen = seen.into_inner().unwrap();
    assert_eq!(seen.len(), 1, "every task must run on the caller");
    assert!(seen.contains(&std::thread::current().id()));
}
