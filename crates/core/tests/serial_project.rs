//! A projection runs on its calling thread. One kernel search takes about
//! a microsecond, less than handing it to a `gpp-par` helper costs, so
//! `Grophecy::project` never fans out over the pool, whatever thread
//! count the pool is configured with. This file holds one test so that no
//! other test's threads come and go while it counts.

use gpp_workloads::cfd::Cfd;
use grophecy::machine::MachineConfig;
use grophecy::projector::Grophecy;
use std::sync::atomic::{AtomicBool, Ordering};

/// Threads of this process right now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn projecting_cfd_at_eight_threads_starts_no_thread() {
    let machine = MachineConfig::anl_eureka_node(2013);
    let mut node = machine.node();
    let gro = Grophecy::calibrate(&machine, &mut node);
    let case = Cfd {
        nel: *Cfd::PAPER_SIZES.last().unwrap(),
    }
    .case();
    gpp_par::set_threads(8);
    // Warm the synthesis memo and the setup cache outside the count.
    gro.project(&case.program, &case.hints);

    let regions = gpp_par::Pool::global().stats().parallel_regions;
    let done = AtomicBool::new(false);
    let (before, most) = std::thread::scope(|scope| {
        // The sampler is the one thread this test adds; it watches the
        // count for as long as the projections run.
        let sampler = scope.spawn(|| {
            let mut most = 0;
            while !done.load(Ordering::Relaxed) {
                most = most.max(threads());
            }
            most
        });
        let before = threads();
        for _ in 0..2000 {
            std::hint::black_box(gro.project(&case.program, &case.hints));
        }
        done.store(true, Ordering::Relaxed);
        (before, sampler.join().unwrap())
    });
    gpp_par::set_threads(0);
    assert!(
        most <= before,
        "a projection started threads: {before} before, {most} at most"
    );
    assert_eq!(
        gpp_par::Pool::global().stats().parallel_regions,
        regions,
        "a projection entered a gpp-par region"
    );
}
