//! The machine's current speed, from a fixed kernel the program never runs.
//!
//! On a shared host the core's throughput drifts by tens of percent over
//! minutes as other tenants come and go, and a wall time measured in a
//! quiet minute cannot be compared with one from a busy minute. The
//! untraced run therefore times this kernel before the set-ups, after
//! them and after every harness call, and `run.py` rescales each wall
//! time by the speed measured around it.
//!
//! The kernel is a 128 × 128 `f32` matrix-vector product with one running
//! sum per row, the same loop shape as `vnn`'s dense layers, on 64 KiB of
//! weights that stay in cache. It lives in the benchmark, so a change to
//! the program does not change it.

use std::hint::black_box;
use std::time::Instant;

const N: usize = 128;
/// Matrix-vector products per block: about 40 ms on one core of a 2-vCPU
/// Xeon VM at 2.0 GHz.
const PRODUCTS_PER_BLOCK: usize = 4000;
/// Blocks per sample. The core's speed jumps by 10–20 % from one tenth of
/// a second to the next, so a sample must be long to say how fast the
/// core was over the seconds around it.
const BLOCKS: usize = 10;

/// Wall seconds of one block of the kernel, as the mean over [`BLOCKS`]
/// blocks run back to back on each core at once (at most two, the most
/// worker threads a workload has), averaged over the cores. A
/// single-threaded workload may run on either core, and the average over
/// both is steadier than one core's sample.
pub fn sample() -> f64 {
    let threads = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2);
    if threads == 1 {
        return blocks();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(blocks)).collect();
        let total: f64 = handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .sum();
        total / threads as f64
    })
}

fn blocks() -> f64 {
    let w: Vec<f32> = (0..N * N)
        .map(|i| ((i * 7919) % 1000) as f32 * 1e-3 - 0.5)
        .collect();
    let mut x: Vec<f32> = (0..N).map(|i| i as f32 * 1e-2).collect();
    let mut y = vec![0f32; N];
    let t = Instant::now();
    for _ in 0..BLOCKS * PRODUCTS_PER_BLOCK {
        for (yr, row) in y.iter_mut().zip(w.chunks_exact(N)) {
            let mut acc = 0f32;
            for (a, b) in row.iter().zip(&x) {
                acc += a * b;
            }
            *yr = acc;
        }
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = (yi * 0.01).clamp(-1.0, 1.0);
        }
        black_box(&mut x);
    }
    t.elapsed().as_secs_f64() / BLOCKS as f64
}
