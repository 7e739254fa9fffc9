//! Host facts measured in the same run as the numbers they sit beside, so
//! readings from different hosts can be compared as ratios.

use crate::layers::median_secs;
use std::hint::black_box;

pub fn nproc() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}

/// Bytes copied per second between two 32 MiB buffers, in GB/s.
pub fn memcpy_gbps() -> f64 {
    const LEN: usize = 32 << 20;
    const COPIES: usize = 4;
    let src = vec![1u8; LEN];
    let mut dst = vec![0u8; LEN];
    let secs = median_secs(5, || {
        for _ in 0..COPIES {
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
        }
    });
    (LEN * COPIES) as f64 / secs / 1e9
}

/// Scalar multiply-add throughput over four independent chains, in
/// GFLOP/s (two flops per multiply-add).
pub fn fma_gflops() -> f64 {
    const ITERS: usize = 10_000_000;
    let (m, c) = (black_box(0.999_999_9f64), black_box(1e-7f64));
    let secs = median_secs(5, || {
        let (mut a, mut b, mut d, mut e) = (1.0f64, 2.0f64, 3.0f64, 4.0f64);
        for _ in 0..ITERS {
            a = a * m + c;
            b = b * m + c;
            d = d * m + c;
            e = e * m + c;
        }
        a + b + d + e
    });
    (4 * 2 * ITERS) as f64 / secs / 1e9
}
