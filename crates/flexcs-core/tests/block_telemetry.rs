//! Telemetry contract for the block-tiled decode pipeline: the pool
//! reuses returned workspaces and reports it through the
//! `blocks.pool.reuses` counter, alongside per-block counts, seam
//! pixels and latency.
//!
//! Kept in a test binary of its own: the recorder is process-wide, so
//! any concurrently running sibling test's decodes would be counted too.

#![cfg(feature = "telemetry")]

use flexcs_core::{BlockGrid, BlockGridConfig, BlockPipeline, BlockPipelineConfig, Decoder};
use flexcs_linalg::Matrix;
use flexcs_telemetry::MemoryRecorder;
use std::sync::Arc;

/// A smooth, DCT-compressible frame, so every tile decodes accurately.
fn smooth_frame(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        0.5 + 0.3 * ((i as f64) * 0.045).sin()
            + 0.2 * ((j as f64) * 0.06).cos()
            + 0.1 * (((i + j) as f64) * 0.02).sin()
    })
}

#[test]
fn telemetry_records_block_counters_and_latency() {
    // The global recorder installs once per process and counts every
    // decode in it; this is the only test in this binary.
    let recorder = Arc::new(MemoryRecorder::new());
    flexcs_telemetry::install(recorder.clone()).expect("first install");

    let frame = smooth_frame(32, 32);
    let grid = BlockGrid::new(
        32,
        32,
        BlockGridConfig {
            block: 16,
            overlap: 4,
        },
    )
    .unwrap();
    let meas = grid.measure(&frame, 0.6, &[], 9).unwrap();
    let pipe = BlockPipeline::new(
        Decoder::default(),
        BlockPipelineConfig {
            pool_capacity: 1,
            ..BlockPipelineConfig::default()
        },
    );
    let out = pipe.decode(&grid, &meas).unwrap();

    let blocks = grid.block_count() as u64;
    assert_eq!(recorder.counter_value("blocks.decoded"), blocks);
    assert_eq!(recorder.counter_value("blocks.pool.reuses"), blocks - 1);
    assert_eq!(
        recorder.counter_value("blocks.seam_px"),
        out.seam_pixels as u64
    );
    let hist = recorder
        .histogram_snapshot("blocks.block_ms")
        .expect("per-block latency histogram recorded");
    assert_eq!(hist.count, blocks);
}
