//! The random-geometric samplers hold their points and one flat cell index, nothing per
//! cell: with the tracking allocator installed, streaming every edge of `rgg2d(2^17, 8)`
//! and `rgg3d(2^17, 8)` (edges counted, not stored) allocates at most `8·D` bytes of
//! coordinates per vertex plus the cell offsets, about `0.39` (2D) and `0.53` (3D) ids
//! per vertex at this size. The one `#[test]` of this binary, because it reads
//! `memtrack::global()` (see `store_memory_accounting.rs`).
//!
//! Run with `-- --nocapture` to print the bytes per vertex.

use graph::{gen, NodeId};

#[global_allocator]
static ALLOC: memtrack::TrackingAllocator = memtrack::TrackingAllocator::system();

const N: usize = 1 << 17;

/// Peak heap bytes per vertex that `sample` allocates above the live bytes before it,
/// and the edges it streamed.
fn peak_bytes_per_vertex(sample: impl FnOnce(&mut dyn FnMut(NodeId, NodeId))) -> (f64, usize) {
    let mut edges = 0usize;
    let before = memtrack::global().current();
    memtrack::global().reset_peak();
    sample(&mut |_, _| edges += 1);
    let peak = memtrack::global().peak();
    ((peak.saturating_sub(before)) as f64 / N as f64, edges)
}

#[test]
fn geometric_samplers_hold_points_and_one_offset_array() {
    let id_bytes = std::mem::size_of::<NodeId>() as f64;
    for (dims, offsets_per_vertex) in [(2usize, 0.5), (3, 0.6)] {
        let (per_vertex, edges) = peak_bytes_per_vertex(|f| match dims {
            2 => gen::for_each_rgg2d_edge(N, 8, 3, f),
            _ => gen::for_each_rgg3d_edge(N, 8, 3, f),
        });
        let bound = 8.0 * dims as f64 + offsets_per_vertex * id_bytes;
        println!(
            "rgg{dims}d(2^17, 8): {edges} edges, {per_vertex:.2} B per vertex (bound {bound:.1})"
        );
        assert!(edges > 3 * N, "rgg{dims}d streamed only {edges} edges");
        assert!(
            per_vertex <= bound,
            "rgg{dims}d's sampler peaked at {per_vertex:.2} B per vertex, above {bound:.1}"
        );
    }
}
