//! Graph index widths: the single place that decides how wide a vertex ID is.
//!
//! The paper's tera-scale experiments use 64-bit vertex IDs; the reproduction's default
//! regime is 32-bit (half the memory per id-indexed array, which is most of the resident
//! footprint). The `wide-ids` cargo feature switches [`NodeId`] — and everything derived
//! from it — to `u64`, lifting the vertex-count ceiling from 2^31 to 2^63 without any
//! other source change: every layer (coarsening, storage, I/O, pipeline) is written
//! against the aliases and helpers of this module instead of a concrete integer type.
//!
//! # The width contract
//!
//! * Valid vertex IDs and cluster labels live in `0..`[`MAX_NODE_COUNT`], which is
//!   2^(width − 1): the **top bit of the active width** ([`ID_MARK_BIT`]) is never set
//!   on an id, so a count of ids always fits the width, and [`INVALID_NODE`]
//!   (`NodeId::MAX`) is reserved as the "no vertex" sentinel.
//! * [`EdgeId`](crate::EdgeId) and the weight types are *always* `u64`: even a graph
//!   whose vertex count fits 32 bits can carry more than 2^32 half-edges or a total
//!   weight beyond 2^32, so those never had a narrow variant to begin with.
//! * Conversions **into** `NodeId` from untrusted sources (file counts, generator
//!   parameters) go through the checked helpers ([`nid`], [`assert_node_count`],
//!   [`node_count_supported`]) so truncation fails loudly, naming the offending value,
//!   instead of silently wrapping.

#[cfg(not(feature = "wide-ids"))]
mod width {
    /// Identifier of a vertex (32-bit default regime).
    pub type NodeId = u32;
    /// Atomic cell holding a [`NodeId`].
    pub type AtomicNodeId = std::sync::atomic::AtomicU32;
}

#[cfg(feature = "wide-ids")]
mod width {
    /// Identifier of a vertex (64-bit tera-scale regime).
    pub type NodeId = u64;
    /// Atomic cell holding a [`NodeId`].
    pub type AtomicNodeId = std::sync::atomic::AtomicU64;
}

pub use width::{AtomicNodeId, NodeId};

/// Identifier of a cluster during coarsening. Cluster labels are vertex IDs of the
/// clustered graph, so the type is — and must remain — exactly [`NodeId`].
pub type ClusterId = NodeId;

/// Width of the active [`NodeId`] in bytes (4 or 8); recorded in the `.tpg` container
/// header so files are self-describing.
pub const NODE_ID_BYTES: u8 = (NodeId::BITS / 8) as u8;

/// Sentinel for "no vertex" (used e.g. by two-hop clustering's favoured-cluster table).
pub const INVALID_NODE: NodeId = NodeId::MAX;

/// The top bit of the active width, reserved pipeline-wide. Never set on a valid vertex
/// ID or cluster label.
pub const ID_MARK_BIT: NodeId = 1 << (NodeId::BITS - 1);

/// Largest supported vertex count: all IDs must stay strictly below [`ID_MARK_BIT`]
/// so [`INVALID_NODE`] can never collide with a real ID.
/// 2^31 at the default width, 2^63 under `wide-ids`.
pub const MAX_NODE_COUNT: usize = {
    // At the 64-bit width the mark bit (2^63) still fits a 64-bit usize exactly.
    let cap = ID_MARK_BIT as u128;
    if cap > usize::MAX as u128 {
        usize::MAX
    } else {
        cap as usize
    }
};

/// Whether a graph with `n` vertices is representable at the active width.
#[inline]
pub const fn node_count_supported(n: usize) -> bool {
    n <= MAX_NODE_COUNT
}

/// Asserts that a graph with `n` vertices is representable at the active width,
/// panicking with a message that names the offending count and the remedy.
#[track_caller]
#[inline]
pub fn assert_node_count(n: usize, context: &str) {
    assert!(
        node_count_supported(n),
        "{}: vertex count {} exceeds the {}-bit NodeId limit of {} \
         (rebuild with `--features wide-ids` for 64-bit IDs)",
        context,
        n,
        NodeId::BITS,
        MAX_NODE_COUNT,
    );
}

/// Checked `usize` → [`NodeId`] conversion; panics (naming the offending value) on
/// truncation or on a value that collides with the reserved sentinel range.
#[track_caller]
#[inline]
pub fn nid(value: usize) -> NodeId {
    match NodeId::try_from(value) {
        Ok(id) if value < MAX_NODE_COUNT => id,
        _ => panic!(
            "value {} is not a valid {}-bit node id (limit {}; rebuild with \
             `--features wide-ids` for 64-bit IDs)",
            value,
            NodeId::BITS,
            MAX_NODE_COUNT,
        ),
    }
}

/// Checked `usize` → [`NodeId`] conversion for *count*-valued quantities (array
/// lengths, exclusive range ends, the final CSR offset): unlike [`nid`], the limit
/// [`MAX_NODE_COUNT`] itself is admissible — a maximal graph has `n == MAX_NODE_COUNT`
/// and its counts must still be representable even though no *id* may take that value.
#[track_caller]
#[inline]
pub fn nid_count(value: usize) -> NodeId {
    match NodeId::try_from(value) {
        Ok(count) if value <= MAX_NODE_COUNT => count,
        _ => panic!(
            "count {} exceeds the {}-bit NodeId limit of {} (rebuild with \
             `--features wide-ids` for 64-bit IDs)",
            value,
            NodeId::BITS,
            MAX_NODE_COUNT,
        ),
    }
}

/// Widens a [`NodeId`] into the 64-bit domain of the codecs and message payloads.
/// Identity under `wide-ids`; lossless widening at the default width. Spelled as a
/// function so width-generic call sites don't trip per-width "useless conversion"
/// lints.
#[inline]
pub fn widen(id: NodeId) -> u64 {
    #[allow(clippy::unnecessary_cast)]
    {
        id as u64
    }
}

/// The bit-layout contract of an ID width, for the few places that genuinely care about
/// layout rather than arithmetic (the `.tpg` header, packed sort keys, the reserved top bit).
/// Implemented for both supported widths so layout-sensitive code can be written — and
/// tested — against either width regardless of which one the build selected.
pub trait IdWidth: Copy + Ord + Sized {
    /// Width in bits.
    const BITS: u32;
    /// Width in bytes, as recorded in the `.tpg` header.
    const BYTES: u8;
    /// The reserved top bit of this width.
    const MARK_BIT: Self;
    /// Largest vertex count addressable at this width (IDs stay below the mark bit).
    const MAX_COUNT: u128;
    /// Widening conversion for codecs (VarInt encoding is always 64-bit).
    fn to_u64(self) -> u64;
    /// Checked narrowing from the 64-bit codec domain.
    fn from_u64(value: u64) -> Option<Self>;
}

impl IdWidth for u32 {
    const BITS: u32 = 32;
    const BYTES: u8 = 4;
    const MARK_BIT: Self = 1 << 31;
    const MAX_COUNT: u128 = 1 << 31;

    #[inline]
    fn to_u64(self) -> u64 {
        u64::from(self)
    }

    #[inline]
    fn from_u64(value: u64) -> Option<Self> {
        Self::try_from(value).ok()
    }
}

impl IdWidth for u64 {
    const BITS: u32 = 64;
    const BYTES: u8 = 8;
    const MARK_BIT: Self = 1 << 63;
    const MAX_COUNT: u128 = 1 << 63;

    #[inline]
    fn to_u64(self) -> u64 {
        self
    }

    #[inline]
    fn from_u64(value: u64) -> Option<Self> {
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn active_width_is_consistent() {
        assert_eq!(NODE_ID_BYTES, <NodeId as IdWidth>::BYTES);
        assert_eq!(NodeId::BITS, <NodeId as IdWidth>::BITS);
        assert_eq!(ID_MARK_BIT, <NodeId as IdWidth>::MARK_BIT);
        assert_eq!(MAX_NODE_COUNT as u128, <NodeId as IdWidth>::MAX_COUNT);
        #[cfg(not(feature = "wide-ids"))]
        assert_eq!(NodeId::BITS, 32);
        #[cfg(feature = "wide-ids")]
        assert_eq!(NodeId::BITS, 64);
    }

    #[test]
    fn both_width_impls_agree_on_layout() {
        assert_eq!(<u32 as IdWidth>::MARK_BIT, 1u32 << 31);
        assert_eq!(<u64 as IdWidth>::MARK_BIT, 1u64 << 63);
        assert_eq!(<u32 as IdWidth>::BYTES, 4);
        assert_eq!(<u64 as IdWidth>::BYTES, 8);
        assert_eq!(
            <u32 as IdWidth>::from_u64(u64::from(u32::MAX)),
            Some(u32::MAX)
        );
        assert_eq!(<u32 as IdWidth>::from_u64(u64::from(u32::MAX) + 1), None);
        assert_eq!(<u64 as IdWidth>::from_u64(u64::MAX), Some(u64::MAX));
        assert_eq!(123u32.to_u64(), 123);
        assert_eq!(123u64.to_u64(), 123);
    }

    #[test]
    fn checked_conversions_accept_valid_and_name_offenders() {
        assert_eq!(nid(0), 0);
        assert_eq!(nid(MAX_NODE_COUNT - 1), (MAX_NODE_COUNT - 1) as NodeId);
        assert!(node_count_supported(MAX_NODE_COUNT));
        assert!(!node_count_supported(MAX_NODE_COUNT + 1));
        assert_node_count(MAX_NODE_COUNT, "limit itself is fine");
        assert_eq!(nid_count(MAX_NODE_COUNT), MAX_NODE_COUNT as NodeId);
        let err = std::panic::catch_unwind(|| nid_count(MAX_NODE_COUNT + 1)).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(
            msg.contains(&(MAX_NODE_COUNT + 1).to_string()),
            "panic message must name the offending count: {}",
            msg
        );
        let err = std::panic::catch_unwind(|| nid(MAX_NODE_COUNT)).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(
            msg.contains(&MAX_NODE_COUNT.to_string()),
            "panic message must name the offending value: {}",
            msg
        );
        let err =
            std::panic::catch_unwind(|| assert_node_count(MAX_NODE_COUNT + 1, "test")).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(msg.contains("wide-ids"), "remedy missing from: {}", msg);
    }

    proptest! {
        // No valid id carries the top bit, checked at BOTH widths through the trait, so
        // the 64-bit layout is exercised even in a default-width test run.
        #[test]
        fn prop_mark_bit_disjoint_from_ids_both_widths(raw in any::<u64>()) {
            let id32 = (raw % <u32 as IdWidth>::MAX_COUNT as u64) as u32;
            prop_assert_eq!(id32 & <u32 as IdWidth>::MARK_BIT, 0);
            prop_assert_eq!((id32 | <u32 as IdWidth>::MARK_BIT) & !<u32 as IdWidth>::MARK_BIT, id32);
            let id64 = raw % <u64 as IdWidth>::MAX_COUNT as u64;
            prop_assert_eq!(id64 & <u64 as IdWidth>::MARK_BIT, 0);
            prop_assert_eq!((id64 | <u64 as IdWidth>::MARK_BIT) & !<u64 as IdWidth>::MARK_BIT, id64);
        }
    }
}
