//! The set of labels a clustering uses, with the rank of each.
//!
//! Cluster labels are vertex ids, so a clustering of `n` vertices draws its `n′` labels
//! from a label space of `n`. [`LabelSet`] marks them in an `n`-bit set and keeps, per
//! 64-bit word, the number of labels below it: the rank of a label — its index among the
//! populated labels in increasing order — is that count plus a popcount within its word.
//! `Clustering::from_labels` counts the labels with it, and contraction indexes its
//! per-cluster arrays by rank, `n′` entries instead of `n`. It costs `n/8 + (n/64)·id`
//! bytes, charged to the memory accounting while it lives.

use graph::NodeId;
use memtrack::MemoryScope;
use rayon::prelude::*;

use crate::scratch::AtomicBitset;
use crate::ClusterId;

/// Labels per task of the parallel passes.
const LABELS_PER_TASK: usize = 1 << 14;

/// Bit words per task of the parallel prefix count (64 · 256 = 16 384 labels).
const WORDS_PER_TASK: usize = 256;

/// The populated labels of a label space, ranked (see the module docs).
pub(crate) struct LabelSet {
    bits: AtomicBitset,
    /// `prefix[w]`: populated labels below `64 w`.
    prefix: Vec<NodeId>,
    /// Number of populated labels.
    len: usize,
    _charge: MemoryScope<'static>,
}

impl LabelSet {
    /// Marks every label of `labels`, which must lie below `labels.len()`, then counts
    /// the marks per word and prefix-sums the counts. Every pass runs in parallel.
    pub(crate) fn of(labels: &[ClusterId]) -> Self {
        let n = labels.len();
        let mut bits = AtomicBitset::new();
        bits.ensure_len(n);
        let words = n.div_ceil(64);
        let mut prefix: Vec<NodeId> = vec![0; words];
        let charge = MemoryScope::charge_global(
            bits.memory_bytes() + std::mem::size_of_val(prefix.as_slice()),
        );
        labels.par_chunks(LABELS_PER_TASK).for_each(|chunk| {
            for &label in chunk {
                assert!(
                    (label as usize) < n,
                    "label {label} out of range for {n} vertices"
                );
                bits.set(label as usize);
            }
        });
        let count = |w: usize| bits.word(w).count_ones() as NodeId;
        let task_totals: Vec<NodeId> = (0..words.div_ceil(WORDS_PER_TASK))
            .into_par_iter()
            .map(|task| {
                let first = task * WORDS_PER_TASK;
                (first..(first + WORDS_PER_TASK).min(words))
                    .map(count)
                    .sum()
            })
            .collect();
        let mut len: NodeId = 0;
        let task_bases: Vec<NodeId> = task_totals
            .iter()
            .map(|&total| {
                let base = len;
                len += total;
                base
            })
            .collect();
        prefix
            .par_chunks_mut(WORDS_PER_TASK)
            .enumerate()
            .for_each(|(task, chunk)| {
                let mut below = task_bases[task];
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = below;
                    below += count(task * WORDS_PER_TASK + i);
                }
            });
        Self {
            bits,
            prefix,
            len: len as usize,
            _charge: charge,
        }
    }

    /// Number of populated labels.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The index of the populated `label` among the populated labels in increasing
    /// order. (Of an unpopulated label: the number of populated labels below it.)
    #[inline]
    pub(crate) fn rank(&self, label: ClusterId) -> NodeId {
        let (word, bit) = (label as usize / 64, label as usize % 64);
        let below = self.bits.word(word) & ((1u64 << bit) - 1);
        self.prefix[word] + below.count_ones() as NodeId
    }

    /// The populated labels in increasing order: entry `r` is the label of rank `r`.
    #[cfg(test)]
    pub(crate) fn labels(&self) -> Vec<ClusterId> {
        let mut labels: Vec<ClusterId> = vec![0; self.len];
        let out = crate::scratch::SharedSlice::new(&mut labels);
        self.prefix
            .par_chunks(WORDS_PER_TASK)
            .enumerate()
            .for_each(|(task, chunk)| {
                for (i, &below) in chunk.iter().enumerate() {
                    let mut rank = below as usize;
                    self.bits
                        .for_each_in_word(task * WORDS_PER_TASK + i, |label| {
                            // SAFETY: the labels of one word take the ranks from its prefix
                            // on, which no other word's labels take.
                            unsafe { out.write(rank, label as ClusterId) };
                            rank += 1;
                        });
                }
            });
        labels
    }

    /// Heap bytes of the bit set and the per-word counts.
    #[cfg(test)]
    pub(crate) fn memory_bytes(&self) -> usize {
        self.bits.memory_bytes() + std::mem::size_of_val(self.prefix.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The labels of `labels`, sorted and deduplicated.
    fn distinct(labels: &[ClusterId]) -> Vec<ClusterId> {
        let mut sorted = labels.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted
    }

    fn check(labels: &[ClusterId], threads: usize) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let set = pool.install(|| LabelSet::of(labels));
        let expected = distinct(labels);
        let context = format!("n = {}, {threads} threads", labels.len());
        assert_eq!(set.len(), expected.len(), "{context}");
        for (rank, &label) in expected.iter().enumerate() {
            assert_eq!(set.rank(label) as usize, rank, "label {label}, {context}");
        }
        assert_eq!(pool.install(|| set.labels()), expected, "{context}");
        let words = labels.len().div_ceil(64);
        assert_eq!(
            set.memory_bytes(),
            words * (8 + std::mem::size_of::<NodeId>())
        );
    }

    #[test]
    fn every_populated_label_ranks_at_its_index_in_sorted_order() {
        for n in [0usize, 1, 63, 64, 65] {
            // Singletons, everything in one cluster, and the labels on the word
            // boundaries (0, 63, 64) with the last label of the space.
            let singletons: Vec<ClusterId> = (0..n as ClusterId).collect();
            let one = vec![(n / 2) as ClusterId; n];
            let boundaries: Vec<ClusterId> = (0..n)
                .map(|u| [0, 63, 64, n - 1][u % 4].min(n - 1) as ClusterId)
                .collect();
            for labels in [singletons, one, boundaries] {
                for threads in [1, 2] {
                    check(&labels, threads);
                }
            }
        }
    }

    #[test]
    fn ranks_agree_with_sorting_across_many_words_and_threads() {
        // Several prefix-count tasks, with an empty task's worth of words in the middle.
        let n = 5 * 64 * WORDS_PER_TASK + 77;
        let labels: Vec<ClusterId> = (0..n)
            .map(|u| {
                let label = (u * 7919) % n;
                if (64 * WORDS_PER_TASK..2 * 64 * WORDS_PER_TASK).contains(&label) {
                    (label / 3) as ClusterId
                } else {
                    label as ClusterId
                }
            })
            .collect();
        for threads in [1, 2, 3] {
            check(&labels, threads);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_label_outside_the_space_is_refused() {
        LabelSet::of(&[0, 1, 3]);
    }
}
