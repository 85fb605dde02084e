//! AN: batch (arbitrary-n) reservation with CAS.
//!
//! The [`Cas`] × [`Bounded`] core at any width: one compare-exchange
//! reserves a whole batch — the arbitrary-n property — but the reservation
//! can fail under contention and must loop, and dequeue never reserves
//! past the published `Rear` (no sentinel protocol), raising the
//! queue-empty exception instead ([`Queue::pop_batch`]).

use super::{Bounded, Cas, Queue, QueueFull};

/// Bounded CAS queue with batched reservations (non-wrapping; see
/// [`super`] module docs for the capacity discipline).
pub type AnQueue = Queue<Cas, Bounded>;

impl AnQueue {
    /// Enqueues a whole batch with one (looping) CAS reservation on
    /// `Rear`, then publishes each token. The bound check precedes the
    /// CAS, so a rejected batch wrote nothing and left `Rear` untouched.
    pub fn push_batch(&self, tokens: &[u32]) -> Result<(), QueueFull> {
        self.put(tokens).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_roundtrip() {
        let q = AnQueue::new(8);
        q.push_batch(&[1, 2, 3]).unwrap();
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out, 8), 3);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn pop_respects_max() {
        let q = AnQueue::new(8);
        q.push_batch(&[1, 2, 3, 4]).unwrap();
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out, 2), 2);
        assert_eq!(q.pop_batch(&mut out, 10), 2);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_pop_is_an_exception() {
        let q = AnQueue::new(4);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out, 4), 0);
        assert_eq!(q.stats().empty_retries, 1);
    }

    #[test]
    fn overflow_batch_is_rejected_whole() {
        let q = AnQueue::new(3);
        q.push_batch(&[1, 2]).unwrap();
        assert_eq!(q.push_batch(&[3, 4]), Err(QueueFull { capacity: 3 }));
        // the failed batch wrote nothing
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out, 10), 2);
    }

    #[test]
    fn one_cas_per_uncontended_batch() {
        let q = AnQueue::new(64);
        q.push_batch(&(0..32).collect::<Vec<_>>()).unwrap();
        assert_eq!(q.stats().cas_attempts, 1);
    }

    #[test]
    fn concurrent_batches_conserve_tokens() {
        const THREADS: usize = 4;
        const PER: usize = 4_000;
        let q = AnQueue::new(THREADS * PER);
        let mut all: Vec<u32> = Vec::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let q = &q;
                scope.spawn(move || {
                    let tokens: Vec<u32> = (0..PER as u32).map(|i| (t * PER) as u32 + i).collect();
                    for chunk in tokens.chunks(23) {
                        q.push_batch(chunk).unwrap();
                    }
                });
            }
            let mut handles = Vec::new();
            for _ in 0..THREADS {
                let q = &q;
                handles.push(scope.spawn(move || {
                    let mut got = Vec::new();
                    let mut misses = 0;
                    while misses < 20_000 {
                        let before = got.len();
                        q.pop_batch(&mut got, 16);
                        if got.len() == before {
                            misses += 1;
                        } else {
                            misses = 0;
                        }
                    }
                    got
                }));
            }
            all = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
        });
        let mut rest = Vec::new();
        while q.pop_batch(&mut rest, 64) > 0 {}
        all.extend(rest);
        all.sort_unstable();
        assert_eq!(all, (0..(THREADS * PER) as u32).collect::<Vec<_>>());
    }
}
