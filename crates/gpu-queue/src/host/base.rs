//! BASE: the traditional per-token CAS design.
//!
//! The [`Cas`] × [`Bounded`] core restricted to width 1 — every operation
//! claims exactly one token with a compare-exchange ticket on
//! `Front`/`Rear`; contention produces failed CAS attempts that loop, and
//! dequeue on an empty queue raises the queue-empty exception (returns
//! `None` after counting a retry): the two overheads the paper's design
//! eliminates.

use super::{Bounded, Cas, Queue, QueueFull, StatsSnapshot};

/// Traditional bounded lock-free queue (per-token CAS tickets,
/// non-wrapping; see the module docs of [`super`]).
#[derive(Debug)]
pub struct BaseQueue(Queue<Cas, Bounded>);

impl BaseQueue {
    /// Creates a queue with room for `capacity` tokens.
    pub fn new(capacity: usize) -> Self {
        BaseQueue(Queue::new(capacity))
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Enqueues one token: CAS-reserve a `Rear` ticket, then publish the
    /// token with a release store. Loops on CAS failure.
    pub fn push(&self, token: u32) -> Result<(), QueueFull> {
        self.0.put(std::slice::from_ref(&token)).map(drop)
    }

    /// Dequeues one token, or returns `None` (queue-empty exception) when
    /// no published ticket is claimable. A claimed ticket whose data has
    /// not landed yet is spin-waited briefly — the publishing store
    /// follows the reservation immediately on the producer side.
    pub fn try_pop(&self) -> Option<u32> {
        let mut popped = None;
        self.0.pop(1, |token| popped = Some(token));
        popped
    }

    /// Published-token estimate (see [`Queue::len_hint`]).
    pub fn len_hint(&self) -> u64 {
        self.0.len_hint()
    }

    /// Operation counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.0.stats()
    }

    /// Restores the initial state (exclusive access required).
    pub fn reset(&mut self) {
        self.0.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_single_thread() {
        let q = BaseQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn empty_pop_counts_exception_retry() {
        let q = BaseQueue::new(2);
        assert_eq!(q.try_pop(), None);
        assert_eq!(q.stats().empty_retries, 1);
    }

    #[test]
    fn overflow_is_queue_full() {
        let q = BaseQueue::new(1);
        q.push(5).unwrap();
        assert_eq!(q.push(6), Err(QueueFull { capacity: 1 }));
    }

    #[test]
    fn every_op_is_a_cas() {
        let q = BaseQueue::new(8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.try_pop().unwrap();
        let s = q.stats();
        assert_eq!(s.afa_ops, 0);
        assert!(s.cas_attempts >= 3);
    }

    #[test]
    fn concurrent_token_conservation() {
        const THREADS: usize = 4;
        const PER: usize = 5_000;
        let q = BaseQueue::new(THREADS * PER);
        let mut all: Vec<u32> = Vec::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let q = &q;
                scope.spawn(move || {
                    for i in 0..PER as u32 {
                        q.push((t * PER) as u32 + i).unwrap();
                    }
                });
            }
            let mut handles = Vec::new();
            for _ in 0..THREADS {
                let q = &q;
                handles.push(scope.spawn(move || {
                    let mut got = Vec::new();
                    let mut misses = 0;
                    while got.len() < PER || misses < 10_000 {
                        match q.try_pop() {
                            Some(v) => {
                                got.push(v);
                                misses = 0;
                            }
                            None => misses += 1,
                        }
                        if misses >= 10_000 {
                            break;
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
        // Drain whatever the consumers left behind.
        while let Some(v) = q.try_pop() {
            all.push(v);
        }
        all.sort_unstable();
        assert_eq!(all, (0..(THREADS * PER) as u32).collect::<Vec<_>>());
    }

    #[test]
    fn reset_reuses_storage() {
        let mut q = BaseQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.reset();
        q.push(9).unwrap();
        assert_eq!(q.try_pop(), Some(9));
    }
}
