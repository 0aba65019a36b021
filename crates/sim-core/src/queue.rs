//! Bounded FIFO queues connecting pipeline stages.
//!
//! Hardware queues have finite depth; back-pressure from a full queue is how
//! the simulator models stalls (an SM that cannot enqueue a miss this cycle
//! retries next cycle). [`BoundedQueue`] makes the capacity explicit and
//! refuses pushes beyond it.

use std::collections::VecDeque;

/// A FIFO queue with a hard capacity.
///
/// # Example
///
/// ```
/// use sim_core::BoundedQueue;
/// let mut q = BoundedQueue::new(2);
/// assert!(q.try_push(1).is_ok());
/// assert!(q.try_push(2).is_ok());
/// assert!(q.try_push(3).is_err()); // full: back-pressure
/// assert_eq!(q.pop(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-depth queue can never transfer
    /// an item and always indicates a configuration bug.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            items: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
        }
    }

    /// Attempts to enqueue; returns the item back on a full queue.
    #[inline]
    pub fn try_push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            Err(item)
        } else {
            self.items.push_back(item);
            Ok(())
        }
    }

    /// Dequeues the oldest item, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest item without removing it.
    #[inline]
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Number of queued items.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when at capacity (pushes will fail).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Remaining slots before the queue is full.
    #[inline]
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// The configured capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over queued items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Removes and returns the item `idx` places from the front (for
    /// FR-FCFS-style out-of-order picks), or `None` past the end. O(n);
    /// queues here are short by construction.
    pub fn remove(&mut self, idx: usize) -> Option<T> {
        self.items.remove(idx)
    }

    /// Drains every queued item, oldest first.
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.items.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let out: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_queue_rejects_and_returns_item() {
        let mut q = BoundedQueue::new(1);
        q.try_push("a").unwrap();
        assert!(q.is_full());
        assert_eq!(q.try_push("b"), Err("b"));
        assert_eq!(q.free(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = BoundedQueue::<u8>::new(0);
    }

    #[test]
    fn remove_takes_an_item_from_mid_queue() {
        let mut q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.remove(3), Some(3));
        assert_eq!(q.len(), 4);
        assert_eq!(q.remove(4), None);
        let out: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(out, vec![0, 1, 2, 4]);
    }

    #[test]
    fn front_and_iter_do_not_consume() {
        let mut q = BoundedQueue::new(4);
        q.try_push(10).unwrap();
        q.try_push(20).unwrap();
        assert_eq!(q.front(), Some(&10));
        assert_eq!(q.iter().count(), 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drain_empties_queue() {
        let mut q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let v: Vec<_> = q.drain().collect();
        assert_eq!(v, vec![1, 2]);
        assert!(q.is_empty());
    }
}
