//! Sharded work queues with bounded admission.
//!
//! A [`ShardPool`] owns N shards; each shard is one bounded FIFO queue
//! plus one worker thread running the pool's handler. The intake side
//! ([`ShardSender::try_enqueue`]) never blocks: a full or draining
//! shard rejects immediately, which the server turns into an
//! `Overloaded` response instead of queueing unbounded work. Routing is
//! the caller's job (the server hashes session ids), so everything a
//! session sends lands on one shard and is handled FIFO.
//!
//! Built on `std::sync` primitives (the in-tree `parking_lot` subset
//! has no `Condvar`); a poisoned lock is recovered rather than
//! propagated — a panicking handler must not wedge the whole pool.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Why [`ShardSender::try_enqueue`] rejected an item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueError {
    /// The target shard's queue is at capacity.
    Full {
        /// The shard that rejected.
        shard: usize,
        /// Its configured queue depth.
        depth: usize,
    },
    /// The pool is draining: inflight and queued work finishes, new
    /// work is rejected.
    Draining,
}

struct ShardState<T> {
    queue: VecDeque<T>,
    draining: bool,
}

struct Shard<T> {
    state: Mutex<ShardState<T>>,
    ready: Condvar,
}

fn lock_shard<T>(shard: &Shard<T>) -> MutexGuard<'_, ShardState<T>> {
    // A handler panic poisons nothing the queue invariants depend on;
    // keep serving rather than wedging every later request.
    shard
        .state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// N bounded FIFO queues, one worker thread each, all running the same
/// handler. See the module docs for the admission and drain contract.
pub struct ShardPool<T: Send + 'static> {
    shards: Arc<Vec<Shard<T>>>,
    depth: usize,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> ShardPool<T> {
    /// Spawn `shards` workers, each with a queue bounded at `depth`
    /// items. `handler(shard, item)` runs on the worker thread of the
    /// shard the item was enqueued to.
    pub fn new<F>(shards: usize, depth: usize, handler: F) -> Self
    where
        F: Fn(usize, T) + Send + Sync + 'static,
    {
        let shards = shards.max(1);
        let depth = depth.max(1);
        let states: Arc<Vec<Shard<T>>> = Arc::new(
            (0..shards)
                .map(|_| Shard {
                    state: Mutex::new(ShardState {
                        queue: VecDeque::new(),
                        draining: false,
                    }),
                    ready: Condvar::new(),
                })
                .collect(),
        );
        let handler = Arc::new(handler);
        let workers = (0..shards)
            .map(|index| {
                let states = Arc::clone(&states);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || {
                    let shard = &states[index];
                    loop {
                        let item = {
                            let mut state = lock_shard(shard);
                            loop {
                                if let Some(item) = state.queue.pop_front() {
                                    break item;
                                }
                                if state.draining {
                                    return;
                                }
                                state = shard
                                    .ready
                                    .wait(state)
                                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                            }
                        };
                        handler(index, item);
                    }
                })
            })
            .collect();
        ShardPool {
            shards: states,
            depth,
            workers,
        }
    }

    /// A cloneable intake handle for reader threads.
    pub fn sender(&self) -> ShardSender<T> {
        ShardSender {
            shards: Arc::clone(&self.shards),
            depth: self.depth,
        }
    }

    /// Start draining: every shard finishes its queued work, then its
    /// worker exits; new enqueues are rejected with
    /// [`EnqueueError::Draining`]. Idempotent and non-blocking — call
    /// [`ShardPool::join`] to wait for the workers.
    pub fn shutdown(&self) {
        for shard in self.shards.iter() {
            lock_shard(shard).draining = true;
            shard.ready.notify_all();
        }
    }

    /// Drain and wait: queued work finishes, workers exit.
    pub fn join(mut self) {
        self.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Intake handle onto a [`ShardPool`]'s queues — cheap to clone, safe
/// to use from any thread.
pub struct ShardSender<T> {
    shards: Arc<Vec<Shard<T>>>,
    depth: usize,
}

impl<T> Clone for ShardSender<T> {
    fn clone(&self) -> Self {
        ShardSender {
            shards: Arc::clone(&self.shards),
            depth: self.depth,
        }
    }
}

impl<T> ShardSender<T> {
    /// Enqueue `item` on `shard` (modulo the shard count). Never
    /// blocks: a full or draining shard rejects immediately.
    pub fn try_enqueue(&self, shard: usize, item: T) -> Result<(), EnqueueError> {
        let index = shard % self.shards.len();
        let target = &self.shards[index];
        let mut state = lock_shard(target);
        if state.draining {
            return Err(EnqueueError::Draining);
        }
        if state.queue.len() >= self.depth {
            return Err(EnqueueError::Full {
                shard: index,
                depth: self.depth,
            });
        }
        state.queue.push_back(item);
        target.ready.notify_one();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn items_route_to_their_shard_in_fifo_order() {
        let seen: Arc<Mutex<Vec<(usize, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let pool = ShardPool::new(2, 16, move |shard, item: u32| {
            sink.lock().unwrap().push((shard, item));
        });
        let sender = pool.sender();
        for item in 0..8u32 {
            sender.try_enqueue(item as usize % 2, item).unwrap();
        }
        pool.join();
        let seen = seen.lock().unwrap();
        let shard0: Vec<u32> = seen
            .iter()
            .filter(|(s, _)| *s == 0)
            .map(|(_, i)| *i)
            .collect();
        let shard1: Vec<u32> = seen
            .iter()
            .filter(|(s, _)| *s == 1)
            .map(|(_, i)| *i)
            .collect();
        assert_eq!(shard0, vec![0, 2, 4, 6]);
        assert_eq!(shard1, vec![1, 3, 5, 7]);
    }

    #[test]
    fn full_shard_rejects_without_blocking() {
        // Handler blocks until released: one item is inflight, `depth`
        // more fill the queue, the next must bounce with Full.
        let (release, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let pool = ShardPool::new(1, 2, move |_, _item: u32| {
            let _ = gate.lock().unwrap().recv();
        });
        let sender = pool.sender();
        sender.try_enqueue(0, 0).unwrap(); // picked up by the worker
                                           // Give the worker a moment to take item 0 inflight.
        std::thread::sleep(std::time::Duration::from_millis(20));
        sender.try_enqueue(0, 1).unwrap();
        sender.try_enqueue(0, 2).unwrap();
        assert_eq!(
            sender.try_enqueue(0, 3),
            Err(EnqueueError::Full { shard: 0, depth: 2 })
        );
        for _ in 0..3 {
            release.send(()).unwrap();
        }
        pool.join();
    }

    #[test]
    fn drain_finishes_queued_work_and_rejects_new() {
        let done = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&done);
        let pool = ShardPool::new(2, 8, move |_, _item: u32| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        let sender = pool.sender();
        for item in 0..6u32 {
            sender.try_enqueue(item as usize, item).unwrap();
        }
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 6);
        assert_eq!(sender.try_enqueue(0, 9), Err(EnqueueError::Draining));
    }
}
