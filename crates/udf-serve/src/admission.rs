//! Bounded ingest with explicit admit/reject/shed decisions.
//!
//! The queue's contract is *no silent drops*: every record that enters the
//! service is eventually accounted as processed or shed, and every record
//! that does not enter is rejected back to the submitter with a reason.
//! [`crate::Service`] enforces the invariant
//! `admitted == processed + shed + queued` after every epoch.

use std::collections::VecDeque;

/// Outcome of one [`crate::Service::submit`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// The batch entered the queue.
    Admitted {
        /// Monotone batch id (also the shed report's handle).
        batch: u64,
        /// Records queued after this admission.
        queued: usize,
    },
    /// The batch was refused; none of its records entered the queue.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
}

/// Why a batch was refused at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// Admitting the batch would exceed the queue's record capacity.
    QueueFull {
        /// Records currently queued.
        queued: usize,
        /// The configured capacity.
        capacity: usize,
    },
    /// The batch contained no records.
    EmptyBatch,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { queued, capacity } => {
                write!(f, "queue full ({queued}/{capacity} records)")
            }
            RejectReason::EmptyBatch => write!(f, "empty batch"),
        }
    }
}

/// One batch dropped by deadline-aware load shedding — reported, never
/// silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedBatch {
    /// The batch id returned at admission.
    pub batch: u64,
    /// Records in the batch (all shed together; batches are atomic).
    pub records: usize,
    /// Epoch at which the batch was admitted.
    pub submitted_epoch: u64,
    /// Epochs the batch waited before being shed.
    pub waited_epochs: u64,
}

pub(crate) struct PendingBatch<R> {
    pub id: u64,
    pub submitted_epoch: u64,
    /// Global sequence number of the batch's first record.
    pub start_seq: u64,
    pub records: Vec<R>,
}

/// FIFO queue of admitted batches, bounded in records.
pub(crate) struct IngestQueue<R> {
    batches: VecDeque<PendingBatch<R>>,
    queued_records: usize,
    capacity: usize,
    next_batch: u64,
    next_seq: u64,
}

impl<R> IngestQueue<R> {
    pub(crate) fn new(capacity: usize) -> IngestQueue<R> {
        IngestQueue {
            batches: VecDeque::new(),
            queued_records: 0,
            capacity: capacity.max(1),
            next_batch: 0,
            next_seq: 0,
        }
    }

    pub(crate) fn queued_records(&self) -> usize {
        self.queued_records
    }

    /// Next batch id to be assigned (checkpointed so recovery continues
    /// the same id sequence).
    pub(crate) fn next_batch(&self) -> u64 {
        self.next_batch
    }

    /// Next global record sequence number to be assigned.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Restores the id/sequence counters from a checkpoint.
    pub(crate) fn set_counters(&mut self, next_batch: u64, next_seq: u64) {
        self.next_batch = next_batch;
        self.next_seq = next_seq;
    }

    /// The queued batches in admission order (for checkpointing).
    pub(crate) fn batches(&self) -> impl Iterator<Item = &PendingBatch<R>> {
        self.batches.iter()
    }

    /// The most recently admitted batch, if any still queued.
    pub(crate) fn back(&self) -> Option<&PendingBatch<R>> {
        self.batches.back()
    }

    /// Re-enqueues a batch exactly as recorded (recovery replay). Counters
    /// advance so post-recovery admissions continue the same sequences.
    pub(crate) fn restore_batch(&mut self, batch: PendingBatch<R>) {
        self.queued_records += batch.records.len();
        self.next_batch = self.next_batch.max(batch.id + 1);
        self.next_seq = self
            .next_seq
            .max(batch.start_seq + batch.records.len() as u64);
        self.batches.push_back(batch);
    }

    /// Queue depth as a fraction of capacity, in `[0.0, ∞)` (a single batch
    /// larger than the whole capacity is rejected, so in practice ≤ 1.0).
    pub(crate) fn pressure(&self) -> f64 {
        self.queued_records as f64 / self.capacity as f64
    }

    pub(crate) fn offer(&mut self, records: Vec<R>, epoch: u64) -> Admission {
        if records.is_empty() {
            return Admission::Rejected {
                reason: RejectReason::EmptyBatch,
            };
        }
        if self.queued_records + records.len() > self.capacity {
            return Admission::Rejected {
                reason: RejectReason::QueueFull {
                    queued: self.queued_records,
                    capacity: self.capacity,
                },
            };
        }
        let id = self.next_batch;
        self.next_batch += 1;
        let start_seq = self.next_seq;
        self.next_seq += records.len() as u64;
        self.queued_records += records.len();
        self.batches.push_back(PendingBatch {
            id,
            submitted_epoch: epoch,
            start_seq,
            records,
        });
        Admission::Admitted {
            batch: id,
            queued: self.queued_records,
        }
    }

    /// Removes and returns every batch older than `deadline_epochs` at
    /// `epoch` (admission order preserved).
    pub(crate) fn shed_expired(
        &mut self,
        epoch: u64,
        deadline_epochs: u64,
    ) -> Vec<(ShedBatch, Vec<R>)> {
        let mut shed = Vec::new();
        let mut keep = VecDeque::with_capacity(self.batches.len());
        for b in self.batches.drain(..) {
            let waited = epoch.saturating_sub(b.submitted_epoch);
            if waited > deadline_epochs {
                self.queued_records -= b.records.len();
                shed.push((
                    ShedBatch {
                        batch: b.id,
                        records: b.records.len(),
                        submitted_epoch: b.submitted_epoch,
                        waited_epochs: waited,
                    },
                    b.records,
                ));
            } else {
                keep.push_back(b);
            }
        }
        self.batches = keep;
        shed
    }

    /// Pops front batches until `limit` records are taken (the first batch
    /// is always taken even if it alone exceeds the limit: batches are
    /// atomic units).
    pub(crate) fn drain_up_to(&mut self, limit: usize) -> Vec<PendingBatch<R>> {
        let mut out = Vec::new();
        let mut taken = 0usize;
        while let Some(front) = self.batches.front() {
            let n = front.records.len();
            if !out.is_empty() && taken + n > limit {
                break;
            }
            taken += n;
            self.queued_records -= n;
            out.push(self.batches.pop_front().expect("front checked"));
            if taken >= limit {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_over_capacity_without_enqueueing() {
        let mut q: IngestQueue<i64> = IngestQueue::new(5);
        assert!(matches!(
            q.offer(vec![1, 2, 3], 0),
            Admission::Admitted {
                batch: 0,
                queued: 3
            }
        ));
        let r = q.offer(vec![4, 5, 6], 0);
        assert!(matches!(
            r,
            Admission::Rejected {
                reason: RejectReason::QueueFull {
                    queued: 3,
                    capacity: 5
                }
            }
        ));
        assert_eq!(q.queued_records(), 3, "rejected records must not enter");
        assert!(matches!(
            q.offer(vec![], 0),
            Admission::Rejected {
                reason: RejectReason::EmptyBatch
            }
        ));
    }

    #[test]
    fn shedding_is_deadline_scoped_and_accounted() {
        let mut q: IngestQueue<i64> = IngestQueue::new(100);
        q.offer(vec![1, 2], 0);
        q.offer(vec![3], 5);
        let shed = q.shed_expired(8, 4);
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].0.batch, 0);
        assert_eq!(shed[0].0.records, 2);
        assert_eq!(shed[0].0.waited_epochs, 8);
        assert_eq!(shed[0].1, vec![1, 2]);
        assert_eq!(q.queued_records(), 1, "young batch survives");
    }

    #[test]
    fn drain_respects_the_limit_but_keeps_batches_atomic() {
        let mut q: IngestQueue<i64> = IngestQueue::new(100);
        q.offer(vec![1, 2, 3], 0);
        q.offer(vec![4, 5], 0);
        q.offer(vec![6], 0);
        let got = q.drain_up_to(4);
        assert_eq!(got.len(), 1, "batch 1 would cross the limit: left queued");
        assert_eq!(got[0].records.len(), 3);
        assert_eq!(q.queued_records(), 3);
        let got = q.drain_up_to(4);
        let taken: usize = got.iter().map(|b| b.records.len()).sum();
        assert_eq!(taken, 3, "2 + 1 fit together under the limit");
        assert_eq!(q.queued_records(), 0);
        // A first batch larger than the limit is still taken whole.
        let mut q2: IngestQueue<i64> = IngestQueue::new(100);
        q2.offer(vec![1, 2, 3, 4], 0);
        let got = q2.drain_up_to(2);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].records.len(), 4);
    }
}
