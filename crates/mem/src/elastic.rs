//! Elastic (ready/valid) connection primitives.
//!
//! The paper (§4.4) builds every Vortex component out of elastic pipelines:
//! producer and consumer agree on a transfer only when `valid && ready`,
//! which lets stages back-pressure each other without global stall logic.
//! [`Queue`] is the software analogue: a bounded FIFO whose `push` is the
//! valid side (refused when full — the producer must retry next cycle) and
//! whose `pop` is the ready side.

use std::collections::VecDeque;
use vortex_faults::FaultPlan;
use vortex_snapshot::{Reader, Snap, SnapError, SnapResult, Writer};

/// A bounded FIFO with elastic-handshake semantics.
///
/// `push` corresponds to a `valid` assertion: it fails (returning the value
/// back) when the queue is full, modelling de-asserted `ready`.
///
/// A [`FaultPlan`] can be attached with [`Queue::set_fault`] to make the
/// consumer side spuriously de-assert `ready`: pushes are then refused at
/// the plan's `elastic_stall` rate even when space is available. With no
/// plan attached (the default) the handshake is unchanged.
#[derive(Debug, Clone)]
pub struct Queue<T> {
    items: VecDeque<T>,
    capacity: usize,
    fault: Option<FaultPlan>,
}

impl<T> Queue<T> {
    /// Creates a queue holding at most `capacity` elements.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "elastic queue capacity must be non-zero");
        Self {
            items: VecDeque::with_capacity(capacity),
            capacity,
            fault: None,
        }
    }

    /// Attaches a fault plan: pushes are additionally refused at the plan's
    /// `elastic_stall` rate, modelling spurious `ready` de-assertion.
    pub fn set_fault(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Detaches any fault plan (recovery masking: a retry after rollback
    /// can re-run the same window fault-free).
    pub fn clear_fault(&mut self) {
        self.fault = None;
    }

    /// Attempts to enqueue; returns `Err(value)` when full (or when an
    /// attached fault plan stalls the handshake this cycle).
    pub fn push(&mut self, value: T) -> Result<(), T> {
        if self.is_full() {
            return Err(value);
        }
        if let Some(plan) = &mut self.fault {
            if plan.stall_elastic() {
                return Err(value);
            }
        }
        self.items.push_back(value);
        Ok(())
    }

    /// Dequeues the oldest element.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest element.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Mutable access to the *newest* element. This is in-place mutation
    /// of an already-transferred item, not a handshake — it bypasses the
    /// capacity/fault gates by design (used by virtual-port coalescing to
    /// widen the newest queued cache request).
    pub fn back_mut(&mut self) -> Option<&mut T> {
        self.items.back_mut()
    }

    /// `true` when no further `push` can succeed this cycle.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Maximum occupancy.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Remaining free slots.
    pub fn space(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Iterates over queued elements from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Decisions drawn from the attached fault plan so far (0 when no plan
    /// is attached) — input to the per-site determinism audit.
    pub fn fault_draws(&self) -> u64 {
        self.fault.as_ref().map_or(0, FaultPlan::draws)
    }
}

impl<T: Snap> Queue<T> {
    /// Appends the queue's contents and fault-plan position. Capacity is
    /// construction state and is not serialized.
    pub fn save_state(&self, w: &mut Writer) {
        self.items.save(w);
        self.fault.save(w);
    }

    /// Restores contents and fault-plan position in place. The queue keeps
    /// its configured capacity; a payload holding more elements than fit is
    /// a [`SnapError::BadValue`]. Elements load into the existing backing
    /// buffer (reserved to `capacity` at construction), so a restored
    /// queue stays allocation-free exactly like a freshly built one.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        let n = r.len(1)?;
        if n > self.capacity {
            return Err(SnapError::BadValue("queue occupancy"));
        }
        self.items.clear();
        for _ in 0..n {
            self.items.push_back(T::load(r)?);
        }
        self.fault = Option::<FaultPlan>::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_backpressures_when_full() {
        let mut q = Queue::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert!(q.push(3).is_ok());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn queue_is_fifo() {
        let mut q = Queue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = Queue::<u32>::new(0);
    }

    #[test]
    fn fault_gate_refuses_pushes_without_losing_data() {
        use vortex_faults::FaultConfig;
        let cfg = FaultConfig { seed: 1, elastic_stall: 500, ..FaultConfig::off() };
        let mut q = Queue::new(4);
        q.set_fault(cfg.plan(0));
        let mut accepted = 0;
        let mut refused = 0;
        for i in 0..256 {
            match q.push(i) {
                Ok(()) => accepted += 1,
                Err(v) => {
                    assert_eq!(v, i, "refused push must hand the value back");
                    refused += 1;
                }
            }
            q.pop();
        }
        assert!(accepted > 0 && refused > 0, "50% gate must both pass and stall");
    }
}
