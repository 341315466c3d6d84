//! A slab: values addressed by a `u32` slot, with freed slots recycled.
//!
//! The engine keeps its event closures in one, and the protocol layer
//! parks in-flight messages in another so that a delivery event captures
//! only the slot index. Which slot a value gets depends only on the order
//! of inserts and takes, so it is as deterministic as the run.

/// Values addressed by `u32` slot; a freed slot is reused by the next
/// insert (last freed, first reused).
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<T> Slab<T> {
    /// An empty slab with room for `n` values before it reallocates.
    pub fn with_capacity(n: usize) -> Slab<T> {
        Slab {
            slots: Vec::with_capacity(n),
            free: Vec::new(),
        }
    }

    /// Stores `value` and returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if 2^32 values would be live at once.
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(value);
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("under 2^32 live slab values");
                self.slots.push(Some(value));
                i
            }
        }
    }

    /// Removes and returns the value in `slot`, freeing the slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` holds no value.
    pub fn take(&mut self, slot: u32) -> T {
        let value = self.slots[slot as usize]
            .take()
            .expect("slab slot holds a value");
        self.free.push(slot);
        value
    }

    /// Values stored now.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slots ever used: the high-water mark of live values, since slots
    /// are recycled and never released.
    pub fn total(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freed_slots_are_reused_last_first() {
        let mut s: Slab<&str> = Slab::default();
        assert_eq!((s.insert("a"), s.insert("b"), s.insert("c")), (0, 1, 2));
        assert_eq!(s.take(0), "a");
        assert_eq!(s.take(2), "c");
        assert_eq!((s.live(), s.total()), (1, 3));
        assert_eq!(s.insert("d"), 2);
        assert_eq!(s.insert("e"), 0);
        assert_eq!(s.insert("f"), 3);
        assert_eq!((s.live(), s.total()), (4, 4));
        assert_eq!(s.take(1), "b");
    }
}
