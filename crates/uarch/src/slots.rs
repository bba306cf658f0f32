//! The live-slot table that every slotted storage structure keeps its
//! entries in: the caches, the line-fill buffer, both TLBs, the PTW cache
//! and both branch target buffers.

/// The set bits of one bitset word, lowest first.
struct Bits(u64);

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

/// A fixed number of slots, each an entry `T` and a `width`-byte payload,
/// with a bitset that marks the *live* slots, those holding an entry.
///
/// A slot that is not live is always empty (`T::default()` and a zeroed
/// payload): [`Slots::reset`] and [`Slots::flush_all`] are the only ways a
/// slot stops being live, and both empty it. So [`Clone::clone_from`]
/// copies only the slots live in the source, resets those live only in the
/// destination, and still leaves every array bit-identical to a full copy;
/// debug builds check each copy against the full one. Copying a table that
/// holds a few dozen entries copies a few dozen slots, whatever its size.
///
/// The structure that owns a table keeps its own lookup and victim policy.
/// Each one takes a free slot before it compares recency stamps, so the
/// stamps a reset clears are never compared.
#[derive(Debug, PartialEq, Eq)]
pub struct Slots<T> {
    width: usize,
    /// One bit per slot, set while the slot is live.
    live: Vec<u64>,
    entries: Vec<T>,
    payload: Vec<u8>,
}

impl<T: Copy + Default + PartialEq> Clone for Slots<T> {
    fn clone(&self) -> Slots<T> {
        let mut slots = Slots::new(self.capacity(), self.width);
        slots.clone_from(self);
        slots
    }

    /// Makes `self` a copy of `source` through the slots live on either
    /// side: a slot live in `source` is copied, and one live only here is
    /// reset. A table of another size or width is first replaced by an
    /// empty one.
    fn clone_from(&mut self, source: &Slots<T>) {
        if (self.capacity(), self.width) != (source.capacity(), source.width) {
            *self = Slots::new(source.capacity(), source.width);
        }
        for (w, &theirs) in source.live.iter().enumerate() {
            for bit in Bits(self.live[w] | theirs) {
                let slot = w * 64 + bit;
                if theirs >> bit & 1 != 0 {
                    self.copy_slot(source, slot);
                } else {
                    self.reset(slot);
                }
            }
        }
        #[cfg(debug_assertions)]
        self.check_full_copy(source);
    }
}

impl<T: Copy + Default + PartialEq> Slots<T> {
    /// A table of `capacity` empty slots with `width`-byte payloads.
    pub fn new(capacity: usize, width: usize) -> Slots<T> {
        Slots {
            width,
            live: vec![0; capacity.div_ceil(64)],
            entries: vec![T::default(); capacity],
            payload: vec![0; capacity * width],
        }
    }

    /// Number of slots, live or not.
    pub(crate) fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Payload bytes per slot.
    pub fn width(&self) -> usize {
        self.width
    }

    /// `true` while `slot` holds an entry.
    pub fn is_live(&self, slot: usize) -> bool {
        self.live[slot / 64] >> (slot % 64) & 1 != 0
    }

    /// The entry in `slot`, if it is live.
    pub fn get(&self, slot: usize) -> Option<&T> {
        self.is_live(slot).then(|| &self.entries[slot])
    }

    /// The payload of `slot` (all zeros unless it is live).
    pub fn bytes(&self, slot: usize) -> &[u8] {
        &self.payload[slot * self.width..(slot + 1) * self.width]
    }

    /// The live slots and their entries, in ascending slot order.
    pub fn live(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        (self.live.iter().enumerate())
            .flat_map(|(w, &bits)| Bits(bits).map(move |b| w * 64 + b))
            .map(|slot| (slot, &self.entries[slot]))
    }

    /// Number of live slots.
    pub fn live_count(&self) -> usize {
        self.live.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The lowest live slot whose entry satisfies `pred`.
    pub(crate) fn find(&self, pred: impl Fn(&T) -> bool) -> Option<usize> {
        self.live().find(|(_, e)| pred(e)).map(|(slot, _)| slot)
    }

    /// The lowest slot that is not live.
    pub(crate) fn first_free(&self) -> Option<usize> {
        (0..self.capacity()).find(|&slot| !self.is_live(slot))
    }

    /// Makes `slot` live with `entry`, and returns its payload for the
    /// caller to write. The payload keeps its bytes: zeros if the slot was
    /// free, the previous entry's if it was live.
    pub fn set(&mut self, slot: usize, entry: T) -> &mut [u8] {
        self.live[slot / 64] |= 1 << (slot % 64);
        self.entries[slot] = entry;
        self.bytes_mut(slot)
    }

    /// The entry in live `slot`, to update in place.
    pub(crate) fn entry_mut(&mut self, slot: usize) -> &mut T {
        debug_assert!(self.is_live(slot), "slot {slot} is not live");
        &mut self.entries[slot]
    }

    /// The payload of live `slot`, to update in place.
    pub(crate) fn bytes_mut(&mut self, slot: usize) -> &mut [u8] {
        debug_assert!(self.is_live(slot), "slot {slot} is not live");
        &mut self.payload[slot * self.width..(slot + 1) * self.width]
    }

    /// Empties `slot`: clears its live bit and resets its entry and
    /// payload, the state every slot that is not live is in.
    pub fn reset(&mut self, slot: usize) {
        self.live[slot / 64] &= !(1 << (slot % 64));
        self.entries[slot] = T::default();
        self.payload[slot * self.width..(slot + 1) * self.width].fill(0);
    }

    /// Empties every live slot.
    pub fn flush_all(&mut self) {
        for w in 0..self.live.len() {
            for bit in Bits(self.live[w]) {
                self.reset(w * 64 + bit);
            }
        }
    }

    /// Copies `source`'s entry and payload at `slot` into the same slot
    /// here.
    fn copy_slot(&mut self, source: &Slots<T>, slot: usize) {
        self.set(slot, source.entries[slot])
            .copy_from_slice(source.bytes(slot));
    }

    /// Debug-build reference of [`Slots::clone_from`]: every array equals
    /// `source`'s, as a full copy would leave it.
    #[cfg(debug_assertions)]
    fn check_full_copy(&self, source: &Slots<T>) {
        if self == source {
            return;
        }
        let slot = (0..self.capacity()).find(|&i| {
            self.is_live(i) != source.is_live(i)
                || self.entries[i] != source.entries[i]
                || self.bytes(i) != source.bytes(i)
        });
        panic!(
            "live-slot copy leaves slot {slot:?} of a {} table unlike a full copy of its source",
            std::any::type_name::<T>()
        );
    }
}
