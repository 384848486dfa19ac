//! Short lists that live inside their owner.
//!
//! [`FixedVec`] holds at most `N` items and [`InlineVec`] holds the first `N`
//! the same way but moves to the heap when a push exceeds `N`. Both keep
//! their items in order, exactly as a `Vec` would, and dereference to a
//! slice; equality compares the items only.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// At most `N` `Copy` items, stored inline.
#[derive(Clone, Copy)]
pub struct FixedVec<T: Copy + Default, const N: usize> {
    len: u8,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> FixedVec<T, N> {
    /// An empty list.
    pub fn new() -> Self {
        FixedVec {
            len: 0,
            items: [T::default(); N],
        }
    }

    /// Whether another push fits.
    fn has_room(&self) -> bool {
        usize::from(self.len) < N
    }

    /// Appends `x`.
    ///
    /// # Panics
    /// Panics if the list already holds `N` items.
    pub fn push(&mut self, x: T) {
        assert!(self.has_room(), "FixedVec capacity {N} exceeded");
        self.items[usize::from(self.len)] = x;
        self.len += 1;
    }

    /// Removes and returns the item at `i`, shifting the rest left.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn remove(&mut self, i: usize) -> T {
        let x = self[i];
        self.items.copy_within(i + 1..usize::from(self.len), i);
        self.len -= 1;
        x
    }

    /// Keeps only the items `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut kept = 0;
        for i in 0..usize::from(self.len) {
            let x = self.items[i];
            if keep(&x) {
                self.items[kept] = x;
                kept += 1;
            }
        }
        self.len = kept as u8;
    }

    /// Removes every item.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl<T: Copy + Default, const N: usize> Default for FixedVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for FixedVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..usize::from(self.len)]
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for FixedVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..usize::from(self.len)]
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for FixedVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for FixedVec<T, N> {}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for FixedVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A list of `Copy` items that keeps up to `N` of them inline and moves to
/// the heap when a push exceeds `N`.
///
/// The distributed tree keeps helper children in these: a helper has two
/// children and a ready vnode one, so protocol roles never allocate and a
/// role clone is a plain copy. A further child, which only lost or
/// duplicated mail can produce, is still kept. The heap form is an exact
/// boxed slice, so every edit of it reallocates: it is for the rare
/// overflow, not for lists that usually live there.
#[derive(Clone)]
pub struct InlineVec<T: Copy + Default, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T: Copy + Default, const N: usize> {
    Inline(FixedVec<T, N>),
    Spilled(Box<[T]>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty list.
    pub fn new() -> Self {
        InlineVec(Repr::Inline(FixedVec::new()))
    }

    /// The list holding exactly `items`: inline when they fit, else in one
    /// exact heap block.
    pub fn from_vec(items: Vec<T>) -> Self {
        if items.len() <= N {
            items.into_iter().collect()
        } else {
            InlineVec(Repr::Spilled(items.into_boxed_slice()))
        }
    }

    /// Rebuilds the heap form through a `Vec`.
    fn edit_spilled(all: &mut Box<[T]>, edit: impl FnOnce(&mut Vec<T>)) {
        let mut items = std::mem::take(all).into_vec();
        edit(&mut items);
        *all = items.into_boxed_slice();
    }

    /// Appends `x`, moving to the heap when the inline capacity is full.
    pub fn push(&mut self, x: T) {
        match &mut self.0 {
            Repr::Inline(few) if few.has_room() => few.push(x),
            Repr::Inline(few) => {
                let mut all = Vec::with_capacity(N + 1);
                all.extend_from_slice(few);
                all.push(x);
                self.0 = Repr::Spilled(all.into_boxed_slice());
            }
            Repr::Spilled(all) => Self::edit_spilled(all, |v| v.push(x)),
        }
    }

    /// Removes and returns the item at `i`, shifting the rest left.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn remove(&mut self, i: usize) -> T {
        match &mut self.0 {
            Repr::Inline(few) => few.remove(i),
            Repr::Spilled(all) => {
                let x = all[i];
                Self::edit_spilled(all, |v| {
                    v.remove(i);
                });
                x
            }
        }
    }

    /// Keeps only the items `keep` accepts, in order.
    pub fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        match &mut self.0 {
            Repr::Inline(few) => few.retain(keep),
            Repr::Spilled(all) => Self::edit_spilled(all, |v| v.retain(keep)),
        }
    }
}

impl<T: Copy + Default, const N: usize> From<FixedVec<T, N>> for InlineVec<T, N> {
    fn from(few: FixedVec<T, N>) -> Self {
        InlineVec(Repr::Inline(few))
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline(few) => few,
            Repr::Spilled(all) => all,
        }
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline(few) => few,
            Repr::Spilled(all) => all,
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        for x in iter {
            out.push(x);
        }
        out
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every edit leaves the list holding exactly what a `Vec` holds.
        /// Each step is `(op, x)`: push `x`, remove at `x`, keep the odd
        /// items, or rebuild from a `Vec`.
        #[test]
        fn behaves_like_a_vec(ops in proptest::collection::vec((0u8..4, 0u32..8), 0..40)) {
            let mut list: InlineVec<u32, 2> = InlineVec::new();
            let mut model: Vec<u32> = Vec::new();
            for (op, x) in ops {
                match op {
                    0 => {
                        list.push(x);
                        model.push(x);
                    }
                    1 if (x as usize) < model.len() => {
                        prop_assert_eq!(list.remove(x as usize), model.remove(x as usize));
                    }
                    2 => {
                        list.retain(|x| x % 2 == 1);
                        model.retain(|x| x % 2 == 1);
                    }
                    3 => list = InlineVec::from_vec(model.clone()),
                    _ => {}
                }
                prop_assert_eq!(&*list, model.as_slice());
                prop_assert_eq!(list.clone(), model.iter().copied().collect());
            }
        }
    }

    #[test]
    fn fixed_vec_edits_like_a_vec() {
        let mut list: FixedVec<u32, 3> = FixedVec::new();
        for x in [4, 5, 6] {
            list.push(x);
        }
        assert_eq!(list.remove(0), 4);
        list.push(7);
        list.retain(|&x| x != 6);
        assert_eq!(&*list, &[5, 7]);
        list.clear();
        assert!(list.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity 2 exceeded")]
    fn fixed_vec_rejects_an_overflow() {
        let mut list: FixedVec<u32, 2> = FixedVec::new();
        for x in 0..3 {
            list.push(x);
        }
    }

    #[test]
    fn stays_small() {
        assert!(std::mem::size_of::<FixedVec<u32, 2>>() <= 12);
        assert!(std::mem::size_of::<InlineVec<u32, 3>>() <= 24);
        assert!(std::mem::size_of::<InlineVec<(u32, bool), 2>>() <= 24);
    }
}
