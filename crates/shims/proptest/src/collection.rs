//! Collection strategies.

use std::ops::Range;

use rand::Rng;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Length specification for [`vec()`]: an exact size or a half-open range.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

/// Strategy producing `Vec`s of values from `element`.
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let len = rng.gen_range(self.size.lo..self.size.hi);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// Build a [`VecStrategy`]; `size` is an exact `usize` or a `Range<usize>`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}
