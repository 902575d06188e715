//! The values an option accepts beyond what its type can hold: one set
//! of rules for the config's `in` clauses and the command line's.
//!
//! A std range is a rule (`1..`, `0.0..=1.0`, or a `(Bound, Bound)` pair
//! where an end is excluded), and so is each type below. A rule both
//! checks a value and completes the sentence "`option` must be …".

use std::fmt::Display;
use std::ops::Bound::{self, Excluded, Included, Unbounded};
use std::ops::RangeBounds;

/// A check on one value of type `T`.
pub trait Allowed<T> {
    /// Whether `value` passes.
    fn allows(&self, value: &T) -> bool;
    /// Completes "`option` must be …".
    fn describe(&self) -> String;
}

/// A std range allows the values inside it.
impl<T: PartialOrd + Display, R: RangeBounds<T>> Allowed<T> for R {
    fn allows(&self, value: &T) -> bool {
        self.contains(value)
    }
    fn describe(&self) -> String {
        let end = |bound: Bound<&T>, sign: &str| match bound {
            Included(x) => Some(format!("{sign}= {x}")),
            Excluded(x) => Some(format!("{sign} {x}")),
            Unbounded => None,
        };
        let ends = [end(self.start_bound(), ">"), end(self.end_bound(), "<")];
        ends.into_iter().flatten().collect::<Vec<_>>().join(" and ")
    }
}

/// One of a fixed set of strings.
pub struct OneOf(pub &'static [&'static str]);

impl Allowed<String> for OneOf {
    fn allows(&self, value: &String) -> bool {
        self.0.contains(&value.as_str())
    }
    fn describe(&self) -> String {
        format!("one of {}", self.0.join("|"))
    }
}

/// Any string but `""`, any list but `[]`.
pub struct NonEmpty;

impl Allowed<String> for NonEmpty {
    fn allows(&self, value: &String) -> bool {
        !value.is_empty()
    }
    fn describe(&self) -> String {
        "non-empty".into()
    }
}

impl<T> Allowed<Vec<T>> for NonEmpty {
    fn allows(&self, value: &Vec<T>) -> bool {
        !value.is_empty()
    }
    fn describe(&self) -> String {
        "non-empty".into()
    }
}

/// A string with more than white space in it.
pub struct NonBlank;

impl Allowed<String> for NonBlank {
    fn allows(&self, value: &String) -> bool {
        !value.trim().is_empty()
    }
    fn describe(&self) -> String {
        "non-blank".into()
    }
}

/// A power of two no smaller than the one given.
pub struct PowerOfTwo(pub usize);

impl Allowed<usize> for PowerOfTwo {
    fn allows(&self, value: &usize) -> bool {
        value.is_power_of_two() && *value >= self.0
    }
    fn describe(&self) -> String {
        format!("a power of two >= {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_allow_and_describe() {
        assert!((1..).allows(&1usize) && !(1..).allows(&0usize));
        assert_eq!((0.0..=1.0).describe(), ">= 0 and <= 1");
        assert_eq!((Excluded(0.0), Unbounded).describe(), "> 0");
        assert!(OneOf(&["a", "b"]).allows(&"b".to_string()));
        assert_eq!(OneOf(&["a", "b"]).describe(), "one of a|b");
        assert!(!NonEmpty.allows(&String::new()) && NonEmpty.allows(&" ".to_string()));
        assert!(!NonBlank.allows(&" \t".to_string()) && NonBlank.allows(&"x".to_string()));
        for (n, ok) in [(4, false), (8, true), (12, false), (64, true)] {
            assert_eq!(PowerOfTwo(8).allows(&n), ok, "{n}");
        }
        assert_eq!(PowerOfTwo(8).describe(), "a power of two >= 8");
    }
}
