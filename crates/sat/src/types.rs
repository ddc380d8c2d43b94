//! Basic SAT types: variables, literals and three-valued booleans.

use std::fmt;

/// A SAT variable, numbered from 0.
///
/// # Examples
///
/// ```
/// use axmc_sat::{Var, Lit};
///
/// let v = Var::new(4);
/// assert_eq!(v.positive(), Lit::positive(v));
/// assert_eq!(v.positive().var(), v);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Var(u32);

impl Var {
    /// Creates a variable from its index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        Var(index)
    }

    /// Returns the index of this variable.
    #[inline]
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the positive literal of this variable.
    #[inline]
    pub const fn positive(self) -> Lit {
        Lit::positive(self)
    }

    /// Returns the negative literal of this variable.
    #[inline]
    pub const fn negative(self) -> Lit {
        Lit::negative(self)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// The largest DIMACS variable a [`Lit`] can hold: a literal packs as
/// `2 * var + sign` in a `u32`, so variables are `1..=MAX_VARS` in DIMACS
/// numbering. Parsers of untrusted DIMACS or DRAT text reject anything
/// larger instead of letting it alias a small variable.
pub const MAX_VARS: u64 = (u32::MAX as u64 - 1) / 2;

/// A SAT literal (`2 * var + sign` packing).
///
/// # Examples
///
/// ```
/// use axmc_sat::{Var, Lit};
///
/// let a = Lit::positive(Var::new(0));
/// assert_eq!(!a, Lit::negative(Var::new(0)));
/// assert!((!a).is_negative());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lit(u32);

impl Lit {
    /// Creates the positive literal of `var`.
    #[inline]
    pub const fn positive(var: Var) -> Self {
        Lit(var.0 << 1)
    }

    /// Creates the negative literal of `var`.
    #[inline]
    pub const fn negative(var: Var) -> Self {
        Lit((var.0 << 1) | 1)
    }

    /// Creates a literal from a variable and a sign flag (`true` = negated).
    #[inline]
    pub const fn new(var: Var, negative: bool) -> Self {
        Lit((var.0 << 1) | negative as u32)
    }

    /// Creates a literal from its packed code.
    #[inline]
    pub const fn from_code(code: u32) -> Self {
        Lit(code)
    }

    /// Returns the packed code (`2 * var + sign`).
    #[inline]
    pub const fn code(self) -> u32 {
        self.0
    }

    /// Returns the variable of this literal.
    #[inline]
    pub const fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` if the literal is negated.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 & 1 == 1
    }

    /// Parses a DIMACS-style integer literal (`3` / `-3`, 1-based).
    ///
    /// # Panics
    ///
    /// Panics if `dimacs == 0` or its magnitude exceeds [`MAX_VARS`].
    pub fn from_dimacs(dimacs: i64) -> Self {
        assert!(dimacs != 0, "DIMACS literal 0 is the clause terminator");
        assert!(
            dimacs.unsigned_abs() <= MAX_VARS,
            "DIMACS literal {dimacs} exceeds the representable maximum {MAX_VARS}"
        );
        let var = Var::new((dimacs.unsigned_abs() - 1) as u32);
        Lit::new(var, dimacs < 0)
    }

    /// Converts to a DIMACS-style integer literal (1-based, sign = polarity).
    pub fn to_dimacs(self) -> i64 {
        let v = (self.var().index() + 1) as i64;
        if self.is_negative() {
            -v
        } else {
            v
        }
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "!x{}", self.var().index())
        } else {
            write!(f, "x{}", self.var().index())
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A three-valued boolean: true, false or unassigned.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not assigned.
    #[default]
    Undef,
}

impl LBool {
    /// Converts from a concrete boolean.
    #[inline]
    pub const fn from_bool(b: bool) -> Self {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// Returns the concrete value, or `None` if unassigned.
    #[inline]
    pub const fn to_option(self) -> Option<bool> {
        match self {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// Three-valued exclusive or with a sign: flips True/False when
    /// `negate` holds, leaves Undef untouched.
    #[inline]
    pub const fn negate_if(self, negate: bool) -> Self {
        match (self, negate) {
            (LBool::True, true) => LBool::False,
            (LBool::False, true) => LBool::True,
            (v, _) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_packing() {
        let v = Var::new(3);
        assert_eq!(v.positive().code(), 6);
        assert_eq!(v.negative().code(), 7);
        assert_eq!(!v.positive(), v.negative());
        assert_eq!(v.negative().var(), v);
    }

    #[test]
    fn dimacs_conversion() {
        assert_eq!(Lit::from_dimacs(1), Var::new(0).positive());
        assert_eq!(Lit::from_dimacs(-5), Var::new(4).negative());
        assert_eq!(Lit::from_dimacs(-5).to_dimacs(), -5);
        assert_eq!(Lit::from_dimacs(7).to_dimacs(), 7);
    }

    #[test]
    #[should_panic]
    fn dimacs_zero_panics() {
        let _ = Lit::from_dimacs(0);
    }

    #[test]
    fn dimacs_range_ends_at_max_vars() {
        let top = Lit::from_dimacs(-(MAX_VARS as i64));
        assert_eq!(top.to_dimacs(), -(MAX_VARS as i64));
        assert_eq!(top.code(), u32::MAX - 2);
    }

    #[test]
    #[should_panic(expected = "exceeds the representable maximum")]
    fn dimacs_beyond_max_vars_panics() {
        let _ = Lit::from_dimacs(MAX_VARS as i64 + 1);
    }

    #[test]
    fn lbool_ops() {
        assert_eq!(LBool::from_bool(true), LBool::True);
        assert_eq!(LBool::True.negate_if(true), LBool::False);
        assert_eq!(LBool::Undef.negate_if(true), LBool::Undef);
        assert_eq!(LBool::False.to_option(), Some(false));
        assert_eq!(LBool::Undef.to_option(), None);
    }
}
