//! The scalar type system of the IR.
//!
//! MosaicSim executes LLVM IR; this crate mirrors the subset of LLVM's type
//! system that the simulator's kernels need: fixed-width integers, IEEE
//! floats, an opaque byte-addressed pointer, and `void` for instructions
//! that produce no value.

use std::fmt;

/// Declares an enum whose variants each have one textual name: the enum,
/// `ALL` (its variants in declaration order), the method that prints a
/// variant and the one that reads it back. A variant and its name are
/// written once, so none can print and fail to parse.
macro_rules! named_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident = $text:literal,)+
        }
        $(#[$to_meta:meta])*
        fn $to:ident;
        $(#[$from_meta:meta])*
        fn $from:ident;
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &[$name] = &[$($name::$variant),+];

            $(#[$to_meta])*
            pub fn $to(self) -> &'static str {
                match self {
                    $($name::$variant => $text,)+
                }
            }

            $(#[$from_meta])*
            pub fn $from(s: &str) -> Option<$name> {
                Self::ALL.iter().copied().find(|v| v.$to() == s)
            }
        }
    };
}
pub(crate) use named_enum;

named_enum! {
    /// A scalar IR type.
    ///
    /// # Examples
    ///
    /// ```
    /// use mosaic_ir::Type;
    /// assert_eq!(Type::I32.size_bytes(), 4);
    /// assert!(Type::F64.is_float());
    /// assert!(Type::Ptr.is_pointer());
    /// ```
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum Type {
        /// 1-bit boolean (stored as one byte in memory).
        I1 = "i1",
        /// 8-bit integer.
        I8 = "i8",
        /// 16-bit integer.
        I16 = "i16",
        /// 32-bit integer.
        #[default]
        I32 = "i32",
        /// 64-bit integer.
        I64 = "i64",
        /// 32-bit IEEE-754 float.
        F32 = "f32",
        /// 64-bit IEEE-754 float.
        F64 = "f64",
        /// Byte-addressed pointer (64-bit).
        Ptr = "ptr",
        /// No value (terminators, stores).
        Void = "void",
    }
    /// The textual keyword used by the printer/parser.
    fn keyword;
    /// Parses a type keyword as produced by [`Type::keyword`].
    fn from_keyword;
}

impl Type {
    /// Size of a value of this type in memory, in bytes.
    ///
    /// `Void` has size 0; `I1` occupies one byte.
    #[inline]
    pub fn size_bytes(self) -> u32 {
        match self {
            Type::Void => 0,
            Type::I1 | Type::I8 => 1,
            Type::I16 => 2,
            Type::I32 | Type::F32 => 4,
            Type::I64 | Type::F64 | Type::Ptr => 8,
        }
    }

    /// Whether this is one of the integer types (including `I1`).
    pub(crate) fn is_int(self) -> bool {
        matches!(self, Type::I1 | Type::I8 | Type::I16 | Type::I32 | Type::I64)
    }

    /// Whether this is a floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, Type::F32 | Type::F64)
    }

    /// Whether this is the pointer type.
    pub fn is_pointer(self) -> bool {
        self == Type::Ptr
    }

    /// Whether a value of this type exists at all.
    pub(crate) fn is_value(self) -> bool {
        self != Type::Void
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A compile-time constant operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Constant {
    /// Integer constant of the given type.
    Int(i64, Type),
    /// Floating-point constant of the given type.
    Float(f64, Type),
}

impl Constant {
    /// A boolean (`i1`) constant.
    #[cfg(test)]
    pub(crate) fn bool(v: bool) -> Constant {
        Constant::Int(v as i64, Type::I1)
    }

    /// An `i32` constant.
    pub fn i32(v: i32) -> Constant {
        Constant::Int(v as i64, Type::I32)
    }

    /// An `i64` constant.
    pub fn i64(v: i64) -> Constant {
        Constant::Int(v, Type::I64)
    }

    /// An `f32` constant.
    pub fn f32(v: f32) -> Constant {
        Constant::Float(v as f64, Type::F32)
    }

    /// An `f64` constant.
    #[cfg(test)]
    pub(crate) fn f64(v: f64) -> Constant {
        Constant::Float(v, Type::F64)
    }

    /// The type of this constant.
    pub fn ty(self) -> Type {
        match self {
            Constant::Int(_, t) | Constant::Float(_, t) => t,
        }
    }
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Int(v, t) => write!(f, "{t} {v}"),
            Constant::Float(v, t) => write!(f, "{t} {v:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_llvm_layout() {
        assert_eq!(Type::I1.size_bytes(), 1);
        assert_eq!(Type::I8.size_bytes(), 1);
        assert_eq!(Type::I16.size_bytes(), 2);
        assert_eq!(Type::I32.size_bytes(), 4);
        assert_eq!(Type::I64.size_bytes(), 8);
        assert_eq!(Type::F32.size_bytes(), 4);
        assert_eq!(Type::F64.size_bytes(), 8);
        assert_eq!(Type::Ptr.size_bytes(), 8);
        assert_eq!(Type::Void.size_bytes(), 0);
    }

    #[test]
    fn keyword_round_trip() {
        for t in [
            Type::I1,
            Type::I8,
            Type::I16,
            Type::I32,
            Type::I64,
            Type::F32,
            Type::F64,
            Type::Ptr,
            Type::Void,
        ] {
            assert_eq!(Type::from_keyword(t.keyword()), Some(t));
        }
        assert_eq!(Type::from_keyword("i128"), None);
    }

    #[test]
    fn constant_helpers_carry_type() {
        assert_eq!(Constant::bool(true).ty(), Type::I1);
        assert_eq!(Constant::i32(-1).ty(), Type::I32);
        assert_eq!(Constant::f64(2.5).ty(), Type::F64);
    }

    #[test]
    fn classification() {
        assert!(Type::I1.is_int());
        assert!(!Type::F32.is_int());
        assert!(Type::F32.is_float());
        assert!(Type::Ptr.is_pointer());
        assert!(!Type::Void.is_value());
    }
}
