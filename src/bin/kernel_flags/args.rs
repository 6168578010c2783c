//! The readers of a flag's value that all three command-line tools share:
//! `mosaic-lint`, which takes none of the other flags of `KernelFlags`,
//! includes this file alone.

/// The value of `flag`, the argument after `args[*i]`.
pub(crate) fn value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// The value of `flag` as a number.
pub(crate) fn number<T>(args: &[String], i: &mut usize, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let text = value(args, i, flag)?;
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

/// The value of a flag that counts from 1: a kernel built at scale 0 has
/// no data to index and a system of 0 tiles simulates nothing.
pub(super) fn positive<T>(args: &[String], i: &mut usize, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr + Default + PartialEq,
    T::Err: std::fmt::Display,
{
    match number::<T>(args, i, flag)? {
        n if n != T::default() => Ok(n),
        _ => Err(format!("{flag}: must be at least 1")),
    }
}
