//! The flags `mosaic-report` and `mosaic-ckpt` share — which bundled
//! kernel, at what scale, on how many tiles of which core — and the system
//! they describe. Both binaries include this file as a module.

use std::sync::Arc;

use mosaicsim::prelude::*;

pub struct KernelFlags {
    pub kernel: Option<String>,
    pub scale: u32,
    pub tiles: usize,
    pub ooo: bool,
}

/// The value of `flag`, the argument after `args[*i]`.
pub fn value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// The value of `flag` as a number.
pub fn number<T>(args: &[String], i: &mut usize, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let text = value(args, i, flag)?;
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

/// The value of a flag that counts from 1: a kernel built at scale 0 has
/// no data to index and a system of 0 tiles simulates nothing.
fn positive<T>(args: &[String], i: &mut usize, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr + Default + PartialEq,
    T::Err: std::fmt::Display,
{
    match number::<T>(args, i, flag)? {
        n if n != T::default() => Ok(n),
        _ => Err(format!("{flag}: must be at least 1")),
    }
}

impl KernelFlags {
    pub fn new() -> Self {
        KernelFlags {
            kernel: None,
            scale: 1,
            tiles: 1,
            ooo: true,
        }
    }

    /// Takes `args[*i]` and its value if it is one of the shared flags;
    /// `Ok(false)` leaves it to the caller.
    pub fn take(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
        match args[*i].as_str() {
            "--kernel" => self.kernel = Some(value(args, i, "--kernel")?),
            "--scale" => self.scale = positive(args, i, "--scale")?,
            "--tiles" => self.tiles = positive(args, i, "--tiles")?,
            "--core" => {
                self.ooo = match value(args, i, "--core")?.as_str() {
                    "ino" => false,
                    "ooo" => true,
                    other => return Err(format!("--core: unknown model {other:?}")),
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The system the flags describe — the kernel `name` traced on
    /// `tiles` tiles of the chosen core, named `<name>#<t>`, over
    /// [`xeon_memory`] — and the kernel's module.
    pub fn system(&self, name: &str) -> Result<(SystemBuilder, Arc<Module>), String> {
        if !mosaicsim::kernels::PARBOIL_NAMES.contains(&name) {
            return Err(format!(
                "unknown kernel {name:?}; available: {}",
                mosaicsim::kernels::PARBOIL_NAMES.join(", ")
            ));
        }
        let prepared = mosaicsim::kernels::build_parboil(name, self.scale);
        let (trace, _) = prepared.trace(self.tiles).map_err(|e| e.to_string())?;
        let core = if self.ooo {
            CoreConfig::out_of_order()
        } else {
            CoreConfig::in_order()
        };
        let module = Arc::new(prepared.module.clone());
        let builder = SystemBuilder::new(module.clone(), Arc::new(trace))
            .memory(xeon_memory())
            .spmd(core.with_name(name), prepared.func, self.tiles);
        Ok((builder, module))
    }
}
