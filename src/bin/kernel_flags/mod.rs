//! The flags `mosaic-report` and `mosaic-ckpt` share — which bundled
//! kernel, at what scale, on how many tiles of which core — and the system
//! they describe. Both binaries include this file as a module.

mod args;

use std::sync::Arc;

use args::positive;
pub(crate) use args::{number, value};
use mosaicsim::prelude::*;

pub(crate) struct KernelFlags {
    pub kernel: Option<String>,
    pub scale: u32,
    pub tiles: usize,
    pub ooo: bool,
}

impl KernelFlags {
    pub(crate) fn new() -> Self {
        KernelFlags {
            kernel: None,
            scale: 1,
            tiles: 1,
            ooo: true,
        }
    }

    /// Takes `args[*i]` and its value if it is one of the shared flags;
    /// `Ok(false)` leaves it to the caller.
    pub(crate) fn take(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
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
    pub(crate) fn system(&self, name: &str) -> Result<(SystemBuilder, Arc<Module>), String> {
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
