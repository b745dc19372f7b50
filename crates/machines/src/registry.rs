//! The machine registry: name → [`MachineSpec`] resolution.
//!
//! The registry is the single place machine names live. It starts from the
//! embedded built-in specs (every file of the repository's `machines/zoo`:
//! the paper's three machines, the reference custom node, `numa2s` and
//! `smp16` — ordinary spec files, see [`crate::specfile`]) and can overlay
//! a *zoo directory* of `.toml` spec files. A zoo file with the same `name` as a built-in shadows it, so
//! editing `machines/zoo/t3d.toml` changes what `t3d` means without
//! touching Rust.
//!
//! Broken zoo files never abort discovery: they are collected with their
//! structured errors and surfaced by listings (`gasnub machines`) and by
//! resolution failures, so one typo'd file can't take the whole CLI down.

use std::path::{Path, PathBuf};

use crate::machine::MachineId;
use crate::spec::{MachineSpec, BUILTIN_SPECS};

/// Environment variable overriding the default zoo directory.
pub const ZOO_ENV: &str = "GASNUB_ZOO";

/// Default zoo directory, relative to the working directory.
pub const ZOO_DIR: &str = "machines/zoo";

/// A zoo file that failed to load, with the structured reason.
#[derive(Debug, Clone)]
pub struct BrokenSpec {
    /// The file that failed.
    pub path: PathBuf,
    /// Why it failed (a parse/IO message, line-located when structured).
    pub message: String,
}

/// Failure to resolve a machine name, carrying every name that *would*
/// have resolved — the one place "expected …" lists come from.
#[derive(Debug, Clone)]
pub struct ResolveError {
    /// The name that did not resolve.
    pub name: String,
    /// All resolvable labels, in registry order.
    pub known: Vec<String>,
    /// Zoo files that failed to load (one of which may be the culprit).
    pub broken: Vec<BrokenSpec>,
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown machine {:?} (expected {})",
            self.name,
            self.known.join(", ")
        )?;
        for b in &self.broken {
            write!(f, "; broken spec {}: {}", b.path.display(), b.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for ResolveError {}

/// An ordered collection of named machine specs.
#[derive(Debug, Clone, Default)]
pub struct MachineRegistry {
    specs: Vec<MachineSpec>,
    broken: Vec<BrokenSpec>,
}

impl MachineRegistry {
    /// A registry holding only the embedded built-in machines.
    pub fn builtin() -> Self {
        let mut reg = MachineRegistry::default();
        for (label, text) in BUILTIN_SPECS {
            let spec = MachineSpec::from_spec_str(text)
                .unwrap_or_else(|e| panic!("embedded spec {label:?} must parse: {e}"));
            reg.insert(spec);
        }
        reg
    }

    /// The built-ins plus the zoo directory: `$GASNUB_ZOO` when set,
    /// otherwise `machines/zoo` under the working directory when it
    /// exists. Zoo files shadow built-ins of the same name; files that
    /// fail to load are recorded, not fatal.
    pub fn discover() -> Self {
        let mut reg = Self::builtin();
        match std::env::var_os(ZOO_ENV) {
            Some(dir) => reg.load_dir(Path::new(&dir)),
            None => {
                let default = Path::new(ZOO_DIR);
                if default.is_dir() {
                    reg.load_dir(default);
                }
            }
        }
        reg
    }

    /// Loads every `.toml` file in `dir` (sorted by file name, so
    /// registry order is stable). Unreadable or unparsable files land in
    /// [`MachineRegistry::broken`].
    pub fn load_dir(&mut self, dir: &Path) {
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) => {
                self.broken.push(BrokenSpec {
                    path: dir.to_path_buf(),
                    message: format!("unreadable zoo directory: {e}"),
                });
                return;
            }
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
            .collect();
        paths.sort();
        for path in paths {
            match std::fs::read_to_string(&path) {
                Ok(text) => match MachineSpec::from_spec_str(&text) {
                    Ok(spec) => self.insert(spec),
                    Err(e) => self.broken.push(BrokenSpec {
                        path,
                        message: e.to_string(),
                    }),
                },
                Err(e) => self.broken.push(BrokenSpec {
                    path,
                    message: format!("unreadable: {e}"),
                }),
            }
        }
    }

    /// Registers a spec, shadowing any existing spec with the same label
    /// (in place, preserving registry order).
    pub fn insert(&mut self, spec: MachineSpec) {
        match self
            .specs
            .iter_mut()
            .find(|s| s.label().eq_ignore_ascii_case(spec.label()))
        {
            Some(slot) => *slot = spec,
            None => self.specs.push(spec),
        }
    }

    /// Resolves a machine name (label or alias, case-insensitive) to its
    /// spec.
    ///
    /// # Errors
    ///
    /// Returns a [`ResolveError`] enumerating every resolvable name (and
    /// any broken zoo files) when the name matches nothing.
    pub fn resolve(&self, name: &str) -> Result<&MachineSpec, ResolveError> {
        self.specs
            .iter()
            .find(|s| {
                s.label().eq_ignore_ascii_case(name)
                    || s.aliases().iter().any(|a| a.eq_ignore_ascii_case(name))
            })
            .ok_or_else(|| ResolveError {
                name: name.to_string(),
                known: self.names().iter().map(|s| s.to_string()).collect(),
                broken: self.broken.clone(),
            })
    }

    /// All resolvable labels, in registry order.
    pub fn names(&self) -> Vec<&str> {
        self.specs.iter().map(MachineSpec::label).collect()
    }

    /// The registered specs, in registry order.
    pub fn specs(&self) -> &[MachineSpec] {
        &self.specs
    }

    /// The specs of the paper's three machines (dec8400, t3d, t3e), in
    /// registry order — including zoo files that shadow them.
    pub fn paper_specs(&self) -> impl Iterator<Item = &MachineSpec> {
        self.specs.iter().filter(|s| s.id() != MachineId::Custom)
    }

    /// Zoo files that failed to load.
    pub fn broken(&self) -> &[BrokenSpec] {
        &self.broken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_resolves_canonical_names_and_aliases() {
        let reg = MachineRegistry::builtin();
        assert_eq!(
            reg.names(),
            vec!["dec8400", "t3d", "t3e", "custom", "numa2s", "smp16"]
        );
        let paper: Vec<&str> = reg.paper_specs().map(MachineSpec::label).collect();
        assert_eq!(paper, vec!["dec8400", "t3d", "t3e"]);
        assert_eq!(reg.resolve("t3d").unwrap().id(), MachineId::CrayT3d);
        assert_eq!(reg.resolve("T3D").unwrap().id(), MachineId::CrayT3d);
        assert_eq!(reg.resolve("cray-t3e").unwrap().id(), MachineId::CrayT3e);
        assert_eq!(reg.resolve("8400").unwrap().id(), MachineId::Dec8400);
        assert_eq!(reg.resolve("alphaserver").unwrap().id(), MachineId::Dec8400);
        assert_eq!(reg.resolve("custom").unwrap().id(), MachineId::Custom);
    }

    #[test]
    fn resolve_errors_enumerate_known_names() {
        let reg = MachineRegistry::builtin();
        let err = reg.resolve("paragon").unwrap_err();
        assert_eq!(err.name, "paragon");
        let msg = err.to_string();
        assert!(msg.contains("dec8400") && msg.contains("custom"), "{msg}");
    }

    #[test]
    fn inserting_shadows_by_label() {
        let mut reg = MachineRegistry::builtin();
        let before = reg.names().len();
        let mut shadow = MachineSpec::t3d();
        shadow = shadow.with_limits(crate::MeasureLimits::fast());
        reg.insert(shadow);
        assert_eq!(
            reg.names().len(),
            before,
            "shadowing must not grow the registry"
        );
        assert_eq!(
            reg.resolve("t3d").unwrap().limits(),
            crate::MeasureLimits::fast()
        );
    }

    #[test]
    fn broken_files_are_collected_not_fatal() {
        let dir = std::env::temp_dir().join(format!("gasnub-registry-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("broken.toml"), "name = \"x\"\nmodel = ").unwrap();
        std::fs::write(
            dir.join("ok.toml"),
            MachineSpec::t3d()
                .to_spec_string()
                .replace("name = \"t3d\"", "name = \"t3d-variant\""),
        )
        .unwrap();
        let mut reg = MachineRegistry::builtin();
        reg.load_dir(&dir);
        assert_eq!(reg.broken().len(), 1);
        assert!(reg.resolve("t3d-variant").is_ok());
        let err = reg.resolve("nope").unwrap_err().to_string();
        assert!(err.contains("broken.toml"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
