//! Constant-pool prescan: classify a bundle as network-touching or not
//! *before* lifting any code.
//!
//! Every network API an app can call must appear as a `MethodRef` in the
//! constant pool, so scanning the pool against the registry is a sound
//! over-approximation of "this app may create a request": no pool hit
//! means no call site can exist anywhere in the bundle. The scan is two
//! phases — resolve each pool entry's class/name strings against a
//! relevance predicate, then (only when something matched) walk the
//! instruction stream to find which classes actually reference a
//! matching entry. Phase two never allocates per-instruction and the
//! whole scan runs in O(pool + insns) without building any IR.

use crate::insn::Insn;
use crate::model::AdxFile;
use crate::pool::MethodIdx;
use std::collections::BTreeSet;

/// The result of scanning one bundle's constant pool.
#[derive(Debug, Clone, Default)]
pub struct PoolScan {
    /// Pool indices of method references matching the predicate.
    pub relevant_refs: Vec<MethodIdx>,
    /// Names of classes whose code references a matching pool entry.
    pub touching_classes: BTreeSet<String>,
}

impl PoolScan {
    /// Whether any code in the bundle can reach a relevant API.
    pub fn touches_network(&self) -> bool {
        !self.relevant_refs.is_empty()
    }
}

/// Whether any method-pool entry of `file` satisfies `is_relevant`: the
/// pool-only half of [`prescan`], stopping at the first match. This is
/// the whole decision behind the analysis fast path, so a network app
/// pays for a handful of pool lookups and a clean one for one pass over
/// the pool, never for a walk of the instruction stream.
pub fn pool_touches(file: &AdxFile, is_relevant: &dyn Fn(&str, &str) -> bool) -> bool {
    file.pools.methods().iter().any(|m| {
        matches!(
            (file.pools.get_type(m.class), file.pools.get_string(m.name)),
            (Some(class), Some(name)) if is_relevant(class, name)
        )
    })
}

/// Scans `file`'s method pool for entries whose `(class, name)` pair
/// satisfies `is_relevant`, then collects the classes that invoke them.
///
/// Dangling pool references (a `MethodRef` whose class or name index
/// resolves to nothing) are skipped here: they cannot name a real API,
/// and the verifier reports them through its own channel.
pub fn prescan(file: &AdxFile, is_relevant: &dyn Fn(&str, &str) -> bool) -> PoolScan {
    let mut relevant_refs = Vec::new();
    for (i, m) in file.pools.methods().iter().enumerate() {
        let (Some(class), Some(name)) =
            (file.pools.get_type(m.class), file.pools.get_string(m.name))
        else {
            continue;
        };
        if is_relevant(class, name) {
            relevant_refs.push(MethodIdx(i as u32));
        }
    }

    let mut touching_classes = BTreeSet::new();
    if !relevant_refs.is_empty() {
        let hits: BTreeSet<MethodIdx> = relevant_refs.iter().copied().collect();
        for class in &file.classes {
            let touches = class
                .methods
                .iter()
                .filter_map(|m| m.code.as_ref())
                .flat_map(|c| &c.insns)
                .any(|i| matches!(i, Insn::Invoke { method, .. } if hits.contains(method)));
            if touches {
                if let Some(name) = file.pools.get_type(class.ty) {
                    touching_classes.insert(name.to_owned());
                }
            }
        }
    }

    PoolScan {
        relevant_refs,
        touching_classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AdxBuilder;
    use crate::model::AccessFlags;

    fn app_with_call(class: &str, callee_class: &str, callee: &str) -> AdxFile {
        let mut b = AdxBuilder::new();
        let callee_class = callee_class.to_owned();
        let callee = callee.to_owned();
        b.class(class, |c| {
            c.super_class("Ljava/lang/Object;");
            c.method(
                "run",
                "()V",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                4,
                {
                    let (cc, cn) = (callee_class.clone(), callee.clone());
                    move |m| {
                        m.invoke_static(&cc, &cn, "()V", &[]);
                        m.ret(None);
                    }
                },
            );
        });
        b.finish().expect("builds")
    }

    #[test]
    fn scan_finds_referencing_class() {
        let file = app_with_call("Lcom/t/Main;", "Ljava/net/URL;", "openConnection");
        let scan = prescan(&file, &|class, name| {
            class == "Ljava/net/URL;" && name == "openConnection"
        });
        assert!(scan.touches_network());
        assert_eq!(scan.relevant_refs.len(), 1);
        assert!(scan.touching_classes.contains("Lcom/t/Main;"));
        assert!(pool_touches(&file, &|class, _| class == "Ljava/net/URL;"));
    }

    #[test]
    fn scan_skips_unrelated_bundle() {
        let file = app_with_call("Lcom/t/Main;", "Lcom/t/Helper;", "work");
        let scan = prescan(&file, &|class, _| class.starts_with("Ljava/net/"));
        assert!(!scan.touches_network());
        assert!(scan.touching_classes.is_empty());
        assert!(!pool_touches(&file, &|class, _| class.starts_with("Ljava/net/")));
    }

    #[test]
    fn empty_file_is_clean() {
        let scan = prescan(&AdxFile::new(), &|_, _| true);
        assert!(!scan.touches_network());
        assert!(!pool_touches(&AdxFile::new(), &|_, _| true));
    }
}
