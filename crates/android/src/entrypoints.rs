//! Entry-point discovery: which methods the framework can invoke, and for
//! which component.
//!
//! This is the FlowDroid "dummy main" role: lifecycle methods of declared
//! components plus UI callbacks of listener classes, each attributed to a
//! component so the checker can classify requests as user-initiated
//! (Activity) or background (Service) — §4.4.2 of the paper.

use crate::callbacks::{ui_callback_for, UI_CALLBACKS};
use crate::component::lifecycle_methods;
use crate::manifest::{ComponentKind, Manifest};
use nck_ir::body::{ClassId, MethodId, Program, Rvalue, Stmt};
use nck_ir::hierarchy::TypeIndex;
use nck_ir::symbols::Symbol;

/// What made a method an entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A component lifecycle method (`onCreate`, `onStartCommand`, ...).
    Lifecycle,
    /// A UI callback (`onClick`, ...); `user_triggered` distinguishes
    /// direct interaction from passive callbacks.
    UiCallback {
        /// `true` for click-like callbacks.
        user_triggered: bool,
    },
}

/// One framework-invocable method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryPoint {
    /// The entry method.
    pub method: MethodId,
    /// The component the entry is attributed to, when attribution
    /// succeeded.
    pub component: Option<Symbol>,
    /// The kind of the attributed component (defaults to
    /// [`ComponentKind::Activity`] for unattributed callbacks, the
    /// conservative choice for user-facing checks).
    pub component_kind: ComponentKind,
    /// Why this is an entry.
    pub kind: EntryKind,
}

impl EntryPoint {
    /// Returns `true` when requests reached from this entry are
    /// user-initiated in the paper's sense.
    pub fn is_user_context(&self) -> bool {
        match self.kind {
            EntryKind::UiCallback { user_triggered } => user_triggered,
            EntryKind::Lifecycle => self.component_kind == ComponentKind::Activity,
        }
    }
}

/// Finds the component class that instantiates `listener` anywhere in its
/// methods, searching all declared components.
fn attributing_component(
    program: &Program,
    manifest: &Manifest,
    listener: Symbol,
) -> Option<(Symbol, ComponentKind)> {
    for decl in &manifest.components {
        let Some(comp_sym) = program.symbols.get(&decl.class) else {
            continue;
        };
        let Some(class) = program.class(comp_sym) else {
            continue;
        };
        for &mid in &class.methods {
            let Some(body) = &program.method(mid).body else {
                continue;
            };
            for (_, stmt) in body.iter() {
                if let Stmt::Assign {
                    rvalue: Rvalue::New { ty },
                    ..
                } = stmt
                {
                    if *ty == listener {
                        return Some((comp_sym, decl.kind));
                    }
                }
            }
        }
    }
    None
}

/// Attributes an inner class (`Lcom/app/Main$1;`) to its outer class when
/// the outer class is a declared component.
fn outer_component(
    program: &Program,
    manifest: &Manifest,
    listener_name: &str,
) -> Option<(Symbol, ComponentKind)> {
    let dollar = listener_name.find('$')?;
    let outer = format!("{};", &listener_name[..dollar]);
    let decl = manifest.component_of(&outer)?;
    let sym = program.symbols.get(&outer)?;
    Some((sym, decl.kind))
}

/// Computes all entry points of `program` under `manifest`; `types` is
/// the program's class-hierarchy index.
pub fn entry_points(program: &Program, types: &TypeIndex, manifest: &Manifest) -> Vec<EntryPoint> {
    let mut out = Vec::new();

    // 1. Lifecycle methods of declared components.
    for decl in &manifest.components {
        let Some(comp_sym) = program.symbols.get(&decl.class) else {
            continue;
        };
        let Some(class) = program.class(comp_sym) else {
            continue;
        };
        for &mid in &class.methods {
            let m = program.method(mid);
            let name = program.symbols.resolve(m.key.name);
            let sig = program.symbols.resolve(m.key.sig);
            if lifecycle_methods(decl.kind)
                .iter()
                .any(|l| l.name == name && l.sig == sig)
            {
                out.push(EntryPoint {
                    method: mid,
                    component: Some(comp_sym),
                    component_kind: decl.kind,
                    kind: EntryKind::Lifecycle,
                });
            }
        }
    }

    // 2. UI callbacks of listener classes (including components that
    //    implement listener interfaces themselves).
    for (i, class) in program.classes.iter().enumerate() {
        let interfaces = types.class_interfaces(ClassId(i as u32));
        if interfaces.is_empty() {
            continue;
        }
        let iface_names: Vec<&str> = interfaces
            .iter()
            .map(|&i| program.symbols.resolve(i))
            .collect();
        if !iface_names
            .iter()
            .any(|i| UI_CALLBACKS.iter().any(|c| c.interface == *i))
        {
            continue;
        }
        let class_name = program.symbols.resolve(class.name).to_owned();
        for &mid in &class.methods {
            let m = program.method(mid);
            let name = program.symbols.resolve(m.key.name);
            let sig = program.symbols.resolve(m.key.sig);
            let Some(spec) = iface_names
                .iter()
                .find_map(|i| ui_callback_for(i, name, sig))
            else {
                continue;
            };
            // Attribute: the class itself if it is a component; else its
            // outer class; else the component that instantiates it.
            let attribution = manifest
                .component_of(&class_name)
                .map(|d| (class.name, d.kind))
                .or_else(|| outer_component(program, manifest, &class_name))
                .or_else(|| attributing_component(program, manifest, class.name));
            let (component, component_kind) = match attribution {
                Some((c, k)) => (Some(c), k),
                None => (None, ComponentKind::Activity),
            };
            out.push(EntryPoint {
                method: mid,
                component,
                component_kind,
                kind: EntryKind::UiCallback {
                    user_triggered: spec.user_triggered,
                },
            });
        }
    }

    out.sort_by_key(|e| e.method);
    out.dedup_by_key(|e| e.method);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_dex::builder::AdxBuilder;
    use nck_dex::AccessFlags;
    use nck_ir::lift_file;

    fn activity_with_listener() -> (Program, Manifest) {
        let mut b = AdxBuilder::new();
        b.class("Lcom/app/Main;", |c| {
            c.super_class("Landroid/app/Activity;");
            c.method(
                "onCreate",
                "(Landroid/os/Bundle;)V",
                AccessFlags::PUBLIC,
                4,
                |m| {
                    // new Main$1() — registers the click listener.
                    m.new_instance(m.reg(0), "Lcom/app/Main$1;");
                    m.invoke_direct("Lcom/app/Main$1;", "<init>", "()V", &[m.reg(0)]);
                    m.ret(None);
                },
            );
        });
        b.class("Lcom/app/Main$1;", |c| {
            c.interface("Landroid/view/View$OnClickListener;");
            c.method(
                "onClick",
                "(Landroid/view/View;)V",
                AccessFlags::PUBLIC,
                4,
                |m| m.ret(None),
            );
        });
        b.class("Lcom/app/Sync;", |c| {
            c.super_class("Landroid/app/Service;");
            c.method(
                "onStartCommand",
                "(Landroid/content/Intent;II)I",
                AccessFlags::PUBLIC,
                4,
                |m| {
                    m.const_int(m.reg(0), 0);
                    m.ret(Some(m.reg(0)));
                },
            );
        });
        let program = lift_file(&b.finish().unwrap()).unwrap();
        let mut manifest = Manifest::new("com.app");
        manifest
            .component("Lcom/app/Main;", ComponentKind::Activity)
            .component("Lcom/app/Sync;", ComponentKind::Service);
        (program, manifest)
    }

    #[test]
    fn lifecycle_entries_found() {
        let (p, m) = activity_with_listener();
        let entries = entry_points(&p, &TypeIndex::build(&p), &m);
        let lifecycles: Vec<_> = entries
            .iter()
            .filter(|e| e.kind == EntryKind::Lifecycle)
            .collect();
        assert_eq!(lifecycles.len(), 2); // onCreate + onStartCommand.
        assert!(lifecycles
            .iter()
            .any(|e| e.component_kind == ComponentKind::Service));
    }

    #[test]
    fn inner_class_callback_attributed_to_outer_component() {
        let (p, m) = activity_with_listener();
        let entries = entry_points(&p, &TypeIndex::build(&p), &m);
        let cb = entries
            .iter()
            .find(|e| matches!(e.kind, EntryKind::UiCallback { .. }))
            .unwrap();
        assert_eq!(cb.component_kind, ComponentKind::Activity);
        assert_eq!(
            cb.component.map(|c| p.symbols.resolve(c).to_owned()),
            Some("Lcom/app/Main;".to_owned())
        );
        assert!(cb.is_user_context());
    }

    #[test]
    fn service_lifecycle_is_background_context() {
        let (p, m) = activity_with_listener();
        let entries = entry_points(&p, &TypeIndex::build(&p), &m);
        let svc = entries
            .iter()
            .find(|e| e.component_kind == ComponentKind::Service)
            .unwrap();
        assert!(!svc.is_user_context());
    }

    #[test]
    fn listener_attributed_by_instantiation_site() {
        // Listener class with an unrelated name, instantiated inside the
        // Service.
        let mut b = AdxBuilder::new();
        b.class("Lcom/app/Sync;", |c| {
            c.super_class("Landroid/app/Service;");
            c.method("onCreate", "()V", AccessFlags::PUBLIC, 4, |m| {
                m.new_instance(m.reg(0), "Lcom/app/Helper;");
                m.invoke_direct("Lcom/app/Helper;", "<init>", "()V", &[m.reg(0)]);
                m.ret(None);
            });
        });
        b.class("Lcom/app/Helper;", |c| {
            c.interface("Landroid/view/View$OnClickListener;");
            c.method(
                "onClick",
                "(Landroid/view/View;)V",
                AccessFlags::PUBLIC,
                4,
                |m| m.ret(None),
            );
        });
        let p = lift_file(&b.finish().unwrap()).unwrap();
        let mut manifest = Manifest::new("com.app");
        manifest.component("Lcom/app/Sync;", ComponentKind::Service);
        let entries = entry_points(&p, &TypeIndex::build(&p), &manifest);
        let cb = entries
            .iter()
            .find(|e| matches!(e.kind, EntryKind::UiCallback { .. }))
            .unwrap();
        assert_eq!(cb.component_kind, ComponentKind::Service);
    }

    #[test]
    fn unattributed_callback_defaults_to_activity_context() {
        let mut b = AdxBuilder::new();
        b.class("Lcom/app/Orphan;", |c| {
            c.interface("Landroid/view/View$OnClickListener;");
            c.method(
                "onClick",
                "(Landroid/view/View;)V",
                AccessFlags::PUBLIC,
                4,
                |m| m.ret(None),
            );
        });
        let p = lift_file(&b.finish().unwrap()).unwrap();
        let manifest = Manifest::new("com.app");
        let entries = entry_points(&p, &TypeIndex::build(&p), &manifest);
        assert_eq!(entries.len(), 1);
        assert!(entries[0].component.is_none());
        assert_eq!(entries[0].component_kind, ComponentKind::Activity);
    }
}
