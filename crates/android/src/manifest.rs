//! The app manifest: package, components, and permissions.
//!
//! Real Android apps carry `AndroidManifest.xml`; our APK bundles carry the
//! same information in a simple line-oriented text form with a parser and
//! serializer. NChecker reads it to classify request contexts: requests
//! reached from an `Activity` entry point are user-initiated, requests
//! reached from a `Service` are background (§4.4.2).

use std::fmt;

/// The kind of an Android component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// A user-facing screen.
    Activity,
    /// A background service.
    Service,
    /// A broadcast receiver.
    Receiver,
    /// A content provider.
    Provider,
}

impl ComponentKind {
    /// Parses the manifest keyword form.
    pub fn parse(s: &str) -> Option<ComponentKind> {
        match s {
            "activity" => Some(ComponentKind::Activity),
            "service" => Some(ComponentKind::Service),
            "receiver" => Some(ComponentKind::Receiver),
            "provider" => Some(ComponentKind::Provider),
            _ => None,
        }
    }

    /// The manifest keyword of this kind.
    pub fn keyword(self) -> &'static str {
        match self {
            ComponentKind::Activity => "activity",
            ComponentKind::Service => "service",
            ComponentKind::Receiver => "receiver",
            ComponentKind::Provider => "provider",
        }
    }
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// One `<activity>`/`<service>`/... declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentDecl {
    /// Component class descriptor (`Lcom/app/MainActivity;`).
    pub class: String,
    /// Component kind.
    pub kind: ComponentKind,
    /// Whether other apps may launch the component.
    pub exported: bool,
}

/// The parsed manifest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Application package name (`com.example.app`).
    pub package: String,
    /// Declared components in declaration order.
    pub components: Vec<ComponentDecl>,
    /// Requested permissions (`android.permission.INTERNET`, ...).
    pub permissions: Vec<String>,
}

/// Errors produced while parsing a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// A line did not match any known directive.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// The manifest lacked a `package` directive.
    MissingPackage,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::BadLine { line, content } => {
                write!(
                    f,
                    "manifest line {line}: unrecognized directive {content:?}"
                )
            }
            ManifestError::MissingPackage => write!(f, "manifest missing package directive"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl Manifest {
    /// Creates a manifest for `package` with no components.
    pub fn new(package: &str) -> Manifest {
        Manifest {
            package: package.to_owned(),
            components: vec![],
            permissions: vec![],
        }
    }

    /// Adds a component declaration.
    pub fn component(&mut self, class: &str, kind: ComponentKind) -> &mut Self {
        self.components.push(ComponentDecl {
            class: class.to_owned(),
            kind,
            exported: false,
        });
        self
    }

    /// Adds a permission request.
    pub fn permission(&mut self, name: &str) -> &mut Self {
        self.permissions.push(name.to_owned());
        self
    }

    /// Returns the declaration of `class`, if any.
    pub fn component_of(&self, class: &str) -> Option<&ComponentDecl> {
        self.components.iter().find(|c| c.class == class)
    }

    /// Returns `true` when the app requests `android.permission.INTERNET`.
    pub fn has_internet_permission(&self) -> bool {
        self.permissions
            .iter()
            .any(|p| p == "android.permission.INTERNET")
    }

    /// Returns `true` when the app may query connectivity state.
    pub fn has_network_state_permission(&self) -> bool {
        self.permissions
            .iter()
            .any(|p| p == "android.permission.ACCESS_NETWORK_STATE")
    }

    /// Serializes to the line-oriented text form.
    pub fn to_text(&self) -> String {
        let mut out = format!("package {}\n", self.package);
        for p in &self.permissions {
            out.push_str(&format!("uses-permission {p}\n"));
        }
        for c in &self.components {
            let exported = if c.exported { " exported" } else { "" };
            out.push_str(&format!("{} {}{}\n", c.kind.keyword(), c.class, exported));
        }
        out
    }

    /// Parses the line-oriented text form.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let mut manifest = Manifest::default();
        let mut have_package = false;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let head = parts.next().unwrap_or_default();
            let bad = || ManifestError::BadLine {
                line: i + 1,
                content: raw.to_owned(),
            };
            match head {
                "package" => {
                    manifest.package = parts.next().ok_or_else(bad)?.to_owned();
                    have_package = true;
                }
                "uses-permission" => {
                    manifest
                        .permissions
                        .push(parts.next().ok_or_else(bad)?.to_owned());
                }
                kw => {
                    let kind = ComponentKind::parse(kw).ok_or_else(bad)?;
                    let class = parts.next().ok_or_else(bad)?.to_owned();
                    let exported = parts.next() == Some("exported");
                    manifest.components.push(ComponentDecl {
                        class,
                        kind,
                        exported,
                    });
                }
            }
        }
        if !have_package {
            return Err(ManifestError::MissingPackage);
        }
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut m = Manifest::new("com.example.app");
        m.permission("android.permission.INTERNET")
            .permission("android.permission.ACCESS_NETWORK_STATE")
            .component("Lcom/example/app/MainActivity;", ComponentKind::Activity)
            .component("Lcom/example/app/SyncService;", ComponentKind::Service);
        let text = m.to_text();
        let parsed = Manifest::parse(&text).unwrap();
        assert_eq!(m, parsed);
        assert!(parsed.has_internet_permission());
        assert!(parsed.has_network_state_permission());
    }

    #[test]
    fn component_lookup() {
        let mut m = Manifest::new("a.b");
        m.component("La/b/S;", ComponentKind::Service);
        assert_eq!(
            m.component_of("La/b/S;").map(|c| c.kind),
            Some(ComponentKind::Service)
        );
        assert!(m.component_of("La/b/T;").is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            Manifest::parse("package a\nwibble x"),
            Err(ManifestError::BadLine { line: 2, .. })
        ));
        assert!(matches!(
            Manifest::parse("activity La/B;"),
            Err(ManifestError::MissingPackage)
        ));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let m = Manifest::parse("# hello\n\npackage x.y\n# done\n").unwrap();
        assert_eq!(m.package, "x.y");
    }

    #[test]
    fn exported_flag_roundtrips() {
        let text = "package p\nactivity Lp/A; exported\n";
        let m = Manifest::parse(text).unwrap();
        assert!(m.components[0].exported);
        assert_eq!(m.to_text(), text);
    }
}
