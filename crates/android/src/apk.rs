//! The APK bundle: a manifest plus an ADX binary in one container.
//!
//! This is the on-disk artifact NChecker consumes, playing the role of the
//! real APK (zip of `AndroidManifest.xml` + `classes.dex`).

use crate::manifest::{Manifest, ManifestError};
use nck_dex::wire::{Reader, Writer};
use nck_dex::{write_adx, AdxError, AdxFile};

/// Container magic bytes.
pub const APK_MAGIC: &[u8; 4] = b"APK1";

/// An in-memory APK bundle.
#[derive(Debug, Clone, Default)]
pub struct Apk {
    /// The app manifest.
    pub manifest: Manifest,
    /// The app code.
    pub adx: AdxFile,
}

/// Errors produced while reading an APK bundle.
#[derive(Debug)]
pub enum ApkError {
    /// The container magic was wrong.
    BadMagic,
    /// The container was shorter than its header promised.
    Truncated,
    /// The embedded manifest failed to parse.
    Manifest(ManifestError),
    /// The embedded ADX failed to parse.
    Adx(AdxError),
    /// An I/O error while reading or writing a file.
    Io(std::io::Error),
}

impl std::fmt::Display for ApkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApkError::BadMagic => write!(f, "bad APK magic"),
            ApkError::Truncated => write!(f, "truncated APK container"),
            ApkError::Manifest(e) => write!(f, "manifest: {e}"),
            ApkError::Adx(e) => write!(f, "adx: {e}"),
            ApkError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ApkError {}

impl From<ManifestError> for ApkError {
    fn from(e: ManifestError) -> Self {
        ApkError::Manifest(e)
    }
}

impl From<AdxError> for ApkError {
    fn from(e: AdxError) -> Self {
        ApkError::Adx(e)
    }
}

impl From<std::io::Error> for ApkError {
    fn from(e: std::io::Error) -> Self {
        ApkError::Io(e)
    }
}

impl Apk {
    /// Creates a bundle from parts.
    pub fn new(manifest: Manifest, adx: AdxFile) -> Apk {
        Apk { manifest, adx }
    }

    /// Serializes the bundle.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(APK_MAGIC);
        w.str(&self.manifest.to_text());
        let adx = write_adx(&self.adx);
        w.u32(adx.len() as u32);
        w.bytes(&adx);
        w.into_bytes()
    }

    /// Parses a bundle, validating the embedded manifest and ADX payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Apk, ApkError> {
        let (manifest, adx) = Apk::split(bytes)?;
        Ok(Apk::new(manifest, nck_dex::read_adx(adx)?))
    }

    /// Splits a serialized bundle into its parsed manifest and its raw,
    /// still unparsed ADX payload (the bytes [`nck_dex::read_adx`]
    /// takes).
    pub fn split(bytes: &[u8]) -> Result<(Manifest, &[u8]), ApkError> {
        let mut r = Reader::new(bytes);
        let mut magic = [0u8; 4];
        for m in &mut magic {
            *m = r.u8().map_err(|_| ApkError::Truncated)?;
        }
        if &magic != APK_MAGIC {
            return Err(ApkError::BadMagic);
        }
        let manifest_text = r.str().map_err(|_| ApkError::Truncated)?;
        let manifest = Manifest::parse(&manifest_text)?;
        let adx_len = r.u32().map_err(|_| ApkError::Truncated)? as usize;
        if r.remaining() < adx_len {
            return Err(ApkError::Truncated);
        }
        let start = bytes.len() - r.remaining();
        Ok((manifest, &bytes[start..start + adx_len]))
    }

    /// Writes the bundle to `path`.
    pub fn save(&self, path: &std::path::Path) -> Result<(), ApkError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads a bundle from `path`.
    pub fn load(path: &std::path::Path) -> Result<Apk, ApkError> {
        let bytes = std::fs::read(path)?;
        Apk::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::ComponentKind;
    use nck_dex::builder::AdxBuilder;
    use nck_dex::AccessFlags;

    fn sample() -> Apk {
        let mut m = Manifest::new("com.example");
        m.permission("android.permission.INTERNET")
            .component("Lcom/example/Main;", ComponentKind::Activity);
        let mut b = AdxBuilder::new();
        b.class("Lcom/example/Main;", |c| {
            c.super_class("Landroid/app/Activity;");
            c.method(
                "onCreate",
                "(Landroid/os/Bundle;)V",
                AccessFlags::PUBLIC,
                4,
                |m| m.ret(None),
            );
        });
        Apk::new(m, b.finish().unwrap())
    }

    #[test]
    fn roundtrip() {
        let apk = sample();
        let bytes = apk.to_bytes();
        let parsed = Apk::from_bytes(&bytes).unwrap();
        assert_eq!(parsed.manifest, apk.manifest);
        assert_eq!(parsed.adx.classes.len(), 1);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'Z';
        assert!(matches!(Apk::from_bytes(&bytes), Err(ApkError::BadMagic)));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().to_bytes();
        for cut in [1usize, 5, 10, bytes.len() / 2] {
            assert!(Apk::from_bytes(&bytes[..bytes.len() - cut]).is_err());
        }
    }

    #[test]
    fn corrupted_adx_payload_rejected() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(matches!(Apk::from_bytes(&bytes), Err(ApkError::Adx(_))));
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join("nck-apk-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.apk");
        let apk = sample();
        apk.save(&path).unwrap();
        let loaded = Apk::load(&path).unwrap();
        assert_eq!(loaded.manifest.package, "com.example");
        std::fs::remove_file(&path).ok();
    }
}
