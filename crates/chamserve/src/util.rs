//! Crash-atomic file writes for the durability layer, plus the paths the
//! service has always exported its checksum and coin under (the
//! definitions are the stack-wide ones in [`obs::wire`]).

use std::io::Write;
use std::path::Path;

pub use obs::wire::{crc32, splitmix64};

/// The `.tmp` suffix every in-flight spill write carries. Rehydration
/// treats any leftover `*.tmp` file as a torn write and quarantines it.
pub const TMP_SUFFIX: &str = ".tmp";

/// An [`atomic_write`] interceptor for the raw byte write.
pub type WriteHook<'a> = dyn Fn(&mut std::fs::File, &[u8]) -> std::io::Result<()> + 'a;

/// Crash-atomic durable write: write to `<path>.tmp`, fsync the file,
/// rename over `path`, then fsync the parent directory so the rename
/// itself is durable. After this returns, either the old content or the
/// complete new content survives a crash — never a torn prefix at `path`.
///
/// `write_hook` intercepts the raw byte write (the service fault plan
/// injects torn writes and ENOSPC there); `None` writes the whole buffer.
pub fn atomic_write(
    path: &Path,
    bytes: &[u8],
    write_hook: Option<&WriteHook<'_>>,
) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    let mut f = std::fs::File::create(&tmp)?;
    match write_hook {
        Some(hook) => hook(&mut f, bytes)?,
        None => f.write_all(bytes)?,
    }
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        // Directory fsync makes the rename durable; a filesystem that
        // cannot open a directory for sync (some CI overlays) still got
        // the rename's atomicity, so a failure here is not fatal.
        if let Ok(d) = std::fs::File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// The temp-file sibling `atomic_write` stages into.
pub fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(TMP_SUFFIX);
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_values() {
        // "123456789" is the canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn atomic_write_replaces_and_cleans_tmp() {
        let dir = std::env::temp_dir().join(format!("chamserve_util_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        atomic_write(&path, b"first", None).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second version", None).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second version");
        assert!(!tmp_path(&path).exists(), "tmp staged file is gone");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_hook_leaves_tmp_behind() {
        let dir = std::env::temp_dir().join(format!("chamserve_torn_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        let tear = |f: &mut std::fs::File, b: &[u8]| -> std::io::Result<()> {
            f.write_all(&b[..b.len() / 2])?;
            Err(std::io::Error::other("injected tear"))
        };
        let err = atomic_write(&path, b"will be torn", Some(&tear)).unwrap_err();
        assert!(err.to_string().contains("injected tear"));
        assert!(!path.exists(), "final path never materializes");
        assert!(tmp_path(&path).exists(), "torn prefix stays in the tmp");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
