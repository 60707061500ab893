//! Atomic checkpoint file I/O.
//!
//! The bytes themselves are written and validated by the one snapshot codec,
//! [`agsfl_wire::snapshot`]; this module only moves them to and from disk.
//! Files are written atomically: the payload goes to a `<path>.tmp` sibling
//! first and is then renamed over the destination, so an interrupt mid-write
//! leaves either the previous complete checkpoint or none — never a torn
//! file (see [`write_atomic`]).

use agsfl_wire::snapshot::SnapshotError;

/// Writes `bytes` to `path` atomically: the payload lands in a `<path>.tmp`
/// sibling first and is renamed over the destination, so a crash mid-write
/// can never leave a torn checkpoint behind.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    let io = |e: std::io::Error| SnapshotError::Io(e.to_string());
    std::fs::write(&tmp, bytes).map_err(io)?;
    std::fs::rename(&tmp, path).map_err(io)
}

/// Reads a checkpoint file written by [`write_atomic`].
pub fn read_file(path: &std::path::Path) -> Result<Vec<u8>, SnapshotError> {
    std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_then_read() {
        let path = std::env::temp_dir().join(format!("agsfl_ckpt_test_{}.bin", std::process::id()));
        write_atomic(&path, b"payload").unwrap();
        assert_eq!(read_file(&path).unwrap(), b"payload");
        // Overwrite goes through the same tmp+rename path.
        write_atomic(&path, b"second").unwrap();
        assert_eq!(read_file(&path).unwrap(), b"second");
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(read_file(&path), Err(SnapshotError::Io(_))));
    }
}
