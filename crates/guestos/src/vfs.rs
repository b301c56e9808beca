//! Minimal file layer: files are contiguous extents on the guest's virtual
//! disk address space. Workloads speak `(file, offset, len)`; the kernel
//! translates to virtual-disk byte offsets, which the hypervisor later
//! shifts into the host device's address space.
//!
//! The file table is a `Vec` indexed by [`FileId`]: ids are handed out in
//! creation order and never reused, and a deleted file leaves an empty
//! slot, so the per-I/O lookup is one bounds-checked index. Free space is
//! a first-fit extent map keyed by start offset.

use std::collections::BTreeMap;

/// Identifies a file inside one guest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FileId(pub u64);

#[derive(Clone, Copy, Debug)]
struct FileMeta {
    start: u64,
    size: u64,
}

/// A first-fit extent allocator plus the file table.
#[derive(Clone, Debug)]
pub struct Vfs {
    disk_size: u64,
    /// Indexed by `FileId`; `None` once the file is deleted.
    files: Vec<Option<FileMeta>>,
    live_files: usize,
    // Free extents keyed by start offset -> length; coalesced on free.
    free: BTreeMap<u64, u64>,
}

/// Errors from file operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VfsError {
    /// No contiguous free extent large enough.
    NoSpace,
    /// Unknown file id.
    NotFound,
    /// Access beyond end of file.
    OutOfBounds,
}

impl Vfs {
    /// A filesystem over a virtual disk of `disk_size` bytes.
    pub fn new(disk_size: u64) -> Self {
        let mut free = BTreeMap::new();
        if disk_size > 0 {
            free.insert(0, disk_size);
        }
        Vfs {
            disk_size,
            files: Vec::new(),
            live_files: 0,
            free,
        }
    }

    fn meta(&self, id: FileId) -> Result<&FileMeta, VfsError> {
        usize::try_from(id.0)
            .ok()
            .and_then(|i| self.files.get(i)?.as_ref())
            .ok_or(VfsError::NotFound)
    }

    /// Virtual-disk size in bytes.
    pub fn disk_size(&self) -> u64 {
        self.disk_size
    }

    /// Number of live files.
    pub fn file_count(&self) -> usize {
        self.live_files
    }

    /// Total bytes allocated to files.
    pub fn used_bytes(&self) -> u64 {
        self.files.iter().flatten().map(|f| f.size).sum()
    }

    /// Create a file of `size` bytes (first-fit).
    pub fn create(&mut self, size: u64) -> Result<FileId, VfsError> {
        assert!(size > 0, "zero-sized files are not modelled");
        let slot = self
            .free
            .iter()
            .find(|(_, &len)| len >= size)
            .map(|(&start, &len)| (start, len));
        let (start, len) = slot.ok_or(VfsError::NoSpace)?;
        self.free.remove(&start);
        if len > size {
            self.free.insert(start + size, len - size);
        }
        let id = FileId(self.files.len() as u64);
        self.files.push(Some(FileMeta { start, size }));
        self.live_files += 1;
        Ok(id)
    }

    /// Delete a file, returning its extent to the free list (coalescing
    /// with neighbours).
    pub fn delete(&mut self, id: FileId) -> Result<(), VfsError> {
        let meta = usize::try_from(id.0)
            .ok()
            .and_then(|i| self.files.get_mut(i)?.take())
            .ok_or(VfsError::NotFound)?;
        self.live_files -= 1;
        let mut start = meta.start;
        let mut len = meta.size;
        // Coalesce with the previous free extent if adjacent.
        if let Some((&prev_start, &prev_len)) = self.free.range(..start).next_back() {
            if prev_start + prev_len == start {
                self.free.remove(&prev_start);
                start = prev_start;
                len += prev_len;
            }
        }
        // Coalesce with the next free extent if adjacent.
        if let Some((&next_start, &next_len)) = self.free.range(start..).next() {
            if start + len == next_start {
                self.free.remove(&next_start);
                len += next_len;
            }
        }
        self.free.insert(start, len);
        Ok(())
    }

    /// File size in bytes.
    pub fn size_of(&self, id: FileId) -> Result<u64, VfsError> {
        self.meta(id).map(|m| m.size)
    }

    /// Translate a file-relative range to a virtual-disk byte offset.
    pub fn translate(&self, id: FileId, offset: u64, len: u64) -> Result<u64, VfsError> {
        let meta = self.meta(id)?;
        match offset.checked_add(len) {
            Some(end) if end <= meta.size => {}
            _ => return Err(VfsError::OutOfBounds),
        }
        Ok(meta.start + offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_translate() {
        let mut vfs = Vfs::new(1 << 20);
        let a = vfs.create(4096).unwrap();
        let b = vfs.create(8192).unwrap();
        assert_ne!(a, b);
        assert_eq!(vfs.translate(a, 0, 4096).unwrap(), 0);
        assert_eq!(vfs.translate(b, 100, 10).unwrap(), 4096 + 100);
        assert_eq!(vfs.file_count(), 2);
        assert_eq!(vfs.used_bytes(), 12288);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut vfs = Vfs::new(1 << 20);
        let a = vfs.create(4096).unwrap();
        assert_eq!(vfs.translate(a, 4000, 200), Err(VfsError::OutOfBounds));
        assert_eq!(vfs.translate(FileId(99), 0, 1), Err(VfsError::NotFound));
    }

    #[test]
    fn no_space_when_full() {
        let mut vfs = Vfs::new(10_000);
        vfs.create(8_000).unwrap();
        assert_eq!(vfs.create(4_000), Err(VfsError::NoSpace));
        // But a smaller file still fits.
        assert!(vfs.create(2_000).is_ok());
    }

    #[test]
    fn delete_coalesces_free_space() {
        let mut vfs = Vfs::new(12_000);
        let a = vfs.create(4_000).unwrap();
        let b = vfs.create(4_000).unwrap();
        let c = vfs.create(4_000).unwrap();
        // Free the middle, then the first: they must coalesce so a
        // 8000-byte file fits again.
        vfs.delete(b).unwrap();
        vfs.delete(a).unwrap();
        let d = vfs.create(8_000).unwrap();
        assert_eq!(vfs.translate(d, 0, 1).unwrap(), 0);
        // Freeing everything coalesces back to one extent of the full disk.
        vfs.delete(c).unwrap();
        vfs.delete(d).unwrap();
        let e = vfs.create(12_000).unwrap();
        assert_eq!(vfs.translate(e, 0, 1).unwrap(), 0);
    }

    #[test]
    fn delete_unknown_file() {
        let mut vfs = Vfs::new(1 << 20);
        assert_eq!(vfs.delete(FileId(5)), Err(VfsError::NotFound));
        assert_eq!(vfs.delete(FileId(u64::MAX)), Err(VfsError::NotFound));
    }

    #[test]
    fn translate_rejects_overflowing_range() {
        let mut vfs = Vfs::new(1 << 20);
        let a = vfs.create(4096).unwrap();
        // offset + len wraps past u64::MAX to a small in-bounds value.
        assert_eq!(vfs.translate(a, u64::MAX, 2), Err(VfsError::OutOfBounds));
        assert_eq!(vfs.translate(a, 2, u64::MAX), Err(VfsError::OutOfBounds));
        assert_eq!(vfs.translate(a, 4096, 0).unwrap(), 4096);
    }

    #[test]
    fn double_delete_is_not_found_and_ids_are_not_reused() {
        let mut vfs = Vfs::new(1 << 20);
        let a = vfs.create(4096).unwrap();
        let b = vfs.create(4096).unwrap();
        vfs.delete(a).unwrap();
        assert_eq!(vfs.delete(a), Err(VfsError::NotFound));
        assert_eq!(vfs.translate(a, 0, 1), Err(VfsError::NotFound));
        assert_eq!(vfs.size_of(a), Err(VfsError::NotFound));
        assert_eq!(vfs.file_count(), 1);
        let c = vfs.create(4096).unwrap();
        assert_ne!(c, a);
        assert_ne!(c, b);
        // The new file reuses a's extent, not its id.
        assert_eq!(vfs.translate(c, 0, 1).unwrap(), 0);
        assert_eq!(vfs.file_count(), 2);
        assert_eq!(vfs.used_bytes(), 8192);
    }

    #[test]
    fn reuse_after_delete_first_fit() {
        let mut vfs = Vfs::new(20_000);
        let a = vfs.create(5_000).unwrap();
        let _b = vfs.create(5_000).unwrap();
        vfs.delete(a).unwrap();
        // New small file lands in the freed hole (first fit).
        let c = vfs.create(1_000).unwrap();
        assert_eq!(vfs.translate(c, 0, 1).unwrap(), 0);
    }
}
