//! Device global-memory model.
//!
//! Tracks allocations against the device capacity so that oversized
//! databases are rejected (forcing the chunked-upload path, as real
//! CUDASW++ does when a database exceeds device memory) and so the
//! simulator can report honest residency numbers.

use std::collections::HashMap;

/// Handle to one device allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Allocation(u64);

/// Errors from the memory model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryError {
    /// The requested size exceeds the remaining free memory.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes currently free.
        free: u64,
    },
    /// The handle does not reference a live allocation.
    InvalidHandle,
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryError::OutOfMemory { requested, free } => {
                write!(
                    f,
                    "device out of memory: requested {requested} B, free {free} B"
                )
            }
            MemoryError::InvalidHandle => write!(f, "invalid device allocation handle"),
        }
    }
}

impl std::error::Error for MemoryError {}

/// A bump-counter allocator over a fixed capacity (no fragmentation
/// model — device allocators for search tools allocate a handful of
/// large arenas).
#[derive(Debug)]
pub struct DeviceMemory {
    capacity: u64,
    used: u64,
    next_id: u64,
    live: HashMap<u64, u64>,
    /// Running peak of `used`.
    peak: u64,
}

impl DeviceMemory {
    /// A memory of `capacity` bytes.
    pub fn new(capacity: u64) -> DeviceMemory {
        DeviceMemory {
            capacity,
            used: 0,
            next_id: 0,
            live: HashMap::new(),
            peak: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes currently free.
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// High-water mark of usage.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Allocate `bytes`, failing when capacity would be exceeded.
    pub fn alloc(&mut self, bytes: u64) -> Result<Allocation, MemoryError> {
        if bytes > self.free() {
            return Err(MemoryError::OutOfMemory {
                requested: bytes,
                free: self.free(),
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        self.live.insert(id, bytes);
        Ok(Allocation(id))
    }

    /// Release an allocation.
    pub fn release(&mut self, handle: Allocation) -> Result<(), MemoryError> {
        let bytes = self
            .live
            .remove(&handle.0)
            .ok_or(MemoryError::InvalidHandle)?;
        self.used -= bytes;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_release_accounting() {
        let mut mem = DeviceMemory::new(1000);
        let a = mem.alloc(400).unwrap();
        let b = mem.alloc(500).unwrap();
        assert_eq!(mem.used(), 900);
        assert_eq!(mem.free(), 100);
        assert_eq!(mem.peak(), 900);
        mem.release(a).unwrap();
        assert_eq!(mem.used(), 500);
        assert_eq!(mem.peak(), 900); // peak sticks
        mem.release(b).unwrap();
        assert_eq!(mem.used(), 0, "b held its 500 bytes");
    }

    #[test]
    fn out_of_memory_is_reported_with_numbers() {
        let mut mem = DeviceMemory::new(100);
        mem.alloc(80).unwrap();
        let err = mem.alloc(30).unwrap_err();
        assert_eq!(
            err,
            MemoryError::OutOfMemory {
                requested: 30,
                free: 20
            }
        );
        assert!(err.to_string().contains("30"));
    }

    #[test]
    fn double_release_is_an_error() {
        let mut mem = DeviceMemory::new(100);
        let a = mem.alloc(10).unwrap();
        mem.release(a).unwrap();
        assert_eq!(mem.release(a), Err(MemoryError::InvalidHandle));
        assert_eq!(mem.used(), 0);
    }

    #[test]
    fn exact_fit_succeeds() {
        let mut mem = DeviceMemory::new(64);
        assert!(mem.alloc(64).is_ok());
        assert_eq!(mem.free(), 0);
        assert!(mem.alloc(1).is_err());
    }

    #[test]
    fn zero_byte_allocation_is_fine() {
        let mut mem = DeviceMemory::new(10);
        let a = mem.alloc(0).unwrap();
        assert_eq!(mem.used(), 0);
        mem.release(a).unwrap();
    }
}
