//! A seeded violation behind a trait default method: the reactor's load
//! path names `Snapshot::from_wire`, which `Snapshot` does not define —
//! it inherits the default body from `Wire`, and that body calls
//! `Self::decode`, whose implementation indexes the loaded bytes (D006).
//! The panic site is reachable only through the trait default.
//! This file is never compiled; it exists to be scanned.

pub trait Wire: Sized {
    fn decode(bytes: &[u8]) -> Self;

    /// Every implementation decodes through this default.
    fn from_wire(bytes: &[u8]) -> Self {
        Self::decode(bytes)
    }
}

pub struct Snapshot {
    tag: u8,
}

impl Wire for Snapshot {
    fn decode(bytes: &[u8]) -> Snapshot {
        // D006: indexing the loaded bytes.
        Snapshot { tag: bytes[0] }
    }
}

impl Snapshot {
    pub fn load(bytes: &[u8]) -> u8 {
        Snapshot::from_wire(bytes).tag
    }
}
