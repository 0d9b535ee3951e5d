//! Seeded violations on the fleet front-end paths: a panic site
//! reachable from the reactor event loop (D006), a per-alarm allocation
//! inside the fan-out sweep (D008), and a lock-order cycle between the
//! registry map and the generation table (D014).
//! This file is never compiled; it exists to be scanned.

pub struct Reactor {
    table: Vec<u32>,
}

impl Reactor {
    /// The single event loop — a D006 reachability root: one panic here
    /// drops every connection in the poll table at once.
    pub fn run(&mut self, events: &[u8]) -> u32 {
        self.sweep(events) + u32::from(Snapshot::load(events))
    }

    fn sweep(&mut self, events: &[u8]) -> u32 {
        // D006: indexing network-driven bytes on the event loop.
        let slot = events[3];
        self.table[slot as usize]
    }
}

pub struct Subscribers {
    frame: Vec<u8>,
}

impl Subscribers {
    /// Alarm fan-out — a D008 reachability root: runs per alarm × per
    /// subscriber on the reactor thread.
    pub fn fanout_alarms(&mut self, alarms: &[(u32, f64)]) -> usize {
        self.push_all(alarms)
    }

    fn push_all(&mut self, alarms: &[(u32, f64)]) -> usize {
        let mut total = 0;
        for &(row, score) in alarms {
            // D008: allocates a fresh frame per alarm instead of reusing
            // the scratch buffer.
            let frame: Vec<u8> = score.to_le_bytes().to_vec();
            total += frame.len() + row as usize + self.frame.len();
        }
        total
    }
}

/// Swaps a model entry: takes the registry map lock, then the
/// generation-table lock while the map guard is still live.
pub fn swap_model(models: &Mutex<BTreeMap<String, Model>>, gens: &Mutex<Vec<u64>>) {
    let mut m = models.lock().unwrap_or_else(|p| p.into_inner());
    let mut g = gens.lock().unwrap_or_else(|p| p.into_inner());
    g.push(m.len() as u64);
}

/// Reads generations in the opposite order — gens first, then the
/// registry map — closing a lock-order cycle with `swap_model` (D014):
/// one thread mid-swap, one here, each holding what the other wants.
pub fn list_generations(models: &Mutex<BTreeMap<String, Model>>, gens: &Mutex<Vec<u64>>) -> usize {
    let g = gens.lock().unwrap_or_else(|p| p.into_inner());
    let m = models.lock().unwrap_or_else(|p| p.into_inner());
    g.len() + m.len()
}
