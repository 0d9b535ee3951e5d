//! Seeded D006/D008 violations on the cfa-serve request path: a toy
//! request handler that indexes a network-controlled buffer and a
//! serving hot loop that allocates per request.
//! This file is never compiled; it exists to be scanned.

pub struct Worker {
    scratch: Vec<f64>,
}

impl Worker {
    /// Worker-side scoring entry — a D006 reachability root.
    pub fn score_job(&mut self, frame: &[u8]) -> f64 {
        self.parse_op(frame)
    }

    fn parse_op(&mut self, frame: &[u8]) -> f64 {
        // D006: indexing a network-controlled buffer on the request path.
        let op = frame[0];
        f64::from(op) + self.score_rows_into(frame)
    }

    /// Serving hot loop — a D008 reachability root.
    fn score_rows_into(&mut self, rows: &[u8]) -> f64 {
        self.decode(rows)
    }

    fn decode(&mut self, rows: &[u8]) -> f64 {
        // D008: allocates per request on the serving hot loop.
        let copy: Vec<u8> = rows.to_vec();
        copy.len() as f64 + self.scratch.len() as f64
    }
}
