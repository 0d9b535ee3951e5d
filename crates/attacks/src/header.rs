//! What the attacks read from and forge into each protocol's packets.

use manet_routing::{AodvHeader, DsrHeader};
use manet_sim::{NodeId, Packet};

/// The protocol-specific part of every attack.
///
/// Sealed to the two supported protocols; each attack wrapper is generic
/// over it, so one wrapper serves both.
pub trait AttackHeader: Sized + Clone + std::fmt::Debug + private::Sealed {
    /// If `pkt` is application data that `me` is expected to *relay* (not
    /// data addressed to `me` itself), returns its final destination.
    fn transit_data_dest(pkt: &Packet<Self>, me: NodeId) -> Option<NodeId>;

    /// Fabricates a meaningless ROUTE REQUEST from `me` towards `dest`,
    /// with a unique flood id (the update storm).
    fn bogus_rreq(me: NodeId, dest: NodeId, id: u32) -> Self;

    /// The black hole's `n`-th forged REQUEST, spoofed from `victim`, that
    /// makes its receivers route the victim's traffic through `me`.
    /// Returns the packet's destination, its size in bytes and its header.
    fn poison_rreq(me: NodeId, victim: NodeId, n: u32, n_nodes: u16) -> (NodeId, u32, Self);
}

mod private {
    pub trait Sealed {}
    impl Sealed for manet_routing::DsrHeader {}
    impl Sealed for manet_routing::AodvHeader {}
}

impl AttackHeader for DsrHeader {
    fn transit_data_dest(pkt: &Packet<DsrHeader>, me: NodeId) -> Option<NodeId> {
        match &pkt.header {
            DsrHeader::Data { route, hop, .. } => {
                let my_idx = hop + 1;
                if route.get(my_idx) == Some(&me) && my_idx != route.len() - 1 {
                    Some(pkt.dst)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn bogus_rreq(me: NodeId, dest: NodeId, id: u32) -> DsrHeader {
        DsrHeader::Rreq {
            origin: me,
            target: dest,
            id,
            route: vec![me],
        }
    }

    /// The REQUEST claims `victim -> me` is a real hop; receivers reverse
    /// it and route the victim's traffic to us. The searched-for target is
    /// a non-existent address, so no node can answer from its cache and
    /// the flood always covers the whole network. Flood ids count down
    /// from the top of the id space, mirroring the paper's "fake sequence
    /// number with maximum allowed value".
    fn poison_rreq(me: NodeId, victim: NodeId, n: u32, n_nodes: u16) -> (NodeId, u32, DsrHeader) {
        let target = NodeId(n_nodes);
        let header = DsrHeader::Rreq {
            origin: victim,
            target,
            id: u32::MAX.wrapping_sub(n),
            route: vec![victim, me],
        };
        (target, 40, header)
    }
}

impl AttackHeader for AodvHeader {
    fn transit_data_dest(pkt: &Packet<AodvHeader>, me: NodeId) -> Option<NodeId> {
        match pkt.header {
            AodvHeader::Data if pkt.dst != me => Some(pkt.dst),
            _ => None,
        }
    }

    fn bogus_rreq(me: NodeId, dest: NodeId, id: u32) -> AodvHeader {
        AodvHeader::Rreq {
            origin: me,
            origin_seq: id, // ever-growing, so every flood propagates
            dest,
            dest_seq: None,
            id,
            hops: 0,
        }
    }

    /// A REQUEST "from" the victim with the maximum sequence number and,
    /// as the paper notes AODV permits, the *same* node as destination.
    /// Every node relaying the flood installs a reverse route to the
    /// victim through us that no honest update can displace, and no
    /// intermediate can answer (its only "route" to the destination is the
    /// reverse path itself).
    fn poison_rreq(_me: NodeId, victim: NodeId, n: u32, _: u16) -> (NodeId, u32, AodvHeader) {
        let header = AodvHeader::Rreq {
            origin: victim,
            origin_seq: u32::MAX,
            dest: victim,
            dest_seq: Some(u32::MAX),
            id: 0x8000_0000u32.wrapping_add(n),
            hops: 0,
        };
        (victim, 48, header)
    }
}
