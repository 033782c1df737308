//! Embedded property-graph backend (the Neo4j stand-in).
//!
//! Entities are nodes and events are edges (§II-B). The graph keeps
//! time-sorted outgoing adjacency lists per node, which the engine's path
//! enumerator walks for TBQL's `proc p ~>(2~4)[read] file f` patterns.

use threatraptor_audit::entity::EntityId;
use threatraptor_audit::event::{Event, EventId, Operation};

/// An edge in the graph: one system event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphEdge {
    /// Original event id (stable across CPR).
    pub event: EventId,
    /// Position of the event in the ingested event vector.
    pub event_pos: usize,
    /// Source node (event subject).
    pub src: EntityId,
    /// Destination node (event object).
    pub dst: EntityId,
    /// Operation.
    pub op: Operation,
    /// Start timestamp.
    pub start: u64,
    /// End timestamp.
    pub end: u64,
}

/// The property graph: nodes are entity ids `0..node_count`, edges are
/// events, outgoing adjacency is sorted by edge start time.
#[derive(Debug, Clone, Default)]
pub struct GraphDb {
    node_count: usize,
    edges: Vec<GraphEdge>,
    out: Vec<Vec<usize>>,
}

impl GraphDb {
    /// Builds the graph from an event slice over `node_count` entities.
    pub fn build(node_count: usize, events: &[Event]) -> GraphDb {
        let mut edges = Vec::with_capacity(events.len());
        let mut out = vec![Vec::new(); node_count];
        for (pos, ev) in events.iter().enumerate() {
            let edge_idx = edges.len();
            edges.push(GraphEdge {
                event: ev.id,
                event_pos: pos,
                src: ev.subject,
                dst: ev.object,
                op: ev.op,
                start: ev.start,
                end: ev.end,
            });
            out[ev.subject.index()].push(edge_idx);
        }
        // Sort adjacency by start time for time-monotone traversal.
        for adj in &mut out {
            adj.sort_by_key(|&e| edges[e].start);
        }
        GraphDb {
            node_count,
            edges,
            out,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Edge accessor.
    #[inline]
    pub fn edge(&self, idx: usize) -> &GraphEdge {
        &self.edges[idx]
    }

    /// Outgoing edge indexes of a node, sorted by start time.
    #[inline]
    pub fn out_edges(&self, node: EntityId) -> &[usize] {
        &self.out[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threatraptor_audit::event::Event;

    fn ev(id: u32, subject: u32, op: Operation, object: u32, start: u64) -> Event {
        Event {
            id: EventId(id),
            subject: EntityId(subject),
            op,
            object: EntityId(object),
            start,
            end: start + 1,
            bytes: 0,
            merged: 1,
            tag: None,
        }
    }

    #[test]
    fn build_and_adjacency() {
        let events = vec![
            ev(0, 0, Operation::Read, 1, 100),
            ev(1, 0, Operation::Write, 2, 50),
            ev(2, 3, Operation::Read, 1, 10),
        ];
        let g = GraphDb::build(4, &events);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        // Out edges of node 0 sorted by time: write@50 then read@100.
        let out0: Vec<u64> = g
            .out_edges(EntityId(0))
            .iter()
            .map(|&e| g.edge(e).start)
            .collect();
        assert_eq!(out0, vec![50, 100]);
        assert!(g.out_edges(EntityId(1)).is_empty());
    }

    #[test]
    fn empty_graph() {
        let g = GraphDb::build(0, &[]);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }
}
