//! The combined audit store: one parsed log ingested into both backends.
//!
//! Mirrors §II-B: "For PostgreSQL, ThreatRaptor stores system entities and
//! system events in tables. For Neo4j, ThreatRaptor stores system entities
//! as nodes and system events as edges. Indexes are created on key
//! attributes to speed up the search. Furthermore, … the Causality
//! Preserved Reduction technique [is used] to merge excessive events."

use crate::cpr;
use crate::graphdb::GraphDb;
use crate::relational::{Column, Database, Table, Value};
use std::sync::Arc;
use threatraptor_audit::entity::{Entity, EntityId};
use threatraptor_audit::event::{Event, EventType};
use threatraptor_audit::parser::ParsedLog;

/// Table name for process entities.
pub const TABLE_PROCESS: &str = "process";
/// Table name for file entities.
pub const TABLE_FILE: &str = "file";
/// Table name for network-connection entities.
pub const TABLE_NETWORK: &str = "network";
/// Table name for events.
pub const TABLE_EVENT: &str = "event";

/// The three entity tables of a store, behind shared handles so one
/// physical copy can serve many shards (entity ids are global, so every
/// shard of one log sees identical entity tables — replicating them per
/// shard is pure waste at production entity counts).
#[derive(Debug, Clone)]
pub struct EntityTables {
    /// Process table (indexed on `id`).
    pub process: Arc<Table>,
    /// File table (indexed on `id` and `name`).
    pub file: Arc<Table>,
    /// Network-connection table (indexed on `id` and `dstip`).
    pub network: Arc<Table>,
}

impl EntityTables {
    /// Builds all three entity tables (with their indexes) once.
    pub fn build(entities: &[Entity]) -> EntityTables {
        EntityTables {
            process: Arc::new(AuditStore::build_process_table(entities)),
            file: Arc::new(AuditStore::build_file_table(entities)),
            network: Arc::new(AuditStore::build_network_table(entities)),
        }
    }

    /// The table registered under `name`, or a panic for non-entity names.
    pub fn table(&self, name: &str) -> &Table {
        match name {
            TABLE_PROCESS => &self.process,
            TABLE_FILE => &self.file,
            TABLE_NETWORK => &self.network,
            other => panic!("`{other}` is not an entity table"),
        }
    }
}

/// The combined store over relational and graph backends.
#[derive(Debug, Clone)]
pub struct AuditStore {
    /// Relational backend (PostgreSQL role).
    pub db: Database,
    /// Graph backend (Neo4j role).
    pub graph: GraphDb,
    /// All entities, indexed by [`EntityId`]. Shared (not replicated)
    /// across the shards of a [`crate::sharded::ShardedStore`].
    pub entities: Arc<[Entity]>,
    /// Stored events (CPR-reduced when enabled), in time order. Row `i` of
    /// the event table corresponds to `events[i]`.
    pub events: Vec<Event>,
    /// CPR statistics of the ingest (before == after when CPR disabled).
    pub reduction: cpr::ReductionStats,
}

impl AuditStore {
    /// Ingests a parsed log, optionally applying CPR first.
    pub fn ingest(log: &ParsedLog, use_cpr: bool) -> AuditStore {
        let (events, reduction) = cpr::reduce_if(&log.events, use_cpr);
        Self::from_events(&log.entities, events, reduction)
    }

    /// Builds a store over an already reduced (or deliberately unreduced)
    /// event stream. No further CPR is applied; `reduction` is recorded
    /// as-is.
    pub fn from_events(
        entities: &[Entity],
        events: Vec<Event>,
        reduction: cpr::ReductionStats,
    ) -> AuditStore {
        let tables = EntityTables::build(entities);
        Self::from_shared(Arc::from(entities), &tables, events, reduction)
    }

    /// Builds a store over an already reduced event stream, sharing the
    /// entity array and entity tables with the caller (and any sibling
    /// shards). Only the event table and the graph are built here — this
    /// is the shard-construction path of
    /// [`crate::sharded::ShardedStore`], which reduces once globally,
    /// builds the entity tables once, and then partitions the events.
    pub fn from_shared(
        entities: Arc<[Entity]>,
        tables: &EntityTables,
        events: Vec<Event>,
        reduction: cpr::ReductionStats,
    ) -> AuditStore {
        let mut db = Database::new();
        db.add_shared_table(Arc::clone(&tables.process));
        db.add_shared_table(Arc::clone(&tables.file));
        db.add_shared_table(Arc::clone(&tables.network));
        db.add_table(Self::build_event_table(&events));

        let graph = GraphDb::build(entities.len(), &events);

        AuditStore {
            db,
            graph,
            entities,
            events,
            reduction,
        }
    }

    /// Shared handles to this store's entity tables.
    pub fn entity_tables(&self) -> EntityTables {
        EntityTables {
            process: self.db.shared_table(TABLE_PROCESS),
            file: self.db.shared_table(TABLE_FILE),
            network: self.db.shared_table(TABLE_NETWORK),
        }
    }

    fn build_process_table(entities: &[Entity]) -> Table {
        let mut t = Table::new(
            TABLE_PROCESS,
            vec![
                Column::new("id"),
                Column::new("pid"),
                Column::new("exename"),
                Column::new("cmdline"),
                Column::new("owner"),
                Column::new("start_time"),
            ],
        );
        for e in entities {
            if let Entity::Process(p) = e {
                t.insert(vec![
                    Value::from(p.id.0),
                    Value::from(p.pid),
                    Value::str(&p.exename),
                    Value::str(&p.cmdline),
                    Value::str(&p.owner),
                    Value::from(p.start_time),
                ]);
            }
        }
        t.create_btree_index("id");
        t
    }

    fn build_file_table(entities: &[Entity]) -> Table {
        let mut t = Table::new(TABLE_FILE, vec![Column::new("id"), Column::new("name")]);
        for e in entities {
            if let Entity::File(f) = e {
                t.insert(vec![Value::from(f.id.0), Value::str(&f.name)]);
            }
        }
        t.create_btree_index("id");
        t.create_hash_index("name");
        t
    }

    fn build_network_table(entities: &[Entity]) -> Table {
        let mut t = Table::new(
            TABLE_NETWORK,
            vec![
                Column::new("id"),
                Column::new("srcip"),
                Column::new("srcport"),
                Column::new("dstip"),
                Column::new("dstport"),
                Column::new("protocol"),
            ],
        );
        for e in entities {
            if let Entity::Network(n) = e {
                t.insert(vec![
                    Value::from(n.id.0),
                    Value::str(&n.src_ip),
                    Value::from(n.src_port),
                    Value::str(&n.dst_ip),
                    Value::from(n.dst_port),
                    Value::str(&n.protocol),
                ]);
            }
        }
        t.create_btree_index("id");
        t.create_hash_index("dstip");
        t
    }

    fn build_event_table(events: &[Event]) -> Table {
        let mut t = Table::new(
            TABLE_EVENT,
            vec![
                Column::new("id"),
                Column::new("subject"),
                Column::new("op"),
                Column::new("object"),
                Column::new("start"),
                Column::new("end"),
                Column::new("bytes"),
                Column::new("type"),
            ],
        );
        for ev in events.iter() {
            let ty = match ev.event_type() {
                EventType::File => "file",
                EventType::Process => "process",
                EventType::Network => "network",
            };
            t.insert(vec![
                Value::from(ev.id.0),
                Value::from(ev.subject.0),
                Value::str(ev.op.name()),
                Value::from(ev.object.0),
                Value::from(ev.start),
                Value::from(ev.end),
                Value::from(ev.bytes),
                Value::str(ty),
            ]);
        }
        t.create_hash_index("op");
        t.create_btree_index("subject");
        t.create_btree_index("object");
        t.create_btree_index("start");
        t
    }

    /// Entity accessor.
    #[inline]
    pub fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id.index()]
    }

    /// Stored event by table row position.
    #[inline]
    pub fn event_at(&self, pos: usize) -> &Event {
        &self.events[pos]
    }

    /// Number of stored events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// The table name that holds entities of the given kind.
    pub fn entity_table(kind: threatraptor_audit::entity::EntityKind) -> &'static str {
        match kind {
            threatraptor_audit::entity::EntityKind::Process => TABLE_PROCESS,
            threatraptor_audit::entity::EntityKind::File => TABLE_FILE,
            threatraptor_audit::entity::EntityKind::Network => TABLE_NETWORK,
        }
    }
}

/// Position-addressed access to stored events and entities, plus the
/// shard layout behind the positions. Implemented by [`AuditStore`] (one
/// shard at offset 0; positions are table rows) and by
/// [`crate::sharded::ShardedStore`] (positions are global, spanning all
/// shards), so result evaluation and the execution engine work over
/// either.
pub trait EventLookup {
    /// Event stored at `pos`.
    fn event_at(&self, pos: usize) -> &Event;

    /// Number of stored events.
    fn event_count(&self) -> usize;

    /// Entity by id.
    fn entity(&self, id: EntityId) -> &Entity;

    /// Number of shards (at least 1).
    fn shard_count(&self) -> usize;

    /// Shard `i`, holding positions `[offset(i), offset(i + 1))`.
    fn shard(&self, i: usize) -> &AuditStore;

    /// Global position of shard `i`'s first event; `offset(shard_count())`
    /// is the total event count.
    fn offset(&self, i: usize) -> usize;

    /// Maps a global event position to `(shard index, local position)`.
    fn locate(&self, pos: usize) -> (usize, usize);

    /// The store-level entity table registered under `name` — the
    /// authoritative table for resolving entity predicates.
    fn entity_table(&self, name: &str) -> &Table;
}

impl EventLookup for AuditStore {
    fn event_at(&self, pos: usize) -> &Event {
        AuditStore::event_at(self, pos)
    }

    fn event_count(&self) -> usize {
        AuditStore::event_count(self)
    }

    fn entity(&self, id: EntityId) -> &Entity {
        AuditStore::entity(self, id)
    }

    fn shard_count(&self) -> usize {
        1
    }

    fn shard(&self, i: usize) -> &AuditStore {
        assert_eq!(i, 0, "a single store is one shard");
        self
    }

    fn offset(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.event_count()
        }
    }

    fn locate(&self, pos: usize) -> (usize, usize) {
        assert!(pos < self.event_count(), "event position out of range");
        (0, pos)
    }

    fn entity_table(&self, name: &str) -> &Table {
        self.db.table(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relational::Predicate;
    use threatraptor_audit::sim::scenario::ScenarioBuilder;

    fn store(cpr: bool) -> AuditStore {
        let sc = ScenarioBuilder::new().seed(42).target_events(2_000).build();
        AuditStore::ingest(&sc.log, cpr)
    }

    #[test]
    fn tables_cover_all_entities_and_events() {
        let s = store(false);
        let n_proc = s.db.table(TABLE_PROCESS).len();
        let n_file = s.db.table(TABLE_FILE).len();
        let n_net = s.db.table(TABLE_NETWORK).len();
        assert_eq!(n_proc + n_file + n_net, s.entities.len());
        assert_eq!(s.db.table(TABLE_EVENT).len(), s.events.len());
        assert_eq!(s.reduction.before, s.reduction.after);
    }

    #[test]
    fn cpr_shrinks_event_table() {
        let plain = store(false);
        let reduced = store(true);
        assert!(reduced.event_count() < plain.event_count());
        assert!(
            reduced.reduction.factor() > 1.2,
            "bursty workloads must compress"
        );
        assert_eq!(reduced.db.table(TABLE_EVENT).len(), reduced.event_count());
        // Graph edge count matches stored events.
        assert_eq!(reduced.graph.edge_count(), reduced.event_count());
    }

    #[test]
    fn event_rows_align_with_events_vec() {
        let s = store(true);
        let t = s.db.table(TABLE_EVENT);
        for pos in [0usize, s.events.len() / 2, s.events.len() - 1] {
            let row = t.row(pos);
            assert_eq!(
                row[t.col("id")].as_int().unwrap() as u32,
                s.events[pos].id.0
            );
            assert_eq!(row[t.col("op")].as_str().unwrap(), s.events[pos].op.name());
        }
    }

    #[test]
    fn indexed_op_lookup_matches_scan() {
        let s = store(false);
        let t = s.db.table(TABLE_EVENT);
        let via_index = t.select(&Predicate::eq("op", "read"));
        let expected = s.events.iter().filter(|e| e.op.name() == "read").count();
        assert_eq!(via_index.len(), expected);
    }

    #[test]
    fn entity_table_mapping() {
        use threatraptor_audit::entity::EntityKind;
        assert_eq!(AuditStore::entity_table(EntityKind::Process), TABLE_PROCESS);
        assert_eq!(AuditStore::entity_table(EntityKind::File), TABLE_FILE);
        assert_eq!(AuditStore::entity_table(EntityKind::Network), TABLE_NETWORK);
    }

    #[test]
    fn ground_truth_events_survive_cpr() {
        let sc = ScenarioBuilder::new().seed(42).target_events(2_000).build();
        let s = AuditStore::ingest(&sc.log, true);
        let gt = sc.ground_truth("data_leakage");
        assert_eq!(gt.len(), 8);
        for id in gt {
            assert!(
                s.events.iter().any(|e| e.id == id),
                "hunted event {id} lost by CPR"
            );
        }
    }
}
