//! Variable-length path enumeration (TBQL's advanced syntax, §II-D).
//!
//! `proc p ~>(m~n)[op] file f` matches a path of `m..=n` events from `p`
//! to `f` whose *final hop* has operation `op`. Traversal is
//! *time-monotone* — each hop must start no earlier than the previous hop
//! ends — because an information-flow chain through intermediate
//! processes is only meaningful forward in time. An event appears at most
//! once per path, and every hop must fall inside the pattern's window.
//!
//! One depth-first enumerator serves every store shape and execution
//! mode. A node's out-hops are gathered over the store's shards in shard
//! order with shard-local positions shifted to global ones; since shards
//! are contiguous slices of one time-ordered stream, the walk — and so
//! the row order, and the subset kept past [`MAX_PATH_MATCHES`] — is the
//! same for any shard count. The stack is an explicit `Vec`, so path
//! length is bounded by memory, not by the thread's stack.

use crate::compile::{CompiledPattern, CompiledShape};
use crate::exec::PatternRow;
use std::collections::HashSet;
use threatraptor_audit::entity::EntityId;
use threatraptor_audit::event::Operation;
use threatraptor_storage::relational::Value;
use threatraptor_storage::store::{EventLookup, TABLE_EVENT};

/// Safety cap on enumerated paths per pattern. Dense graphs make path
/// counts combinatorial, and an uncapped enumeration is an unbounded
/// memory/time sink in a multi-tenant service.
pub(crate) const MAX_PATH_MATCHES: usize = 100_000;

/// Where a node's out-hops come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Adjacency {
    /// The graph backend's start-sorted out-edge lists (Cypher's role).
    Graph,
    /// The event table's `subject` index (the relational-only baseline).
    SubjectIndex,
}

/// One candidate hop: an event at a global position.
#[derive(Debug, Clone, Copy)]
struct Hop {
    pos: usize,
    dst: EntityId,
    op: Operation,
    start: u64,
    end: u64,
}

/// Iteration state over one node's out-hops, shard by shard.
struct Cursor<'a> {
    node: EntityId,
    /// Earliest admissible hop start (the previous hop's end).
    min_start: u64,
    /// Shards whose adjacency has been loaded; `adj` belongs to shard
    /// `loaded - 1`.
    loaded: usize,
    adj: &'a [usize],
}

impl<'a> Cursor<'a> {
    fn new(node: EntityId, min_start: u64) -> Cursor<'a> {
        Cursor {
            node,
            min_start,
            loaded: 0,
            adj: &[],
        }
    }

    /// The next out-hop of `node`, or `None` once every shard is done.
    fn next_hop<S: EventLookup>(&mut self, store: &'a S, adjacency: Adjacency) -> Option<Hop> {
        loop {
            if let Some((&local, rest)) = self.adj.split_first() {
                self.adj = rest;
                let i = self.loaded - 1;
                let (shard, offset) = (store.shard(i), store.offset(i));
                return Some(match adjacency {
                    Adjacency::Graph => {
                        let e = shard.graph.edge(local);
                        Hop {
                            pos: offset + e.event_pos,
                            dst: e.dst,
                            op: e.op,
                            start: e.start,
                            end: e.end,
                        }
                    }
                    Adjacency::SubjectIndex => {
                        let ev = shard.event_at(local);
                        Hop {
                            pos: offset + local,
                            dst: ev.object,
                            op: ev.op,
                            start: ev.start,
                            end: ev.end,
                        }
                    }
                });
            }
            if self.loaded == store.shard_count() {
                return None;
            }
            let shard = store.shard(self.loaded);
            self.loaded += 1;
            self.adj = match adjacency {
                // A sealed streaming shard's graph covers only the entity
                // prefix known at its seal; later nodes have no edges there.
                Adjacency::Graph if self.node.index() >= shard.graph.node_count() => &[],
                Adjacency::Graph => shard.graph.out_edges(self.node),
                Adjacency::SubjectIndex => shard
                    .db
                    .table(TABLE_EVENT)
                    .index_get("subject", &Value::from(self.node.0))
                    .unwrap_or_default(),
            };
        }
    }
}

/// Enumerates `pat`'s paths from `srcs` to `dsts` over every shard of
/// `store`, depth-first from each source in id order, stopping at
/// [`MAX_PATH_MATCHES`] rows. Rows carry global event positions.
pub(crate) fn enumerate_paths<S: EventLookup>(
    store: &S,
    pat: &CompiledPattern,
    srcs: &HashSet<EntityId>,
    dsts: &HashSet<EntityId>,
    adjacency: Adjacency,
) -> Vec<PatternRow> {
    let CompiledShape::Path {
        min_hops,
        max_hops,
        last_op,
    } = &pat.shape
    else {
        unreachable!("path enumeration on an event pattern")
    };
    let last_op: Operation = last_op.parse().expect("ops validated");
    let (min_hops, max_hops) = (*min_hops as usize, *max_hops as usize);
    let mut out = Vec::new();
    let mut sources: Vec<EntityId> = srcs.iter().copied().collect();
    sources.sort_unstable();

    // `path[k]` is the hop leaving `stack[k]`'s node; the top cursor
    // belongs to the node the path currently ends at.
    let mut path: Vec<Hop> = Vec::new();
    let mut stack: Vec<Cursor> = Vec::new();
    for src in sources {
        stack.push(Cursor::new(src, 0));
        while let Some(top) = stack.last_mut() {
            let Some(hop) = top.next_hop(store, adjacency) else {
                stack.pop();
                path.pop();
                continue;
            };
            if hop.start < top.min_start
                || pat
                    .window
                    .is_some_and(|w| hop.start < w.lo || hop.end > w.hi)
                || path.iter().any(|h| h.pos == hop.pos)
            {
                continue;
            }
            path.push(hop);
            if path.len() >= min_hops && hop.op == last_op && dsts.contains(&hop.dst) {
                out.push(PatternRow {
                    subject: src,
                    object: hop.dst,
                    events: path.iter().map(|h| h.pos).collect(),
                    start: path[0].start,
                    end: hop.end,
                });
                if out.len() >= MAX_PATH_MATCHES {
                    return out;
                }
            }
            if path.len() < max_hops {
                stack.push(Cursor::new(hop.dst, hop.end));
            } else {
                path.pop();
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecMode;
    use crate::Engine;
    use std::collections::BTreeSet;
    use threatraptor_audit::entity::{Entity, FileEntity, ProcessEntity};
    use threatraptor_audit::event::{Event, EventId};
    use threatraptor_storage::cpr::ReductionStats;
    use threatraptor_storage::sharded::ShardedStore;
    use threatraptor_storage::store::AuditStore;
    use threatraptor_storage::stream::{SealPolicy, StreamingStore};
    use threatraptor_tbql::ast::TimeWindow;

    use Operation::{Connect, Fork, Read, Write};

    fn process(id: u32, exename: &str) -> Entity {
        Entity::Process(ProcessEntity {
            id: EntityId(id),
            pid: 100 + id,
            exename: exename.into(),
            cmdline: String::new(),
            owner: "root".into(),
            start_time: 0,
        })
    }

    fn ev(id: u32, subject: u32, op: Operation, object: u32, start: u64, end: u64) -> Event {
        Event {
            id: EventId(id),
            subject: EntityId(subject),
            op,
            object: EntityId(object),
            start,
            end,
            bytes: 0,
            merged: 1,
            tag: None,
        }
    }

    /// A single store over `nodes` process entities and `events`
    /// (position = index, id = index).
    fn store(nodes: u32, events: &[(u32, Operation, u32, u64, u64)]) -> AuditStore {
        let entities: Vec<Entity> = (0..nodes)
            .map(|i| process(i, &format!("/bin/p{i}")))
            .collect();
        let events: Vec<Event> = events
            .iter()
            .enumerate()
            .map(|(i, &(s, op, o, start, end))| ev(i as u32, s, op, o, start, end))
            .collect();
        let stats = ReductionStats {
            before: events.len(),
            after: events.len(),
        };
        AuditStore::from_events(&entities, events, stats)
    }

    /// The chain 0 -read-> 1 -write-> 2 -read-> 3 -connect-> 4, one event
    /// per 10 time units, each lasting 5.
    fn chain() -> AuditStore {
        store(
            5,
            &[
                (0, Read, 1, 10, 15),
                (1, Write, 2, 20, 25),
                (2, Read, 3, 30, 35),
                (3, Connect, 4, 40, 45),
            ],
        )
    }

    fn pattern(min_hops: u32, max_hops: u32, last_op: Operation) -> CompiledPattern {
        CompiledPattern {
            id: "pp".into(),
            decl_index: 0,
            subject_var: "a".into(),
            object_var: "b".into(),
            object_table: threatraptor_storage::store::TABLE_PROCESS,
            shape: CompiledShape::Path {
                min_hops,
                max_hops,
                last_op: last_op.name().into(),
            },
            window: None,
            bounds: None,
            score: 0,
        }
    }

    fn set(ids: &[u32]) -> HashSet<EntityId> {
        ids.iter().map(|&i| EntityId(i)).collect()
    }

    fn all(store: &AuditStore) -> HashSet<EntityId> {
        (0..store.entities.len() as u32).map(EntityId).collect()
    }

    /// Enumerates over `shards` contiguous shards of `single` through
    /// both adjacency sources, asserts they agree row for row, and
    /// returns the rows.
    fn enumerate_sharded(
        single: &AuditStore,
        shards: usize,
        pat: &CompiledPattern,
        srcs: &HashSet<EntityId>,
        dsts: &HashSet<EntityId>,
    ) -> Vec<PatternRow> {
        let sharded = ShardedStore::from_store(single, shards);
        let graph = enumerate_paths(&sharded, pat, srcs, dsts, Adjacency::Graph);
        let index = enumerate_paths(&sharded, pat, srcs, dsts, Adjacency::SubjectIndex);
        assert_eq!(event_lists(&graph), event_lists(&index), "{shards} shards");
        graph
    }

    fn event_lists(rows: &[PatternRow]) -> Vec<Vec<usize>> {
        rows.iter().map(|r| r.events.clone()).collect()
    }

    /// Paths (as event-position lists) on 1 and on 3 shards, asserted
    /// identical in order; the chain fixtures then cross shard
    /// boundaries.
    fn paths(
        single: &AuditStore,
        pat: &CompiledPattern,
        srcs: &HashSet<EntityId>,
        dsts: &HashSet<EntityId>,
    ) -> Vec<Vec<usize>> {
        let one = event_lists(&enumerate_sharded(single, 1, pat, srcs, dsts));
        let three = event_lists(&enumerate_sharded(single, 3, pat, srcs, dsts));
        assert_eq!(one, three, "shard count changed the rows");
        one
    }

    #[test]
    fn single_hop_any() {
        let g = chain();
        let any = all(&g);
        for (op, n) in [(Read, 2), (Write, 1), (Connect, 1), (Fork, 0)] {
            assert_eq!(paths(&g, &pattern(1, 1, op), &any, &any).len(), n, "{op:?}");
        }
    }

    #[test]
    fn fixed_endpoints_and_length() {
        let g = chain();
        for shards in [1, 3] {
            let pat = pattern(4, 4, Connect);
            let rows = enumerate_sharded(&g, shards, &pat, &set(&[0]), &set(&[4]));
            assert_eq!(rows.len(), 1);
            let r = &rows[0];
            assert_eq!(r.events, vec![0, 1, 2, 3]);
            assert_eq!((r.subject, r.object), (EntityId(0), EntityId(4)));
            assert_eq!((r.start, r.end), (10, 45));
        }
    }

    #[test]
    fn last_op_constrains_final_hop() {
        let g = chain();
        // Only the full 4-hop path ends in connect.
        let got = paths(&g, &pattern(1, 4, Connect), &set(&[0]), &all(&g));
        assert_eq!(got, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn hop_bounds_respected() {
        let g = chain();
        // Reads end hop 1 and hop 3; only hop 3 is within 2..=3.
        let got = paths(&g, &pattern(2, 3, Read), &set(&[0]), &all(&g));
        assert_eq!(got, vec![vec![0, 1, 2]]);
        assert!(paths(&g, &pattern(1, 2, Connect), &set(&[0]), &all(&g)).is_empty());
    }

    #[test]
    fn time_monotone_blocks_backwards_paths() {
        // 0 -> 1 at t=100, 1 -> 2 at t=10: not a causal chain.
        let backwards = store(3, &[(0, Read, 1, 100, 101), (1, Read, 2, 10, 11)]);
        let pat = pattern(2, 2, Read);
        assert!(paths(&backwards, &pat, &set(&[0]), &set(&[2])).is_empty());
        // A hop may start exactly when the previous one ends.
        let touching = store(3, &[(0, Read, 1, 10, 15), (1, Read, 2, 15, 16)]);
        assert_eq!(
            paths(&touching, &pat, &set(&[0]), &set(&[2])),
            vec![vec![0, 1]]
        );
    }

    #[test]
    fn window_filters_hops() {
        let g = chain();
        let mut pat = pattern(1, 4, Read);
        pat.window = Some(TimeWindow { lo: 0, hi: 18 });
        // Only the first edge [10,15] fits in the window.
        assert_eq!(paths(&g, &pat, &set(&[0]), &all(&g)), vec![vec![0]]);
    }

    #[test]
    fn max_matches_caps_output() {
        // 320 parallel edges 0 -> 1, then 320 parallel edges 1 -> 2:
        // 102,400 two-hop paths, past the cap.
        let k = 320;
        let mut events = Vec::new();
        for i in 0..k {
            events.push((0, Read, 1, i, i));
        }
        for i in 0..k {
            events.push((1, Read, 2, k + i, k + i));
        }
        let g = store(3, &events);
        let got = paths(&g, &pattern(2, 2, Read), &set(&[0]), &set(&[2]));
        assert_eq!(got.len(), MAX_PATH_MATCHES);
        // Depth-first: the first 312 first hops with every second hop,
        // then the 313th first hop with the first 160 second hops.
        let k = k as usize;
        assert_eq!(got[0], vec![0, k]);
        assert_eq!(got[k], vec![1, k]);
        assert_eq!(got[MAX_PATH_MATCHES - 1], vec![312, k + 159]);
    }

    #[test]
    fn cycle_guard_terminates() {
        // A zero-length self-loop could otherwise repeat up to max_hops.
        let g = store(2, &[(0, Read, 0, 5, 5), (0, Read, 1, 5, 5)]);
        let got = paths(&g, &pattern(1, 6, Read), &set(&[0]), &all(&g));
        assert_eq!(got, vec![vec![0], vec![0, 1], vec![1]]);
        for p in &got {
            let uniq: HashSet<_> = p.iter().collect();
            assert_eq!(uniq.len(), p.len());
        }
    }

    #[test]
    fn invalid_bounds_match_nothing() {
        let g = chain();
        assert!(paths(&g, &pattern(3, 2, Read), &all(&g), &all(&g)).is_empty());
    }

    /// Every path by exhaustive extension from every event — the
    /// definition the enumerator must agree with.
    fn brute_force(
        store: &AuditStore,
        pat: &CompiledPattern,
        srcs: &HashSet<EntityId>,
        dsts: &HashSet<EntityId>,
    ) -> BTreeSet<Vec<usize>> {
        let CompiledShape::Path {
            min_hops,
            max_hops,
            last_op,
        } = &pat.shape
        else {
            unreachable!()
        };
        let (min, max) = (*min_hops as usize, *max_hops as usize);
        let last_op: Operation = last_op.parse().unwrap();
        let in_window = |e: &Event| pat.window.is_none_or(|w| e.start >= w.lo && e.end <= w.hi);
        let mut out = BTreeSet::new();
        let mut frontier: Vec<Vec<usize>> = (0..store.event_count())
            .filter(|&p| srcs.contains(&store.events[p].subject) && in_window(&store.events[p]))
            .map(|p| vec![p])
            .collect();
        while let Some(path) = frontier.pop() {
            let last = &store.events[*path.last().unwrap()];
            if path.len() >= min && last.op == last_op && dsts.contains(&last.object) {
                out.insert(path.clone());
            }
            if path.len() == max {
                continue;
            }
            for (p, e) in store.events.iter().enumerate() {
                if e.subject == last.object
                    && e.start >= last.end
                    && in_window(e)
                    && !path.contains(&p)
                {
                    let mut next = path.clone();
                    next.push(p);
                    frontier.push(next);
                }
            }
        }
        out
    }

    #[test]
    fn matches_brute_force_reference() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rand = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let ops = [Read, Write, Fork];
        for _ in 0..60 {
            // Start-sorted events with ties, zero-length hops and loops.
            let mut t = 0;
            let events: Vec<_> = (0..12)
                .map(|_| {
                    t += rand(3);
                    let (s, o) = (rand(5) as u32, rand(5) as u32);
                    (s, ops[rand(3) as usize], o, t, t + rand(3))
                })
                .collect();
            let g = store(5, &events);
            let min = 1 + rand(2) as u32;
            let mut pat = pattern(min, min + rand(3) as u32, ops[rand(3) as usize]);
            if rand(3) == 0 {
                pat.window = Some(TimeWindow { lo: 2, hi: 14 });
            }
            let pick = |rand: &mut dyn FnMut(u64) -> u64| -> HashSet<EntityId> {
                (0..5).filter(|_| rand(2) == 0).map(EntityId).collect()
            };
            let (srcs, dsts) = (pick(&mut rand), pick(&mut rand));
            let want = brute_force(&g, &pat, &srcs, &dsts);
            let got = enumerate_sharded(&g, 1, &pat, &srcs, &dsts);
            assert_eq!(
                got.iter()
                    .map(|r| r.events.clone())
                    .collect::<BTreeSet<_>>(),
                want,
                "events {events:?}"
            );
            assert_eq!(got.len(), want.len(), "no path is emitted twice");
            for r in &got {
                let (first, last) = (&g.events[r.events[0]], &g.events[*r.events.last().unwrap()]);
                assert_eq!((r.subject, r.object), (first.subject, last.object));
                assert_eq!((r.start, r.end), (first.start, last.end));
            }
            for shards in [2, 3, 4] {
                let sharded = enumerate_sharded(&g, shards, &pat, &srcs, &dsts);
                assert_eq!(event_lists(&sharded), event_lists(&got), "{shards} shards");
            }
        }
    }

    #[test]
    fn deep_fork_chain_runs_on_a_small_stack() {
        // 20,000 forks in a line: one path of 20,000 hops, far deeper than
        // a recursive walk could go on a 2 MiB thread.
        let n = 20_000u32;
        let mut entities = vec![process(0, "/bin/start")];
        entities.extend((1..n).map(|i| process(i, "/bin/mid")));
        entities.push(process(n, "/bin/leaf"));
        let events: Vec<Event> = (0..n)
            .map(|i| ev(i, i, Fork, i + 1, 10 * i as u64, 10 * i as u64 + 1))
            .collect();
        let stats = ReductionStats {
            before: events.len(),
            after: events.len(),
        };
        let store = AuditStore::from_events(&entities, events, stats);
        let q = "proc a[\"%/bin/start%\"] ~>(1~20010)[fork] proc b[\"%/bin/leaf%\"] as pp \
                 return a, b";
        let result = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Engine::new(&store).hunt(q).map(|r| r.rows))
            .unwrap()
            .join()
            .unwrap();
        let rows = result.expect("the hunt succeeds");
        assert_eq!(
            rows,
            vec![vec!["/bin/start".to_string(), "/bin/leaf".to_string()]]
        );
    }

    #[test]
    fn streaming_paths_through_entities_newer_than_the_oldest_seal() {
        let mut live = StreamingStore::new(false, SealPolicy::manual());
        // Shard 0 knows entities 0–1 only.
        live.append_batch(
            &[process(0, "/bin/a"), process(1, "/bin/b")],
            &[ev(0, 0, Fork, 1, 10, 11)],
        );
        live.seal().expect("sealed");
        // Shard 1 adds process 2; the open window adds file 3.
        live.append_batch(&[process(2, "/bin/c")], &[ev(1, 1, Fork, 2, 20, 21)]);
        live.seal().expect("sealed");
        let file = Entity::File(FileEntity {
            id: EntityId(3),
            name: "/tmp/out".into(),
        });
        live.append_batch(&[file], &[ev(2, 2, Write, 3, 30, 31)]);
        let snapshot = live.snapshot();
        assert_eq!(snapshot.shard_count(), 3);
        assert_eq!(snapshot.shard(0).graph.node_count(), 2);

        let engine = crate::ShardedEngine::new(&snapshot);
        for mode in [ExecMode::Scheduled, ExecMode::RelationalOnly] {
            // From the oldest node across both seals…
            let r = engine
                .hunt_mode(
                    "proc a[\"%/bin/a%\"] ~>(1~3)[write] file f return a, f",
                    mode,
                )
                .unwrap();
            assert_eq!(r.rows, vec![vec!["/bin/a".to_string(), "/tmp/out".into()]]);
            assert_eq!(r.matches[0].events["evt1"], vec![0, 1, 2]);
            // …and from a node shard 0 has never seen.
            let r = engine
                .hunt_mode(
                    "proc c[\"%/bin/c%\"] ~>(1~2)[write] file f return c, f",
                    mode,
                )
                .unwrap();
            assert_eq!(r.rows, vec![vec!["/bin/c".to_string(), "/tmp/out".into()]]);
        }
    }
}
