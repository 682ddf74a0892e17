package server

// Durable sessions. With Config.WALDir set, every acknowledged session
// mutation is logged to a write-ahead log (distcover/internal/durable)
// before the HTTP response goes out, and a periodic snapshot compacts the
// log. On restart, Open rehydrates the sessions: snapshot state is
// restored directly (no re-solve), post-snapshot WAL records are replayed
// through the ordinary Session code paths. Because every engine computes
// the bit-identical cover, a recovered session continues exactly where the
// crashed process stopped — same cover, same certificate.
//
// Consistency protocol. Two locks keep the log, the snapshot, and the
// in-memory sessions mutually consistent:
//
//   - sessionEntry.walMu serializes apply+log per session, so WAL record
//     order equals application order for that session.
//   - Server.commitMu makes (apply, append) atomic against snapshots:
//     mutating handlers hold the read side across both steps, the snapshot
//     writer holds the write side across (capture state, write snapshot
//     file, truncate WAL). Without it, a snapshot could capture a session
//     state that already includes an update whose record is assigned a
//     sequence number after the snapshot's, and recovery would replay the
//     update a second time.
//
// Lock order is walMu → commitMu(R); the snapshot path takes only
// commitMu(W), and only via TryLock while the server is running (see
// snapshotNow), so the periodic snapshot can never deadlock against
// update handlers that hold the read side while waiting for a worker.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"distcover"
	"distcover/internal/durable"
	"distcover/server/api"
)

// errSnapshotBusy reports a skipped periodic snapshot: session mutations
// held the commit lock. The next tick retries; the WAL alone preserves
// durability in the meantime.
var errSnapshotBusy = errors.New("coverd: snapshot skipped, commits in flight")

// openWAL opens the WAL directory, rehydrates the surviving sessions, and
// starts the snapshot loop. Called from Open before the worker pool and
// HTTP routes exist, so recovery is single-threaded.
func (s *Server) openWAL() error {
	store, rec, err := durable.Open(s.walDir())
	if err != nil {
		return fmt.Errorf("coverd: wal: %w", err)
	}
	s.wal = store
	s.snapStop = make(chan struct{})
	s.snapDone = make(chan struct{})
	s.sessions.onEvict = s.logEviction
	if rec.TornTail && s.cfg.Logger != nil {
		s.cfg.Logger.Warn("coverd: wal ended in a torn record (crash mid-write); truncated at last intact record")
	}
	s.recoverSessions(rec)
	go s.snapshotLoop()
	return nil
}

// recoverSessions rebuilds the session registry from a recovery: snapshot
// sessions first, then the WAL records logged after the snapshot, in
// order. Individual unrecoverable sessions are logged and skipped rather
// than failing startup — the rest of the state is still worth serving.
func (s *Server) recoverSessions(rec *durable.Recovery) {
	entries := s.foldRecovery(rec, nil)
	for _, e := range entries {
		s.installRecovered(e)
	}
	if len(entries) > 0 && s.cfg.Logger != nil {
		s.cfg.Logger.Info("coverd: recovered sessions from wal",
			"dir", s.walDir(), "sessions", s.sessions.len(),
			"snapshot_seq", rec.SnapshotSeq, "replayed_records", len(rec.Records))
	}
}

// foldRecovery turns a recovery into detached session entries without
// touching the registry: snapshot sessions first, then post-snapshot
// records in append order. filter (nil = accept all) selects which
// session ids are wanted — the ring takeover path uses it to adopt only
// sessions whose ownership fell to this coordinator; records for
// unselected ids are skipped silently. Callers publish the returned
// entries via installRecovered; keeping the fold detached means a
// concurrent reader can never observe a partially replayed session.
func (s *Server) foldRecovery(rec *durable.Recovery, filter func(id string) bool) []*sessionEntry {
	want := func(id string) bool { return filter == nil || filter(id) }
	byID := make(map[string]*sessionEntry)
	var order []*sessionEntry
	for _, sr := range rec.Sessions {
		if !want(sr.ID) {
			continue
		}
		if e, ok := s.restoreSession(sr); ok {
			byID[e.id] = e
			order = append(order, e)
		}
	}
	for _, r := range rec.Records {
		switch r.Type {
		case durable.RecCreate:
			if !want(r.ID) {
				continue
			}
			if _, ok := byID[r.ID]; ok {
				continue // already restored from the snapshot
			}
			if e, ok := s.replayCreate(r); ok {
				byID[e.id] = e
				order = append(order, e)
			}
		case durable.RecUpdate:
			e, ok := byID[r.ID]
			if !ok {
				if want(r.ID) {
					s.warn("coverd: wal replay: update for unknown session", "session", r.ID, "seq", r.Seq)
				}
				continue
			}
			if _, err := e.sess.Update(r.Delta); err != nil {
				s.warn("coverd: wal replay: update failed", "session", r.ID, "seq", r.Seq, "err", err)
			}
		case durable.RecDelete:
			if e, ok := byID[r.ID]; ok {
				delete(byID, r.ID)
				e.sess.Close()
			}
		}
	}
	out := make([]*sessionEntry, 0, len(byID))
	for _, e := range order {
		if byID[e.id] == e {
			out = append(out, e)
		}
	}
	return out
}

// restoreSession rebuilds one snapshot session without re-solving it.
func (s *Server) restoreSession(sr durable.SessionRecord) (*sessionEntry, bool) {
	opts, libOpts, peers, ok := s.recoveryOptions(sr.ID, sr.Options)
	if !ok {
		return nil, false
	}
	sess, err := distcover.RestoreSession(sr.Snapshot, libOpts...)
	if err != nil {
		s.warn("coverd: recovery: restore failed", "session", sr.ID, "err", err)
		return nil, false
	}
	if len(peers) > 0 {
		sess.SetClusterPeers(peers...)
	}
	return &sessionEntry{id: sr.ID, sess: sess, opts: opts, recovered: true}, true
}

// replayCreate rebuilds a session whose create record survived in the WAL
// (it was created after the last snapshot): the initial solve reruns.
func (s *Server) replayCreate(r durable.Record) (*sessionEntry, bool) {
	opts, libOpts, peers, ok := s.recoveryOptions(r.ID, r.Options)
	if !ok {
		return nil, false
	}
	inst, err := distcover.ReadInstance(bytes.NewReader(r.Instance))
	if err != nil {
		s.warn("coverd: recovery: bad instance in create record", "session", r.ID, "err", err)
		return nil, false
	}
	sess, err := distcover.NewSession(inst, libOpts...)
	if err != nil {
		s.warn("coverd: recovery: initial solve failed", "session", r.ID, "err", err)
		return nil, false
	}
	if len(peers) > 0 {
		sess.SetClusterPeers(peers...)
	}
	return &sessionEntry{id: r.ID, sess: sess, opts: opts, recovered: true, baseHash: inst.Hash()}, true
}

// installRecovered publishes a folded entry to the registry.
func (s *Server) installRecovered(e *sessionEntry) {
	s.sessions.addEntry(e)
	s.metrics.recordSessionRecovered()
}

// recoveryOptions maps a recovered session's stored API options onto
// library options. Cluster sessions are rebuilt in-process on the flat
// engine — the peers may not be reachable while this server is starting,
// and the frontier runner computes the bit-identical cover — then
// re-pointed at the configured peers for future updates.
func (s *Server) recoveryOptions(id string, raw []byte) (api.SolveOptions, []distcover.Option, []string, bool) {
	var opts api.SolveOptions
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &opts); err != nil {
			s.warn("coverd: recovery: bad options", "session", id, "err", err)
			return opts, nil, nil, false
		}
	}
	mapped := opts
	var peers []string
	if opts.Engine == api.EngineCluster {
		mapped.Engine = api.EngineFlat
		peers = s.cfg.ClusterPeers
	}
	libOpts, err := libOptions(mapped, s.pool.cluster)
	if err != nil {
		s.warn("coverd: recovery: unusable options", "session", id, "err", err)
		return opts, nil, nil, false
	}
	// Same telemetry wiring as runSessionCreate, so recovered sessions keep
	// feeding the phase metrics on later updates.
	libOpts = append(libOpts, distcover.WithTracer(s.metrics.SolveTracer(engineLabel(opts.Engine))))
	if s.cfg.Logger != nil {
		libOpts = append(libOpts, distcover.WithLogger(s.cfg.Logger))
	}
	return opts, libOpts, peers, true
}

// logCreateAndRegister appends a create record and publishes the entry,
// atomically with respect to snapshots (a snapshot between the two would
// drop the session: its record would be truncated away but its state not
// yet captured). Without a WAL it just registers. On log failure the
// session is not registered; the caller owns (and closes) it.
func (s *Server) logCreateAndRegister(e *sessionEntry, instance []byte) error {
	if s.wal == nil {
		s.sessions.addEntry(e)
		return nil
	}
	optsJSON, err := json.Marshal(e.opts)
	if err != nil {
		return fmt.Errorf("coverd: wal: encode options: %w", err)
	}
	s.commitMu.RLock()
	defer s.commitMu.RUnlock()
	if _, err := s.wal.Append(durable.Record{
		Type: durable.RecCreate, ID: e.id, Options: optsJSON, Instance: instance,
	}); err != nil {
		return fmt.Errorf("coverd: wal: %w", err)
	}
	s.metrics.recordWALRecord()
	s.sessions.addEntry(e)
	return nil
}

// logUpdate appends an update record for an already-applied delta. The
// caller holds entry.walMu and commitMu(R).
func (s *Server) logUpdate(e *sessionEntry, delta distcover.Delta) error {
	if _, err := s.wal.Append(durable.Record{Type: durable.RecUpdate, ID: e.id, Delta: delta}); err != nil {
		return fmt.Errorf("coverd: wal: %w", err)
	}
	s.metrics.recordWALRecord()
	return nil
}

// logDelete appends a delete record. The caller holds commitMu(R) (or is
// single-threaded recovery/eviction under a mutating handler's lock).
func (s *Server) logDelete(id string) {
	if _, err := s.wal.Append(durable.Record{Type: durable.RecDelete, ID: id}); err != nil {
		s.warn("coverd: wal: delete record failed", "session", id, "err", err)
		return
	}
	s.metrics.recordWALRecord()
}

// logEviction is the registry's eviction hook: budget evictions are
// deletes the client never asked for, but the log must still record them
// or recovery would resurrect the evicted sessions. Eviction happens
// inside addEntry/refresh, whose durable callers hold commitMu(R).
func (s *Server) logEviction(e *sessionEntry) {
	s.logDelete(e.id)
	s.invalidatePeerCaches(e)
}

// invalidatePeerCaches asks the cluster peers to drop a deleted cluster
// session's base instance from their content-addressed caches.
// Best-effort: a dead peer re-fetches on the next miss anyway.
func (s *Server) invalidatePeerCaches(e *sessionEntry) {
	if e.opts.Engine != api.EngineCluster || e.baseHash == "" || len(s.cfg.ClusterPeers) == 0 {
		return
	}
	hash, peers := e.baseHash, s.cfg.ClusterPeers
	go func() {
		if err := distcover.ClusterInvalidate(hash, peers); err != nil {
			s.warn("coverd: peer cache invalidation failed", "hash", hash, "err", err)
		}
	}()
}

// snapshotLoop periodically compacts the WAL, routing the work through the
// job queue so snapshots show up in queue metrics and yield to solves. A
// full queue skips the tick: compaction is an optimization, the WAL alone
// preserves durability.
func (s *Server) snapshotLoop() {
	defer close(s.snapDone)
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-t.C:
			j := newSnapshotJob(func() error { return s.snapshotNow(false) })
			if err := s.queue.tryEnqueue(j); err != nil {
				continue
			}
			select {
			case <-j.done:
			case <-s.snapStop:
				return
			}
			if st := j.snapshot(); st.Error != "" && st.Error != errSnapshotBusy.Error() {
				s.warn("coverd: snapshot failed", "err", st.Error)
			}
		}
	}
}

// snapshotNow captures every live session and writes the snapshot file.
// block selects Lock vs TryLock on the commit lock: the periodic path must
// not block (a snapshot job waiting on a worker-held lock while update
// handlers wait for workers would deadlock a small pool), the final
// shutdown snapshot runs after the pool stopped and can afford to wait.
func (s *Server) snapshotNow(block bool) error {
	if block {
		s.commitMu.Lock()
	} else if !s.commitMu.TryLock() {
		return errSnapshotBusy
	}
	defer s.commitMu.Unlock()
	entries := s.sessions.list()
	records := make([]durable.SessionRecord, 0, len(entries))
	for _, e := range entries {
		snap, err := e.sess.Snapshot()
		if err != nil {
			continue // closed under us; its delete record is in the log
		}
		optsJSON, err := json.Marshal(e.opts)
		if err != nil {
			return fmt.Errorf("coverd: snapshot: encode options: %w", err)
		}
		records = append(records, durable.SessionRecord{ID: e.id, Options: optsJSON, Snapshot: snap})
	}
	if err := s.wal.WriteSnapshot(records); err != nil {
		return err
	}
	s.metrics.recordWALSnapshot()
	return nil
}

func (s *Server) warn(msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Warn(msg, args...)
	}
}
