package river

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// unit is one placeable instance derived from a pipeline's spec: a plain
// segment, one of the merger/replica/splitter roles a replicated segment
// expands into, or one of the collector/shard/partitioner roles a sharded
// segment expands into. Unit names are pipeline-scoped (see scopedName)
// and double as the hosted instance names on agents, so one agent can
// host units of many pipelines without collisions.
type unit struct {
	name  string // scoped placement key, e.g. "extract" or "pA:extract/r2"
	pipe  string // owning pipeline ID ("" for the back-compat default)
	group string // scoped owning spec segment name
	typ   string // registry type ("" for fan endpoints)
	role  string // "", RoleSplit, RoleMerge, RoleReplica, RolePartition, RoleCollect, RoleShard
	idx   int    // replica/shard ordinal (1-based) for RoleReplica/RoleShard
}

// scopedName prefixes a unit or group name with its pipeline ID. The
// default pipeline (empty ID) keeps bare names, which makes the journal
// format — and every placement key — byte-compatible with the
// single-pipeline coordinator of protocol v4.
func scopedName(pipe, name string) string {
	if pipe == "" {
		return name
	}
	return pipe + ":" + name
}

// expandSpec derives the placement units of one spec segment, in
// placement order: downstream-most first (merger, then replicas, then the
// splitter — which is the group's entry point for upstream traffic; for a
// sharded segment the collector, then shard legs, then the partitioner).
func expandSpec(pipe string, sp SegmentSpec) []unit {
	return expandSpecK(pipe, sp, sp.Shards)
}

// expandSpecK is expandSpec with the sharded segment's live K overriding
// the spec's boot value — the autoscaler grows and shrinks K at runtime,
// and the journaled override must re-expand through the same code path.
// A sharded segment keeps the partition/collect structure even at K=1, so
// scaling in never restructures the wire topology.
func expandSpecK(pipe string, sp SegmentSpec, shards int) []unit {
	group := scopedName(pipe, sp.Name)
	if sp.Shards > 1 {
		if shards < 1 {
			shards = sp.Shards
		}
		us := make([]unit, 0, shards+2)
		us = append(us, unit{name: group + "/collect", pipe: pipe, group: group, role: RoleCollect})
		for i := 1; i <= shards; i++ {
			us = append(us, unit{
				name: fmt.Sprintf("%s/s%d", group, i), pipe: pipe, group: group,
				typ: sp.Type, role: RoleShard, idx: i,
			})
		}
		return append(us, unit{name: group + "/partition", pipe: pipe, group: group, role: RolePartition})
	}
	if sp.Replicas <= 1 {
		return []unit{{name: group, pipe: pipe, group: group, typ: sp.Type}}
	}
	us := make([]unit, 0, sp.Replicas+2)
	us = append(us, unit{name: group + "/merge", pipe: pipe, group: group, role: RoleMerge})
	for i := 1; i <= sp.Replicas; i++ {
		us = append(us, unit{
			name: fmt.Sprintf("%s/r%d", group, i), pipe: pipe, group: group,
			typ: sp.Type, role: RoleReplica, idx: i,
		})
	}
	return append(us, unit{name: group + "/split", pipe: pipe, group: group, role: RoleSplit})
}

// placement records where one unit currently runs; node and addr are
// empty while it awaits (re-)placement. down and legs record the
// downstream target(s) the live instance was last told, so the reconcile
// loop can re-splice declaratively whenever the desired target moves.
type placement struct {
	u     unit
	node  string
	addr  string
	down  string   // single downstream last told (segments, mergers)
	legs  []string // splitter fan-out last told (sorted)
	epoch uint16   // splitter incarnation assigned
	// everPlaced records that this unit has held a node at some point in
	// this incarnation, so the event stream can distinguish a first
	// placement ("place") from a post-failover one ("replace").
	everPlaced bool
}

// pipelineState is the per-pipeline half of the topology tables: the
// spec, the placement units it expands into, and the pipeline's entry
// address. The unit tables are immutable for a pipeline's lifetime with
// one exception: a sharded segment's leg count may be resized in place
// (see state.setShardK) — the autoscaler's whole point is a topology
// change without a pipeline remove + add. Every other topology change is
// still a remove + add.
type pipelineState struct {
	id          string
	spec        PipelineSpec
	units       []unit   // topology order (upstream spec last)
	unitsBySpec [][]unit // grouped per spec segment
	specIndex   map[string]int
	entryAddr   string
	// boot marks a pipeline declared in the coordinator's Config. Boot
	// pipelines take their spec from the config on every start (the v4
	// rule: the operator's flags are the intent, stale placements are
	// pruned); only runtime-added pipelines are reloaded from the journal.
	boot bool
}

// state owns the coordinator's topology tables: a registry of pipelines
// keyed by ID, and where each pipeline's units currently run. Placement
// is global — one table, one node pool — while topology (specs, entry
// addresses, reconcile order) is per pipeline. When opened over a
// directory the state is durable: every mutation, including runtime
// pipeline adds and removes, is committed through a journaling hook (an
// append-only JSON log, compacted into a snapshot every snapEvery
// entries), so a restarted coordinator reloads the full pipeline set,
// bumps its epoch, and can reconcile re-registering agents' live
// inventories per pipeline instead of re-placing a data plane that never
// stopped flowing.
//
// All mutable fields are guarded by the owning Coordinator's mu; state
// methods must be called with it held. Journal appends are buffered
// writes flushed to the OS per entry; a background flusher fsyncs them
// with a small group-commit interval (see startFlusher), so a hard crash
// loses at most one flush interval of tail.
type state struct {
	pipelines map[string]*pipelineState
	order     []string // sorted pipeline IDs, the deterministic walk order

	epoch      uint64                // coordinator incarnation (1 fresh, +1 per reload)
	placements map[string]*placement // keyed by scoped unit name
	epochs     map[string]uint16     // per-group splitter/partitioner incarnations (scoped)
	shardK     map[string]int        // live shard counts overriding spec K (scoped group)

	dir       string   // "" = memory-only, no journaling
	lock      *os.File // flock guarding the directory against a second coordinator
	journal   *os.File
	jw        *bufio.Writer
	jEntries  int // journal entries since the last snapshot
	snapEvery int
	logf      func(format string, args ...any)

	// Group-commit fsync machinery. jmu guards the journal handle and the
	// dirty flag against the flusher goroutine (every other field is under
	// the coordinator mu); flushDone stops the flusher.
	jmu       sync.Mutex
	jDirty    bool
	fsync     bool
	flushIvl  time.Duration
	flushDone chan struct{}
	flushWG   sync.WaitGroup

	// Observability handles, set by the owning Coordinator after newState
	// (nil-safe: a state opened without them simply records nothing).
	jAppends *obs.Counter   // journal entries appended
	jFsync   *obs.Histogram // group-commit fsync latency
}

// persisted forms. The snapshot is the full table; journal entries are
// idempotent last-writer-wins updates, so replay order is the only thing
// that matters and a torn tail entry is simply dropped.
type placementRecord struct {
	Node  string   `json:"node,omitempty"`
	Addr  string   `json:"addr,omitempty"`
	Down  string   `json:"down,omitempty"`
	Legs  []string `json:"legs,omitempty"`
	Epoch uint16   `json:"epoch,omitempty"`
}

type snapshotFile struct {
	Epoch uint64 `json:"epoch"`
	// Entry is the default pipeline's entry address — the v4 field, kept
	// so a v4 snapshot loads and a single-pipeline snapshot stays
	// readable by v4 tooling. Entries carries every pipeline's.
	Entry       string            `json:"entry,omitempty"`
	Entries     map[string]string `json:"entries,omitempty"`
	Pipelines   []PipelineSpec    `json:"pipelines,omitempty"`
	GroupEpochs map[string]uint16 `json:"group_epochs,omitempty"`
	// ShardK records the live per-group shard counts where the autoscaler
	// has moved them off the spec's boot value (protocol v8), keyed by
	// scoped group name; it is applied before placements so shard-leg
	// placements land in an already-resized unit table.
	ShardK     map[string]int             `json:"shard_k,omitempty"`
	Placements map[string]placementRecord `json:"placements"`
}

type journalEntry struct {
	Op    string           `json:"op"` // "place", "entry", "gepoch", "shardk", "pipeadd", "piperm"
	Unit  string           `json:"unit,omitempty"`
	P     *placementRecord `json:"p,omitempty"`
	Entry string           `json:"entry,omitempty"`
	Group string           `json:"group,omitempty"`
	Val   uint16           `json:"val,omitempty"` // gepoch incarnation or shardk live K
	// Pipe scopes an "entry" to a pipeline (absent = the default
	// pipeline, which is what a v4 journal wrote) and names the pipeline
	// a "pipeadd"/"piperm" creates or deletes.
	Pipe string `json:"pipe,omitempty"`
	// Spec is a "pipeadd"'s full pipeline spec, so a restarted
	// coordinator reloads runtime-added pipelines with their topology.
	Spec *PipelineSpec `json:"spec,omitempty"`
}

const (
	snapshotName       = "snapshot.json"
	journalName        = "journal.jsonl"
	defaultSnapEvery   = 256
	journalBufferBytes = 32 << 10
	defaultFlushIvl    = 2 * time.Millisecond
)

// newState builds the pipeline registry for the boot set and, when dir is
// non-empty, loads any prior snapshot+journal from it. The persisted
// pipeline set wins on restore: runtime-added pipelines come back,
// runtime-removed ones stay gone, and boot pipelines absent from the
// persisted set are added fresh. Placements that no longer correspond to
// a unit of any current pipeline are pruned, the coordinator epoch
// advances, and the journal re-opens behind a fresh snapshot. restored
// reports whether prior placements were recovered — the signal for the
// coordinator to run its restart grace window.
func newState(dir string, boot []PipelineSpec, fsync bool, flushIvl time.Duration, logf func(string, ...any)) (st *state, restored bool, err error) {
	if flushIvl <= 0 {
		flushIvl = defaultFlushIvl
	}
	st = &state{
		pipelines:  make(map[string]*pipelineState),
		placements: make(map[string]*placement),
		epochs:     make(map[string]uint16),
		shardK:     make(map[string]int),
		epoch:      1,
		dir:        dir,
		snapEvery:  defaultSnapEvery,
		logf:       logf,
		fsync:      fsync,
		flushIvl:   flushIvl,
	}
	for _, spec := range boot {
		st.addPipeline(spec).boot = true
	}
	if dir == "" {
		return st, false, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, false, fmt.Errorf("river: state dir %s: %w", dir, err)
	}
	// Exclusive advisory lock: two coordinators journaling into the same
	// directory would truncate and interleave each other's log. The lock
	// is released by close() and, crucially, by process death, so a
	// crashed coordinator never wedges its successor.
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("river: state lock: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = lock.Close()
		return nil, false, fmt.Errorf("river: state dir %s is in use by another coordinator: %w", dir, err)
	}
	st.lock = lock
	restored, err = st.load()
	if err != nil {
		st.close()
		return nil, false, err
	}
	if restored {
		st.epoch++
	}
	// Open a fresh incarnation on disk: snapshot the (possibly reloaded)
	// tables with the new epoch, truncate the journal behind it.
	if err := st.snapshot(); err != nil {
		st.close()
		return nil, false, err
	}
	st.startFlusher()
	return st, restored, nil
}

// insertPipeline expands a pipeline spec into the registry tables: units
// derived, placements seeded, walk order re-sorted. It is the one place
// the expansion lives, shared by runtime adds and journal replay so the
// two paths can never diverge.
func (s *state) insertPipeline(spec PipelineSpec) *pipelineState {
	ps := &pipelineState{
		id:        spec.ID,
		spec:      spec,
		specIndex: make(map[string]int),
	}
	for i, sp := range spec.Segments {
		group := scopedName(spec.ID, sp.Name)
		k := sp.Shards
		if v, ok := s.shardK[group]; ok {
			k = v
		}
		us := expandSpecK(spec.ID, sp, k)
		ps.unitsBySpec = append(ps.unitsBySpec, us)
		ps.specIndex[group] = i
		for _, u := range us {
			ps.units = append(ps.units, u)
			s.placements[u.name] = &placement{u: u}
		}
	}
	s.pipelines[spec.ID] = ps
	s.order = append(s.order, spec.ID)
	sort.Strings(s.order)
	return ps
}

// addPipeline expands a pipeline spec into the registry. The caller has
// validated the spec and checked for a duplicate ID; mutations after boot
// are journaled.
func (s *state) addPipeline(spec PipelineSpec) *pipelineState {
	ps := s.insertPipeline(spec)
	s.append(journalEntry{Op: "pipeadd", Pipe: spec.ID, Spec: &spec})
	return ps
}

// removePipeline deletes a pipeline and every table row it owns,
// returning the units that were placed (the caller stops their
// instances). The removal is journaled, so a restarted coordinator does
// not resurrect it.
func (s *state) removePipeline(id string) (placed []placement) {
	ps := s.pipelines[id]
	if ps == nil {
		return nil
	}
	for _, u := range ps.units {
		if p := s.placements[u.name]; p != nil && p.node != "" {
			placed = append(placed, *p)
		}
		delete(s.placements, u.name)
		delete(s.epochs, u.group)
		delete(s.shardK, u.group)
	}
	delete(s.pipelines, id)
	if i := slices.Index(s.order, id); i >= 0 {
		s.order = slices.Delete(s.order, i, i+1)
	}
	s.append(journalEntry{Op: "piperm", Pipe: id})
	return placed
}

// pipelineOf resolves a unit's owning pipeline tables.
func (s *state) pipelineOf(u unit) *pipelineState { return s.pipelines[u.pipe] }

// load reads the snapshot and replays the journal. It returns true when
// prior state existed, even an empty table — the epoch must advance
// either way.
func (s *state) load() (bool, error) {
	found := false
	raw, err := os.ReadFile(filepath.Join(s.dir, snapshotName))
	switch {
	case err == nil:
		var snap snapshotFile
		if err := json.Unmarshal(raw, &snap); err != nil {
			return false, fmt.Errorf("river: corrupt state snapshot: %w", err)
		}
		found = true
		if snap.Epoch > 0 {
			s.epoch = snap.Epoch
		}
		// Resurrect the runtime-added pipelines the snapshot recorded; the
		// boot set's IDs stay as configured (the config is the operator's
		// current intent for them). A v4 snapshot carries no pipeline
		// list, which leaves the boot set — its single default pipeline —
		// in charge, exactly as v4 behaved.
		for _, spec := range snap.Pipelines {
			s.replacePipeline(spec)
		}
		if snap.Entry != "" {
			s.setEntryLoaded("", snap.Entry)
		}
		for id, addr := range snap.Entries {
			s.setEntryLoaded(id, addr)
		}
		for g, e := range snap.GroupEpochs {
			s.epochs[g] = e
		}
		for g, k := range snap.ShardK {
			s.applyShardKLoaded(g, k)
		}
		for name, pr := range snap.Placements {
			s.applyRecord(name, pr)
		}
	case os.IsNotExist(err):
	default:
		return false, fmt.Errorf("river: read state snapshot: %w", err)
	}
	jf, err := os.Open(filepath.Join(s.dir, journalName))
	switch {
	case err == nil:
		defer jf.Close()
		found = true
		sc := bufio.NewScanner(jf)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var e journalEntry
			if err := json.Unmarshal(line, &e); err != nil {
				// A torn tail entry from an unclean shutdown: everything
				// before it replayed; stop here.
				s.logf("state: dropping torn journal tail: %v", err)
				break
			}
			switch e.Op {
			case "place":
				if e.P != nil {
					s.applyRecord(e.Unit, *e.P)
				}
			case "entry":
				s.setEntryLoaded(e.Pipe, e.Entry)
			case "gepoch":
				s.epochs[e.Group] = e.Val
			case "shardk":
				s.applyShardKLoaded(e.Group, int(e.Val))
			case "pipeadd":
				if e.Spec != nil {
					s.replacePipeline(*e.Spec)
				}
			case "piperm":
				s.removePipelineLoaded(e.Pipe)
			}
		}
		if err := sc.Err(); err != nil {
			s.logf("state: journal read stopped: %v", err)
		}
	case os.IsNotExist(err):
	default:
		return false, fmt.Errorf("river: read state journal: %w", err)
	}
	return found, nil
}

// replacePipeline folds a persisted runtime-added pipeline into the
// registry during load (no journaling — the journal is not open yet). A
// boot pipeline's ID is never overridden: the config wins for the IDs it
// declares.
func (s *state) replacePipeline(spec PipelineSpec) {
	if ps := s.pipelines[spec.ID]; ps != nil && ps.boot {
		return
	}
	s.removePipelineLoaded(spec.ID)
	s.insertPipeline(spec)
}

// removePipelineLoaded is removePipeline without journaling or placed-unit
// collection, for journal replay. Boot pipelines are exempt — a piperm
// journaled in a prior incarnation does not override the config
// re-declaring the pipeline this incarnation.
func (s *state) removePipelineLoaded(id string) {
	ps := s.pipelines[id]
	if ps == nil || ps.boot {
		return
	}
	for _, u := range ps.units {
		delete(s.placements, u.name)
		delete(s.epochs, u.group)
		delete(s.shardK, u.group)
	}
	delete(s.pipelines, id)
	if i := slices.Index(s.order, id); i >= 0 {
		s.order = slices.Delete(s.order, i, i+1)
	}
}

// setEntryLoaded applies a persisted entry address during load, ignoring
// pipelines the current set no longer defines.
func (s *state) setEntryLoaded(pipe, addr string) {
	if ps := s.pipelines[pipe]; ps != nil {
		ps.entryAddr = addr
	}
}

// applyRecord folds one persisted placement into the table, ignoring
// units no current pipeline defines (topology changed across the
// restart — the stale instances will be stopped when their host
// re-registers them in its inventory).
func (s *state) applyRecord(name string, pr placementRecord) {
	p, ok := s.placements[name]
	if !ok {
		s.logf("state: dropping placement of unknown unit %q (spec changed)", name)
		return
	}
	p.node, p.addr, p.down, p.epoch = pr.Node, pr.Addr, pr.Down, pr.Epoch
	p.legs = append([]string(nil), pr.Legs...)
}

// hasPlacements reports whether any unit is currently placed.
func (s *state) hasPlacements() bool {
	for _, p := range s.placements {
		if p.node != "" {
			return true
		}
	}
	return false
}

// commit journals placement p's current fields — the hook every
// placement mutation must pass through. Memory-only states no-op.
func (s *state) commit(p *placement) {
	if p.node != "" {
		p.everPlaced = true
	}
	s.append(journalEntry{Op: "place", Unit: p.u.name, P: &placementRecord{
		Node: p.node, Addr: p.addr, Down: p.down,
		Legs: append([]string(nil), p.legs...), Epoch: p.epoch,
	}})
}

// clear frees a placement for re-placement and journals the clearing.
func (s *state) clear(p *placement) {
	p.node, p.addr, p.down, p.legs = "", "", "", nil
	s.commit(p)
}

// setEntry records a pipeline's entry address, reporting whether it
// changed; changes are journaled.
func (s *state) setEntry(pipe, addr string) bool {
	ps := s.pipelines[pipe]
	if ps == nil || ps.entryAddr == addr {
		return false
	}
	ps.entryAddr = addr
	s.append(journalEntry{Op: "entry", Entry: addr, Pipe: pipe})
	return true
}

// resizeShard rewrites one sharded spec segment's slice of the unit
// tables for a new live K: shard units past the new K lose their table
// rows (their placed instances are returned for the caller to stop after
// the partitioner has been re-spliced off them), fresh shard units get
// empty placements for the reconcile loop to fill, and the collector and
// partitioner rows survive untouched — the endpoints stay live across a
// resize, only the leg set between them changes.
func (s *state) resizeShard(ps *pipelineState, idx, k int) (removed []placement) {
	sp := ps.spec.Segments[idx]
	nu := expandSpecK(ps.id, sp, k)
	keep := make(map[string]bool, len(nu))
	for _, u := range nu {
		keep[u.name] = true
	}
	for _, u := range ps.unitsBySpec[idx] {
		if keep[u.name] {
			continue
		}
		if p := s.placements[u.name]; p != nil {
			if p.node != "" {
				removed = append(removed, *p)
			}
			delete(s.placements, u.name)
		}
	}
	for _, u := range nu {
		if _, ok := s.placements[u.name]; !ok {
			s.placements[u.name] = &placement{u: u}
		}
	}
	ps.unitsBySpec[idx] = nu
	ps.units = ps.units[:0]
	for _, us := range ps.unitsBySpec {
		ps.units = append(ps.units, us...)
	}
	s.shardK[scopedName(ps.id, sp.Name)] = k
	return removed
}

// setShardK resizes a sharded segment's live K and journals the override,
// so an autoscaled topology survives a coordinator restart.
func (s *state) setShardK(ps *pipelineState, idx, k int) []placement {
	removed := s.resizeShard(ps, idx, k)
	s.append(journalEntry{
		Op: "shardk", Group: scopedName(ps.id, ps.spec.Segments[idx].Name), Val: uint16(k),
	})
	return removed
}

// applyShardKLoaded applies a persisted shard-K override during load,
// ignoring groups the current pipeline set no longer declares sharded
// (the spec changed across the restart; the boot value wins).
func (s *state) applyShardKLoaded(group string, k int) {
	for _, id := range s.order {
		ps := s.pipelines[id]
		idx, ok := ps.specIndex[group]
		if !ok {
			continue
		}
		if ps.spec.Segments[idx].Shards <= 1 || k < 1 {
			return
		}
		s.resizeShard(ps, idx, k)
		return
	}
}

// bumpGroupEpoch advances (and journals) a replication or shard group's
// fan-out incarnation.
func (s *state) bumpGroupEpoch(group string) uint16 {
	s.epochs[group]++
	s.append(journalEntry{Op: "gepoch", Group: group, Val: s.epochs[group]})
	return s.epochs[group]
}

// observeGroupEpoch raises a group's splitter-incarnation floor to an
// epoch observed in a re-registering agent's inventory, so the next
// splitter re-place assigns a fresh incarnation even across a
// coordinator restart that lost the tail of its journal.
func (s *state) observeGroupEpoch(group string, e uint16) {
	if e > s.epochs[group] {
		s.epochs[group] = e
		s.append(journalEntry{Op: "gepoch", Group: group, Val: e})
	}
}

// append writes one journal entry, compacting into a snapshot every
// snapEvery entries. Journal failures are logged, not fatal: the
// coordinator keeps serving from memory and durability degrades to the
// last good snapshot.
func (s *state) append(e journalEntry) {
	if s.jw == nil {
		return
	}
	raw, err := json.Marshal(e)
	if err != nil {
		s.logf("state: encode journal entry: %v", err)
		return
	}
	raw = append(raw, '\n')
	s.jmu.Lock()
	if _, err := s.jw.Write(raw); err != nil {
		s.jmu.Unlock()
		s.logf("state: journal write: %v", err)
		return
	}
	if err := s.jw.Flush(); err != nil {
		s.jmu.Unlock()
		s.logf("state: journal flush: %v", err)
		return
	}
	s.jDirty = true
	s.jmu.Unlock()
	s.jAppends.Inc()
	s.jEntries++
	if s.jEntries >= s.snapEvery {
		if err := s.snapshot(); err != nil {
			s.logf("state: %v", err)
		}
	}
}

// startFlusher runs the group-commit fsync loop: journal entries are
// flushed to the OS per append (so a coordinator crash loses nothing) and
// fsynced in batches every flushIvl (so a machine crash loses at most one
// interval's tail) — closing the ROADMAP gap where only snapshots were
// synced, without stalling the control plane on per-entry fsyncs.
// Disabled (Config.JournalNoFsync) it degrades to v4 behavior: the OS
// flushes on its own schedule and only snapshots are synced.
func (s *state) startFlusher() {
	if !s.fsync || s.journal == nil {
		return
	}
	s.flushDone = make(chan struct{})
	s.flushWG.Add(1)
	go func() {
		defer s.flushWG.Done()
		t := time.NewTicker(s.flushIvl)
		defer t.Stop()
		for {
			select {
			case <-s.flushDone:
				return
			case <-t.C:
				s.syncJournal()
			}
		}
	}()
}

// syncJournal fsyncs the journal if entries landed since the last sync.
// The Sync runs outside jmu so appends are never blocked behind disk
// latency; a snapshot swapping the journal file mid-sync at worst makes
// the Sync fail on a closed fd, which is harmless — the snapshot itself
// is synced before the swap.
func (s *state) syncJournal() {
	s.jmu.Lock()
	f, dirty := s.journal, s.jDirty
	s.jDirty = false
	s.jmu.Unlock()
	if !dirty || f == nil {
		return
	}
	start := time.Now()
	_ = f.Sync()
	s.jFsync.Observe(time.Since(start).Seconds())
}

// snapshot atomically rewrites the full table and truncates the journal
// behind it. The snapshot is fsynced and renamed into place before the
// journal is reset, so a crash at any point leaves a loadable pair.
func (s *state) snapshot() error {
	if s.dir == "" {
		return nil
	}
	snap := snapshotFile{
		Epoch:       s.epoch,
		GroupEpochs: make(map[string]uint16, len(s.epochs)),
		Placements:  make(map[string]placementRecord, len(s.placements)),
	}
	for _, id := range s.order {
		ps := s.pipelines[id]
		if !ps.boot {
			// Only runtime-added pipelines persist their spec; boot
			// pipelines take theirs from the config on every start.
			snap.Pipelines = append(snap.Pipelines, ps.spec)
		}
		if ps.entryAddr == "" {
			continue
		}
		if id == "" {
			snap.Entry = ps.entryAddr
			continue
		}
		if snap.Entries == nil {
			snap.Entries = make(map[string]string)
		}
		snap.Entries[id] = ps.entryAddr
	}
	for g, e := range s.epochs {
		snap.GroupEpochs[g] = e
	}
	if len(s.shardK) > 0 {
		snap.ShardK = make(map[string]int, len(s.shardK))
		for g, k := range s.shardK {
			snap.ShardK[g] = k
		}
	}
	for name, p := range s.placements {
		if p.node == "" {
			continue
		}
		snap.Placements[name] = placementRecord{
			Node: p.node, Addr: p.addr, Down: p.down,
			Legs: append([]string(nil), p.legs...), Epoch: p.epoch,
		}
	}
	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("river: encode state snapshot: %w", err)
	}
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("river: write state snapshot: %w", err)
	}
	if _, err := f.Write(raw); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("river: write state snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("river: install state snapshot: %w", err)
	}
	// Reset the journal behind the snapshot.
	jf, err := os.Create(filepath.Join(s.dir, journalName))
	if err != nil {
		return fmt.Errorf("river: reset state journal: %w", err)
	}
	s.jmu.Lock()
	if s.journal != nil {
		_ = s.journal.Close()
	}
	s.journal = jf
	s.jw = bufio.NewWriterSize(jf, journalBufferBytes)
	s.jDirty = false
	s.jmu.Unlock()
	s.jEntries = 0
	return nil
}

// close stops the flusher, flushes and closes the journal and releases
// the directory lock.
func (s *state) close() {
	if s.flushDone != nil {
		close(s.flushDone)
		s.flushWG.Wait()
		s.flushDone = nil
	}
	s.jmu.Lock()
	if s.jw != nil {
		_ = s.jw.Flush()
	}
	if s.journal != nil {
		_ = s.journal.Sync()
		_ = s.journal.Close()
		s.journal, s.jw = nil, nil
	}
	s.jmu.Unlock()
	if s.lock != nil {
		_ = syscall.Flock(int(s.lock.Fd()), syscall.LOCK_UN)
		_ = s.lock.Close()
		s.lock = nil
	}
}

// adopt reconciles a (re-)registering agent's hosted-unit inventory
// against the desired state, pipeline by pipeline: units the tables
// expect on this node (or that are currently unplaced and match their
// unit's identity) are adopted as-is — the live instance keeps running
// untouched, its last-told downstream/legs recorded for the reconcile
// loop to converge from — and everything else is returned for the agent
// to stop. Inventory names are the scoped unit names the coordinator
// assigned, so an agent hosting units of several pipelines has each
// matched against its own pipeline's tables. Units the tables place on
// this node but absent from the inventory died with the agent process
// and are freed for re-placement; an empty inventory frees everything
// recorded against the node.
func (s *state) adopt(node string, inv []UnitInventory) (adopted, stops []string) {
	seen := make(map[string]bool, len(inv))
	for _, iu := range inv {
		seen[iu.Name] = true
		p := s.placements[iu.Name]
		matches := false
		if p != nil && !iu.Failed && iu.Addr != "" {
			// Replicas and shard legs travel the wire as ordinary segment
			// assigns (RoleReplica and RoleShard are placement-only), so
			// the agent reports them with no role or group; match them on
			// name + registry type like any plain segment.
			wireRole, wireGroup := p.u.role, p.u.group
			if wireRole == RoleReplica || wireRole == RoleShard {
				wireRole, wireGroup = "", ""
			}
			matches = p.u.typ == iu.Type && wireRole == iu.Role &&
				(wireRole == "" || wireGroup == iu.Group)
		}
		switch {
		case matches && p.node == node && p.addr == iu.Addr:
			// Exactly where the reloaded tables expect it: adopt, taking
			// the instance's own word for what it was last told.
			p.down = iu.Downstream
			p.legs = append([]string(nil), iu.Legs...)
			sort.Strings(p.legs)
			if iu.Role == RoleSplit || iu.Role == RolePartition {
				p.epoch = iu.Epoch
				s.observeGroupEpoch(p.u.group, iu.Epoch)
			}
			s.commit(p)
			adopted = append(adopted, iu.Name)
		case matches && p.node == "":
			// The tables freed this unit (its agent was declared dead)
			// but nothing has been re-placed yet: adopt the survivor back
			// instead of spinning up a duplicate.
			p.node, p.addr, p.down = node, iu.Addr, iu.Downstream
			p.legs = append([]string(nil), iu.Legs...)
			sort.Strings(p.legs)
			if iu.Role == RoleSplit || iu.Role == RolePartition {
				p.epoch = iu.Epoch
				s.observeGroupEpoch(p.u.group, iu.Epoch)
			}
			s.commit(p)
			adopted = append(adopted, iu.Name)
		default:
			// Unknown unit, failed pipeline, identity mismatch, or placed
			// elsewhere while the agent was detached: the instance is an
			// orphan. If the stale record points at this node, free it.
			if p != nil && p.node == node {
				s.clear(p)
			}
			stops = append(stops, iu.Name)
		}
	}
	for name, p := range s.placements {
		if p.node == node && !seen[name] {
			s.clear(p)
		}
	}
	slices.Sort(adopted)
	slices.Sort(stops)
	return adopted, stops
}
