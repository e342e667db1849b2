// Package river implements the Dynamic River control plane: a coordinator
// that owns the desired pipeline topology and node agents that host
// pipeline segments on its behalf. Agents register with the coordinator
// over a TCP control protocol and report segment counters in periodic
// heartbeats; the coordinator places segments on agents, detects dead
// nodes via missed heartbeats (or dropped control connections), re-places
// their segments on survivors, and redirects the upstream neighbor so the
// data stream heals — automating the dynamic recomposition the paper
// demonstrates by hand.
package river

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/obs"
)

// ProtocolVersion is the control protocol revision this build speaks. v9
// carries: agent registration with a hosted-unit inventory that the
// coordinator adopts or stops; heartbeats with per-segment flow,
// replication, shard, detector-alert, latency and corrupt-batch
// telemetry; role-bearing assigns (replica split/merge, shard
// partition/collect), legs updates and boundary-deferred redirects; and
// client verbs for status, drains, entry watches, runtime pipeline
// add/remove and the event stream. The data plane it pairs with frames
// records in DRV2 batches (see internal/record).
//
// Handshake rule: an agent's register carries Ver, and the coordinator
// admits it only when Ver equals ProtocolVersion. Any other value, an
// absent one included, is acked with an error, emits a
// "register_rejected" event and creates no member; every register ack
// carries the coordinator's Ver, and an agent that sees a different one
// stops with ErrProtocolMismatch instead of retrying. Peers of one build
// therefore always agree, and no message needs a compatibility decode.
const ProtocolVersion = 9

// ErrProtocolMismatch reports a register handshake between peers of
// different protocol versions. An agent's Run returns it (wrapped) at
// once: retrying cannot help until one side is rebuilt.
var ErrProtocolMismatch = errors.New("river: protocol version mismatch")

// Control message types. Register, heartbeat and ack flow from agents to
// the coordinator; assign, redirect and stop flow the other way. Status
// and watch open short client sessions (the status CLI, a source following
// the pipeline entry address).
const (
	// TypeRegister announces a node agent; Node carries its name. The
	// coordinator replies with an ack whose HeartbeatMS tells the agent
	// how often to beat.
	TypeRegister = "register"
	// TypeHeartbeat carries the agent's per-segment counters in Segments.
	TypeHeartbeat = "heartbeat"
	// TypeAssign instructs an agent to host segment Seg of type SegType
	// forwarding to Downstream; the agent acks with the bound listen Addr.
	TypeAssign = "assign"
	// TypeRedirect instructs an agent to repoint hosted segment Seg's
	// streamout at Downstream.
	TypeRedirect = "redirect"
	// TypeStop instructs an agent to stop hosting segment Seg.
	TypeStop = "stop"
	// TypeLegs instructs an agent to replace hosted splitter Seg's
	// fan-out leg set with Downstreams (protocol v3).
	TypeLegs = "legs"
	// TypeDrain asks the coordinator (client session, protocol v3) to
	// gracefully move unit Seg: place a fresh instance, splice the stream
	// at a scope boundary, stop the old instance — zero scope repairs.
	TypeDrain = "drain"
	// TypeStatus requests a ClusterStatus snapshot (client session).
	TypeStatus = "status"
	// TypeWatch subscribes a client to entry-address updates for the
	// pipeline named by Pipeline (absent = the default pipeline).
	TypeWatch = "watch"
	// TypeEntry notifies a watcher that its pipeline's entry address is
	// now Addr; Pipeline echoes which pipeline moved.
	TypeEntry = "entry"
	// TypePipelineAdd asks the coordinator (client session, protocol v5)
	// to add and start maintaining the pipeline carried in Spec.
	TypePipelineAdd = "pipeline_add"
	// TypePipelineRemove asks the coordinator (client session, protocol
	// v5) to remove pipeline Pipeline and stop all its units.
	TypePipelineRemove = "pipeline_remove"
	// TypeWatchEvents asks the coordinator (client session, protocol v6)
	// for control-plane events: the retained backlog with Seq > SinceSeq
	// (optionally filtered to Pipeline), then — when Follow is set — the
	// live stream until the client disconnects. Without Follow the
	// coordinator sends the backlog and an ack, then the session ends.
	TypeWatchEvents = "watch_events"
	// TypeEvent carries a batch of control-plane events to a watch_events
	// client in Events (protocol v6).
	TypeEvent = "event"
	// TypeAck answers a request; ID echoes the request's ID, Err carries
	// a failure reason.
	TypeAck = "ack"
)

// Message is the single frame type of the control protocol. Fields are
// populated according to Type; unused fields are omitted on the wire.
type Message struct {
	Type string `json:"type"`
	// ID matches a request to its ack; zero for unsolicited messages.
	ID uint64 `json:"id,omitempty"`
	// Ver is the sender's ProtocolVersion (register and register ack); see
	// the handshake rule on ProtocolVersion.
	Ver int `json:"ver,omitempty"`
	// Node names the sending agent (register, heartbeat).
	Node string `json:"node,omitempty"`
	// Seg and SegType identify a segment instance and its registry type.
	Seg     string `json:"seg,omitempty"`
	SegType string `json:"seg_type,omitempty"`
	// Downstream is the address a segment forwards to (assign, redirect).
	Downstream string `json:"downstream,omitempty"`
	// Role selects what an assign instantiates (protocol v3): absent for
	// an ordinary segment, RoleSplit for a replication splitter, RoleMerge
	// for a merger; protocol v8 adds RolePartition for a shard partitioner
	// and RoleCollect for a shard collector.
	Role string `json:"role,omitempty"`
	// Group names the replicated or sharded segment group a fan endpoint
	// serves (assign with a role).
	Group string `json:"group,omitempty"`
	// Downstreams carries a splitter's replica leg addresses or a
	// partitioner's shard leg addresses (assign with RoleSplit or
	// RolePartition, and legs updates).
	Downstreams []string `json:"downstreams,omitempty"`
	// Epoch is the splitter or partitioner incarnation (assign with
	// RoleSplit or RolePartition).
	Epoch uint16 `json:"epoch,omitempty"`
	// Boundary defers a redirect to the next top-level scope boundary
	// (redirect during a planned drain) instead of switching immediately;
	// on an entry message it tells watching sources to do the same.
	Boundary bool `json:"boundary,omitempty"`
	// Addr carries a bound listen address (assign ack) or the pipeline
	// entry address (entry).
	Addr string `json:"addr,omitempty"`
	// Err reports a request failure in an ack.
	Err string `json:"err,omitempty"`
	// HeartbeatMS is the coordinator-chosen heartbeat interval (register
	// ack).
	HeartbeatMS int64 `json:"heartbeat_ms,omitempty"`
	// Segments carries per-segment counters (heartbeat).
	Segments []SegmentStatus `json:"segments,omitempty"`
	// Status carries the cluster snapshot (status ack).
	Status *ClusterStatus `json:"status,omitempty"`
	// Inventory is the agent's hosted-unit inventory (register): the
	// units still running from a previous control session, so the
	// coordinator can adopt them instead of re-placing.
	Inventory []UnitInventory `json:"inventory,omitempty"`
	// CoordEpoch is the coordinator's incarnation (register ack, protocol
	// v4); it advances every time the coordinator restarts from its
	// journaled state, so agents and operators can tell restarts apart.
	CoordEpoch uint64 `json:"coord_epoch,omitempty"`
	// Pipeline scopes a message to one pipeline (protocol v5): the watch
	// subscription and entry notifications, a pipeline_remove target, and
	// optionally a drain (a drain's Seg may instead carry the scoped unit
	// name directly). Absent means the default pipeline.
	Pipeline string `json:"pipeline,omitempty"`
	// Spec is a pipeline_add's full pipeline description (protocol v5).
	Spec *PipelineSpec `json:"spec,omitempty"`
	// Adopted and StopUnits answer a register's inventory: the units
	// the coordinator accepted into its desired state as-is, and the
	// units the agent must stop because they are no longer wanted (stale
	// placements, spec changes, or units re-placed elsewhere while the
	// agent was detached).
	Adopted   []string `json:"adopted,omitempty"`
	StopUnits []string `json:"stop_units,omitempty"`
	// Events carries control-plane events to a watch_events client
	// (protocol v6); SinceSeq and Follow parameterize the subscription
	// (see TypeWatchEvents).
	Events   []obs.Event `json:"events,omitempty"`
	SinceSeq uint64      `json:"since_seq,omitempty"`
	Follow   bool        `json:"follow,omitempty"`
}

// UnitInventory describes one unit an agent is still hosting when it
// (re-)registers (protocol v4): its identity in the registry, the bound
// ingress address upstream peers dial, and the downstream target(s) its
// egress was last told — everything the coordinator needs to decide
// whether the live instance matches its desired state (adopt) or not
// (stop). Counters ride along so a freshly restarted coordinator has
// telemetry before the first heartbeat.
type UnitInventory struct {
	Name  string `json:"name"`
	Type  string `json:"type,omitempty"` // registry type ("" for split/merge)
	Role  string `json:"role,omitempty"`
	Group string `json:"group,omitempty"`
	Addr  string `json:"addr"`
	// Downstream is the egress sink's current target (segments, mergers);
	// Legs the current fan-out set (splitters).
	Downstream string   `json:"downstream,omitempty"`
	Legs       []string `json:"legs,omitempty"`
	// Epoch is a splitter's incarnation as assigned by the previous
	// coordinator session.
	Epoch     uint16 `json:"epoch,omitempty"`
	Processed uint64 `json:"processed,omitempty"`
	Emitted   uint64 `json:"emitted,omitempty"`
	// Failed marks a unit whose pipeline has already exited on its own;
	// the coordinator never adopts it.
	Failed bool `json:"failed,omitempty"`
}

// SegmentStatus is one hosted segment's state as reported in heartbeats
// and surfaced by the status API.
type SegmentStatus struct {
	Name      string `json:"name"`
	Type      string `json:"type,omitempty"`
	Addr      string `json:"addr,omitempty"`
	Processed uint64 `json:"processed"`
	Emitted   uint64 `json:"emitted"`
	Conns     uint64 `json:"conns"`
	BadCloses uint64 `json:"bad_closes"`
	// Flow-control telemetry (protocol v2): the streamin emit-queue
	// backlog against its bound, and what the segment's streamout has
	// flushed. Lag is not carried — it is
	// derived from the authoritative Processed/Emitted counters wherever
	// it is consumed (see SegmentStatus.LagValue), so placement and
	// display can never disagree.
	QueueDepth int `json:"queue_depth,omitempty"`
	QueueCap   int `json:"queue_cap,omitempty"`
	// QueuePeak is the emit-queue's high-water mark since the instance
	// started (protocol v6) — transient saturation the instantaneous
	// QueueDepth snapshot misses.
	QueuePeak  int    `json:"queue_peak,omitempty"`
	RecordsOut uint64 `json:"records_out,omitempty"`
	BatchesOut uint64 `json:"batches_out,omitempty"`
	BytesOut   uint64 `json:"bytes_out,omitempty"`
	// Replication telemetry (protocol v3). Role marks splitter/merger
	// endpoints; Legs counts a splitter's live fan-out legs (or a
	// merger's live upstream connections); LegDrops counts records a
	// splitter dropped toward a saturated or dead leg; Dups, Skipped and
	// Untagged are the merger's dedup counters (duplicate copies
	// discarded, records lost across all-leg failures, untagged records
	// swallowed).
	Role     string `json:"role,omitempty"`
	Legs     int    `json:"legs,omitempty"`
	LegDrops uint64 `json:"leg_drops,omitempty"`
	Dups     uint64 `json:"dups,omitempty"`
	Skipped  uint64 `json:"skipped,omitempty"`
	Untagged uint64 `json:"untagged,omitempty"`
	// Observability telemetry (protocol v7). Alerts counts acoustic-event
	// alarms raised by detector operators (ops.ChangeDetect) hosted in the
	// segment; the coordinator folds deltas into "alert" events. The
	// latency fields are quantile snapshots, in microseconds, of the
	// segment's ingress-to-sink latency histogram (LatP*) and — on sink
	// segments that see trace probes — the origin-to-sink end-to-end
	// latency (E2eP*).
	Alerts uint64 `json:"alerts,omitempty"`
	// Corrupt counts corrupt batch frames the segment's ingest decoders
	// dropped whole (protocol v9): bad batch CRCs on the DRV2 wire
	// framing, each losing exactly one batch before the stream re-synced.
	// The coordinator folds deltas into "corruption" events.
	Corrupt  uint64 `json:"corrupt_batches,omitempty"`
	LatP50Us uint64 `json:"lat_p50_us,omitempty"`
	LatP95Us uint64 `json:"lat_p95_us,omitempty"`
	LatP99Us uint64 `json:"lat_p99_us,omitempty"`
	E2eP50Us uint64 `json:"e2e_p50_us,omitempty"`
	E2eP95Us uint64 `json:"e2e_p95_us,omitempty"`
	E2eP99Us uint64 `json:"e2e_p99_us,omitempty"`
	// Failed marks an instance whose pipeline exited on an operator
	// error while its node stayed healthy; Err carries the cause. The
	// coordinator re-places failed segments just like those on dead
	// nodes.
	Failed bool   `json:"failed,omitempty"`
	Err    string `json:"seg_err,omitempty"`
}

// Unit roles in a replicated segment group (protocol v3) and a sharded
// segment group (protocol v8). RoleReplica and RoleShard are
// placement-only: replica and shard instances travel the wire as ordinary
// segment assigns.
const (
	RoleSplit     = "split"
	RoleMerge     = "merge"
	RoleReplica   = "replica"
	RolePartition = "partition"
	RoleCollect   = "collect"
	RoleShard     = "shard"
)

// LagValue returns the segment's cumulative processed−emitted delta
// (saturating at 0), derived from the counters rather than carried on the
// wire. For filtering segments this includes intentional data reduction,
// not just backlog — see SegmentStats.Lag in internal/pipeline.
func (s SegmentStatus) LagValue() uint64 {
	if s.Processed > s.Emitted {
		return s.Processed - s.Emitted
	}
	return 0
}

// NodeStatus describes one registered agent in a ClusterStatus.
type NodeStatus struct {
	Name string `json:"name"`
	// LastBeatMS is the age of the most recent heartbeat in milliseconds.
	LastBeatMS int64           `json:"last_beat_ms"`
	Segments   []SegmentStatus `json:"segments,omitempty"`
}

// PlacementStatus describes where one placement unit currently runs. A
// plain spec segment is one unit; a replicated segment expands into a
// merger, N replicas and a splitter, reported as units of the same Group
// with their Role set (protocol v3). Seg is the scoped unit name (the
// placement key agents host it under); Pipeline names the owning
// pipeline (protocol v5, absent for the default pipeline).
type PlacementStatus struct {
	Seg      string `json:"seg"`
	Pipeline string `json:"pipeline,omitempty"`
	Type     string `json:"type"`
	Group    string `json:"group,omitempty"`
	Role     string `json:"role,omitempty"`
	Node     string `json:"node,omitempty"`
	Addr     string `json:"addr,omitempty"`
	Placed   bool   `json:"placed"`
}

// PipelineStatus is one pipeline's slice of the cluster: its identity,
// stream endpoints and unit placements in topology order (protocol v5).
type PipelineStatus struct {
	ID         string            `json:"id,omitempty"`
	EntryAddr  string            `json:"entry_addr,omitempty"`
	SinkAddr   string            `json:"sink_addr"`
	Placements []PlacementStatus `json:"placements"`
}

// ClusterStatus is the coordinator's full view: per-pipeline topology and
// entry points, registered nodes and segment placements. It is
// deterministically ordered (pipelines by ID, nodes and their segments
// sorted by name, placements in topology order) so serialized snapshots
// are scriptable and diffable.
type ClusterStatus struct {
	// Epoch is the coordinator's incarnation: 1 for a fresh coordinator,
	// advancing by one every restart from journaled state (protocol v4).
	Epoch uint64 `json:"epoch,omitempty"`
	// EntryAddr, SinkAddr and Placements are the pre-v5 single-pipeline
	// view: the default pipeline's entry/sink (the first pipeline's when
	// no default exists) and every pipeline's placements flattened in
	// pipeline order — identical to the v4 snapshot for a coordinator
	// running one default pipeline. Pipelines is the scoped view.
	EntryAddr  string            `json:"entry_addr,omitempty"`
	SinkAddr   string            `json:"sink_addr"`
	Nodes      []NodeStatus      `json:"nodes"`
	Placements []PlacementStatus `json:"placements"`
	Pipelines  []PipelineStatus  `json:"pipelines,omitempty"`
}

// maxFrame bounds a control frame; the largest legitimate message is a
// status snapshot, far below this.
const maxFrame = 1 << 20

// wire frames Messages over a net.Conn as a big-endian uint32 length
// followed by that many bytes of JSON. Sends are serialized internally so
// a heartbeat loop and a request handler can share one connection; recv
// must be called from a single goroutine.
type wire struct {
	conn net.Conn
	wmu  sync.Mutex
	r    *bufio.Reader
}

func newWire(c net.Conn) *wire {
	return &wire{conn: c, r: bufio.NewReaderSize(c, 32<<10)}
}

func (w *wire) send(m *Message) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("river: encode %s: %w", m.Type, err)
	}
	if len(body) > maxFrame {
		return fmt.Errorf("river: %s frame of %d bytes exceeds limit", m.Type, len(body))
	}
	frame := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(frame, uint32(len(body)))
	copy(frame[4:], body)
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if _, err := w.conn.Write(frame); err != nil {
		return fmt.Errorf("river: send %s: %w", m.Type, err)
	}
	return nil
}

func (w *wire) recv() (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(w.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("river: frame length %d out of range", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(w.r, body); err != nil {
		return nil, fmt.Errorf("river: short frame: %w", err)
	}
	m := &Message{}
	if err := json.Unmarshal(body, m); err != nil {
		return nil, fmt.Errorf("river: decode frame: %w", err)
	}
	if m.Type == "" {
		return nil, fmt.Errorf("river: frame missing type")
	}
	return m, nil
}

func (w *wire) close() error { return w.conn.Close() }
