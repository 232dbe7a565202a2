// Package core implements the volume-lease consistency protocol of Yin,
// Alvisi, Dahlin, and Lin, "Using Leases to Support Server-Driven
// Consistency in Large-Scale Systems" (ICDCS 1998) as a pure state machine:
// the data structures of Figure 2 and the server-side transitions of
// Figure 3, with no I/O. The networked server (internal/server) drives this
// table and moves the resulting messages; tests drive it directly with a
// simulated clock.
//
// The table alone is safe, write-time rules included: from BeginWrite to
// FinishWrite (MarkStale for a cache) the object is granted, renewed and
// written to nobody (ErrWriteInFlight), a client owing the write an ack gets
// no volume lease (VolumeAckOwed), and an ack is applied only to the
// invalidation it answers (AckWrite). So is the volume conversation
// (conversation.go): the table keeps each client's step, and a write that
// lands between a vector and its ack is sent in another round, not skipped.
// The conversation's client half is a Renewal (renewal.go), which applies
// each answer to a Holder and names the client's next message.
//
// # Protocol summary
//
// Clients may read a cached object only while they hold unexpired leases on
// both the object and the object's volume. A server may modify an object as
// soon as either lease has expired for every client it cannot reach. Object
// leases are long (amortizing renewals over many reads); volume leases are
// short (bounding the server's write delay under failures) and their
// renewal cost is amortized over every object in the volume.
//
// Two invalidation disciplines are supported:
//
//   - ModeEager (the paper's basic Volume Leases): a write invalidates every
//     client holding a valid object lease.
//   - ModeDelayed (Volume Leases with Delayed Invalidations): clients whose
//     volume lease has expired are moved to the volume's Inactive set and
//     their invalidations are queued on per-client Pending lists, delivered
//     if and when they renew the volume; after InactiveDiscard the pending
//     list is dropped and the client joins the Unreachable set, to be
//     resynchronized by the reconnection protocol of Section 3.1.1.
package core

import (
	"errors"
	"fmt"
	"time"
)

// IDs. Volumes group objects served by one server; the paper's evaluation
// uses one volume per server but the protocol supports many.
type (
	// ClientID names a client (cache).
	ClientID string
	// ObjectID names an object within a server.
	ObjectID string
	// VolumeID names a volume within a server.
	VolumeID string
)

// Version is an object version number, incremented on every write.
// Version 0 means "never written"; clients use NoVersion to signal they hold
// no copy.
type Version int64

// NoVersion is the version a client reports when it holds no cached copy.
const NoVersion Version = -1

// WriteNum numbers an object's writes from 1. An invalidation carries it,
// and an ack that echoes it answers that write only.
type WriteNum uint64

// Epoch is a volume epoch number, incremented on server reboot so that
// leases granted by a crashed server are recognizably stale.
type Epoch int64

// NoEpoch is the epoch a client reports on first contact.
const NoEpoch Epoch = -1

// Mode selects the invalidation discipline.
type Mode int

const (
	// ModeEager is the basic Volume Leases algorithm (Section 3.1).
	ModeEager Mode = iota + 1
	// ModeDelayed is Volume Leases with Delayed Invalidations (Section 3.2).
	ModeDelayed
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeEager:
		return "eager"
	case ModeDelayed:
		return "delayed"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config parameterizes a Table.
type Config struct {
	// ObjectLease is the object lease duration (the paper's t).
	ObjectLease time.Duration
	// VolumeLease is the volume lease duration (the paper's t_v),
	// typically much shorter than ObjectLease.
	VolumeLease time.Duration
	// Mode selects eager or delayed invalidations.
	Mode Mode
	// InactiveDiscard is the paper's d: how long after its volume lease
	// expires an inactive client's pending messages are retained before the
	// client is moved to the Unreachable set. Zero means retain forever
	// (the paper's d = ∞). Only meaningful in ModeDelayed.
	InactiveDiscard time.Duration
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ObjectLease <= 0 {
		return fmt.Errorf("core: ObjectLease %v must be positive", c.ObjectLease)
	}
	if c.VolumeLease <= 0 {
		return fmt.Errorf("core: VolumeLease %v must be positive", c.VolumeLease)
	}
	if c.Mode != ModeEager && c.Mode != ModeDelayed {
		return fmt.Errorf("core: invalid Mode %d", int(c.Mode))
	}
	if c.InactiveDiscard < 0 {
		return fmt.Errorf("core: negative InactiveDiscard %v", c.InactiveDiscard)
	}
	return nil
}

// Errors returned by Table operations.
var (
	// ErrNoSuchVolume reports an unknown volume id.
	ErrNoSuchVolume = errors.New("core: no such volume")
	// ErrNoSuchObject reports an unknown object id.
	ErrNoSuchObject = errors.New("core: no such object")
	// ErrDuplicate reports creation of an already-existing volume or object.
	ErrDuplicate = errors.New("core: already exists")
	// ErrWriteFenced reports a write attempted before the post-recovery
	// fence has drained (all pre-crash volume leases must expire first).
	ErrWriteFenced = errors.New("core: writes fenced until pre-crash volume leases expire")
	// ErrStaleEpoch reports a client request carrying an old volume epoch;
	// the client must run the reconnection protocol.
	ErrStaleEpoch = errors.New("core: stale volume epoch")
	// ErrWriteInFlight refuses a grant, renewal or write of an object whose
	// write is in flight: a fresh lease would be on the old data.
	ErrWriteInFlight = errors.New("core: write in flight")
	// ErrNoConversation refuses a step of the volume conversation that the
	// client's conversation in progress does not await: none is open, it
	// runs under another sequence number, or it is at another step.
	ErrNoConversation = errors.New("core: no such volume conversation")
)

// lease is one client's lease on one object or volume (a ⟨client, expire⟩
// pair from Figure 2's at sets). granted remembers when the lease was last
// granted or renewed, for state introspection (internal/state); the
// protocol itself only ever consults expire. entry numbers the expiry-heap
// entry that indexes the record (expiry.go).
type lease struct {
	granted time.Time
	expire  time.Time
	entry   uint64
}

// object mirrors Figure 2's Object.
type object struct {
	id ObjectID
	// data holds the current version's bytes. They are copied in once, when
	// the version is created, and never modified afterwards: a new version
	// replaces the slice, it never overwrites it. That is what lets
	// GrantObjectLease and Read hand out the slice itself, and lets the
	// server encode a data-carrying grant after it has dropped the shard
	// lock, while a concurrent write installs the next version.
	data    []byte
	version Version
	at      map[ClientID]lease
	vol     *volume
	// writes numbers the object's writes. While one is in flight, owed is
	// non-nil and maps each client owing it an ack to its wait bound.
	writes WriteNum
	owed   map[ClientID]time.Time
}

// volume mirrors Figure 2's Volume, with the delayed-invalidation additions
// of Section 3.2 (Inactive set and Pending lists).
type volume struct {
	id      VolumeID
	epoch   Epoch
	objects map[ObjectID]*object
	at      map[ClientID]lease
	// unreachable records clients that may have missed invalidations and
	// must run the reconnection protocol before regaining the volume.
	unreachable map[ClientID]struct{}
	// inactive holds, per client whose volume lease expired, the queued
	// invalidations and the time the client became inactive.
	inactive map[ClientID]*inactiveState
	// volExpiredAt remembers when each client's volume lease expired, to
	// run the InactiveDiscard clock.
	volExpiredAt map[ClientID]time.Time
	// objLeases counts the records in the at maps of the volume's objects,
	// and held indexes them by client for lazyDiscard, so it is kept only
	// when the table discards (ModeDelayed with an InactiveDiscard); nil
	// otherwise (expiry.go).
	objLeases int
	held      map[ClientID]map[*object]struct{}
	// expiries is a min-heap of the expiry of every lease record, so Stats
	// and Sweep find the expired ones without walking the objects; entries
	// numbers its entries, and expired counts the records drain removed
	// since the last Sweep, which reports them.
	expiries []expiry
	entries  uint64
	expired  int
	// writing holds the volume's objects with a write in flight.
	writing map[*object]struct{}
	// convs holds each client's volume conversation in progress
	// (conversation.go).
	convs map[ClientID]*conversation
}

type inactiveState struct {
	pending map[ObjectID]struct{}
	since   time.Time
}

// Table is the consistency state of one server: a set of volumes and their
// objects, plus every lease, pending list, and reachability set the
// protocol needs. Table is not safe for concurrent use; the networked
// server serializes access (see internal/server).
type Table struct {
	cfg     Config
	volumes map[VolumeID]*volume
	// objects indexes every object by id; object ids are unique per server.
	objects map[ObjectID]*object
	// writeFence blocks writes until after recovery (Section 3.1.2).
	writeFence time.Time
}

// NewTable builds an empty table.
func NewTable(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Table{
		cfg:     cfg,
		volumes: make(map[VolumeID]*volume),
		objects: make(map[ObjectID]*object),
	}, nil
}

// Config returns the table's configuration.
func (t *Table) Config() Config { return t.cfg }

// CreateVolume registers a new volume with epoch 0.
func (t *Table) CreateVolume(id VolumeID) error {
	return t.CreateVolumeAt(id, 0)
}

// CreateVolumeAt registers a new volume with an explicit epoch. Servers
// that persist epochs on stable storage (Section 3.1.2) use it on restart
// to resume with a bumped epoch, so clients holding pre-crash leases are
// detected and resynchronized.
func (t *Table) CreateVolumeAt(id VolumeID, epoch Epoch) error {
	if _, ok := t.volumes[id]; ok {
		return fmt.Errorf("%w: volume %q", ErrDuplicate, id)
	}
	if epoch < 0 {
		return fmt.Errorf("core: volume %q: negative epoch %d", id, epoch)
	}
	t.volumes[id] = &volume{
		id:           id,
		epoch:        epoch,
		objects:      make(map[ObjectID]*object),
		at:           make(map[ClientID]lease),
		unreachable:  make(map[ClientID]struct{}),
		inactive:     make(map[ClientID]*inactiveState),
		volExpiredAt: make(map[ClientID]time.Time),
		writing:      make(map[*object]struct{}),
		convs:        make(map[ClientID]*conversation),
	}
	if t.discards() {
		t.volumes[id].held = make(map[ClientID]map[*object]struct{})
	}
	return nil
}

// FenceWrites blocks BeginWrite until the given time; restarted servers use
// it to let every pre-crash volume lease expire before modifying data.
func (t *Table) FenceWrites(until time.Time) {
	if until.After(t.writeFence) {
		t.writeFence = until
	}
}

// CreateObject registers an object in a volume with initial data and
// version 1.
func (t *Table) CreateObject(vid VolumeID, oid ObjectID, data []byte) error {
	v, ok := t.volumes[vid]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchVolume, vid)
	}
	if _, ok := t.objects[oid]; ok {
		return fmt.Errorf("%w: object %q", ErrDuplicate, oid)
	}
	o := &object{
		id:      oid,
		data:    append([]byte(nil), data...),
		version: 1,
		at:      make(map[ClientID]lease),
		vol:     v,
	}
	v.objects[oid] = o
	t.objects[oid] = o
	return nil
}

// lookup resolves an object id. Object ids are unique across the server's
// volumes.
func (t *Table) lookup(oid ObjectID) (*object, error) {
	if o, ok := t.objects[oid]; ok {
		return o, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNoSuchObject, oid)
}

// volumeOf returns the volume or an error.
func (t *Table) volumeOf(vid VolumeID) (*volume, error) {
	v, ok := t.volumes[vid]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchVolume, vid)
	}
	return v, nil
}
