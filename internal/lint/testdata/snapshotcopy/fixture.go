// Package fixture exercises snapshotcopy: snapshot roots (Table.Snapshot by
// name, or //lint:snapshotroot annotations) must not return memory aliasing
// the live structures they were called on. Deep copies are clean by
// construction: selecting a basic field out of a tainted struct drops taint.
package fixture

import "sync/atomic"

type entry struct {
	version int
}

type Table struct {
	live map[string]*entry
}

// Snapshot is a root by name (Snapshot on Table): returning the live map
// aliases live state.
func (t *Table) Snapshot() map[string]*entry {
	return t.live // want `snapshot root .*Snapshot returns memory aliasing live receiver t`
}

// View leaks through a loop: the range value points into the live map and
// is accumulated into the returned slice.
//
//lint:snapshotroot
func (t *Table) View() []*entry {
	out := make([]*entry, 0, len(t.live))
	for _, e := range t.live {
		out = append(out, e)
	}
	return out // want `snapshot root .*View returns memory aliasing live receiver t`
}

// Copy deep-copies entry values: clean.
//
//lint:snapshotroot
func (t *Table) Copy() map[string]entry {
	out := make(map[string]entry, len(t.live))
	for k, e := range t.live {
		out[k] = entry{version: e.version}
	}
	return out
}

//lint:snapshotroot
func (t *Table) Exposed() map[string]*entry {
	//lint:allow snapshotcopy — fixture: documented read-only view
	return t.live
}

// Registry publishes its map through an atomic.Pointer, as the server does
// its shard map: what Load returns is the live map.
type Registry struct {
	cur atomic.Pointer[map[string]*entry]
}

//lint:snapshotroot
func (r *Registry) Live() map[string]*entry {
	return *r.cur.Load() // want `snapshot root .*Live returns memory aliasing live receiver r`
}

// all is the allShards shape: a fresh slice of live pointers. No list of
// helper names is needed to see through it.
func (r *Registry) all() []*entry {
	m := *r.cur.Load()
	out := make([]*entry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	return out
}

//lint:snapshotroot
func (r *Registry) Entries() []*entry {
	return r.all() // want `snapshot root .*Entries returns memory aliasing live receiver r`
}

//lint:snapshotroot
func (r *Registry) Versions() []int {
	var out []int
	for _, e := range r.all() {
		out = append(out, e.version)
	}
	return out
}
