// Package fixture exercises lockflow: a blocking operation reachable through
// any call depth while a shard mutex is held is reported at the call site
// under the lock. Non-blocking variants and allow-annotated sites are not.
// order.go holds the locking-order rules and the blocking steps written in
// the locked section itself.
package fixture

import "sync"
import "sync/atomic"

type shard struct {
	mu sync.Mutex
	ch chan int
}

func (s *shard) Bad() {
	s.mu.Lock()
	s.notify() // want `call to .*notify while s\.mu is held reaches blocking channel send`
	s.mu.Unlock()
}

// notify blocks two calls deep: Bad -> notify -> relay -> send.
func (s *shard) notify() {
	s.relay()
}

func (s *shard) relay() {
	s.ch <- 1
}

func (s *shard) Allowed() {
	s.mu.Lock()
	//lint:allow lockflow — fixture: buffered channel drained by a dedicated goroutine
	s.notify()
	s.mu.Unlock()
}

func (s *shard) Good() {
	s.mu.Lock()
	s.tryNotify()
	s.mu.Unlock()
}

// tryNotify never blocks: non-blocking send with a default clause.
func (s *shard) tryNotify() {
	select {
	case s.ch <- 1:
	default:
	}
}

// Unlocked calls the blocking helper with no lock held: not lockflow's
// business.
func (s *shard) Unlocked() {
	s.notify()
}

// sink blocks in push; holder reaches it through atomic.Pointer[T].Load() —
// the server's own s.vols idiom. The callee is only known because go/types
// types the external generic's result.
type sink struct{ ch chan int }

func (k *sink) push() { k.ch <- 1 }

type holder struct {
	mu  sync.Mutex
	cur atomic.Pointer[sink]
}

func (h *holder) Publish() {
	h.mu.Lock()
	h.cur.Load().push() // want `call to .*push while h\.mu is held reaches blocking channel send`
	h.mu.Unlock()
}
