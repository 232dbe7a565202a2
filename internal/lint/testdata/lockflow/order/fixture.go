package fixture

import "sync"

// The server's shapes: per-volume shards with a `mu` field, an allShards()
// helper that returns them in sorted volume order, an auxiliary connMu, and
// connections with Send and Close methods.

type volShard struct{ mu sync.Mutex }

type conn struct{}

func (conn) Send(v int) {}

// tconn closes the way the batched TCP connection does: Close waits for the
// flusher's final drain inside a sync.Once literal.
type tconn struct {
	closeOnce sync.Once
	flushed   chan struct{}
}

func (t *tconn) Close() error {
	t.closeOnce.Do(func() {
		<-t.flushed
	})
	return nil
}

type closer interface{ Close() error }

type server struct {
	shards map[string]*volShard
	connMu sync.Mutex
}

func (s *server) allShards() []*volShard { return nil }

// badTwoShards locks two shard mutexes by hand.
func (s *server) badTwoShards(a, b *volShard) {
	a.mu.Lock()
	b.mu.Lock() // want `holds multiple shard mutexes at once`
	b.mu.Unlock()
	a.mu.Unlock()
}

// goodHandoff reacquires after releasing: never two at once.
func (s *server) goodHandoff(a, b *volShard) {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

// goodAuxiliary holds one shard mutex plus a named auxiliary mutex — the
// sanctioned shard.mu -> connMu order.
func (s *server) goodAuxiliary(a *volShard) {
	a.mu.Lock()
	s.connMu.Lock()
	s.connMu.Unlock()
	a.mu.Unlock()
}

// badRangeMap acquires shard mutexes in map iteration order.
func (s *server) badRangeMap() {
	for _, sh := range s.shards { // want `iterate allShards\(\)`
		sh.mu.Lock()
		sh.mu.Unlock()
	}
}

// goodRangeHelper iterates the sorting helper directly.
func (s *server) goodRangeHelper() {
	for _, sh := range s.allShards() {
		sh.mu.Lock()
		sh.mu.Unlock()
	}
}

// goodRangeHelperVar iterates a variable holding the helper's result.
func (s *server) goodRangeHelperVar() {
	shards := s.allShards()
	for _, sh := range shards {
		sh.mu.Lock()
		sh.mu.Unlock()
	}
}

// badSendUnderLock performs a blocking channel send under a shard mutex.
func (s *server) badSendUnderLock(sh *volShard, ch chan int) {
	sh.mu.Lock()
	ch <- 1 // want `blocking channel send while sh\.mu is held`
	sh.mu.Unlock()
}

// badReceiveUnderLock waits on a channel under a shard mutex, bare or by
// ranging over it.
func (s *server) badReceiveUnderLock(sh *volShard, ch chan int) {
	sh.mu.Lock()
	<-ch           // want `blocking channel receive while sh\.mu is held`
	for range ch { // want `blocking range over channel while sh\.mu is held`
	}
	sh.mu.Unlock()
}

// goodSendOutsideLock collects under the lock, sends outside it.
func (s *server) goodSendOutsideLock(sh *volShard, ch chan int) {
	sh.mu.Lock()
	v := 1
	sh.mu.Unlock()
	ch <- v
}

// goodNonBlockingSend uses a select with default, which cannot block.
func (s *server) goodNonBlockingSend(sh *volShard, ch chan int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	select {
	case ch <- 1:
	default:
	}
}

// badTransportUnderLock calls the transport while holding a shard mutex.
func (s *server) badTransportUnderLock(sh *volShard, c conn) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c.Send(1) // want `transport call c\.Send while sh\.mu is held`
}

// goodTransportOutsideLock snapshots under the lock and sends after.
func (s *server) goodTransportOutsideLock(sh *volShard, c conn) {
	sh.mu.Lock()
	v := 1
	sh.mu.Unlock()
	c.Send(v)
}

// badRecover drops its connections while every shard mutex is held: Close
// waits for the flusher, through the sync.Once literal.
func (s *server) badRecover(conns []closer) {
	shards := s.allShards()
	for _, sh := range shards {
		sh.mu.Lock()
	}
	for _, c := range conns {
		c.Close() // want `call to \(\*tconn\)\.Close while sh\.mu is held reaches blocking channel receive`
	}
	for _, sh := range shards {
		sh.mu.Unlock()
	}
}

// goodRecover detaches under the mutexes and closes after releasing them.
func (s *server) goodRecover(conns []closer) {
	shards := s.allShards()
	for _, sh := range shards {
		sh.mu.Lock()
	}
	for _, sh := range shards {
		sh.mu.Unlock()
	}
	for _, c := range conns {
		c.Close()
	}
}
