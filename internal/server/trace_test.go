package server_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/wire"
)

// tracedEnv is startServer with one more sink on the shared event stream,
// which it returns.
func tracedEnv(t *testing.T) (*testEnv, *obs.RingSink) {
	t.Helper()
	ring := obs.NewRingSink(1024)
	env := startServer(t, tableCfg(), func(cfg *server.Config) {
		cfg.Obs = &obs.Observer{Tracer: obs.NewTracer(ring)}
	})
	return env, ring
}

// written reads the records of object a's write from ring: those in the
// server's stream and, by trace, the writer's — once the flusher has
// recorded its sends, one per holder.
func written(t *testing.T, ring *obs.RingSink, from uint64, holders int) (srv, traced []obs.Event) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		srv, traced = nil, nil
		sent := 0
		for _, e := range ring.Snapshot()[from:] {
			if e.Node == "srv" && e.Object == "a" {
				srv = append(srv, e)
			}
			if e.Trace != 0 && e.Object == "a" {
				traced = append(traced, e)
			}
			if e.Type == obs.EvInvalSent && e.Object == "a" {
				sent++
			}
		}
		if sent == holders {
			return srv, traced
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d inval-sent records after 5s: %v", sent, holders, traced)
		}
	}
}

func ofType(records []obs.Event, typ obs.EventType) []obs.Event {
	var out []obs.Event
	for _, e := range records {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

// TestWriteTraceSpans drives a traced write through a live client/server
// pair with two lease holders and checks the causal chain end to end on the
// event stream: the client's client-write record parents the server's
// write record, whose phases (the blocked record's serialization wait, one
// inval-sent per connection, the unblocked record's ack wait) all carry the
// same trace, parent the write, and fit inside its duration.
func TestWriteTraceSpans(t *testing.T) {
	env, ring := tracedEnv(t)
	holder1 := env.dial(t, "h1")
	holder2 := env.dial(t, "h2")
	writer := env.dial(t, "w")
	mustRead(t, holder1, "a")
	mustRead(t, holder2, "a")

	from := ring.Total()
	if _, _, err := writer.Write("a", []byte("traced")); err != nil {
		t.Fatal(err)
	}
	_, records := written(t, ring, from, 2)

	cw := ofType(records, obs.EvClientWrite)
	if len(cw) != 1 {
		t.Fatalf("client-write records = %d, want 1 (%v)", len(cw), records)
	}
	roots := ofType(records, obs.EvWrite)
	if len(roots) != 1 {
		t.Fatalf("server write records = %d, want 1", len(roots))
	}
	root := roots[0]
	if root.Trace != cw[0].Trace || root.Trace == 0 {
		t.Errorf("trace not propagated: client %d, server %d", cw[0].Trace, root.Trace)
	}
	if root.Parent != cw[0].Span {
		t.Errorf("server write parent = %d, want client record %d", root.Parent, cw[0].Span)
	}
	if root.Node != "srv" || root.Object != "a" || root.Volume != "vol" {
		t.Errorf("write record identity = %v", root)
	}
	if root.N != 2 {
		t.Errorf("write N = %d, want 2 lease holders", root.N)
	}

	blocked := ofType(records, obs.EvWriteBlocked)
	unblocked := ofType(records, obs.EvWriteUnblocked)
	sent := ofType(records, obs.EvInvalSent)
	if len(blocked) != 1 || len(unblocked) != 1 {
		t.Fatalf("blocked/unblocked records = %d/%d, want 1/1", len(blocked), len(unblocked))
	}
	holders := map[core.ClientID]bool{}
	for _, s := range sent {
		holders[s.Client] = true
	}
	if len(sent) != 2 || !holders["h1"] || !holders["h2"] {
		t.Errorf("inval-sent records = %v, want one per holder connection", sent)
	}
	rootStart := root.At.Add(-root.Dur)
	for _, e := range append(append(append([]obs.Event{}, blocked...), unblocked...), sent...) {
		if e.Trace != root.Trace {
			t.Errorf("%s trace = %d, want %d", e.Type, e.Trace, root.Trace)
		}
		if e.Parent != root.Span {
			t.Errorf("%s parent = %d, want the write's %d", e.Type, e.Parent, root.Span)
		}
		if e.At.Add(-e.Dur).Before(rootStart) || e.At.After(root.At) {
			t.Errorf("%s [%v +%v] outside the write [%v +%v]", e.Type, e.At.Add(-e.Dur), e.Dur, rootStart, root.Dur)
		}
	}
	// The sequential phases account for the write's latency: the
	// serialization wait and the ack wait partition it (the sends run
	// concurrently with the ack wait, so they are excluded from the sum).
	if sum := blocked[0].Dur + unblocked[0].Dur; sum > root.Dur {
		t.Errorf("sequential phases sum %v > write %v", sum, root.Dur)
	}
	// And the whole server-side round fits inside the client's record.
	if root.Dur > cw[0].Dur {
		t.Errorf("server write %v longer than client write %v", root.Dur, cw[0].Dur)
	}
}

// TestTracedWriteOneRecordPerFact: a traced write to one held lease leaves at
// most six records in the server's stream — the write, its blocked, sent and
// unblocked phases, the holder's ack and the commit — and no two of them
// carry the same duration.
func TestTracedWriteOneRecordPerFact(t *testing.T) {
	env, ring := tracedEnv(t)
	mustRead(t, env.dial(t, "h"), "a")
	from := ring.Total()
	if _, _, err := env.srv.Write("a", []byte("traced")); err != nil {
		t.Fatal(err)
	}
	records, _ := written(t, ring, from, 1)
	if len(records) > 6 {
		t.Errorf("%d records of one write, want at most 6: %v", len(records), records)
	}
	byDur := map[time.Duration]obs.EventType{}
	for _, e := range records {
		if e.Dur == 0 {
			continue
		}
		if other, dup := byDur[e.Dur]; dup {
			t.Errorf("%s and %s both record %v", other, e.Type, e.Dur)
		}
		byDur[e.Dur] = e.Type
	}
	for _, typ := range []obs.EventType{obs.EvWrite, obs.EvWriteBlocked, obs.EvInvalSent,
		obs.EvWriteUnblocked, obs.EvInvalAcked, obs.EvWriteApplied} {
		if n := len(ofType(records, typ)); n != 1 {
			t.Errorf("%d %s records, want 1", n, typ)
		}
	}
}

// traceTap records the trace context of every WriteReq and Invalidate sent
// on the network it is attached to.
type traceTap struct {
	mu  sync.Mutex
	tcs map[wire.Kind][]wire.TraceContext
}

func (f *traceTap) TapConn(local, remote string) transport.Sink { return f }

func (f *traceTap) Observe(fr transport.Frame) {
	if !fr.Sent {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	switch m := fr.Msg.(type) {
	case wire.WriteReq:
		f.tcs[m.Kind()] = append(f.tcs[m.Kind()], m.Trace)
	case wire.Invalidate:
		f.tcs[m.Kind()] = append(f.tcs[m.Kind()], m.Trace)
	}
}

// TestWriteUntracedRecordsNothing pins the disabled path: a server and
// clients without an observer record nothing and send zero trace contexts
// on the wire (old-format frames, decodable by old peers).
func TestWriteUntracedRecordsNothing(t *testing.T) {
	tap := &traceTap{tcs: map[wire.Kind][]wire.TraceContext{}}
	net := transport.NewMemory()
	net.Taps = []transport.Tap{tap}
	srv, err := server.New(server.Config{Name: "srv", Addr: "srv:1", Net: net, Table: tableCfg(),
		MsgTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.AddVolume("vol"); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddObject("vol", "a", []byte("init-a")); err != nil {
		t.Fatal(err)
	}
	env := &testEnv{net: net, srv: srv}
	mustRead(t, env.dial(t, "h"), "a")
	if _, _, err := env.dial(t, "w").Write("a", []byte("plain")); err != nil {
		t.Fatal(err)
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	for _, kind := range []wire.Kind{wire.KindWriteReq, wire.KindInvalidate} {
		if len(tap.tcs[kind]) != 1 || tap.tcs[kind][0] != (wire.TraceContext{}) {
			t.Errorf("%s trace contexts = %v, want one zero context", kind, tap.tcs[kind])
		}
	}
}
