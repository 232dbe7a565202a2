package server_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// spanOfKind returns the spans of one kind, in recording order.
func spansOfKind(spans []obs.Span, k obs.SpanKind) []obs.Span {
	var out []obs.Span
	for _, s := range spans {
		if s.Kind == k {
			out = append(out, s)
		}
	}
	return out
}

// TestWriteTraceSpans drives a traced write through a live client/server
// pair with two lease holders and checks the causal chain end to end: the
// client's span parents the server's root write span, whose children
// (serialization wait, one fan-out per connection, ack wait) all carry the
// same trace, parent the root, and fit inside the root's duration.
func TestWriteTraceSpans(t *testing.T) {
	rec := obs.NewSpanRecorder(1024)
	env := startServer(t, tableCfg(), func(cfg *server.Config) {
		cfg.Obs = &obs.Observer{Spans: rec}
	})
	holder1 := env.dial(t, "h1")
	holder2 := env.dial(t, "h2")
	writer := env.dial(t, "w")
	for _, c := range []interface {
		Read(core.VolumeID, core.ObjectID) ([]byte, error)
	}{holder1, holder2} {
		if _, err := c.Read("vol", "a"); err != nil {
			t.Fatal(err)
		}
	}

	if _, _, err := writer.Write("a", []byte("traced")); err != nil {
		t.Fatal(err)
	}

	spans := rec.Snapshot()
	cw := spansOfKind(spans, obs.SpanClientWrite)
	if len(cw) != 1 {
		t.Fatalf("client-write spans = %d, want 1 (%+v)", len(cw), spans)
	}
	roots := spansOfKind(spans, obs.SpanWrite)
	if len(roots) != 1 {
		t.Fatalf("server write spans = %d, want 1", len(roots))
	}
	root := roots[0]
	if root.Trace != cw[0].Trace || root.Trace == 0 {
		t.Errorf("trace not propagated: client %d, server %d", cw[0].Trace, root.Trace)
	}
	if root.Parent != cw[0].ID {
		t.Errorf("server root parent = %d, want client span %d", root.Parent, cw[0].ID)
	}
	if root.Node != "srv" || root.Object != "a" || root.Volume != "vol" {
		t.Errorf("root span identity = %+v", root)
	}
	if root.N != 2 {
		t.Errorf("root N = %d, want 2 lease holders", root.N)
	}

	ser := spansOfKind(spans, obs.SpanSerialize)
	ack := spansOfKind(spans, obs.SpanAckWait)
	fan := spansOfKind(spans, obs.SpanFanout)
	if len(ser) != 1 || len(ack) != 1 {
		t.Fatalf("serialize/ack-wait spans = %d/%d, want 1/1", len(ser), len(ack))
	}
	if len(fan) != 2 {
		t.Fatalf("fanout spans = %d, want one per holder connection", len(fan))
	}
	holders := map[core.ClientID]bool{}
	for _, f := range fan {
		holders[f.Client] = true
	}
	if !holders["h1"] || !holders["h2"] {
		t.Errorf("fanout clients = %v", holders)
	}
	rootEnd := root.Start.Add(root.Dur)
	var childSum time.Duration
	for _, s := range append(append(append([]obs.Span{}, ser...), ack...), fan...) {
		if s.Trace != root.Trace {
			t.Errorf("%s span trace = %d, want %d", s.Kind, s.Trace, root.Trace)
		}
		if s.Parent != root.ID {
			t.Errorf("%s span parent = %d, want root %d", s.Kind, s.Parent, root.ID)
		}
		if s.Start.Before(root.Start) || s.Start.Add(s.Dur).After(rootEnd) {
			t.Errorf("%s span [%v +%v] outside root [%v +%v]",
				s.Kind, s.Start, s.Dur, root.Start, root.Dur)
		}
	}
	// The sequential children account for the root's latency: the
	// serialization wait and the ack wait partition it (fan-out spans run
	// concurrently with the ack wait, so they are excluded from the sum).
	childSum = ser[0].Dur + ack[0].Dur
	if childSum > root.Dur {
		t.Errorf("sequential children sum %v > root %v", childSum, root.Dur)
	}
	// And the whole server-side round fits inside the client's span.
	if root.Dur > cw[0].Dur {
		t.Errorf("server root %v longer than client span %v", root.Dur, cw[0].Dur)
	}
}

// TestWriteUntracedRecordsNothing pins the disabled path: with no span
// recorder on the observer, a write records no spans and sends a zero
// trace context on the wire (old-format frames, decodable by old peers).
func TestWriteUntracedRecordsNothing(t *testing.T) {
	env := startServer(t, tableCfg(), nil)
	holder := env.dial(t, "h")
	if _, err := holder.Read("vol", "a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := env.srv.Write("a", []byte("plain")); err != nil {
		t.Fatal(err)
	}
	// The shared observer has no recorder; SpanRec must report nil for both
	// the server and the dialed client.
	if env.obs.SpanRec() != nil {
		t.Fatal("observer unexpectedly has a span recorder")
	}
}
