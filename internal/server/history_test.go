package server_test

import (
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/server"
)

// oplog is one goroutine's reads and writes, recorded for internal/history
// on the monotonic clock since start. A value's tag is a hash of its
// payload, so a test's writes carry distinct payloads; the values
// startServer seeds ("init-…") are from before the run, tag 0.
type oplog struct {
	start time.Time
	ops   []history.Op
	// ends keeps, of a run of reads returning one value, the first and the
	// last: the first returned earliest and the last was called latest, so
	// a read between them is stale or invented only if one of the two is,
	// and witnesses nothing the first does not. A reader polling in a tight
	// loop records a few runs instead of millions of reads.
	ends bool
}

func tagOf(data string) uint64 {
	if strings.HasPrefix(data, "init-") {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(data))
	return h.Sum64()
}

// write records srv.Write(oid, data) and returns what it returned.
func (l *oplog) write(srv *server.Server, oid core.ObjectID, data string) (core.Version, time.Duration, error) {
	op := history.Op{Object: string(oid), Write: true, Tag: tagOf(data), Call: time.Since(l.start)}
	v, waited, err := srv.Write(oid, []byte(data))
	op.Version, op.Return, op.OK = uint64(v), time.Since(l.start), err == nil
	l.ops = append(l.ops, op)
	return v, waited, err
}

// read records a read that returned a value.
func (l *oplog) read(c *client.Client, oid core.ObjectID) (string, error) {
	op := history.Op{Object: string(oid), Call: time.Since(l.start)}
	data, err := c.Read("vol", oid)
	if err != nil {
		return "", err
	}
	op.Tag, op.Return, op.OK = tagOf(string(data)), time.Since(l.start), true
	same := func(o history.Op) bool { return !o.Write && o.Object == op.Object && o.Tag == op.Tag }
	if n := len(l.ops); l.ends && n >= 2 && same(l.ops[n-1]) && same(l.ops[n-2]) {
		l.ops[n-1] = op
	} else {
		l.ops = append(l.ops, op)
	}
	return string(data), nil
}

func (l *oplog) mustRead(t *testing.T, c *client.Client, oid core.ObjectID) string {
	t.Helper()
	data, err := l.read(c, oid)
	if err != nil {
		t.Fatalf("Read(%s): %v", oid, err)
	}
	return data
}

// check runs the history check over logs.
func check(logs ...*oplog) history.Report {
	ops := make([][]history.Op, len(logs))
	for i, l := range logs {
		ops[i] = l.ops
	}
	return history.Check(ops...)
}

// requireLinearizable fails the test on any stale or invented read in logs.
func requireLinearizable(t *testing.T, logs ...*oplog) {
	t.Helper()
	rep := check(logs...)
	t.Log(rep)
	for _, a := range rep.Anomalies {
		t.Errorf("history: %v", a)
	}
}
