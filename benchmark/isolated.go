package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/wire"
)

// isolated prices single layers away from the workload, on the exact frames
// the traced run carried: the wire codec per kind, a bare TCP pair, the
// lease table, one client's hit path, and the server's write path called in
// process. These are the floors under the in-situ rows.
func isolated(hub *tapHub, scale float64) (map[string]metric, error) {
	// scaled shrinks an iteration count for the smoke test's short runs.
	scaled := func(n int) int {
		if n = int(float64(n) * scale); n < 32 {
			n = 32
		}
		return n
	}
	out := map[string]metric{}
	var sample [wire.NumKinds]wire.Message
	for _, k := range wireKinds {
		m := hub.sample(k)
		if m == nil {
			return nil, fmt.Errorf("the traced run carried no %s frame", k)
		}
		sample[k] = m
		if err := wireCosts(out, k.String(), m, scaled(20000)); err != nil {
			return nil, err
		}
	}
	if err := transportCosts(out, sample, scaled(4000), scaled(2000)); err != nil {
		return nil, err
	}
	if err := coreCosts(out); err != nil {
		return nil, err
	}
	if err := stackCosts(out, scaled(256), scaled(200000), scaled(2000)); err != nil {
		return nil, err
	}
	return out, nil
}

// batches times f (which performs n operations) five times and returns the
// median nanoseconds per operation.
func batches(n int, f func()) float64 {
	var per []float64
	for b := 0; b < 5; b++ {
		start := nowNs()
		f()
		per = append(per, float64(nowNs()-start)/float64(n))
	}
	return median(per)
}

// sink keeps the compiler from discarding a measured call.
var sink any

func wireCosts(out map[string]metric, name string, m wire.Message, n int) error {
	buf, err := wire.AppendEncode(make([]byte, 0, 1024), m)
	if err != nil {
		return fmt.Errorf("encode %s: %w", name, err)
	}
	body := append([]byte(nil), buf...)
	out["wire.encode_ns."+name] = metric{batches(n, func() {
		for i := 0; i < n; i++ {
			buf, _ = wire.AppendEncode(buf[:0], m) // encoded once above
		}
	}), "ns"}
	var decodeErr error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ns := batches(n, func() {
		for i := 0; i < n; i++ {
			if sink, err = wire.Decode(body); err != nil {
				decodeErr = err
			}
		}
	})
	runtime.ReadMemStats(&after)
	if decodeErr != nil {
		return fmt.Errorf("decode %s: %w", name, decodeErr)
	}
	out["wire.decode_ns."+name] = metric{ns, "ns"}
	out["wire.decode_allocs."+name] = metric{float64(after.Mallocs-before.Mallocs) / float64(5*n), "count"}
	out["wire.bytes."+name] = metric{float64(wire.Size(m)), "B"}
	return nil
}

// transportCosts measures a bare transport.TCP{} pair on loopback: a
// ReqObjLease/ObjLease echo, and 8-frame one-way bursts each answered by a
// single frame so bursts do not pipeline.
func transportCosts(out map[string]metric, sample [wire.NumKinds]wire.Message, pings, bursts int) error {
	const burst = 8
	tcp := transport.TCP{}
	l, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	echoErr := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			echoErr <- err
			return
		}
		defer c.Close()
		for i := 0; i < pings; i++ {
			if _, err := c.Recv(); err != nil {
				echoErr <- err
				return
			}
			if err := c.Send(sample[wire.KindObjLease]); err != nil {
				echoErr <- err
				return
			}
		}
		for i := 0; i < bursts; i++ {
			for j := 0; j < burst; j++ {
				if _, err := c.Recv(); err != nil {
					echoErr <- err
					return
				}
			}
			if err := c.Send(sample[wire.KindAckInvalidate]); err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	c, err := tcp.Dial(l.Addr())
	if err != nil {
		return err
	}
	defer c.Close()
	rtts := make([]float64, 0, pings)
	for i := 0; i < pings; i++ {
		start := nowNs()
		if err := c.Send(sample[wire.KindReqObjLease]); err != nil {
			return err
		}
		if _, err := c.Recv(); err != nil {
			return err
		}
		rtts = append(rtts, float64(nowNs()-start))
	}
	out["transport.pingpong_rtt_us"] = metric{medianNs(rtts) / 1e3, "us"}
	start := nowNs()
	for i := 0; i < bursts; i++ {
		for j := 0; j < burst; j++ {
			if err := c.Send(sample[wire.KindInvalidate]); err != nil {
				return err
			}
		}
		if _, err := c.Recv(); err != nil {
			return err
		}
	}
	out["transport.burst_frames_per_s"] = metric{float64(bursts*burst) / (float64(nowNs()-start) / 1e9), "1/s"}
	return <-echoErr
}

// coreCosts drives a bare core.Table through the shapes the workloads give
// it: a lease renewal, a volume renewal, and the write_fanout cycle.
func coreCosts(out map[string]metric) error {
	const (
		objects = 1024
		holders = 8
	)
	tab, err := core.NewTable(core.Config{ObjectLease: longLease, VolumeLease: longLease, Mode: core.ModeEager})
	if err != nil {
		return err
	}
	if err := tab.CreateVolume("v"); err != nil {
		return err
	}
	now := time.Now()
	ids := make([]core.ObjectID, objects)
	clients := make([]core.ClientID, holders)
	body := make([]byte, payloadBytes)
	for i := range clients {
		clients[i] = core.ClientID(fmt.Sprintf("h%d", i))
		if _, err := tab.RequestVolumeLease(now, clients[i], "v", 0); err != nil {
			return err
		}
	}
	for i := range ids {
		ids[i] = core.ObjectID(fmt.Sprintf("o0/%05d", i))
		if err := tab.CreateObject("v", ids[i], body); err != nil {
			return err
		}
		for _, c := range clients {
			if _, err := tab.GrantObjectLease(now, c, ids[i], core.NoVersion); err != nil {
				return err
			}
		}
	}
	var failed error
	keep := func(err error) {
		if err != nil {
			failed = err
		}
	}
	version := core.Version(1)
	out["core.grant_ns"] = metric{batches(objects, func() {
		for _, id := range ids {
			_, err := tab.GrantObjectLease(now, clients[0], id, version)
			keep(err)
		}
	}), "ns"}
	out["core.vol_renew_ns"] = metric{batches(objects, func() {
		for range ids {
			_, err := tab.RequestVolumeLease(now, clients[0], "v", 0)
			keep(err)
		}
	}), "ns"}
	out["core.write_cycle_ns"] = metric{batches(objects, func() {
		for _, id := range ids {
			plan, err := tab.BeginWrite(now, id)
			keep(err)
			if len(plan.Notify) != holders {
				keep(fmt.Errorf("core write plan notifies %d holders, want %d", len(plan.Notify), holders))
			}
			for _, inv := range plan.Notify {
				keep(tab.AckWriteInvalidate(now, inv.Client, id))
			}
			_, err = tab.FinishWrite(now, id, body, nil)
			keep(err)
			for _, c := range clients {
				_, err := tab.GrantObjectLease(now, c, id, version)
				keep(err)
			}
		}
		version++
	}), "ns"}
	return failed
}

// stackCosts builds a small rig of real processes for the three numbers
// that need one: a single goroutine's cache hit, Server.Write called in
// process against 8 TCP holders, and a volume renewal round trip (the
// server's volume lease is shorter than the client's skew, so every
// RenewVolume call goes to the server).
func stackCosts(out map[string]metric, objects, hits, renews int) error {
	const holders = 8
	srv, err := server.New(server.Config{
		Addr: "127.0.0.1:0", Net: transport.TCP{},
		Table: core.Config{ObjectLease: longLease, VolumeLease: longLease, Mode: core.ModeEager},
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := srv.AddVolume("v"); err != nil {
		return err
	}
	body := make([]byte, payloadBytes)
	ids := make([]core.ObjectID, objects)
	for i := range ids {
		ids[i] = core.ObjectID(fmt.Sprintf("o0/%05d", i))
		if err := srv.AddObject("v", ids[i], body); err != nil {
			return err
		}
	}
	var hs []*client.Client
	defer func() {
		for _, h := range hs {
			h.Close()
		}
	}()
	for i := 0; i < holders; i++ {
		h, err := client.Dial(transport.TCP{}, srv.Addr(), client.Config{ID: core.ClientID(fmt.Sprintf("h%d", i))})
		if err != nil {
			return err
		}
		hs = append(hs, h)
	}
	readAll := func(id core.ObjectID) error {
		for _, h := range hs {
			if _, err := h.Read("v", id); err != nil {
				return err
			}
		}
		return nil
	}
	var writes []float64
	for _, id := range ids {
		if err := readAll(id); err != nil {
			return err
		}
		start := nowNs()
		if _, _, err := srv.Write(id, body); err != nil {
			return err
		}
		writes = append(writes, float64(nowNs()-start))
	}
	out["server.write_inproc_us"] = metric{medianNs(writes) / 1e3, "us"}

	for _, id := range ids {
		if _, err := hs[0].Read("v", id); err != nil {
			return err
		}
	}
	var failed error
	out["client.hit_ns"] = metric{batches(hits, func() {
		for i := 0; i < hits; i++ {
			data, err := hs[0].Read("v", ids[i%objects])
			if err != nil {
				failed = err
			}
			sink = data
		}
	}), "ns"}
	if failed != nil {
		return failed
	}

	short, err := server.New(server.Config{
		Addr: "127.0.0.1:0", Net: transport.TCP{}, SweepInterval: time.Minute,
		Table: core.Config{ObjectLease: longLease, VolumeLease: time.Millisecond, Mode: core.ModeEager},
	})
	if err != nil {
		return err
	}
	defer short.Close()
	if err := short.AddVolume("v"); err != nil {
		return err
	}
	rc, err := client.Dial(transport.TCP{}, short.Addr(), client.Config{ID: "renewer", Skew: 5 * time.Millisecond})
	if err != nil {
		return err
	}
	defer rc.Close()
	var rounds []float64
	for i := 0; i < renews; i++ {
		start := nowNs()
		if err := rc.RenewVolume("v"); err != nil {
			return err
		}
		rounds = append(rounds, float64(nowNs()-start))
	}
	out["client.vol_renew_us"] = metric{medianNs(rounds) / 1e3, "us"}
	return nil
}
