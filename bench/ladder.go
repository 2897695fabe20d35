package main

import (
	"fmt"
	"time"

	"saferatt/internal/rattd"
	"saferatt/internal/transport"
)

// The ladder pushes wire_erasmus's own report stream — same fleet, same
// templates, whole rounds of fresh counters — through four rungs, each
// adding one layer to the one before:
//
//	codec       encode + decode of every frame an op puts on the wire
//	ingest      Server.Ingest direct, no transport at all
//	net_inproc  transport.Net client -> transport.Net server in this process
//	net_xproc   the real child daemon, closed loop (erasmus.capacity_per_s)
//
// The rungs subtract to per-layer cost. What the in-process rungs do
// not explain of the cross-process figure is reported as
// ladder.unattributed_share, not hidden; it goes negative when two
// processes on two CPUs overlap work that one process on one P (the
// generator's host rule) serializes.
func runLadder(cfg runConfig, res *runResult, fl *fleet, xprocReportsPerS float64) error {
	h := fl.history
	round0, err := fl.bundle(0)
	if err != nil {
		return err
	}
	round1, err := fl.bundle(1)
	if err != nil {
		return err
	}

	// Rung 1: the codec work of one op — the collection frame out, the
	// verdict frame back, and an ack for each.
	var buf, ack []byte
	var f transport.Frame
	start := time.Now()
	for i, name := range fl.names {
		id := uint64(i + 1)
		m := transport.Msg{From: name, To: "rattd", Kind: transport.KindCollection, ReqID: id, Reports: round1}
		buf = transport.AppendFrame(buf[:0], &m)
		if err := transport.DecodeFrameInto(buf, &f); err != nil {
			return err
		}
		v := transport.Msg{From: "rattd", To: name, Kind: transport.KindVerdict, ReqID: id, OK: true}
		buf = transport.AppendFrame(buf[:0], &v)
		if err := transport.DecodeFrameInto(buf, &f); err != nil {
			return err
		}
		for k := 0; k < 2; k++ {
			ack = transport.AppendAck(ack[:0], id)
			if err := transport.DecodeFrameInto(ack, &f); err != nil {
				return err
			}
		}
	}
	reports := float64(len(fl.names) * h)
	codec := float64(time.Since(start).Nanoseconds()) / reports

	// Rung 2: the verify path alone.
	srv := localServer(rattd.Config{Ref: fl.image, BlockSize: fl.block}, fl.names)
	v0, v1 := values(round0), values(round1)
	for _, name := range fl.names {
		srv.Ingest(name, transport.KindCollection, v0)
	}
	start = time.Now()
	for _, name := range fl.names {
		srv.Ingest(name, transport.KindCollection, v1)
	}
	ingest := float64(time.Since(start).Nanoseconds()) / reports
	if c := srv.Counts(); c.Rejected != 0 {
		return fmt.Errorf("ladder ingest rung rejected %d reports", c.Rejected)
	}
	srv.Close()

	// Rung 3: both transport ends and the server in this process.
	listen, err := transport.Listen(transport.NetConfig{})
	if err != nil {
		return err
	}
	defer listen.Close()
	nsrv, err := rattd.Serve(listen, rattd.Config{Ref: fl.image, BlockSize: fl.block})
	if err != nil {
		return err
	}
	defer nsrv.Close()
	or := newOracle()
	cl, err := newCollectClient(listen.Addr().String(), fl, cfg.sz.erasmusDepth, or)
	if err != nil {
		return err
	}
	defer cl.close()
	prover, round := 0, 0
	next := cl.sequential(&prover, &round)
	if err := cl.pump(take(len(fl.names), next), pacing{}, time.Time{}); err != nil {
		return err
	}
	w := newSliceWindow(time.Now(), cfg.sz.second, 2)
	cl.onAccept = func(at time.Time, rtt, late time.Duration) { w.observe(at, rtt, late, int64(h)) }
	if err := cl.pump(next, pacing{}, w.end()); err != nil {
		return err
	}
	or.close()
	res.oracle.check(or.correct(), "ladder net_inproc rung: %d of %d ops failed", or.failed, or.attempted)
	netInproc := 1e9 / w.rate()
	xproc := 1e9 / xprocReportsPerS

	res.put("ladder.codec_ns_per_report", codec, len(fl.names))
	res.put("ladder.ingest_ns_per_report", ingest, len(fl.names))
	res.put("ladder.net_inproc_ns_per_report", netInproc, int(w.total()))
	res.put("ladder.net_xproc_ns_per_report", xproc, 0)
	res.put("ladder.transport_share", 1-ingest/xproc, 0)
	res.put("ladder.unattributed_share", (xproc-netInproc)/xproc, 0)
	res.logf("ladder ns/report: codec %.0f | ingest %.0f | net in-process %.0f | net cross-process %.0f; socket+rings+acks ~ %.0f, process split ~ %.0f",
		codec, ingest, netInproc, xproc, netInproc-ingest-codec, xproc-netInproc)
	return nil
}
