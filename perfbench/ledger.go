package main

import (
	"time"

	"adhocbcast/internal/obsv"
)

// simLedger sums the traced simulator operations of a run: the time inside
// sim.RunWith / sim.RunTrafficWith, the protocol wrapper's ledger, and the
// run records' counters.
type simLedger struct {
	proto     protoLedger
	ops       int
	engine    time.Duration // RunWith / RunTrafficWith wall time
	receipts  int
	copies    int
	deferrals int
	qdrops    int
	collided  int
	nacks     int
	retx      int
}

func (s *simLedger) add(rec *obsv.RunRecord, d time.Duration) {
	s.engine += d
	s.receipts += rec.Receipts
	s.copies += rec.Copies
	s.deferrals += rec.MACDeferrals
	s.qdrops += rec.QueueDrops
	s.collided += rec.Collided
	s.nacks += rec.NACKs
	s.retx += rec.Retransmits
}

// record books per-op averages (ops as the workload defines them) into layer.
func (s *simLedger) record(layer map[string]float64) {
	if s.ops == 0 {
		return
	}
	ops := float64(s.ops)
	self := s.proto.selfNS.Load()
	engineSelf := s.engine.Nanoseconds() - self
	layer["protocol.self_s"] = float64(self) / 1e9 / ops
	layer["protocol.calls"] = float64(s.proto.calls.Load()) / ops
	layer["sim.engine_self_s"] = float64(engineSelf) / 1e9 / ops
	if s.receipts > 0 {
		layer["sim.ns_per_receipt"] = float64(engineSelf) / float64(s.receipts)
	}
	layer["sim.receipts"] = float64(s.receipts) / ops
	layer["sim.copies"] = float64(s.copies) / ops
	layer["sim.runtime_calls"] = float64(s.proto.runtimeCalls.Load()) / ops
	layer["mac.deferrals"] = float64(s.deferrals) / ops
	layer["mac.queue_drops"] = float64(s.qdrops) / ops
	layer["mac.collided"] = float64(s.collided) / ops
	if s.copies > 0 {
		layer["mac.useful_ratio"] = float64(s.receipts) / float64(s.copies)
	}
	layer["nack.requests"] = float64(s.nacks) / ops
	layer["nack.retransmits"] = float64(s.retx) / ops
}
