package main

import (
	"sync/atomic"
	"time"

	"adhocbcast/internal/core"
	"adhocbcast/internal/sim"
)

// protoLedger sums what the timing wrapper measures over every wrapped
// instance of a run. The live cluster runs one instance per node goroutine
// and the fast engine calls PrecomputeTimer from worker goroutines, so the
// fields are atomic.
type protoLedger struct {
	selfNS       atomic.Int64 // protocol time minus nested Runtime calls
	calls        atomic.Int64 // protocol callbacks, PrecomputeTimer included
	runtimeCalls atomic.Int64 // Runtime calls made by the protocol
}

// wrapProtocol returns p behind a timing wrapper that records into led. The
// wrapper implements sim.TimerPrecomputer and sim.NonDesignating exactly when
// p does, so the engine takes the same path with or without it.
func wrapProtocol(p sim.Protocol, led *protoLedger) sim.Protocol {
	base := &timedProtocol{inner: p, led: led}
	tp, isTP := p.(sim.TimerPrecomputer)
	nd, isND := p.(sim.NonDesignating)
	switch {
	case isTP && isND:
		return timedTPND{timedTP{base, tp}, nd}
	case isTP:
		return timedTP{base, tp}
	case isND:
		return timedND{base, nd}
	}
	return base
}

// timedProtocol forwards every callback to the wrapped protocol, handing it a
// timedRuntime, and books the callback's duration minus its nested Runtime
// time as protocol self time. Executors call an instance's callbacks one at a
// time from their own loop (the simulator's event loop, or the node's
// goroutine for live timers and receipts), never from inside a Runtime call,
// which is what lets the nested-time accumulator live in the instance.
type timedProtocol struct {
	inner sim.Protocol
	led   *protoLedger
	rt    timedRuntime
}

func (p *timedProtocol) Name() string { return p.inner.Name() }

func (p *timedProtocol) Init(rt sim.Runtime) {
	t0 := p.enter(rt)
	p.inner.Init(&p.rt)
	p.exit(t0)
}

func (p *timedProtocol) Start(rt sim.Runtime, source int) {
	t0 := p.enter(rt)
	p.inner.Start(&p.rt, source)
	p.exit(t0)
}

func (p *timedProtocol) OnReceive(rt sim.Runtime, v int, r sim.Receipt) {
	t0 := p.enter(rt)
	p.inner.OnReceive(&p.rt, v, r)
	p.exit(t0)
}

func (p *timedProtocol) OnTimer(rt sim.Runtime, v int) {
	t0 := p.enter(rt)
	p.inner.OnTimer(&p.rt, v)
	p.exit(t0)
}

func (p *timedProtocol) enter(rt sim.Runtime) time.Time {
	p.rt.inner = rt
	p.rt.nested, p.rt.calls = 0, 0
	return time.Now()
}

func (p *timedProtocol) exit(t0 time.Time) {
	p.led.selfNS.Add(time.Since(t0).Nanoseconds() - p.rt.nested)
	p.led.calls.Add(1)
	p.led.runtimeCalls.Add(p.rt.calls)
}

type timedTP struct {
	*timedProtocol
	tp sim.TimerPrecomputer
}

// PrecomputeTimer runs on several engine worker goroutines at once, but never
// while another callback of the instance runs. It reads the *sim.Network
// directly, so its whole duration is protocol time, booked atomically.
func (p timedTP) PrecomputeTimer(net *sim.Network, v int, ev *core.Evaluator) (bool, bool) {
	t0 := time.Now()
	covered, ok := p.tp.PrecomputeTimer(net, v, ev)
	p.led.selfNS.Add(time.Since(t0).Nanoseconds())
	p.led.calls.Add(1)
	return covered, ok
}

type timedND struct {
	*timedProtocol
	nd sim.NonDesignating
}

func (p timedND) NonDesignating() bool { return p.nd.NonDesignating() }

type timedTPND struct {
	timedTP
	nd sim.NonDesignating
}

func (p timedTPND) NonDesignating() bool { return p.nd.NonDesignating() }

// timedRuntime is the sim.Runtime the wrapped protocol sees: every call is
// forwarded to the executor's Runtime and its duration added to nested.
type timedRuntime struct {
	inner  sim.Runtime
	nested int64
	calls  int64
}

func (t *timedRuntime) book(t0 time.Time) {
	t.nested += time.Since(t0).Nanoseconds()
	t.calls++
}

func (t *timedRuntime) N() int {
	defer t.book(time.Now())
	return t.inner.N()
}

// ForEachLocalNode books only the iteration itself as Runtime time: the time
// spent in yield is protocol code (its own Runtime calls are booked by them).
func (t *timedRuntime) ForEachLocalNode(yield func(v int)) {
	t0 := time.Now()
	var inYield int64
	t.inner.ForEachLocalNode(func(v int) {
		y0 := time.Now()
		yield(v)
		inYield += time.Since(y0).Nanoseconds()
	})
	t.nested -= inYield
	t.book(t0)
}

func (t *timedRuntime) State(v int) *sim.NodeState {
	defer t.book(time.Now())
	return t.inner.State(v)
}

func (t *timedRuntime) SetTimer(v int, delay float64) {
	defer t.book(time.Now())
	t.inner.SetTimer(v, delay)
}

func (t *timedRuntime) MarkNonForward(v int) {
	defer t.book(time.Now())
	t.inner.MarkNonForward(v)
}

func (t *timedRuntime) Transmit(v int, designated []int) {
	defer t.book(time.Now())
	t.inner.Transmit(v, designated)
}

func (t *timedRuntime) TransmitExtra(v int, designated, extra []int) {
	defer t.book(time.Now())
	t.inner.TransmitExtra(v, designated, extra)
}

func (t *timedRuntime) RandomBackoff() float64 {
	defer t.book(time.Now())
	return t.inner.RandomBackoff()
}

func (t *timedRuntime) DegreeBackoff(v int) float64 {
	defer t.book(time.Now())
	return t.inner.DegreeBackoff(v)
}

func (t *timedRuntime) ConservativeHold(v int) bool {
	defer t.book(time.Now())
	return t.inner.ConservativeHold(v)
}

func (t *timedRuntime) TakePreparedCovered(v int) (bool, bool) {
	defer t.book(time.Now())
	return t.inner.TakePreparedCovered(v)
}

// Evaluator hands out the executor's evaluator; the coverage evaluation the
// protocol then runs on it is protocol time.
func (t *timedRuntime) Evaluator() *core.Evaluator {
	defer t.book(time.Now())
	return t.inner.Evaluator()
}

func (t *timedRuntime) Now() float64 {
	defer t.book(time.Now())
	return t.inner.Now()
}
