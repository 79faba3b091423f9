package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// scale-steady: Generic-FR broadcasts at n=20,000, d=18 from rotating
// sources, one reused sim.Arena, Workers=1. The first broadcast warms the
// arena and counts as set-up. The sources are the nodes nearest a 3×3
// lattice over the area, so they cover it evenly and a run's latency does
// not hinge on how central a few random sources happen to be.
const (
	scaleN        = 20000
	scaleDegree   = 18
	scaleLattice  = 3
	scaleSetups   = 3
	scalePass     = 4                           // broadcasts per regen_s pass
	scalePrefix   = scaleLattice * scaleLattice // broadcasts the simulated metrics are taken over
	scaleReplay   = 6                           // broadcasts replayed traced
	scaleSpeedups = 3                           // broadcast pairs timed at Workers=1 and GOMAXPROCS
)

func newFR() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }

type scaleState struct {
	g       *graph.Graph
	sources []int
	arena   *sim.Arena
	rec     *obsv.RunRecord
}

func (s *scaleState) source(op int) int { return s.sources[op%len(s.sources)] }

func (s *scaleState) config(seed int64, workers int) sim.Config {
	return sim.Config{Hops: 2, Seed: seed, Workers: workers, Metrics: s.rec}
}

func scaleSetup(e *env) (*scaleState, error) {
	rng := rand.New(rand.NewSource(e.seed))
	var net *geo.Network
	err := e.tr.timed(0, -1, "geo.Generate", func() (err error) {
		net, err = geo.Generate(geo.Config{N: scaleN, AvgDegree: scaleDegree, Seed: e.seed}, rng)
		return err
	})
	if err != nil {
		return nil, err
	}
	st := &scaleState{g: net.G, arena: sim.NewArena(), rec: obsv.NewRunRecord()}
	side := 100.0 // geo's default deployment area
	for i := 0; i < scaleLattice; i++ {
		for j := 0; j < scaleLattice; j++ {
			at := geo.Point{X: (float64(i) + 0.5) * side / scaleLattice, Y: (float64(j) + 0.5) * side / scaleLattice}
			best := 0
			for v, p := range net.Pos {
				if p.Distance(at) < net.Pos[best].Distance(at) {
					best = v
				}
			}
			st.sources = append(st.sources, best)
		}
	}
	res, err := sim.RunWith(st.arena, st.g, rng.Intn(scaleN), newFR(), st.config(e.seed, 1))
	if err != nil {
		return nil, err
	}
	if !res.FullDelivery() {
		return nil, fmt.Errorf("set-up broadcast delivered %d/%d", res.Delivered, res.N)
	}
	return st, nil
}

func runScaleSteady(e *env) (*report, error) {
	rep := newReport()
	st, setup, err := repeatSetup(scaleSetups, func() (*scaleState, error) { return scaleSetup(e) })
	if err != nil {
		return nil, err
	}
	budget := e.budget
	if e.traced() {
		budget /= 2
	}
	var results []sim.Result
	var p99 []float64
	u0, g0 := readUsage(), readGo()
	times, err := closedLoop(budget, scalePrefix, func(i int) error {
		res, err := sim.RunWith(st.arena, st.g, st.source(i), newFR(), st.config(e.seed, 1))
		if err != nil {
			return err
		}
		if i < scalePrefix {
			p99 = append(p99, histQuantile(st.rec.Latency, 0.99))
		}
		results = append(results, res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	u1 := readUsage()
	recordGo(rep.layer, g0, len(times))
	rep.attempted += len(results)
	var fwd, delivered, n float64
	for i, res := range results {
		if !res.FullDelivery() {
			rep.failed++
		}
		if i < scalePrefix {
			fwd += float64(res.ForwardCount()) / float64(res.N)
			delivered += float64(res.Delivered)
			n += float64(res.N)
		}
	}
	opMS := make([]float64, len(times))
	var total time.Duration
	for i, d := range times {
		opMS[i] = ms(d)
		total += d
	}
	rep.endToEnd = map[string]float64{
		"setup_s":           setup,
		"peak_rss_mb":       u1.peakMB,
		"cpu_ms_per_op":     ms(u1.cpu-u0.cpu) / float64(len(times)),
		"regen_s":           median(passes(times, scalePass)),
		"bcast_ms_p50":      median(opMS),
		"sessions_per_s":    float64(len(times)) / total.Seconds(),
		"wave_ms_p50":       median(opMS),
		"wave_ms_p90":       quantile(opMS, 0.9),
		"fwd_ratio":         fwd / scalePrefix,
		"delivery_pct":      100 * delivered / n,
		"latency_p99_slots": median(p99),
	}
	if !e.traced() {
		return rep, nil
	}
	if err := scaleTraced(e, st, results, opMS, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// scaleTraced replays the first broadcasts behind the timing wrapper and
// compares each result with its untraced run, then times Workers=1 against
// Workers=GOMAXPROCS and probes the views.
func scaleTraced(e *env, st *scaleState, untraced []sim.Result, untracedMS []float64, rep *report) error {
	led := &simLedger{}
	replay := min(scaleReplay, len(untraced))
	var tracedMS []float64
	for i := 0; i < replay; i++ {
		op := int64(i + 1)
		root := e.tr.begin(op, -1, "op")
		id := e.tr.begin(op, root, "sim.RunWith")
		t0 := time.Now()
		res, err := sim.RunWith(st.arena, st.g, st.source(i), wrapProtocol(newFR(), &led.proto), st.config(e.seed, 1))
		d := time.Since(t0)
		e.tr.end(id)
		e.tr.end(root)
		if err != nil {
			return err
		}
		led.ops++
		led.add(st.rec, d)
		tracedMS = append(tracedMS, ms(d))
		rep.attempted++
		if !res.FullDelivery() || !reflect.DeepEqual(res, untraced[i]) {
			rep.failed++
		}
	}
	led.record(rep.layer)
	base := median(untracedMS[:replay])
	rep.layer["trace.overhead_pct"] = 100 * (median(tracedMS) - base) / base

	workers := runtime.GOMAXPROCS(0)
	var one, many []float64
	for i := 0; i < scaleSpeedups; i++ {
		var ref sim.Result
		for _, w := range []int{1, workers} {
			op := int64(100 + i)
			id := e.tr.begin(op, -1, fmt.Sprintf("sim.RunWith/workers=%d", w))
			t0 := time.Now()
			res, err := sim.RunWith(st.arena, st.g, st.source(i), newFR(), st.config(e.seed, w))
			d := time.Since(t0)
			e.tr.end(id)
			if err != nil {
				return err
			}
			rep.attempted++
			if w == 1 {
				ref = res
				one = append(one, ms(d))
			} else {
				many = append(many, ms(d))
			}
			if !res.FullDelivery() || !reflect.DeepEqual(res, ref) {
				rep.failed++
			}
		}
	}
	rep.layer["sim.precompute_speedup"] = median(one) / median(many)

	var vp viewProbe
	vp.run(e, 200, st.g, []int{2}, 10)
	vp.record(rep.layer)
	recordGeo(e, rep.layer)
	return nil
}

// passes sums consecutive groups of k operation times into pass times in
// seconds, dropping an incomplete last group.
func passes(times []time.Duration, k int) []float64 {
	var out []float64
	for i := 0; i+k <= len(times); i += k {
		var sum time.Duration
		for _, d := range times[i : i+k] {
			sum += d
		}
		out = append(out, sum.Seconds())
	}
	return out
}

// recordGeo books the geo.Generate spans of the run.
func recordGeo(e *env, layer map[string]float64) {
	d := e.tr.durationsMS("geo.Generate")
	layer["geo.calls"] = float64(len(d))
	layer["geo.generate_ms"] = mean(d)
}
