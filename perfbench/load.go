package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/traffic"
)

// load-contention: n=100, d=6, 8 Poisson sources over 400 slots at 0.2
// sessions/slot through the carrier-sense MAC with 8-packet queues; one
// replicate runs the four -ext load variants on one network and plan.
const (
	loadN        = 100
	loadDegree   = 6
	loadSources  = 8
	loadRate     = 0.2 // sessions per slot, network-wide
	loadHorizon  = 400
	loadQueueCap = 8
	loadInputs   = 16 // distinct (network, plan) inputs; one pass runs each once
	loadSetups   = 9
)

type loadVariant struct {
	make func() sim.Protocol
	nack bool
}

var loadVariants = []loadVariant{
	{make: protocol.Flooding},
	{make: newFR},
	{make: newFRB},
	{make: newFRB, nack: true},
}

func newFRB() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) }

type loadInput struct {
	seed     int64
	g        *graph.Graph
	sessions []sim.SessionSpec
}

func loadSetup(e *env) ([]loadInput, error) {
	inputs := make([]loadInput, loadInputs)
	for r := range inputs {
		seed := e.seed*loadInputs + int64(r)
		rng := rand.New(rand.NewSource(seed))
		var net *geo.Network
		err := e.tr.timed(int64(r), -1, "geo.Generate", func() (err error) {
			net, err = geo.Generate(geo.Config{N: loadN, AvgDegree: loadDegree, Seed: seed}, rng)
			return err
		})
		if err != nil {
			return nil, err
		}
		var plan *traffic.Plan
		err = e.tr.timed(int64(r), -1, "traffic.Poisson", func() (err error) {
			plan, err = traffic.Poisson(traffic.Config{
				N: loadN, Sources: loadSources, Rate: loadRate / loadSources,
				Horizon: loadHorizon, Seed: seed + 2,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		in := loadInput{seed: seed, g: net.G}
		for _, m := range plan.Messages {
			in.sessions = append(in.sessions, sim.SessionSpec{Source: m.Source, At: m.At})
		}
		inputs[r] = in
	}
	return inputs, nil
}

// loadRun is one variant's traffic run on one input.
type loadRun struct {
	res       sim.TrafficResult
	conserved bool
}

// replicate runs every variant on in, wrapping the protocols into led when
// it is non-nil, and returns the runs in variant order.
func (in loadInput) replicate(e *env, op int64, arena *sim.Arena, rec *obsv.RunRecord, led *simLedger) ([]loadRun, error) {
	runs := make([]loadRun, len(loadVariants))
	root := e.tr.begin(op, -1, "op")
	defer e.tr.end(root)
	for vi, v := range loadVariants {
		mk := v.make
		if led != nil {
			mk = func() sim.Protocol { return wrapProtocol(v.make(), &led.proto) }
		}
		id := e.tr.begin(op, root, "sim.RunTrafficWith")
		t0 := time.Now()
		res, err := sim.RunTrafficWith(arena, in.g, in.sessions, mk, sim.Config{
			Hops: 2, Seed: in.seed + 1, CarrierSense: true, TxQueueCap: loadQueueCap,
			NACKRecovery: v.nack, Metrics: rec,
		})
		d := time.Since(t0)
		e.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("variant %d: %w", vi, err)
		}
		if led != nil {
			led.ops += res.Sessions
			led.add(rec, d)
		}
		runs[vi] = loadRun{res: res, conserved: rec.Conserved()}
	}
	return runs, nil
}

func runLoadContention(e *env) (*report, error) {
	rep := newReport()
	inputs, setup, err := repeatSetup(loadSetups, func() ([]loadInput, error) { return loadSetup(e) })
	if err != nil {
		return nil, err
	}
	budget := e.budget
	if e.traced() {
		budget /= 2
	}
	arena, rec := sim.NewArena(), obsv.NewRunRecord()
	var reps [][]loadRun
	plain := e.untraced()
	u0, g0 := readUsage(), readGo()
	times, err := closedLoop(budget, loadInputs, func(i int) error {
		runs, err := inputs[i%loadInputs].replicate(plain, int64(i), arena, rec, nil)
		reps = append(reps, runs)
		return err
	})
	if err != nil {
		return nil, err
	}
	u1 := readUsage()
	var sessions int
	perSession := make([]float64, len(times))
	for i, runs := range reps {
		repSessions := 0
		for _, r := range runs {
			repSessions += r.res.Sessions
			if !r.conserved {
				rep.failed += r.res.Sessions
			}
		}
		sessions += repSessions
		perSession[i] = ms(times[i]) / float64(repSessions)
	}
	recordGo(rep.layer, g0, sessions)
	rep.attempted += sessions
	var fwd, delivered, pairs float64
	var p99 []float64
	for _, runs := range reps[:loadInputs] {
		for _, r := range runs {
			fwd += float64(r.res.Forward)
			delivered += float64(r.res.Delivered)
			pairs += float64(r.res.Sessions * r.res.N)
			p99 = append(p99, r.res.LatencyP99)
		}
	}
	repMS := make([]float64, len(times))
	var total time.Duration
	for i, d := range times {
		repMS[i] = ms(d)
		total += d
	}
	rep.endToEnd = map[string]float64{
		"setup_s":           setup,
		"peak_rss_mb":       u1.peakMB,
		"cpu_ms_per_op":     ms(u1.cpu-u0.cpu) / float64(sessions),
		"regen_s":           median(passes(times, loadInputs)),
		"bcast_ms_p50":      median(perSession),
		"sessions_per_s":    float64(sessions) / total.Seconds(),
		"wave_ms_p50":       median(repMS),
		"wave_ms_p90":       quantile(repMS, 0.9),
		"fwd_ratio":         fwd / pairs,
		"delivery_pct":      100 * delivered / pairs,
		"latency_p99_slots": mean(p99),
	}
	if !e.traced() {
		return rep, nil
	}

	led := &simLedger{}
	replay := min(loadInputs, len(reps))
	var tracedMS []float64
	for i := 0; i < replay; i++ {
		t0 := time.Now()
		runs, err := inputs[i].replicate(e, int64(i), arena, rec, led)
		if err != nil {
			return nil, err
		}
		tracedMS = append(tracedMS, ms(time.Since(t0)))
		for vi, r := range runs {
			rep.attempted += r.res.Sessions
			if !r.conserved || !reflect.DeepEqual(r.res, reps[i][vi].res) {
				rep.failed += r.res.Sessions
			}
		}
	}
	led.record(rep.layer)
	base := median(repMS[:replay])
	rep.layer["trace.overhead_pct"] = 100 * (median(tracedMS) - base) / base

	plans := e.tr.durationsMS("traffic.Poisson")
	rep.layer["traffic.plan_ms"] = mean(plans)
	var planned int
	for _, in := range inputs {
		planned += len(in.sessions)
	}
	rep.layer["traffic.sessions"] = float64(planned) / float64(len(inputs))
	var vp viewProbe
	for _, in := range inputs {
		vp.run(e, -1, in.g, []int{2}, 1)
	}
	vp.record(rep.layer)
	recordGeo(e, rep.layer)
	return rep, nil
}
